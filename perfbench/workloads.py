"""The benchmark workloads: inputs from a seed, set-up, one operation, checks.

Every workload is a closed loop from a single client: ``op(i)`` runs the
i-th operation only after the previous one has returned.  An operation is
one theta point, one probe, or (for the pool) one ``cmvscat scatter``
invocation covering a whole theta grid; ``op`` returns one
:class:`PointResult` per point it computed.

Theta sequences are golden-ratio rotations from a seeded start, so any
prefix of a sequence covers the circle evenly and a run that stops after
k points has sampled the whole circle, whatever k is.
"""
from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

import cmvscat
from cmvscat import cli, dynamics, resolvent

UNITARITY_TOL = 1e-3
MOEBIUS_TOL = 1e-6
ESCAPED_TOL = 1e-10
DIGITS_CAP = 16.0

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class PointResult:
    ok: bool
    unitarity_defect: float = float("nan")
    moebius_gap: float = float("nan")


def golden_theta(start, i):
    return 2.0 * math.pi * ((start + _GOLDEN * i) % 1.0)


def digits(defects):
    """-log10 of the largest defect, capped; None when nothing was measured."""
    vals = [d for d in defects if math.isfinite(d)]
    if not vals:
        return None
    worst = max(vals)
    return DIGITS_CAP if worst <= 10.0 ** -DIGITS_CAP else -math.log10(worst)


def clear_caches():
    """Drop the package's truncation cache so a repeated set-up starts cold."""
    cache_clear = getattr(getattr(resolvent, "_truncate_cached", None), "cache_clear", None)
    if cache_clear is not None:
        cache_clear()


# -- output checks ---------------------------------------------------------------

def unitarity_defect(sample):
    """max |s* s - I| over the active channels, recomputed from s."""
    s = sample.s
    if sample.support_l and sample.support_r:
        return float(np.max(np.abs(s.conj().T @ s - np.eye(2))))
    if sample.support_l:
        return float(abs(abs(s[0, 0]) - 1.0))
    if sample.support_r:
        return float(abs(abs(s[1, 1]) - 1.0))
    return 0.0


def check_sample(sample):
    """A converged sample with unitary s and Moebius-consistent diagonals."""
    if not sample.converged:
        return PointResult(ok=False)
    defect = unitarity_defect(sample)
    gap = max(abs(sample.s_ll - sample.diag_moebius[0]),
              abs(sample.s_rr - sample.diag_moebius[1]))
    ok = defect <= UNITARITY_TOL and gap <= MOEBIUS_TOL
    return PointResult(ok=bool(ok), unitarity_defect=defect, moebius_gap=float(gap))


def check_probe(result, horizon):
    """Mass conserved to round-off, masses in [0, 1], horizon reached."""
    ok = (abs(result.escaped) <= ESCAPED_TOL
          and 0.0 <= result.left_mass <= 1.0 and 0.0 <= result.right_mass <= 1.0
          and result.steps == horizon and not result.edge_contact)
    return PointResult(ok=bool(ok))


def report_rows(text):
    """Report lines that must be identical between runs of one config."""
    return [line for line in text.splitlines() if not line.startswith("# generated:")]


def check_report(text, reference_text):
    """One result per reference data row: identical row, converged, unitary.

    Every row fails when the report's header or summary lines differ.
    """
    rows, ref = report_rows(text), report_rows(reference_text)
    columns = next(line for line in ref if line.startswith("theta,")).split(",")
    i_conv, i_unit = columns.index("converged"), columns.index("unitarity_defect")
    pairs = list(itertools.zip_longest(rows, ref, fillvalue=""))
    frame_ok = all(got == want for got, want in pairs
                   if want.startswith(("#", "theta,")))
    out = []
    for got, want in pairs:
        if want.startswith(("#", "theta,")):
            continue
        fields = want.split(",")
        defect = float(fields[i_unit])
        ok = frame_ok and got == want and fields[i_conv] == "true" and defect <= UNITARITY_TOL
        out.append(PointResult(ok=bool(ok), unitarity_defect=defect))
    return out


# -- workloads ---------------------------------------------------------------------

class SweepRandomDecay:
    """ScatteringCalculator.sample on random_decay(seed, 0.5), n = 0 and 1."""

    name = "sweep-random-decay"
    trace_ops = 6

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.start = float(rng.uniform())
        seq = cmvscat.random_decay(self.seed, 0.5)
        self.calcs = [cmvscat.ScatteringCalculator(seq, n) for n in (0, 1)]
        return self.op(-1)

    def op(self, i):
        return [check_sample(self.calcs[i % 2].sample(golden_theta(self.start, i)))]


class ProbeBarrier:
    """reflection_probe on single_barrier(0, a); matvecs only, no solves.

    The window and horizon keep every packet away from the window edges:
    packets start 500-700 sites left of the barrier and move about 2 sites
    per step, so edge contact would come after roughly 4200 steps.  A probe
    this long (about 0.6 s) averages over the host's second-scale speed
    swings, which make the latencies of shorter probes bimodal.
    """

    name = "probe-barrier"
    trace_ops = 6
    HALF_WINDOW = 8192
    HORIZON = 3600

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self):
        rng = np.random.default_rng(self.seed)
        amp = float(rng.uniform(0.3, 0.8)) * np.exp(2j * np.pi * rng.uniform())
        self.seq = cmvscat.single_barrier(0, amp)
        self.window = cmvscat.Window(-self.HALF_WINDOW, self.HALF_WINDOW)
        self.centers = rng.integers(-700, -500, size=256)
        self.widths = rng.uniform(30.0, 50.0, size=256)
        return self.op(-1)

    def op(self, i):
        k = i % len(self.centers)
        packet = dynamics.WavePacket(center=int(self.centers[k]), width=float(self.widths[k]),
                                     theta0=math.pi / 2)
        res = dynamics.reflection_probe(self.seq, 0, packet, self.HORIZON, self.window)
        return [check_probe(res, self.HORIZON)]


class ScatterCliPool:
    """``cmvscat scatter`` in process with one pool worker per core.

    Every operation runs the same config, so every report must equal the
    in-process (one worker) sweep of that grid apart from its timestamp.
    Each invocation forks fresh workers, whose first point fills their own
    truncation cache; with GRID points that is 2 of every GRID.  At 8 the
    slow first points sit well above the median and take in the tail
    percentile on every run; at 16 they were about as many as the points
    beyond it, so the tail jumped between them and the warm points.
    """

    name = "scatter-cli-pool"
    trace_ops = 1
    GRID = 8
    WARM_GRID = 2

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.workers = len(os.sched_getaffinity(0))
        self.reports = []

    def _config(self, count, offset, fname):
        raw = {
            "coefficients": {"kind": "random_decay", "params": {"seed": self.seed, "rate": 0.5}},
            "decoupling_n": 0,
            "window": {"a": -2048, "b": 2048},
            "theta_grid": {"count": count, "offset": offset},
            "job": "scattering-sweep",
            "output": {"path": os.path.join(self.workdir, fname + ".csv"), "format": "csv"},
        }
        path = os.path.join(self.workdir, fname + ".json")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        return raw, path

    def setup(self):
        rng = np.random.default_rng(self.seed)
        offset = float(rng.uniform())
        raw, self.config = self._config(self.GRID, offset, "scatter")
        self.out_path = raw["output"]["path"]
        cli.parse_config(raw)
        _, warm = self._config(self.WARM_GRID, offset, "warm")
        return [PointResult(ok=self._scatter(warm, self.workers) == 0)]

    def _scatter(self, config, workers, output=None):
        argv = ["scatter", config, "--workers", str(workers)]
        if output:
            argv += ["--output", output]
        return cli.main(argv)

    def op(self, i):
        text = ""
        if self._scatter(self.config, self.workers) == 0:
            with open(self.out_path) as fh:
                text = fh.read()
        self.reports.append(text)
        return []

    def verify(self):
        """Per-row results of every stored report against an in-process sweep."""
        ref_path = os.path.join(self.workdir, "reference.csv")
        if self._scatter(self.config, 1, ref_path) != 0:
            return [PointResult(ok=False)] * (self.GRID * len(self.reports))
        with open(ref_path) as fh:
            reference = fh.read()
        out = []
        for text in self.reports:
            out += (check_report(text, reference) if text
                    else [PointResult(ok=False)] * self.GRID)
        self.reports = []
        return out


WORKLOADS = {cls.name: cls for cls in
             (SweepRandomDecay, ProbeBarrier, ScatterCliPool)}
