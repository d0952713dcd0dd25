"""Batch front end: validated job configs in, CSV/JSON reports out.

Jobs are described by a JSON config (see ``cmvscat schema``) and selected
by subcommand; the config's ``job`` field must match the subcommand so a
config file is always self-describing.  Reports embed the resolved config
and the library version; identical configs produce byte-identical reports
up to the single timestamp line.  Per-sample numerical failures are
recorded in their row and never abort a sweep.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import lru_cache

import numpy as np

from . import __version__
from . import coefficients as coeffs
from .dynamics import WavePacket, reflection_probe
from .errors import CmvScatError, ConfigError
from .operator import Window, truncate
from .oracle import ORACLE_MAX_DIM, dense_green, dynamical_scattering, green
from .resolvent import RadialSchedule
from .scattering import ScatteringCalculator, off_diagonality_report, sweep, theta_grid
from .weyl import green_weyl

JOBS = ("density", "scattering-sweep", "reflectionless-report", "dynamics-probe",
        "oracle-check")
SUBCOMMAND_JOB = {
    "density": "density",
    "scatter": "scattering-sweep",
    "refl": "reflectionless-report",
    "probe": "dynamics-probe",
    "oracle": "oracle-check",
}

CSV_COLUMNS = {
    "density": ["theta", "density_l", "density_r", "err_l", "err_r", "converged"],
    "scattering-sweep": [
        "theta", "n", "s_ll_re", "s_ll_im", "s_lr_re", "s_lr_im",
        "s_rl_re", "s_rl_im", "s_rr_re", "s_rr_im", "density_l", "density_r",
        "unitarity_defect", "refl_residual", "converged", "support_l", "support_r",
    ],
    "reflectionless-report": [
        "theta", "refl_residual", "refl_err", "abs_s_ll", "abs_s_rr",
        "offdiagonal", "refl_ok", "straddle", "converged",
    ],
    "dynamics-probe": ["step", "left_mass", "right_mass", "escaped"],
    "oracle-check": ["check", "metric", "tolerance", "status"],
}

COLUMN_DOCS = {
    "theta": "angle of the boundary point e^{i theta}",
    "n": "decoupling site",
    "s_ll_re": "Re s_ll at theta", "s_ll_im": "Im s_ll at theta",
    "s_lr_re": "Re s_lr", "s_lr_im": "Im s_lr",
    "s_rl_re": "Re s_rl", "s_rl_im": "Im s_rl",
    "s_rr_re": "Re s_rr", "s_rr_im": "Im s_rr",
    "density_l": "a.c. density of the left half-line measure at site n-1",
    "density_r": "a.c. density of the right half-line measure at site n",
    "unitarity_defect": "max entry of |s* s - I| over the active channels",
    "refl_residual": "|M^l_n + conj(M^r_n)| at the boundary",
    "refl_err": "error estimate for refl_residual",
    "abs_s_ll": "|s_ll| boundary value", "abs_s_rr": "|s_rr| boundary value",
    "offdiagonal": "true when every active diagonal entry is below tol",
    "refl_ok": "true when refl_residual <= tol",
    "straddle": "true when an error bar overlaps the tolerance line",
    "converged": "all boundary extrapolations met tolerance",
    "err_l": "error estimate for density_l", "err_r": "error estimate for density_r",
    "step": "time step", "left_mass": "mass on sites < n",
    "right_mass": "mass on sites >= n", "escaped": "1 - left - right (drift)",
    "check": "oracle comparison name", "metric": "measured discrepancy",
    "tolerance": "documented tolerance", "status": "pass or fail",
    "support_l": "left channel active (density above threshold)",
    "support_r": "right channel active",
}


# -- config parsing -------------------------------------------------------------

def _require_keys(obj, allowed, required, where):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object, got {obj!r}")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    missing = set(required) - set(obj)
    if missing:
        raise ConfigError(f"missing key(s) {sorted(missing)} in {where}")


def _convert(kind, value, where):
    """kind(value), with a failed conversion reported as a ConfigError.

    No number is read off a bool, and an int is never read off a
    non-integral float, which int() would silently truncate.
    """
    if isinstance(value, bool) or (
            kind is int and isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{where}: expected {kind.__name__}, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: expected {kind.__name__}, got {value!r}") from exc


def _as_complex(value, where):
    if isinstance(value, (int, float)):
        return complex(value)
    if (isinstance(value, (list, tuple)) and len(value) == 2
            and all(isinstance(v, (int, float)) for v in value)):
        return complex(value[0], value[1])
    raise ConfigError(f"{where}: expected a number or [re, im] pair, got {value!r}")


def _build_sequence(spec):
    _require_keys(spec, ("kind", "params"), ("kind",), "coefficients")
    kind = spec["kind"]
    params = spec.get("params", {})
    try:
        if kind == "free":
            _require_keys(params, (), (), "coefficients.params")
            return coeffs.free()
        if kind == "constant":
            _require_keys(params, ("value",), ("value",), "coefficients.params")
            return coeffs.constant(_as_complex(params["value"], "constant value"))
        if kind == "single_barrier":
            _require_keys(params, ("site", "value"), ("site", "value"),
                          "coefficients.params")
            return coeffs.single_barrier(_convert(int, params["site"], "barrier site"),
                                         _as_complex(params["value"], "barrier value"))
        if kind == "random_decay":
            _require_keys(params, ("seed", "rate"), ("seed", "rate"),
                          "coefficients.params")
            return coeffs.random_decay(_convert(int, params["seed"], "random_decay seed"),
                                       _convert(float, params["rate"], "random_decay rate"))
        if kind == "periodic":
            _require_keys(params, ("values",), ("values",), "coefficients.params")
            if not isinstance(params["values"], list):
                raise ConfigError(f"periodic values must be a list, got {params['values']!r}")
            return coeffs.periodic([_as_complex(v, f"periodic value {i}")
                                    for i, v in enumerate(params["values"])])
        if kind == "explicit":
            _require_keys(params, ("values", "default"), ("values",),
                          "coefficients.params")
            if not isinstance(params["values"], dict):
                raise ConfigError(f"explicit values must be a JSON object, "
                                  f"got {params['values']!r}")
            table = {_convert(int, k, "explicit index"):
                     _as_complex(v, f"explicit value at index {k}")
                     for k, v in params["values"].items()}
            default = _as_complex(params.get("default", 0.0), "explicit default")
            return coeffs.explicit(table, default)
    except CmvScatError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown coefficient kind {kind!r}; "
                      f"expected one of {list(coeffs.KINDS)}")


@dataclass(frozen=True)
class JobConfig:
    seq: object
    n: int
    window: Window | None              # None when the config gives none
    thetas: np.ndarray
    schedule: RadialSchedule
    tol_unitarity: float
    tol_offdiag: float
    tol_wd: float
    job: str
    out_path: str
    out_format: str
    dynamics: dict
    raw: dict


DEFAULT_TOLERANCES = {"unitarity": 1e-3, "offdiag": 1e-3, "window_doubling": 1e-6}
DEFAULT_RADIAL = {"eps0": 1e-2, "levels": 6, "contraction": 0.5,
                  "extrapolation": "richardson"}
DEFAULT_GRID = {"count": 64, "offset": 0.5}
DYNAMICS_TYPES = {"center": int, "width": float, "theta0": float, "horizon": int}
# Sites index numpy int64 arrays, with room to spare for the stencils around them.
MAX_SITE = 2 ** 62
# Arrays are allocated per theta and per window site: 2**20 thetas are about
# 17 minutes of 1 ms samples, and 2**20 sites a 16 MB complex vector.
MAX_THETAS = 2 ** 20
MAX_WINDOW_SPAN = 2 ** 20


def _optional_section(raw, key, defaults):
    """``raw[key]`` over its defaults, each value converted to its default's type."""
    given = raw.get(key, {})
    _require_keys(given, tuple(defaults), (), key)
    section = {**defaults, **given}
    return {k: _convert(type(defaults[k]), v, f"{key}.{k}") for k, v in section.items()}


def parse_config(raw):
    top_keys = ("coefficients", "decoupling_n", "window", "theta_grid", "radial",
                "tolerances", "job", "output", "dynamics")
    _require_keys(raw, top_keys, ("coefficients", "decoupling_n", "job", "output"),
                  "config")
    seq = _build_sequence(raw["coefficients"])
    n = _convert(int, raw["decoupling_n"], "decoupling_n")

    window = None
    if "window" in raw:
        win_spec = raw["window"]
        _require_keys(win_spec, ("a", "b"), ("a", "b"), "window")
        try:
            window = Window(_convert(int, win_spec["a"], "window.a"),
                            _convert(int, win_spec["b"], "window.b"))
        except CmvScatError as exc:
            raise ConfigError(str(exc)) from exc

    grid = _optional_section(raw, "theta_grid", DEFAULT_GRID)
    if not 1 <= grid["count"] <= MAX_THETAS:
        raise ConfigError(f"theta_grid.count must lie in [1, 2**20], got {grid['count']}")
    # a non-finite or huge offset gives non-finite angles, or rounds its steps away
    with np.errstate(over="ignore"):
        thetas = theta_grid(grid["count"], grid["offset"])
    # theta_grid is non-decreasing, so distinct angles are strictly increasing ones
    if not (np.all(np.isfinite(thetas)) and np.all(np.diff(thetas) > 0)):
        raise ConfigError(
            f"theta_grid.offset {grid['offset']!r} does not give {grid['count']} finite, "
            "distinct angles")

    radial = _optional_section(raw, "radial", DEFAULT_RADIAL)
    try:
        schedule = RadialSchedule(**radial)
    except ValueError as exc:
        raise ConfigError(f"radial: {exc}") from exc

    tol = _optional_section(raw, "tolerances", DEFAULT_TOLERANCES)
    for key, value in tol.items():
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"tolerances.{key} must be finite and > 0, got {value!r}")

    job = raw["job"]
    if job not in JOBS:
        raise ConfigError(f"unknown job {job!r}; expected one of {list(JOBS)}")

    out = raw["output"]
    _require_keys(out, ("path", "format"), ("path",), "output")
    if not isinstance(out["path"], str) or not out["path"]:
        raise ConfigError(f"output.path must be a non-empty string, got {out['path']!r}")
    fmt = out.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"output.format must be csv or json, got {fmt!r}")

    dyn = raw.get("dynamics", {})
    if job == "dynamics-probe":
        if window is None:
            raise ConfigError("missing key(s) ['window'] in config; "
                              "dynamics-probe evolves on the config window")
        _require_keys(dyn, tuple(DYNAMICS_TYPES), ("center", "width", "horizon"),
                      "dynamics")
        dyn = {key: _convert(DYNAMICS_TYPES[key], value, f"dynamics.{key}")
               for key, value in dyn.items()}
        if dyn["horizon"] < 1:
            raise ConfigError(f"dynamics.horizon must be >= 1, got {dyn['horizon']}")
        for key in ("width", "theta0"):
            if not math.isfinite(dyn.get(key, 0.0)):
                raise ConfigError(f"dynamics.{key} must be finite, got {dyn[key]!r}")
        if dyn["width"] <= 0:
            raise ConfigError(f"dynamics.width must be > 0, got {dyn['width']!r}")
    elif dyn:
        raise ConfigError("dynamics section is only valid for the dynamics-probe job")

    sites = {"decoupling_n": n, "dynamics.center": dyn.get("center", 0)}
    if window is not None:
        sites.update({"window.a": window.a, "window.b": window.b})
    for key, site in sites.items():
        if abs(site) > MAX_SITE:
            raise ConfigError(f"{key} must lie within +-2**62, got {site}")
    if window is not None and window.b - window.a > MAX_WINDOW_SPAN:
        raise ConfigError(f"window.b - window.a must be <= 2**20, got {window.b - window.a}")

    return JobConfig(
        seq=seq, n=n, window=window, thetas=thetas, schedule=schedule,
        tol_unitarity=tol["unitarity"], tol_offdiag=tol["offdiag"],
        tol_wd=tol["window_doubling"], job=job,
        out_path=out["path"], out_format=fmt, dynamics=dyn, raw=raw,
    )


# -- report writing -------------------------------------------------------------

def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    v = float(value)
    return format(v, ".17g")


def _canonical_config(raw):
    return json.dumps(raw, sort_keys=True, separators=(",", ":"))


def _json_value(value):
    """A report value as strict JSON allows it: a non-finite float is null."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def write_report(path, fmt, columns, rows, raw_config, summary=None):
    """Write a CSV or JSON report.  CSV cells keep ``nan``; the JSON rows and
    the summary, which is JSON in both formats, write a non-finite number as
    null, since strict JSON has no NaN or Infinity."""
    stamp = datetime.now(timezone.utc).isoformat()
    if summary is not None:
        summary = {key: _json_value(value) for key, value in summary.items()}
    if fmt == "csv":
        lines = [
            f"# cmvscat version: {__version__}",
            f"# config: {_canonical_config(raw_config)}",
            f"# generated: {stamp}",
            ",".join(columns),
        ]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        if summary is not None:
            lines.append(f"# summary: {json.dumps(summary, sort_keys=True)}")
        text = "\n".join(lines) + "\n"
    else:
        doc = {
            "version": __version__,
            "config": raw_config,
            "generated": stamp,
            "columns": columns,
            "rows": [[v if isinstance(v, (bool, str)) else _json_value(float(v)) for v in row]
                     for row in rows],
        }
        if summary is not None:
            doc["summary"] = summary
        text = json.dumps(doc, sort_keys=True, indent=1) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


# -- jobs -----------------------------------------------------------------------

def _job_density(cfg):
    calc = ScatteringCalculator(cfg.seq, cfg.n, cfg.schedule, wd_tol=cfg.tol_wd)
    rows = []
    for theta in cfg.thetas:
        try:
            w = calc.weyl_boundary(theta)
            rows.append([theta, w.density_l, w.density_r, w.m_l.err_est, w.m_r.err_est,
                         w.m_l.converged and w.m_r.converged])
        except CmvScatError:
            rows.append([theta, float("nan"), float("nan"), float("nan"),
                         float("nan"), False])
    return rows, None


def _job_scatter(cfg):
    samples = sweep(cfg.seq, cfg.n, cfg.thetas, cfg.schedule, wd_tol=cfg.tol_wd)
    rows = []
    for s in samples:
        rows.append([
            s.theta, s.n,
            s.s_ll.real, s.s_ll.imag, s.s_lr.real, s.s_lr.imag,
            s.s_rl.real, s.s_rl.imag, s.s_rr.real, s.s_rr.imag,
            s.density_l, s.density_r, s.unitarity_defect, s.refl_residual,
            s.converged, s.support_l, s.support_r,
        ])
    n_conv = sum(1 for s in samples if s.converged)
    worst = max((s.unitarity_defect for s in samples
                 if s.converged and s.support_l and s.support_r), default=float("nan"))
    summary = {"converged": n_conv, "points": len(samples),
               "max_two_channel_unitarity_defect": worst,
               "above_unitarity_tol": _above_unitarity_tol(samples, cfg.tol_unitarity)}
    return rows, summary


def _above_unitarity_tol(samples, tol):
    """Converged samples whose unitarity defect exceeds tolerances.unitarity."""
    return sum(1 for s in samples if s.converged and s.unitarity_defect > tol)


def _job_refl(cfg):
    rep = off_diagonality_report(cfg.seq, cfg.n, cfg.thetas, tol=cfg.tol_offdiag,
                                 schedule=cfg.schedule, wd_tol=cfg.tol_wd)
    rows = []
    for s, od, rk, st in zip(rep.samples, rep.offdiag, rep.refl_ok, rep.straddle):
        rows.append([
            s.theta, s.refl_residual, s.err_refl, abs(s.s_ll), abs(s.s_rr),
            bool(od), bool(rk), bool(st), s.converged,
        ])
    summary = {**rep.summary,
               "above_unitarity_tol": _above_unitarity_tol(rep.samples, cfg.tol_unitarity)}
    return rows, summary


def _job_probe(cfg):
    dyn = cfg.dynamics
    packet = WavePacket(center=dyn["center"], width=dyn["width"],
                        theta0=dyn.get("theta0", 0.0))
    res = reflection_probe(cfg.seq, cfg.n, packet, horizon=dyn["horizon"],
                           window=cfg.window, record_series=True)
    rows = [[int(r[0]), r[1], r[2], r[3]] for r in res.series]
    summary = {"left_mass": res.left_mass, "right_mass": res.right_mass,
               "escaped": res.escaped, "steps": res.steps,
               "edge_contact": res.edge_contact}
    return rows, summary


def _job_oracle(cfg):
    """Fixed desk-scale comparisons of production paths against oracles."""
    rng = np.random.default_rng(2025)
    rows = []

    def record(name, metric, tol):
        rows.append([name, float(metric), float(tol),
                     "pass" if metric <= tol else "fail"])

    seq = cfg.seq
    win = Window(-64, 63)
    z = 0.4 + 0.2j
    G = dense_green(seq, win, z)
    worst = 0.0
    for i, j in [(-3, 2), (0, 0), (5, -4), (1, 1)]:
        g = green(seq, win, i, j, z)
        ref = G[win.index(i), win.index(j)]
        worst = max(worst, abs(g - ref) / max(1e-12, abs(ref)))
    record("green_vs_dense_rel", worst, 1e-10)

    U = truncate(seq, win).to_dense()
    record("dense_green_z0_vs_adjoint", float(np.max(np.abs(
        dense_green(seq, win, 0.0) - U.conj().T))), 1e-12)

    record("truncation_unitarity", truncate(seq, Window(-32, 31)).unitarity_defect(),
           1e-12)

    # the widest dense window: at |z| = 0.7 a narrower one still feels the cut
    wide = Window(-ORACLE_MAX_DIM // 2, ORACLE_MAX_DIM // 2 - 1)
    worst = 0.0
    for zm in (0.3, 0.7, 1.5):
        zz = zm * np.exp(1j * rng.uniform(0, 2 * np.pi))
        Gd = dense_green(seq, wide, zz)
        for k, kp, k0 in [(-2, 3, 0), (4, 4, 1)]:
            ref = Gd[wide.index(k), wide.index(kp)]
            got = green_weyl(seq, k, kp, zz, k0)
            worst = max(worst, abs(got - ref) / max(1e-9, abs(ref)))
    record("green_weyl_vs_dense_rel", worst, 1e-8)

    # at its own site a barrier's s_ll does not depend on theta, so one
    # sample is the packet's whole spectral sum
    barrier = coeffs.single_barrier(0, 0.6 * np.exp(2j))
    dyn = dynamical_scattering(barrier, 0, WavePacket(-200, 20.0, 0.3), 300,
                               Window(-2048, 2048))
    record("dynamical_vs_stationary_sll",
           abs(dyn - ScatteringCalculator(barrier, 0).sample(0.3).s_ll), 1e-12)

    ok = all(r[3] == "pass" for r in rows)
    return rows, {"all_pass": ok}


JOB_RUNNERS = {
    "density": _job_density,
    "scattering-sweep": _job_scatter,
    "reflectionless-report": _job_refl,
    "dynamics-probe": _job_probe,
    "oracle-check": _job_oracle,
}


def _dump_operator(cfg, path):
    """Debug CSV of the config-window truncation: i, j, Re, Im."""
    U = truncate(cfg.seq, cfg.window)
    with open(path, "w") as fh:
        fh.write("i,j,re,im\n")
        for r in range(U.size):
            i = cfg.window.a + r
            for d in range(5):
                j = i + d - 2
                if cfg.window.contains(j):
                    v = U.diags[d, r]
                    if v != 0:
                        fh.write(f"{i},{j},{_fmt(v.real)},{_fmt(v.imag)}\n")


# -- entry point ----------------------------------------------------------------

def _print_schema():
    print("cmvscat job config (JSON):")
    print("""\
{
  "coefficients": {"kind": "free|constant|single_barrier|random_decay|periodic|explicit",
                   "params": {...kind-specific; complex numbers as [re, im]...}},
  "decoupling_n": 0,
  "window": {"a": -2048, "b": 2048},                   // see below
  "theta_grid": {"count": 64, "offset": 0.5},          // optional; finite offset in grid steps
  "radial": {"eps0": 0.01, "levels": 6, "contraction": 0.5,
             "extrapolation": "richardson"},           // optional
  "tolerances": {"unitarity": 1e-3, "offdiag": 1e-3,
                 "window_doubling": 1e-6},             // optional; each finite, > 0
  "job": "density|scattering-sweep|reflectionless-report|dynamics-probe|oracle-check",
  "output": {"path": "out.csv", "format": "csv|json"},
  "dynamics": {"center": -400, "width": 40, "theta0": 1.5708,
               "horizon": 6000}                        // dynamics-probe only; horizon >= 1,
                                                       // width finite and > 0, theta0 finite
}

kind-specific params:
  free:           {}
  constant:       {"value": [re, im]}
  single_barrier: {"site": 0, "value": [re, im]}
  random_decay:   {"seed": 1, "rate": 0.5}
  periodic:       {"values": [[re, im], ...]}
  explicit:       {"values": {"site": [re, im], ...}, "default": [re, im]}

sites (decoupling_n, window.a, window.b, dynamics.center) lie within +-2**62;
theta_grid.count lies in [1, 2**20], radial.levels in [3, 32], and
window.b - window.a is at most 2**20.  theta_grid.offset must give count
finite, distinct angles 2 pi (i + offset) / count; a huge offset (say 1e17
with count 4) rounds them together or overflows, and is rejected.

window (validated wherever given):
  dynamics-probe:  required; the truncation the packet evolves on
  --dump-operator: required; the truncation written as CSV
  otherwise:       optional and unread; the defect pairings come from the
                   local Green block, which needs no window
""")
    for job in JOBS:
        print(f"CSV columns for job {job}:")
        for col in CSV_COLUMNS[job]:
            print(f"  {col}: {COLUMN_DOCS[col]}")
        print()


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cmvscat",
        description="CMV scattering-matrix and reflectionless-classification jobs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, job in SUBCOMMAND_JOB.items():
        p = sub.add_parser(name, help=f"run a {job} job")
        p.add_argument("config", help="path to the JSON job config")
        p.add_argument("--workers", type=int, default=1,
                       help="ignored; every job runs in one process")
        p.add_argument("--output", default=None, help="override output.path")
        p.add_argument("--format", default=None, choices=("csv", "json"),
                       help="override output.format")
        p.add_argument("--dump-operator", default=None, metavar="PATH",
                       help="also write the config-window truncation as CSV")
    sub.add_parser("schema", help="print the config schema and CSV column docs")
    return parser


@lru_cache(maxsize=1)
def _parser():
    """The process's parser, built on first use: building one costs about 1 ms."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    if args.command == "schema":
        _print_schema()
        return 0
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": "config-read", "detail": str(exc)}), file=sys.stderr)
        return 2
    try:
        cfg = parse_config(raw)
        expected = SUBCOMMAND_JOB[args.command]
        if cfg.job != expected:
            raise ConfigError(
                f"config job is {cfg.job!r} but subcommand {args.command!r} "
                f"runs {expected!r}"
            )
        if args.dump_operator and cfg.window is None:
            raise ConfigError("--dump-operator writes the config window; the config has none")
    except ConfigError as exc:
        print(json.dumps({"error": "config-schema", "detail": str(exc)}), file=sys.stderr)
        return 2

    out_path = args.output or cfg.out_path
    out_fmt = args.format or cfg.out_format
    try:
        rows, summary = JOB_RUNNERS[cfg.job](cfg)
    except CmvScatError as exc:
        print(json.dumps({"error": "job-failed", "detail": str(exc),
                          "kind": type(exc).__name__}), file=sys.stderr)
        return 1
    try:
        if args.dump_operator:
            _dump_operator(cfg, args.dump_operator)
        write_report(out_path, out_fmt, CSV_COLUMNS[cfg.job], rows, raw, summary)
    except OSError as exc:
        print(json.dumps({"error": "output-write", "detail": str(exc)}), file=sys.stderr)
        return 2
    if cfg.job == "oracle-check" and not summary["all_pass"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
