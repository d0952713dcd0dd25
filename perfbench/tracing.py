"""Spans around calls into cmvscat's public functions, installed from outside.

Nothing under ``src/`` knows about tracing: :class:`Tracer` replaces each
target with a timing wrapper for the duration of a traced phase and puts
the original back afterwards.  Methods are patched on their class.  Module
functions are rebound in every loaded ``cmvscat`` module whose attribute is
the same function object, because ``scattering`` and ``cli`` import
resolvent functions by name.

A span is ``(name, start, end, parent, point, size)``: ``parent`` indexes
the enclosing span (-1 at top level), ``point`` identifies the benchmark
point that caused it, and ``size`` is a work count for the call (sites of a
factor or matvec, steps of a probe; 0 otherwise).  Start and end are read
from the tracer's clock: wall time by default, or the calling thread's CPU
time for the benchmark's point latencies.  Spans stay in memory.
Pool workers forked while a tracer is installed inherit it; each worker
appends its finished top-level span trees to ``<spool>/<pid>.jsonl`` so the
parent can merge them after the pool has shut down.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time


def _size_of_factor(args, result):
    return args[1].size


def _size_of_vector(args, result):
    return len(args[1])


def _steps_of_probe(args, result):
    return result.steps if result is not None else 0


# (span name, module, attribute path, size function).
TARGETS = (
    ("resolvent.factor", "cmvscat.resolvent", "BandSolver.__init__", _size_of_factor),
    ("resolvent.solve", "cmvscat.resolvent", "BandSolver.solve", None),
    ("resolvent.grown", "cmvscat.resolvent", "grown_pairings", None),
    ("resolvent.pairings", "cmvscat.resolvent", "resolvent_pairings", None),
    ("resolvent.halfline", "cmvscat.resolvent", "halfline_green_nn", None),
    ("resolvent.extrapolate", "cmvscat.resolvent", "extrapolate_levels", None),
    ("operator.matvec", "cmvscat.operator", "BandedUnitary.matvec", _size_of_vector),
    ("operator.truncation", "cmvscat.operator", "BandedUnitary.__init__", None),
    ("coefficients.alpha_array", "cmvscat.coefficients",
     "CoefficientSequence.alpha_array", None),
    ("weyl.moebius", "cmvscat.weyl", "M_cap", None),
    ("weyl.moebius", "cmvscat.weyl", "Mhat_cap", None),
    ("scattering.sample", "cmvscat.scattering", "ScatteringCalculator.sample", None),
    ("dynamics.probe", "cmvscat.dynamics", "reflection_probe", _steps_of_probe),
    ("cli.parse", "cmvscat.cli", "parse_config", None),
    ("cli.report", "cmvscat.cli", "write_report", None),
)

POINT_TARGETS = tuple(t for t in TARGETS if t[0] == "scattering.sample")

# halfline_green_nn solves its m-function through grown_pairings and
# resolvent_pairings.  Those nested calls are recorded under the half-line
# layer's name, so that resolvent.grown and resolvent.pairings count the
# defect pairings alone.
HALFLINE = "resolvent.halfline"
NESTED_IN_HALFLINE = {"resolvent.grown": HALFLINE + ".grown",
                      "resolvent.pairings": HALFLINE + ".pairings"}


class Tracer:
    """Installs timing wrappers on ``targets`` and collects their spans."""

    def __init__(self, targets=TARGETS, spool=None, clock=time.perf_counter):
        self.targets = targets
        self.spool = spool
        self.clock = clock
        self.spans = []
        self.point = 0
        self.absent = []
        self._stack = []
        self._halfline_depth = 0
        self._pid = os.getpid()
        self._in_worker = False
        self._worker_points = 0
        self._undo = []

    # -- installing ------------------------------------------------------------

    def install(self):
        for name, module_name, path, size in self.targets:
            try:
                module = importlib.import_module(module_name)
                owner, attr = _resolve(module, path)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(name, original, size)
            if isinstance(owner, type):
                self._rebind(owner, attr, original, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or mod_name.split(".")[0] != "cmvscat":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, original, wrapper)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    def _rebind(self, owner, attr, original, wrapper):
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn, size):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._call(name, fn, size, args, kwargs)

        return wrapper

    # -- recording -------------------------------------------------------------

    def _call(self, name, fn, size, args, kwargs):
        if os.getpid() != self._pid:
            self._enter_worker()
        if self._in_worker and not self._stack:
            self._worker_points += 1
            self.point = f"{self._pid}.{self._worker_points}"
        if self._halfline_depth:
            name = NESTED_IN_HALFLINE.get(name, name)
        halfline = name == HALFLINE
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        self._halfline_depth += halfline
        result = None
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = self.clock()
            self._stack.pop()
            self._halfline_depth -= halfline
            work = size(args, result) if size is not None else 0
            self.spans[idx] = (name, start, end, parent, self.point, work)
            if self._in_worker and not self._stack:
                self._flush_worker()

    def _enter_worker(self):
        self._pid = os.getpid()
        self._in_worker = True
        self._worker_points = 0
        self.spans = []
        self._stack = []
        self._halfline_depth = 0

    def _flush_worker(self):
        with open(os.path.join(self.spool, f"{self._pid}.jsonl"), "a") as fh:
            fh.write(json.dumps(self.spans) + "\n")
        self.spans = []

    def merge_workers(self):
        """Append the span batches written by pool workers to ``spans``.

        A batch's parent indices count from the batch's first span; they are
        shifted by the batch's position in ``spans``.  The files are removed.
        """
        for fname in sorted(os.listdir(self.spool)):
            if not fname.endswith(".jsonl"):
                continue
            path = os.path.join(self.spool, fname)
            with open(path) as fh:
                for line in fh:
                    offset = len(self.spans)
                    for name, start, end, parent, point, work in json.loads(line):
                        self.spans.append((name, start, end,
                                           parent + offset if parent >= 0 else -1,
                                           point, work))
            os.remove(path)
        return self.spans


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


# -- aggregation ---------------------------------------------------------------

def summarize(spans):
    """Per span name: calls, inclusive seconds, self seconds, work, max work.

    Inclusive time counts only the outermost span of a name, so a call
    nested in a call of the same name is not counted twice.  Self time is a
    span's duration minus the durations of its direct children.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for idx, (name, start, end, parent, _, work) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                    "work": 0, "max_work": 0})
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time[idx]
        row["work"] += work
        row["max_work"] = max(row["max_work"], work)
        anc = parent
        while anc >= 0 and spans[anc][0] != name:
            anc = spans[anc][3]
        if anc < 0:
            row["s"] += end - start
    return out


def write_spans(path, spans):
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
