#!/usr/bin/env python3
"""cmvscat benchmark: certified-sample throughput on three workloads.

One workload, as the benchmark contract runs it:

    python3 perfbench/run.py --workload sweep-random-decay --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run times a closed loop for ``--seconds`` and prints
the end-to-end metrics; with ``--trace 1`` it runs a fixed number of
operations untraced and then traced, and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it (``report``)
carries every metric with its unit, ``n/a`` where a workload cannot observe
it, and the run's metadata.  A failed output check makes the exit code 1.

All workloads, several seeds each, with quartile spreads:

    python3 perfbench/run.py --all --runs 5 --seconds 30 [--record perfbench/BASELINE.json]

Each workload runs in a fresh process, BLAS is pinned to one thread, and
the package is imported from ``src/`` of the checkout this file sits in.
A point's latency (``point_p50_ms``, ``point_tail_ms``) is the CPU time of
the thread that computes it, in process or in a pool worker: on a core of
its own that equals its wall time, and it leaves out the time the thread
waits for a core that another process, or another guest of the host, holds.
Throughput (``points_per_s``) is per wall second.
"""
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

T_START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 3
RUN_TIMEOUT_S = 600

# name -> (unit, better); the end-to-end metrics every untraced run reports.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "points_per_s": ("1/s", "higher"),
    "point_p50_ms": ("ms", "lower"),
    "point_tail_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# Reported beside them; not bounded, because they are 0 or absent on some
# workloads at the parent commit, or (setup_first_s) a single timing.
REPORT_ONLY = {
    "setup_first_s": ("s", "lower"),
    "failed_fraction": ("ratio", "lower"),
    "unitarity_digits": ("digits", "higher"),
    "moebius_gap_digits": ("digits", "higher"),
}

PER_LAYER = {
    "resolvent.factor.calls": ("count", "lower"),
    "resolvent.factor.s": ("s", "lower"),
    "resolvent.factor.sites": ("sites", "lower"),
    "resolvent.factor.bytes_computed": ("B", "lower"),
    "resolvent.solve.calls": ("count", "lower"),
    "resolvent.solve.s": ("s", "lower"),
    "resolvent.max_span": ("sites", "lower"),
    "resolvent.grown.calls": ("count", "lower"),
    "resolvent.grown.s": ("s", "lower"),
    "resolvent.pairings.calls": ("count", "lower"),
    "resolvent.doubling_yield": ("ratio", "higher"),
    "resolvent.halfline.calls": ("count", "lower"),
    "resolvent.halfline.s": ("s", "lower"),
    "resolvent.extrapolate.calls": ("count", "lower"),
    "resolvent.extrapolate.s": ("s", "lower"),
    "operator.matvec.calls": ("count", "lower"),
    "operator.matvec.s": ("s", "lower"),
    "operator.matvec.sites": ("sites", "lower"),
    "operator.truncations": ("count", "lower"),
    "operator.truncation_hit_ratio": ("ratio", "higher"),
    "coefficients.alpha_array.calls": ("count", "lower"),
    "coefficients.alpha_array.s": ("s", "lower"),
    "weyl.moebius.calls": ("count", "lower"),
    "weyl.moebius.s": ("s", "lower"),
    "scattering.sample.calls": ("count", "lower"),
    "scattering.sample.s": ("s", "lower"),
    "scattering.sample.self_s": ("s", "lower"),
    "scattering.unitarity_digits": ("digits", "higher"),
    "scattering.moebius_gap_digits": ("digits", "higher"),
    "dynamics.probe.calls": ("count", "lower"),
    "dynamics.probe.s": ("s", "lower"),
    "dynamics.steps": ("count", "lower"),
    "cli.parse.s": ("s", "lower"),
    "cli.report.s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}



def share_name(name):
    """``resolvent.factor.s`` -> ``resolvent.factor.share``."""
    return name[:-1] + "share"


# The traced run's JSON line carries each layer's busy time as a share of
# the traced wall time: a layer that a workload never calls reads exactly
# 0 s on every run, and the benchmark contract refuses a time that never
# changes.  The seconds themselves are in the report line.
PER_LAYER_JSON = {
    (share_name(k) if unit == "s" else k): (("ratio", better) if unit == "s" else (unit, better))
    for k, (unit, better) in PER_LAYER.items()
}

WORKLOAD_NAMES = ("sweep-random-decay", "probe-barrier", "scatter-cli-pool")


# -- environment -------------------------------------------------------------------

def import_package():
    """Import cmvscat from this checkout's src/ and the benchmark modules."""
    if not os.path.isfile(os.path.join(SRC, "cmvscat", "__init__.py")):
        raise ImportError(f"no cmvscat package under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import cmvscat

    if not os.path.abspath(cmvscat.__file__).startswith(SRC + os.sep):
        raise ImportError(f"cmvscat imported from {cmvscat.__file__}, not {SRC}")
    import tracing
    import workloads

    return cmvscat, tracing, workloads


def git_sha():
    """HEAD of the checkout's git metadata, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def metadata(cmvscat, seed):
    import numpy
    import scipy

    backend = getattr(cmvscat, "backend_name", None)
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ[k] for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
        "backend": backend() if callable(backend) else None,
    }


# -- one workload ------------------------------------------------------------------

def run_op(workloads, wl, i):
    """Results of operation i; an operation that raises fails one point."""
    try:
        return wl.op(i)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return [workloads.PointResult(ok=False)]


def tail_percentile(count):
    """Highest whole percentile with at least ten points beyond it.

    With 20 points or fewer no percentile above the median qualifies, and
    the median is used.
    """
    if count <= 20:
        return 50
    return math.floor(100.0 * (count - 10) / count)


def percentile(values, pct):
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb(with_children):
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        rss += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return rss / 1024.0


def repeated_setup(workloads, wl):
    """Set-up times of SETUP_REPEATS set-ups, each with a cleared truncation
    cache, the first one cold; warm-up results."""
    times, warm = [], []
    for _ in range(SETUP_REPEATS):
        workloads.clear_caches()
        t0 = time.perf_counter()
        warm += wl.setup()
        times.append(time.perf_counter() - t0)
    return times, warm


def measure(workloads, tracing, wl, seconds, import_s, spool):
    """Untraced closed loop for ``seconds``; end-to-end metrics.

    ``setup_s`` is the import time plus the median of the repeated set-ups;
    ``setup_first_s`` is the import time plus the first, cold set-up.
    """
    setup_times, warm = repeated_setup(workloads, wl)
    pooled = hasattr(wl, "verify")
    point_timer = (tracing.Tracer(tracing.POINT_TARGETS, spool, clock=time.thread_time).install()
                   if pooled else None)
    results, latencies = [], []
    t0 = time.perf_counter()
    i = 0
    while time.perf_counter() - t0 < seconds:
        t = time.thread_time()
        results += run_op(workloads, wl, i)
        latencies.append(time.thread_time() - t)
        i += 1
    wall = time.perf_counter() - t0
    rss = peak_rss_mb(with_children=pooled)
    if pooled:
        point_timer.uninstall()
        spans = point_timer.merge_workers()
        if not spans:
            raise RuntimeError("no sample spans came back from the pool workers")
        latencies = [end - start for name, start, end, *_ in spans]
        results += wl.verify()
    passed = sum(r.ok for r in results)
    tail_pct = tail_percentile(len(latencies))
    values = {
        "setup_s": import_s + statistics.median(setup_times),
        "setup_first_s": import_s + setup_times[0],
        "points_per_s": passed / wall,
        "point_p50_ms": 1e3 * statistics.median(latencies),
        "point_tail_ms": 1e3 * percentile(latencies, tail_pct),
        "peak_rss_mb": rss,
        "failed_fraction": (len(results) - passed) / max(1, len(results)),
        "unitarity_digits": workloads.digits([r.unitarity_defect for r in results]),
        "moebius_gap_digits": workloads.digits([r.moebius_gap for r in results]),
    }
    extra = {"point_tail_percentile": tail_pct, "latency_count": len(latencies),
             "operations": i, "timed_wall_s": wall}
    return results, warm, values, extra


def trace(workloads, tracing, wl, spool, span_path):
    """A fixed number of operations untraced, then the same ones traced."""
    workloads.clear_caches()
    warm = wl.setup()
    ops = wl.trace_ops
    results = []
    t0 = time.perf_counter()
    for i in range(ops):
        results += run_op(workloads, wl, i)
    untraced = time.perf_counter() - t0
    tracer = tracing.Tracer(tracing.TARGETS, spool).install()
    t0 = time.perf_counter()
    for i in range(ops):
        tracer.point = i
        results += run_op(workloads, wl, i)
    traced = time.perf_counter() - t0
    tracer.uninstall()
    spans = tracer.merge_workers()
    tracing.write_spans(span_path, spans)
    if hasattr(wl, "verify"):
        results += wl.verify()
    summary = tracing.summarize(spans)
    values = layer_metrics(summary, traced / untraced)
    values.update({share_name(k): values[k] / traced
                   for k, (unit, _) in PER_LAYER.items() if unit == "s"})
    values["scattering.unitarity_digits"] = workloads.digits(
        [r.unitarity_defect for r in results]) or 0.0
    values["scattering.moebius_gap_digits"] = workloads.digits(
        [r.moebius_gap for r in results]) or 0.0
    extra = {"absent": tracer.absent, "operations": ops, "traced_wall_s": traced,
             "spans": len(spans),
             "span_file": os.path.relpath(span_path, ROOT)}
    return results, warm, values, extra


def layer_metrics(summary, overhead):
    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    pairings = get("resolvent.pairings", "calls")
    lookups = pairings + get("resolvent.halfline.pairings", "calls")
    truncations = get("operator.truncation", "calls")
    max_size = get("resolvent.factor", "max_work")
    values = {
        "resolvent.factor.bytes_computed": 7 * 16 * get("resolvent.factor", "work"),
        "resolvent.factor.sites": get("resolvent.factor", "work"),
        "resolvent.max_span": max_size - 1 if max_size else 0,
        "resolvent.pairings.calls": pairings,
        "resolvent.doubling_yield": (get("resolvent.grown", "calls") / pairings
                                     if pairings else 0.0),
        "operator.matvec.sites": get("operator.matvec", "work"),
        "operator.truncations": truncations,
        "operator.truncation_hit_ratio": 1.0 - truncations / lookups if lookups else 0.0,
        "scattering.sample.self_s": get("scattering.sample", "self_s"),
        "dynamics.steps": get("dynamics.probe", "work"),
        "trace.overhead_ratio": overhead,
    }
    for metric in PER_LAYER:
        span, _, key = metric.rpartition(".")
        if metric not in values and key in ("calls", "s"):
            values[metric] = get(span, key)
    return values


def run_workload(args):
    try:
        cmvscat, tracing, workloads = import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import the package: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START
    spool = os.path.join(OUT_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(spool, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, spool)
        if args.trace:
            span_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
            results, warm, values, extra = trace(workloads, tracing, wl, spool, span_path)
            names = {**PER_LAYER, **PER_LAYER_JSON}
        else:
            results, warm, values, extra = measure(workloads, tracing, wl, args.seconds,
                                                   import_s, spool)
            names = {**END_TO_END, **REPORT_ONLY}
    finally:
        shutil.rmtree(spool, ignore_errors=True)
    failed = sum(not r.ok for r in results) + sum(not r.ok for r in warm)
    attempted = len(results) + len(warm)
    report = {
        "workload": args.workload,
        "trace": bool(args.trace),
        "meta": metadata(cmvscat, args.seed),
        "metrics": {k: {"value": "n/a" if values.get(k) is None else values[k],
                        "unit": names[k][0]} for k in names},
        **extra,
    }
    for name, metric in report["metrics"].items():
        print(f"{name:34s} {metric['value']!s:>24} {metric['unit']}")
    print("report " + json.dumps(report))
    keys = PER_LAYER_JSON if args.trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": keys[k][0]} for k in keys},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


# -- all workloads -----------------------------------------------------------------

def spawn(workload, seed, seconds, trace_flag):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace_flag)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    report = next((json.loads(line[7:]) for line in lines if line.startswith("report ")), None)
    if proc.returncode != 0 or report is None:
        sys.stderr.write(proc.stderr)
    return proc.returncode, report


def spread(values):
    """Median, quartiles and (q3 - q1) / median, as the benchmark contract measures."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def run_all(args):
    seeds = list(range(1, args.runs + 1))
    record = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    status = 0
    for workload in WORKLOAD_NAMES:
        runs = []
        for seed in seeds:
            rc, report = spawn(workload, seed, args.seconds, 0)
            status = status or rc
            if report is not None:
                runs.append(report)
        rc, traced = spawn(workload, seeds[0], args.seconds, 1)
        status = status or rc
        entry = {"metrics": {}, "trace": traced["metrics"] if traced else None}
        print(f"\n== {workload} ({len(runs)} runs, seeds {seeds[0]}..{seeds[-1]})")
        for name, (unit, _) in {**END_TO_END, **REPORT_ONLY}.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            numbers = [v for v in vals if v != "n/a"]
            if len(numbers) >= 2 and statistics.median(numbers) != 0:
                stats = spread(numbers)
                entry["metrics"][name] = {"unit": unit, **stats}
                print(f"  {name:22s} median {stats['median']:12.6g} {unit:7s}"
                      f" spread {stats['spread']:.4f}")
            else:
                entry["metrics"][name] = {"unit": unit, "values": vals}
                print(f"  {name:22s} {vals}")
        if runs:
            entry["meta"] = runs[0]["meta"]
            entry["point_tail_percentile"] = [r["point_tail_percentile"] for r in runs]
        if traced:
            print(f"  traced (seed {seeds[0]}), absent: {traced['absent']}")
            for name, metric in traced["metrics"].items():
                print(f"    {name:34s} {metric['value']!s:>22} {metric['unit']}")
        record["workloads"][workload] = entry
    if args.record:
        with open(args.record, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload in fresh processes over several seeds")
    parser.add_argument("--runs", type=int, default=5,
                        help="with --all: seeds 1..RUNS per workload")
    parser.add_argument("--record", default=None,
                        help="with --all: write medians and spreads to this JSON file")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload or --all is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
