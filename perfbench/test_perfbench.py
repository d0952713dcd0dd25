"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

They check metric names, that every workload reports every end-to-end
metric, that traced counts repeat exactly for a seed, and that the output
checks catch corrupted results.
"""
import dataclasses
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import cmvscat  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_names_are_well_formed_and_match_benchmark_json():
    bench = _benchmark_json()
    names = ([m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
             + [w["name"] for w in bench["workloads"]]
             + list(run.REPORT_ONLY))
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == run.PER_LAYER_JSON
    assert tuple(w["name"] for w in bench["workloads"]) == run.WORKLOAD_NAMES
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_workload_reports_every_end_to_end_metric(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.END_TO_END[name][0]
        assert isinstance(metric["value"], float) and metric["value"] > 0, name
    report = json.loads(next(line for line in lines if line.startswith("report "))[7:])
    assert set(report["metrics"]) == set(run.END_TO_END) | set(run.REPORT_ONLY)
    for metric in report["metrics"].values():
        assert metric["value"] == "n/a" or isinstance(metric["value"], float)


# Small versions of each workload: (class attribute overrides) keep the
# traced runs short while exercising the same code paths.
SMALL = {
    "sweep-random-decay": {"trace_ops": 2},
    "probe-barrier": {"trace_ops": 2},
    "scatter-cli-pool": {"GRID": 2},
}
EXACT_COUNTS = tuple(k for k in run.PER_LAYER
                     if k.endswith((".calls", ".sites", ".bytes_computed"))
                     or k == "dynamics.steps")
# Pool workers each keep their own truncation cache, so counts that depend
# on cache misses there depend on which worker took which point.
SCHEDULING_DEPENDENT = {"scatter-cli-pool": {"coefficients.alpha_array.calls"}}


def _traced_counts(name, tmp_path):
    spool = tmp_path / f"spool-{name}"
    spool.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[name](5, str(spool))
    for attr, value in SMALL[name].items():
        setattr(wl, attr, value)
    results, warm, values, extra = run.trace(workloads, tracing, wl, str(spool),
                                             str(tmp_path / f"spans-{name}.jsonl"))
    assert all(r.ok for r in results + warm)
    assert extra["absent"] == []
    return values


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_counts_repeat_exactly(workload, tmp_path):
    first = _traced_counts(workload, tmp_path)
    second = _traced_counts(workload, tmp_path)
    assert set(first) == set(run.PER_LAYER) | set(run.PER_LAYER_JSON)
    skip = SCHEDULING_DEPENDENT.get(workload, set())
    for name in EXACT_COUNTS:
        if name not in skip:
            assert first[name] == second[name], name
    assert first["trace.overhead_ratio"] > 0
    if first["scattering.sample.calls"]:
        # On the pool these samples ran in forked workers; their children
        # must be found, so little of a sample's time is its own.
        assert first["scattering.sample.self_s"] < 0.1 * first["scattering.sample.s"]


def test_tracer_restores_originals_and_reports_absent_targets():
    before = cmvscat.scattering.grown_pairings
    targets = tracing.TARGETS + (("gone", "cmvscat.resolvent", "no_such_function", None),)
    tracer = tracing.Tracer(targets).install()
    try:
        assert cmvscat.scattering.grown_pairings is not before
        assert cmvscat.scattering.grown_pairings is cmvscat.resolvent.grown_pairings
    finally:
        tracer.uninstall()
    assert cmvscat.scattering.grown_pairings is before
    assert tracer.absent == ["cmvscat.resolvent.no_such_function"]


def test_merged_worker_spans_point_at_their_own_parents(tmp_path):
    tracer = tracing.Tracer((), str(tmp_path))
    tracer.spans = [("cli.parse", 0.0, 1.0, -1, 0, 0), ("cli.report", 20.0, 21.0, -1, 0, 0)]
    (tmp_path / "7.jsonl").write_text(json.dumps([("resolvent.factor", 1.5, 2.0, -1, "7.1", 3)])
                                      + "\n")
    batch = [("scattering.sample", 2.0, 12.0, -1, "8.1", 0),
             ("resolvent.grown", 3.0, 11.0, 0, "8.1", 0),
             ("resolvent.factor", 4.0, 10.0, 1, "8.1", 9)]
    (tmp_path / "8.jsonl").write_text(json.dumps(batch) + "\n")
    spans = tracer.merge_workers()
    assert [s[3] for s in spans] == [-1, -1, -1, -1, 3, 4]
    summary = tracing.summarize(spans)
    assert summary["scattering.sample"]["self_s"] == pytest.approx(2.0)
    assert summary["resolvent.grown"]["self_s"] == pytest.approx(2.0)
    assert not list(tmp_path.iterdir())


def test_self_time_excludes_children():
    spans = [("a", 0.0, 10.0, -1, 0, 0), ("b", 1.0, 4.0, 0, 0, 5), ("b", 5.0, 6.0, 0, 0, 7)]
    summary = tracing.summarize(spans)
    assert summary["a"]["self_s"] == pytest.approx(6.0)
    assert summary["b"]["calls"] == 2 and summary["b"]["work"] == 12
    assert summary["b"]["max_work"] == 7


@pytest.fixture(scope="module")
def good_sample():
    calc = cmvscat.ScatteringCalculator(cmvscat.random_decay(2, 0.5), 0)
    return calc.sample(1.1)


def test_corrupted_sample_is_caught(good_sample):
    assert workloads.check_sample(good_sample).ok
    s = good_sample.s.copy()
    s[0, 1] += 1e-2
    assert not workloads.check_sample(dataclasses.replace(good_sample, s=s)).ok
    s = good_sample.s.copy()
    s[0, 0] *= np.exp(1e-4j)   # within the unitarity tolerance, off the Moebius route
    assert not workloads.check_sample(dataclasses.replace(good_sample, s=s)).ok
    assert not workloads.check_sample(dataclasses.replace(good_sample, converged=False)).ok
    s = good_sample.s.copy()
    s[1, 1] = complex("nan")
    assert not workloads.check_sample(dataclasses.replace(good_sample, s=s)).ok


def test_corrupted_probe_is_caught():
    good = cmvscat.dynamics.ProbeResult(left_mass=0.4, right_mass=0.6, escaped=1e-15,
                                        steps=10, edge_contact=False, series=np.empty((0, 4)))
    assert workloads.check_probe(good, 10).ok
    assert not workloads.check_probe(dataclasses.replace(good, escaped=1e-8), 10).ok
    assert not workloads.check_probe(dataclasses.replace(good, left_mass=1.2), 10).ok
    assert not workloads.check_probe(dataclasses.replace(good, steps=7, edge_contact=True), 10).ok


def test_corrupted_report_row_is_caught():
    reference = "\n".join([
        "# cmvscat version: 0.1.0", "# config: {}", "# generated: then",
        "theta,unitarity_defect,converged", "0.1,1e-14,true", "0.2,2e-14,true",
        '# summary: {"points": 2}']) + "\n"
    same = reference.replace("# generated: then", "# generated: now")
    assert [r.ok for r in workloads.check_report(same, reference)] == [True, True]
    bad_row = same.replace("0.2,2e-14", "0.2,3e-14")
    assert [r.ok for r in workloads.check_report(bad_row, reference)] == [True, False]
    bad_summary = same.replace('"points": 2', '"points": 3')
    assert [r.ok for r in workloads.check_report(bad_summary, reference)] == [False, False]
