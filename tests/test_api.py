"""The package's public names, and every name the benchmark under perfbench/ reads.

A trimmed ``cmvscat/__init__`` or a renamed function breaks the benchmark
only when it runs; these tests break first.
"""
import dataclasses
import importlib
import importlib.util
import pathlib
import types

import cmvscat

PUBLIC_NAMES = {
    "CoefficientSequence", "constant", "explicit", "free", "periodic", "random_decay",
    "single_barrier",
    "BandedUnitary", "DefectOperator", "Window", "defect", "entry", "truncate",
    "BoundaryValue", "RadialSchedule", "m_function",
    "ScatteringCalculator", "ScatteringSample", "diagonal_via_M",
    "off_diagonality_report", "reflectionless_residual", "scattering_matrix", "sweep",
    "theta_grid",
    "WeylPair", "green_weyl", "transfer", "weyl_solutions",
}
SUBMODULES = {"coefficients", "dynamics", "operator", "oracle", "resolvent", "scattering",
              "weyl"}

# (module, attribute path) pairs that perfbench/workloads.py and
# perfbench/test_perfbench.py read.
BENCHMARK_NAMES = (
    ("cmvscat", "Window"),
    ("cmvscat", "random_decay"),
    ("cmvscat", "single_barrier"),
    ("cmvscat", "ScatteringCalculator"),
    ("cmvscat.scattering", "grown_pairings"),
    ("cmvscat.resolvent", "_truncate_cached.cache_clear"),
    ("cmvscat.dynamics", "WavePacket"),
    ("cmvscat.dynamics", "reflection_probe"),
    ("cmvscat.dynamics", "ProbeResult"),
    ("cmvscat.cli", "parse_config"),
    ("cmvscat.cli", "main"),
)
SAMPLE_FIELDS = {"s", "converged", "support_l", "support_r", "diag_moebius"}


def _resolve(module, path):
    obj = importlib.import_module(module)
    for attr in path.split("."):
        obj = getattr(obj, attr)
    return obj


def test_public_names_are_pinned():
    names = {name for name, value in vars(cmvscat).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC_NAMES
    assert SUBMODULES <= set(vars(cmvscat))


def test_benchmark_names_resolve():
    for module, path in BENCHMARK_NAMES:
        assert callable(_resolve(module, path)), f"{module}.{path}"
    assert cmvscat.scattering.grown_pairings is cmvscat.resolvent.grown_pairings
    fields = {f.name for f in dataclasses.fields(cmvscat.ScatteringSample)}
    assert SAMPLE_FIELDS <= fields


def test_traced_targets_resolve():
    # the tracer reports a target it cannot find as absent; the benchmark
    # requires none
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for _, module, attr_path, _ in tracing.TARGETS:
        assert callable(_resolve(module, attr_path)), f"{module}.{attr_path}"
