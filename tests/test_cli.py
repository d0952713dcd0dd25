import json
import subprocess
import sys

import pytest

from cmvscat.cli import main

from conftest import force_m_pair

BASE = {
    "coefficients": {"kind": "free", "params": {}},
    "decoupling_n": 0,
    "window": {"a": -128, "b": 128},
    "theta_grid": {"count": 4, "offset": 0.5},
    "radial": {"eps0": 1e-2, "levels": 4, "contraction": 0.5,
               "extrapolation": "richardson"},
    "job": "scattering-sweep",
    "output": {"path": "out.csv", "format": "csv"},
}


def _write(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def _cfg(tmp_path, **overrides):
    """BASE with overrides applied; an override of None drops the key."""
    cfg = json.loads(json.dumps(BASE))
    cfg.update(overrides)
    cfg = {key: value for key, value in cfg.items() if value is not None}
    if isinstance(cfg["output"]["path"], str):
        cfg["output"]["path"] = str(tmp_path / cfg["output"]["path"])
    return cfg


def _read_csv(path):
    header = None
    rows = []
    comments = []
    for line in open(path):
        line = line.rstrip("\n")
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return header, rows, comments


def test_schema_subcommand(capsys):
    assert main(["schema"]) == 0
    out = capsys.readouterr().out
    for col in ("theta", "unitarity_defect", "refl_residual", "left_mass"):
        assert col in out
    assert "random_decay" in out


def test_scatter_job_free(tmp_path):
    cfg = _cfg(tmp_path)
    assert main(["scatter", _write(tmp_path, cfg)]) == 0
    header, rows, comments = _read_csv(cfg["output"]["path"])
    assert len(rows) == 4
    icol = header.index("s_ll_re")
    for row in rows:
        assert abs(float(row[icol])) <= 1e-6
        assert row[header.index("converged")] == "true"
    assert any("version" in c for c in comments)
    assert any("config" in c for c in comments)


def test_job_subcommand_mismatch(tmp_path, capsys):
    cfg = _cfg(tmp_path)
    assert main(["density", _write(tmp_path, cfg)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config-schema"


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = _cfg(tmp_path)
    cfg["surprise"] = 1
    assert main(["scatter", _write(tmp_path, cfg)]) == 2
    assert "surprise" in json.loads(capsys.readouterr().err)["detail"]


def test_bad_alpha_names_offending_index(tmp_path, capsys):
    cfg = _cfg(tmp_path, coefficients={
        "kind": "explicit", "params": {"values": {"3": [1.5, 0.0]}}})
    assert main(["scatter", _write(tmp_path, cfg)]) == 2
    assert "index 3" in json.loads(capsys.readouterr().err)["detail"]


def test_short_window_rejected(tmp_path, capsys):
    cfg = _cfg(tmp_path, window={"a": 0, "b": 5})
    assert main(["scatter", _write(tmp_path, cfg)]) == 2


@pytest.mark.parametrize("command, overrides", [
    ("scatter", {"decoupling_n": "x"}),
    ("scatter", {"decoupling_n": float("inf")}),
    ("scatter", {"window": {"a": "q", "b": 128}}),
    ("scatter", {"window": 5}),
    ("scatter", {"theta_grid": {"count": "z"}}),
    ("scatter", {"theta_grid": [1, 2]}),
    ("scatter", {"tolerances": {"window_doubling": "w"}}),
    ("probe", {"job": "dynamics-probe",
               "dynamics": {"center": "c", "width": 20, "horizon": 500}}),
    ("scatter", {"coefficients": {"kind": "periodic", "params": {"values": 5}}}),
    ("scatter", {"coefficients": {"kind": "explicit", "params": {"values": [[0.1, 0]]}}}),
    ("scatter", {"output": {"path": 5}}),
    ("scatter", {"tolerances": {"window_doubling": -1}}),
    ("scatter", {"tolerances": {"unitarity": float("nan")}}),
    ("refl", {"job": "reflectionless-report", "tolerances": {"offdiag": 0}}),
    ("scatter", {"coefficients": {"kind": "random_decay",
                                  "params": {"seed": 1, "rate": float("nan")}}}),
    ("scatter", {"decoupling_n": 0.5}),
    ("scatter", {"decoupling_n": True}),
    ("scatter", {"theta_grid": {"count": 2.7}}),
    ("scatter", {"window": {"a": -128.9, "b": 128}}),
    ("scatter", {"radial": {"levels": 4.9}}),
    ("scatter", {"coefficients": {"kind": "single_barrier",
                                  "params": {"site": 0.5, "value": 0.9}}}),
    ("scatter", {"coefficients": {"kind": "random_decay",
                                  "params": {"seed": 1, "rate": True}}}),
    ("scatter", {"tolerances": {"unitarity": True}}),
    ("probe", {"job": "dynamics-probe",
               "dynamics": {"center": -100, "width": 20, "horizon": 0}}),
    ("probe", {"job": "dynamics-probe",
               "dynamics": {"center": -100, "width": float("nan"), "horizon": 50}}),
    ("probe", {"job": "dynamics-probe",
               "dynamics": {"center": -100, "width": 20, "theta0": float("inf"),
                            "horizon": 50}}),
    ("scatter", {"decoupling_n": 10 ** 30}),
    ("scatter", {"window": {"a": -128, "b": 10 ** 30}}),
    ("probe", {"job": "dynamics-probe",
               "dynamics": {"center": -10 ** 30, "width": 20, "horizon": 50}}),
    ("scatter", {"theta_grid": {"count": 4, "offset": float("nan")}}),
    ("scatter", {"theta_grid": {"count": 4, "offset": float("inf")}}),
], ids=["site-not-int", "site-infinite",
        "window-not-int", "window-not-object", "count-not-int", "grid-not-object",
        "tolerance-not-float", "dynamics-not-int", "periodic-not-list",
        "explicit-not-object", "output-path-not-string",
        "tolerance-negative", "tolerance-nan", "tolerance-zero", "rate-nan",
        "site-not-integral", "site-bool", "count-not-integral", "window-not-integral",
        "levels-not-integral", "barrier-site-not-integral", "rate-bool", "tolerance-bool",
        "horizon-below-one", "width-nan", "theta0-infinite", "site-beyond-int64",
        "window-beyond-int64", "center-beyond-int64", "offset-nan", "offset-infinite"])
def test_bad_config_value_is_schema_error(tmp_path, capsys, command, overrides):
    cfg = _cfg(tmp_path, **overrides)
    assert main([command, _write(tmp_path, cfg)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config-schema"


def test_density_job(tmp_path):
    cfg = _cfg(tmp_path, job="density")
    cfg["output"]["path"] = str(tmp_path / "density.csv")
    assert main(["density", _write(tmp_path, cfg)]) == 0
    header, rows, _ = _read_csv(cfg["output"]["path"])
    for row in rows:
        assert float(row[header.index("density_l")]) == pytest.approx(1.0, abs=1e-6)
        assert float(row[header.index("density_r")]) == pytest.approx(1.0, abs=1e-6)


def test_negative_density_is_reported_not_clamped(tmp_path, monkeypatch):
    import cmvscat as cs

    # a left density of -0.5 is an extrapolation failure, not round-off
    force_m_pair(monkeypatch, 0.5, 1.0)
    calc = cs.ScatteringCalculator(cs.free(), 0)
    sample = calc.sample(0.5)
    assert sample.error == "NegativeDensityError" and not sample.converged
    cfg = _cfg(tmp_path, job="density")
    assert main(["density", _write(tmp_path, cfg)]) == 0
    header, rows, _ = _read_csv(cfg["output"]["path"])
    for row in rows:
        assert row[header.index("converged")] == "false"
        assert row[header.index("density_l")] == "nan"


@pytest.mark.parametrize("flag", ["output", "dump-operator"])
def test_unwritable_output_is_json_error(tmp_path, capsys, flag):
    cfg = _cfg(tmp_path)
    missing = str(tmp_path / "no-such-dir" / "file.csv")
    assert main(["scatter", _write(tmp_path, cfg), f"--{flag}", missing]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "output-write"


def test_refl_job_summary(tmp_path):
    cfg = _cfg(tmp_path, job="reflectionless-report")
    path = _write(tmp_path, cfg)
    assert main(["refl", path]) == 0
    _, rows, comments = _read_csv(cfg["output"]["path"])
    summary_line = [c for c in comments if c.startswith("# summary")][0]
    summary = json.loads(summary_line.split(":", 1)[1])
    assert summary["offdiagonal_fraction"] == 1.0


def _summary(comments):
    line = next(c for c in comments if c.startswith("# summary"))
    return json.loads(line.split(":", 1)[1])


def _run_random(tmp_path, command, job, **overrides):
    cfg = _cfg(tmp_path, job=job, **overrides,
               coefficients={"kind": "random_decay", "params": {"seed": 3, "rate": 0.4}})
    assert main([command, _write(tmp_path, cfg)]) == 0
    return _read_csv(cfg["output"]["path"])


def test_summary_counts_rows_above_unitarity_tol(tmp_path):
    strict = {"tolerances": {"unitarity": 1e-300}}
    header, rows, comments = _run_random(tmp_path, "scatter", "scattering-sweep", **strict)
    two_channel = sum(all(row[header.index(col)] == "true"
                          for col in ("converged", "support_l", "support_r"))
                      for row in rows)
    assert two_channel == len(rows) > 0
    assert _summary(comments)["above_unitarity_tol"] == two_channel
    _, _, comments = _run_random(tmp_path, "refl", "reflectionless-report", **strict)
    assert _summary(comments)["above_unitarity_tol"] == two_channel
    # the default tolerance, 1e-3, counts none of them
    for command, job in (("scatter", "scattering-sweep"), ("refl", "reflectionless-report")):
        _, _, comments = _run_random(tmp_path, command, job)
        assert _summary(comments)["above_unitarity_tol"] == 0


def test_scatter_rows_do_not_depend_on_window(tmp_path):
    # the second window does not contain the decoupling site n = 0
    _, rows, _ = _run_random(tmp_path, "scatter", "scattering-sweep")
    _, moved, _ = _run_random(tmp_path, "scatter", "scattering-sweep",
                              window={"a": 500, "b": 1000})
    assert moved == rows
    _, absent, _ = _run_random(tmp_path, "scatter", "scattering-sweep", window=None)
    assert absent == rows


def test_window_required_only_where_read(tmp_path, capsys):
    cfg = _cfg(tmp_path, job="dynamics-probe", window=None,
               dynamics={"center": -300, "width": 20, "horizon": 500})
    assert main(["probe", _write(tmp_path, cfg)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config-schema"
    # --dump-operator writes the config window: rejected before the job runs
    cfg = _cfg(tmp_path, window=None)
    dump = tmp_path / "op.csv"
    assert main(["scatter", _write(tmp_path, cfg), "--dump-operator", str(dump)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config-schema"
    assert not dump.exists() and not (tmp_path / "out.csv").exists()


def test_probe_job(tmp_path):
    cfg = _cfg(tmp_path, job="dynamics-probe",
               window={"a": -1024, "b": 1024},
               dynamics={"center": -300, "width": 20, "theta0": 0.0, "horizon": 500})
    assert main(["probe", _write(tmp_path, cfg)]) == 0
    header, rows, comments = _read_csv(cfg["output"]["path"])
    assert header == ["step", "left_mass", "right_mass", "escaped"]
    assert len(rows) == 501
    total = [sum(float(v) for v in row[1:]) for row in rows]
    assert max(abs(t - 1) for t in total) <= 1e-9


def test_probe_packet_outside_window_fails_the_job(tmp_path, capsys):
    # a centre far past the window once wrapped int64 offsets into a false
    # "not left-concentrated" report
    cfg = _cfg(tmp_path, job="dynamics-probe", window={"a": -512, "b": 512},
               dynamics={"center": 2 ** 62, "width": 20, "horizon": 50})
    assert main(["probe", _write(tmp_path, cfg)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "job-failed" and err["kind"] == "ConstructionError"
    assert "no support" in err["detail"] and "[-512, 512]" in err["detail"]
    assert not (tmp_path / "out.csv").exists()


def test_probe_requires_dynamics_section(tmp_path, capsys):
    cfg = _cfg(tmp_path, job="dynamics-probe")
    assert main(["probe", _write(tmp_path, cfg)]) == 2


def test_oracle_job(tmp_path):
    cfg = _cfg(tmp_path, job="oracle-check",
               coefficients={"kind": "random_decay", "params": {"seed": 3, "rate": 0.4}})
    assert main(["oracle", _write(tmp_path, cfg)]) == 0
    header, rows, _ = _read_csv(cfg["output"]["path"])
    assert all(row[header.index("status")] == "pass" for row in rows)
    checks = {row[header.index("check")]: row for row in rows}
    assert "time_domain_free_sll" not in checks
    row = checks["dynamical_vs_stationary_sll"]
    assert float(row[header.index("metric")]) <= float(row[header.index("tolerance")]) == 1e-12


def test_json_format_mirror(tmp_path):
    cfg = _cfg(tmp_path)
    cfg["output"]["format"] = "json"
    cfg["output"]["path"] = str(tmp_path / "out.json")
    assert main(["scatter", _write(tmp_path, cfg)]) == 0
    doc = json.load(open(cfg["output"]["path"]))
    assert doc["columns"][0] == "theta"
    assert len(doc["rows"]) == 4
    assert doc["config"]["job"] == "scattering-sweep"


def test_reports_identical_modulo_timestamp(tmp_path):
    cfg = _cfg(tmp_path)
    path = _write(tmp_path, cfg)
    assert main(["scatter", path]) == 0
    first = open(cfg["output"]["path"]).read()
    assert main(["scatter", path]) == 0
    second = open(cfg["output"]["path"]).read()
    strip = lambda text: [l for l in text.splitlines() if not l.startswith("# generated")]
    assert strip(first) == strip(second)
    assert first.splitlines()[2].startswith("# generated")


def test_workers_flag_matches_serial(tmp_path):
    cfg = _cfg(tmp_path)
    path = _write(tmp_path, cfg)
    assert main(["scatter", path, "--workers", "1"]) == 0
    serial = open(cfg["output"]["path"]).read()
    assert main(["scatter", path, "--workers", "2"]) == 0
    parallel = open(cfg["output"]["path"]).read()
    strip = lambda text: [l for l in text.splitlines() if not l.startswith("# generated")]
    assert strip(serial) == strip(parallel)


def test_dump_operator_flag(tmp_path):
    cfg = _cfg(tmp_path)
    dump = tmp_path / "op.csv"
    assert main(["scatter", _write(tmp_path, cfg), "--dump-operator", str(dump)]) == 0
    lines = dump.read_text().splitlines()
    assert lines[0] == "i,j,re,im"
    i, j, re, im = lines[1].split(",")
    assert abs(int(i) - int(j)) <= 2


def test_output_override_flags(tmp_path):
    cfg = _cfg(tmp_path)
    path = _write(tmp_path, cfg)
    other = tmp_path / "other.json"
    assert main(["scatter", path, "--output", str(other), "--format", "json"]) == 0
    doc = json.load(open(other))
    assert doc["version"]


def test_console_entry_point(package_env):
    out = subprocess.run([sys.executable, "-m", "cmvscat.cli", "schema"],
                         env=package_env(), capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert "CSV columns" in out.stdout
