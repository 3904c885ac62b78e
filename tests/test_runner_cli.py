import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import driftlab
from driftlab.cli import main
from driftlab.learners import ConfigError
from driftlab.runner import (
    TraceError,
    expand_config,
    expand_sweep,
    parse_trace,
    report_json,
    run_cell,
    trace_to_report,
    verify_trace,
)

BASIC = {
    "environment": {"kind": "drifting-quadratic", "params": {"tau": 1.0}},
    "T": 40,
    "seeds": [0],
    "algorithm": {"name": "diomd", "schedule": "adaptive", "tau": 2.0},
}

# mis-sized adaptive weight denominator: the weight saturates on the first
# segment and the iterate freezes while the leader moves, so the drift-bound
# arms fail as checked rows
FAULTY = {
    "environment": {"kind": "shifting-experts", "params": {"d": 5, "shifts": 5}},
    "T": 4096,
    "seeds": [0],
    "algorithm": {"name": "diomd", "schedule": "adaptive",
                  "tau": 10.0, "beta_sq": 0.001},
}


def _write_config(tmp_path, config, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(config))
    return str(path)


def _cell(config=BASIC):
    return expand_config(config)[0]


# ---------------------------------------------------------------------------
# cell execution and traces
# ---------------------------------------------------------------------------


def test_trace_shape_and_header():
    res = run_cell(_cell())
    records = [json.loads(line) for line in res.trace_lines]
    header, rows, final = records[0], records[1:-1], records[-1]
    assert header["schema_version"] == 1
    assert header["kind"] == "driftlab-trace"
    assert header["generator"] == "pcg64"
    assert header["cell"] == "drifting-quadratic-diomd-s0"
    assert header["config"]["T"] == 40
    assert header["config"]["algorithm"]["name"] == "diomd"
    assert len(rows) == 40
    for t, row in enumerate(rows, start=1):
        assert row["t"] == t
        for key in ("loss", "x", "u", "value", "delta", "lam", "gnorm_dual"):
            assert key in row
    assert final["final"] is True
    assert "x_final" in final and "value_sum" in final and "lam_final" in final


def test_report_metrics_are_consistent():
    rep = run_cell(_cell()).report
    m = rep["metrics"]
    assert m["rounds"] == 40
    assert m["regret"] == pytest.approx(m["value_sum"] - m["comparator_sum"], abs=1e-9)
    assert m["ct"] <= 1.0 + 1e-9
    assert m["vt_signed"] <= m["vt_abs"] + 1e-12
    assert rep["integrity"]["ok"]
    s = rep["bounds_summary"]
    assert s["checked"] == s["passed"] + s["failed"]
    assert s["failed"] == 0


def test_report_sweeps_the_drift_once(monkeypatch):
    calls = []
    for name, mod in list(sys.modules.items()):
        original = getattr(mod, "temporal_variability", None)
        if name.startswith("driftlab") and callable(original):
            def counted(*args, _original=original, **kwargs):
                calls.append(1)
                return _original(*args, **kwargs)
            monkeypatch.setattr(mod, "temporal_variability", counted)
    res = run_cell(_cell())
    assert len(calls) == 1
    assert res.report["bounds_summary"]["checked"] > 0


def test_verify_reproduces_the_report_byte_for_byte(tmp_path):
    res = run_cell(_cell())
    trace = tmp_path / "cell.trace.jsonl"
    trace.write_text("\n".join(res.trace_lines) + "\n")
    replayed = verify_trace(trace)
    assert report_json(replayed) == report_json(res.report)


def test_corrupted_delta_is_flagged_at_its_round():
    res = run_cell(_cell())
    records = [json.loads(line) for line in res.trace_lines]
    records[17]["delta"] = -0.5  # round 17 lives on line 18
    rep = trace_to_report(records)
    assert not rep["integrity"]["ok"]
    assert {"round": 17, "check": "delta-floor", "delta": -0.5} \
        in rep["integrity"]["violations"]


def test_corrupted_value_breaks_integrity_and_the_running_sum():
    res = run_cell(_cell())
    records = [json.loads(line) for line in res.trace_lines]
    records[5]["value"] += 0.25
    rep = trace_to_report(records)
    checks = {(v["check"], v.get("round")) for v in rep["integrity"]["violations"]}
    assert ("value", 5) in checks
    assert ("value-sum", None) in checks


def test_trace_validation_errors_name_the_line():
    res = run_cell(_cell())
    records = [json.loads(line) for line in res.trace_lines]
    with pytest.raises(TraceError, match="truncated"):
        trace_to_report(records[:-1] + [{"t": 41}])
    with pytest.raises(TraceError, match="header"):
        trace_to_report([{"kind": "other"}] + records[1:])
    with pytest.raises(TraceError, match="schema_version"):
        bad = dict(records[0], schema_version=99)
        trace_to_report([bad] + records[1:])
    with pytest.raises(TraceError, match="rounds, config says"):
        trace_to_report(records[:10] + records[11:])
    with pytest.raises(TraceError, match="at least one round"):
        trace_to_report(records[:2])


def test_parse_trace_reports_malformed_lines():
    with pytest.raises(TraceError, match="line 2: malformed"):
        parse_trace('{"kind": "driftlab-trace"}\n{broken\n')
    assert parse_trace('{"a": 1}\n\n{"b": 2}\n') == [{"a": 1}, {"b": 2}]


# ---------------------------------------------------------------------------
# grid expansion
# ---------------------------------------------------------------------------


def test_expand_config_is_algorithms_times_seeds():
    config = {
        "environment": {"kind": "fixed-loss"},
        "T": 8,
        "seeds": [0, 3],
        "algorithms": ["greedy", {"name": "ogd", "scale": 0.5}],
    }
    cells = expand_config(config)
    assert [c["name"] for c in cells] == [
        "fixed-loss-greedy-s0", "fixed-loss-greedy-s3",
        "fixed-loss-ogd-s0", "fixed-loss-ogd-s3",
    ]
    assert all(c["T"] == 8 for c in cells)


def test_expand_config_deduplicates_names():
    config = {
        "environment": {"kind": "fixed-loss"},
        "T": 8,
        "algorithms": ["greedy", "greedy"],
    }
    names = [c["name"] for c in expand_config(config)]
    assert names == ["fixed-loss-greedy-s0", "fixed-loss-greedy-s0-1"]


def test_expand_config_validation_names_the_field():
    with pytest.raises(ConfigError, match="'environment'"):
        expand_config({"T": 8, "algorithm": "greedy"})
    with pytest.raises(ConfigError, match="'T'"):
        expand_config({"environment": {"kind": "fixed-loss"}, "algorithm": "greedy"})
    with pytest.raises(ConfigError, match="algorithms"):
        expand_config({"environment": {"kind": "fixed-loss"}, "T": 8})
    with pytest.raises(ConfigError, match="seeds"):
        expand_config({"environment": {"kind": "fixed-loss"}, "T": 8,
                       "algorithm": "greedy", "seeds": "0"})


def test_expand_config_seed_override_accepts_scalar_and_list():
    config = dict(BASIC)
    assert [c["seed"] for c in expand_config(config, seed_override=7)] == [7]
    assert [c["seed"] for c in expand_config(config, seed_override=[4, 5])] == [4, 5]


def test_expand_sweep_builds_the_cartesian_grid():
    config = {
        "environment": {"kind": "drifting-quadratic", "params": {"tau": 1.0}},
        "T": 16,
        "seeds": [0],
        "algorithm": {"name": "diomd", "schedule": "adaptive"},
        "sweep": {"algorithm.tau": [1.0, 2.0], "T": [16, 32]},
    }
    cells = expand_sweep(config)
    assert len(cells) == 4
    names = {c["name"] for c in cells}
    assert names == {
        "drifting-quadratic-diomd-s0-T16-tau1.0",
        "drifting-quadratic-diomd-s0-T16-tau2.0",
        "drifting-quadratic-diomd-s0-T32-tau1.0",
        "drifting-quadratic-diomd-s0-T32-tau2.0",
    }
    by_name = {c["name"]: c for c in cells}
    assert by_name["drifting-quadratic-diomd-s0-T32-tau2.0"]["T"] == 32
    assert by_name["drifting-quadratic-diomd-s0-T32-tau2.0"]["algorithm"]["tau"] == 2.0
    # the original config object is not mutated by grid assignment
    assert config["algorithm"] == {"name": "diomd", "schedule": "adaptive"}


def test_expand_sweep_without_block_matches_plain_expansion():
    assert expand_sweep(BASIC) == expand_config(BASIC)
    with pytest.raises(ConfigError, match="sweep"):
        expand_sweep({**BASIC, "sweep": {"algorithm.tau": 2.0}})


# ---------------------------------------------------------------------------
# cli: run / verify round trip
# ---------------------------------------------------------------------------


def test_cli_run_writes_traces_reports_and_summary(tmp_path, capsys):
    cfg = _write_config(tmp_path, BASIC)
    out = tmp_path / "out"
    assert main(["run", cfg, "--output-dir", str(out)]) == 0
    assert (out / "drifting-quadratic-diomd-s0.trace.jsonl").exists()
    assert (out / "drifting-quadratic-diomd-s0.report.json").exists()
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0].startswith("schema_version,cell,environment,algorithm,seed,rounds,regret")
    assert len(lines) == 2
    captured = capsys.readouterr().out
    assert "drifting-quadratic-diomd-s0: regret=" in captured
    assert "1 cells" in captured


def test_cli_summary_floats_round_trip(tmp_path):
    cfg = _write_config(tmp_path, BASIC)
    out = tmp_path / "out"
    main(["run", cfg, "--output-dir", str(out)])
    import csv as _csv
    with open(out / "summary.csv") as fh:
        row = next(_csv.DictReader(fh))
    rep = json.loads((out / "drifting-quadratic-diomd-s0.report.json").read_text())
    assert float(row["regret"]) == rep["metrics"]["regret"]
    assert float(row["ct"]) == rep["metrics"]["ct"]
    assert row["integrity_ok"] == "True"


def test_cli_verify_matches_run_output_bytes(tmp_path):
    cfg = _write_config(tmp_path, BASIC)
    out = tmp_path / "out"
    main(["run", cfg, "--output-dir", str(out)])
    redo = tmp_path / "redo"
    trace = out / "drifting-quadratic-diomd-s0.trace.jsonl"
    assert main(["verify", str(trace), "--output-dir", str(redo)]) == 0
    a = (out / "drifting-quadratic-diomd-s0.report.json").read_bytes()
    b = (redo / "drifting-quadratic-diomd-s0.report.json").read_bytes()
    assert a == b


def test_cli_verify_prints_report_to_stdout(tmp_path, capsys):
    cfg = _write_config(tmp_path, BASIC)
    out = tmp_path / "out"
    main(["run", cfg, "--output-dir", str(out)])
    capsys.readouterr()
    trace = out / "drifting-quadratic-diomd-s0.trace.jsonl"
    assert main(["verify", str(trace)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["cell"] == "drifting-quadratic-diomd-s0"


def test_cli_grid_output_is_order_independent(tmp_path):
    base = {
        "environment": {"kind": "lower-bound", "params": {"sigma": 0.3}},
        "T": 64,
        "seeds": [0],
    }
    cfg_a = _write_config(tmp_path, {**base, "algorithms": ["greedy", "ogd"]}, "a.yaml")
    cfg_b = _write_config(tmp_path, {**base, "algorithms": ["ogd", "greedy"]}, "b.yaml")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["run", cfg_a, "--output-dir", str(out_a)])
    main(["run", cfg_b, "--output-dir", str(out_b)])
    for name in ("lower-bound-greedy-s0.trace.jsonl",
                 "lower-bound-greedy-s0.report.json",
                 "lower-bound-ogd-s0.trace.jsonl",
                 "lower-bound-ogd-s0.report.json",
                 "summary.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_cli_threads_do_not_change_bytes(tmp_path):
    config = {
        "environment": {"kind": "fixed-loss"},
        "T": 16,
        "seeds": [0, 1, 2],
        "algorithm": "greedy",
    }
    cfg = _write_config(tmp_path, config)
    out_1, out_2 = tmp_path / "t1", tmp_path / "t2"
    assert main(["run", cfg, "--output-dir", str(out_1), "--threads", "1"]) == 0
    assert main(["run", cfg, "--output-dir", str(out_2), "--threads", "2"]) == 0
    for path in sorted(out_1.iterdir()):
        assert path.read_bytes() == (out_2 / path.name).read_bytes()


def test_cli_seed_override(tmp_path):
    cfg = _write_config(tmp_path, BASIC)
    out = tmp_path / "out"
    assert main(["run", cfg, "--output-dir", str(out), "--seed-override", "5,6"]) == 0
    cells = {p.name for p in out.glob("*.trace.jsonl")}
    assert cells == {"drifting-quadratic-diomd-s5.trace.jsonl",
                     "drifting-quadratic-diomd-s6.trace.jsonl"}


def test_cli_sweep_expands_and_tags_cells(tmp_path):
    config = {**BASIC, "sweep": {"algorithm.tau": [1.0, 2.0]}}
    cfg = _write_config(tmp_path, config)
    out = tmp_path / "out"
    assert main(["sweep", cfg, "--output-dir", str(out)]) == 0
    cells = {p.name for p in out.glob("*.report.json")}
    assert cells == {"drifting-quadratic-diomd-s0-tau1.0.report.json",
                     "drifting-quadratic-diomd-s0-tau2.0.report.json"}


def test_cli_accepts_json_configs(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASIC))
    out = tmp_path / "out"
    assert main(["run", str(path), "--output-dir", str(out)]) == 0


# ---------------------------------------------------------------------------
# cli: exit codes
# ---------------------------------------------------------------------------


def test_cli_list_algorithms(capsys):
    assert main(["list-algorithms"]) == 0
    out = capsys.readouterr().out
    for name in ("greedy", "diomd", "diomd-doubling", "ogd",
                 "abprod", "adapt-ml-prod", "scaffold"):
        assert name in out


def test_cli_hard_errors_exit_one(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.yaml")]) == 1
    assert "driftlab: error" in capsys.readouterr().err

    cfg = _write_config(tmp_path, {**BASIC, "algorithm": "nonsense"})
    assert main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == 1
    assert "unknown algorithm" in capsys.readouterr().err

    cfg = _write_config(tmp_path, {**BASIC, "sweep": {"T": [8]}}, "s.yaml")
    assert main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == 1
    assert "use the sweep subcommand" in capsys.readouterr().err

    cfg = _write_config(tmp_path, BASIC, "ok.yaml")
    assert main(["run", cfg, "--seed-override", "a,b"]) == 1
    assert main(["run", cfg, "--output-dir", str(tmp_path / "o"), "--threads", "0"]) == 1


def test_cli_usage_errors_exit_one():
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_cli_strict_mode_flags_real_bound_failures(tmp_path, capsys):
    cfg = _write_config(tmp_path, FAULTY)
    out = tmp_path / "out"
    # lenient run reports the failures but exits cleanly
    assert main(["run", cfg, "--output-dir", str(out)]) == 0
    assert "3 strict failure(s)" in capsys.readouterr().out
    assert main(["run", cfg, "--output-dir", str(out), "--strict"]) == 2
    err = capsys.readouterr().err
    assert "strict: shifting-experts-diomd-s0: expert-arm-endpoint" in err
    assert "expert-arm-gradient" in err and "expert-first-order" in err


def test_cli_strict_verify_flags_corruption(tmp_path, capsys):
    cfg = _write_config(tmp_path, BASIC)
    out = tmp_path / "out"
    main(["run", cfg, "--output-dir", str(out)])
    trace = out / "drifting-quadratic-diomd-s0.trace.jsonl"
    lines = trace.read_text().splitlines()
    row = json.loads(lines[17])
    row["delta"] = -0.5
    lines[17] = json.dumps(row, sort_keys=True)
    bad = tmp_path / "bad.trace.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", str(bad)]) == 0  # lenient still prints the report
    assert main(["verify", str(bad), "--strict"]) == 2
    assert "integrity" in capsys.readouterr().err


def test_cli_verify_malformed_trace_exits_one(tmp_path, capsys):
    bad = tmp_path / "broken.trace.jsonl"
    bad.write_text('{"kind": "driftlab-trace"}\n{oops\n')
    assert main(["verify", str(bad)]) == 1
    assert "malformed" in capsys.readouterr().err


def _single_error_line(err: str) -> str:
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("driftlab: error:"), err
    return lines[0]


def test_cli_out_of_domain_start_point_is_a_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "environment": {"kind": "lower-bound", "params": {"sigma": 0.3}},
        "T": 64,
        "algorithm": {"name": "diomd", "x0": [3.0]},
    })
    assert main(["run", cfg, "--output-dir", str(tmp_path / "out")]) == 1
    line = _single_error_line(capsys.readouterr().err)
    assert "algorithm.x0" in line


def _verify_mutated_trace(tmp_path, mutate):
    records = [json.loads(line) for line in run_cell(_cell()).trace_lines]
    mutate(records)
    bad = tmp_path / "bad.trace.jsonl"
    bad.write_text("\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n")
    return ["verify", str(bad)]


def _run_config(tmp_path, config):
    return ["run", _write_config(tmp_path, config), "--output-dir", str(tmp_path / "out")]


@pytest.mark.parametrize("argv, field", [
    pytest.param(lambda p: _verify_mutated_trace(p, lambda r: r[0]["config"].pop("T")),
                 "line 1: missing header field 'config.T'", id="header-without-T"),
    pytest.param(lambda p: _verify_mutated_trace(p, lambda r: r[0]["config"].update(T=40.0)),
                 "config says T=40.0", id="header-with-float-T"),
    pytest.param(lambda p: _verify_mutated_trace(p, lambda r: r[0]["config"].pop("geometry")),
                 "line 1: missing header field 'config.geometry'", id="header-without-geometry"),
    pytest.param(lambda p: _verify_mutated_trace(p, lambda r: r[3]["loss"].pop("y")),
                 "line 4: trace field 'loss'", id="loss-without-y"),
    pytest.param(lambda p: _run_config(p, {**BASIC, "geometry": {
                     "domain": {"kind": "box", "lo": [0.4], "hi": [-0.4]}}}),
                 "config field 'geometry.domain'", id="inverted-box"),
    pytest.param(lambda p: _run_config(p, {**BASIC, "algorithm": {
                     "name": "abprod", "loss_range": [0.0, 0.001],
                     "candidate": {"name": "diomd"}}}),
                 "config field 'algorithm.loss_range'", id="undersized-loss-range"),
])
def test_malformed_traces_and_configs_exit_one_naming_the_field(tmp_path, capsys, argv, field):
    assert main(argv(tmp_path)) == 1
    assert field in _single_error_line(capsys.readouterr().err)


def test_cli_verify_error_names_the_bad_trace_file(tmp_path, capsys, monkeypatch):
    records = [json.loads(line) for line in run_cell(_cell()).trace_lines]
    (tmp_path / "good.jsonl").write_text(
        "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n")
    records[0]["config"].pop("T")
    (tmp_path / "bad.jsonl").write_text(
        "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n")
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "good.jsonl", "bad.jsonl", "--output-dir", "out"]) == 1
    assert _single_error_line(capsys.readouterr().err) == \
        "driftlab: error: bad.jsonl: line 1: missing header field 'config.T'"


def test_cli_verify_rejects_a_nan_play_with_one_error_line(tmp_path, capsys):
    res = run_cell(_cell())
    records = [json.loads(line) for line in res.trace_lines]
    records[5]["x"] = [float("nan")]  # round 5 lives on line 6
    bad = tmp_path / "nan.trace.jsonl"
    bad.write_text("\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n")
    assert main(["verify", str(bad)]) == 1
    line = _single_error_line(capsys.readouterr().err)
    assert "line 6" in line and "'x'" in line


def test_bad_trace_points_name_the_line_and_field():
    res = run_cell(_cell())
    records = [json.loads(line) for line in res.trace_lines]
    cases = [
        (9, "x", [float("inf")], "line 10: trace field 'x'"),
        (3, "u", [0.1, 0.2], "line 4: trace field 'u'"),
        (7, "u", "abc", "line 8: trace field 'u'"),
        (-1, "x_final", [float("-inf")], "final record: trace field 'x_final'"),
    ]
    for index, field, value, message in cases:
        bad = [dict(r) for r in records]
        bad[index][field] = value
        with pytest.raises(TraceError, match=message):
            trace_to_report(bad)


def test_cli_module_entry_point(tmp_path):
    cfg = _write_config(tmp_path, {
        "environment": {"kind": "fixed-loss"},
        "T": 4,
        "algorithm": "greedy",
    })
    # the child imports the same package as this test, wherever it lives
    src = str(Path(driftlab.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "driftlab.cli", "run", cfg,
         "--output-dir", str(tmp_path / "out")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "fixed-loss-greedy-s0" in proc.stdout
