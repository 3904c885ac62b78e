import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

import driftlab
from driftlab import cli
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
    res = run_cell([_cell()])[0]
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
    rep = run_cell([_cell()])[0].report
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
    res = run_cell([_cell()])[0]
    assert len(calls) == 1
    assert res.report["bounds_summary"]["checked"] > 0


def test_verify_reproduces_the_report_byte_for_byte(tmp_path):
    res = run_cell([_cell()])[0]
    trace = tmp_path / "cell.trace.jsonl"
    trace.write_text("\n".join(res.trace_lines) + "\n")
    replayed = verify_trace(trace)
    assert report_json(replayed) == report_json(res.report)


def test_corrupted_delta_is_flagged_at_its_round():
    res = run_cell([_cell()])[0]
    records = [json.loads(line) for line in res.trace_lines]
    records[17]["delta"] = -0.5  # round 17 lives on line 18
    rep = trace_to_report(records)
    assert not rep["integrity"]["ok"]
    assert {"round": 17, "check": "delta-floor", "delta": -0.5} \
        in rep["integrity"]["violations"]


def test_corrupted_value_breaks_integrity_and_the_running_sum():
    res = run_cell([_cell()])[0]
    records = [json.loads(line) for line in res.trace_lines]
    records[5]["value"] += 0.25
    rep = trace_to_report(records)
    checks = {(v["check"], v.get("round")) for v in rep["integrity"]["violations"]}
    assert ("value", 5) in checks
    assert ("value-sum", None) in checks


def test_trace_validation_errors_name_the_line():
    res = run_cell([_cell()])[0]
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


@pytest.mark.parametrize("config", [
    pytest.param({**BASIC, "algorithm": {"name": "scaffold", "base": {"name": "ogd"},
                                         "loss_range": [0.0, 2.0]}},
                 id="scaffold-of-ogd-bases"),
    pytest.param({**BASIC, "geometry": {"domain": {"kind": "ball", "center": [0.0],
                                                   "radius": 1.0}}},
                 id="diomd-on-a-ball"),
])
def test_cli_verify_matches_run_output_bytes_for_other_builds(tmp_path, config):
    out, redo = tmp_path / "out", tmp_path / "redo"
    assert main(["run", _write_config(tmp_path, config), "--output-dir", str(out)]) == 0
    [trace] = out.glob("*.trace.jsonl")
    assert main(["verify", str(trace), "--output-dir", str(redo)]) == 0
    name = trace.name.replace(".trace.jsonl", ".report.json")
    assert (out / name).read_bytes() == (redo / name).read_bytes()


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
    # lane families (greedy, fixed, adaptive, doubling, ogd) and one-cell
    # families (abprod), each of five seeds, split into 1, 2 or 3 chunks
    config = {
        "environment": {"kind": "drifting-quadratic", "params": {"tau": 8.0}},
        "T": 40,
        "seeds": [0, 1, 2, 3, 4],
        "algorithms": ["greedy", {"name": "diomd", "schedule": "fixed", "scale": 1.0},
                       "diomd", "diomd-doubling", "ogd",
                       {"name": "abprod", "candidate": {"name": "diomd"}}],
    }
    cfg = _write_config(tmp_path, config)
    outs = [tmp_path / f"t{n}" for n in (1, 2, 3)]
    for n, out in zip((1, 2, 3), outs):
        assert main(["run", cfg, "--output-dir", str(out), "--threads", str(n)]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert len(names) == 2 * 30 + 1
    for out in outs[1:]:
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            assert (outs[0] / name).read_bytes() == (out / name).read_bytes(), (out, name)
    # the doubling lanes restart, and not all at the same rounds
    restarts = {tuple(json.loads(line)["t"] for line in lines[1:-1]
                      if json.loads(line)["restart"])
                for lines in (path.read_text().splitlines()
                              for path in outs[0].glob("*-diomd-doubling-*.trace.jsonl"))}
    assert len(restarts) > 1 and all(restarts)


def test_cli_starts_no_more_workers_than_jobs(tmp_path, monkeypatch):
    # a fake pool records its size and maps in process: no process starts
    import concurrent.futures

    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    three = _write_config(tmp_path, {**BASIC, "seeds": [0, 1, 2]}, "three.yaml")
    assert main(["run", three, "--output-dir", str(tmp_path / "wide"), "--threads", "1000"]) == 0
    assert sizes == [3]
    assert main(["run", three, "--output-dir", str(tmp_path / "one"), "--threads", "1"]) == 0
    for path in (tmp_path / "one").iterdir():
        assert path.read_bytes() == (tmp_path / "wide" / path.name).read_bytes()
    # one cell is one job, run in process
    one = _write_config(tmp_path, BASIC, "one.yaml")
    assert main(["run", one, "--output-dir", str(tmp_path / "cell"), "--threads", "4"]) == 0
    assert sizes == [3]


# a spec's seeds at both points of a tau sweep are one family, stepped as lanes
SWEEP = {
    "environment": {"kind": "drifting-quadratic", "params": {"tau": 1.0}},
    "T": 30,
    "seeds": [0, 1],
    "algorithms": ["greedy", "diomd", "ogd", {"name": "abprod", "candidate": {"name": "diomd"}}],
    "sweep": {"environment.params.tau": [0.5, 4.0]},
}


def test_cli_threads_do_not_change_the_bytes_of_a_sweep(tmp_path):
    cfg = _write_config(tmp_path, SWEEP)
    outs = [tmp_path / f"t{n}" for n in (1, 2, 3)]
    for n, out in zip((1, 2, 3), outs):
        assert main(["sweep", cfg, "--output-dir", str(out), "--threads", str(n)]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert len(names) == 2 * 16 + 1
    for out in outs[1:]:
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            assert (outs[0] / name).read_bytes() == (out / name).read_bytes(), (out, name)


def test_cli_returns_the_reports_of_a_sweep_in_cell_order(tmp_path):
    cells = expand_sweep(SWEEP)
    reports = cli._execute(cells, 1, tmp_path)
    assert [report["cell"] for report in reports] == [cell["name"] for cell in cells]


@pytest.mark.parametrize("threads", [1, 2])
def test_cli_a_sweep_raises_the_error_of_its_first_failing_cell(tmp_path, capsys, threads):
    # diomd from x0 = 0.5 fails at the first point (0.5 lies outside
    # [-1, 0.2]) and greedy at the second (an empty interval); greedy's family
    # runs first, but diomd's first cell comes first in cell order
    config = {"environment": {"kind": "drifting-quadratic", "params": {"tau": 1.0}}, "T": 10,
              "seeds": [0], "algorithms": ["greedy", {"name": "diomd", "x0": [0.5]}],
              "sweep": {"environment.params.hi": [0.2, -2.0]}}
    cells = expand_sweep(config)
    with pytest.raises(ConfigError) as first:
        run_cell([cells[1]])
    with pytest.raises(ConfigError) as later:
        run_cell([cells[2]])
    assert str(first.value) != str(later.value)
    cfg = _write_config(tmp_path, config)
    assert main(["sweep", cfg, "--output-dir", str(tmp_path / "out"),
                 "--threads", str(threads)]) == 1
    assert capsys.readouterr().err == f"driftlab: error: {first.value}\n"


def test_cli_reaches_every_cell_through_one_argument_run_cell(tmp_path, monkeypatch):
    # the benchmark's set-up probe swaps run_cell for a one-argument raiser
    # and counts a process that never calls it as failed
    class FirstCell(Exception):
        pass

    def stop(cells):
        raise FirstCell(cells)

    monkeypatch.setattr(cli, "run_cell", stop)
    cfg = _write_config(tmp_path, {**BASIC, "seeds": [0, 1, 2]})
    out = tmp_path / "out"
    with pytest.raises(FirstCell) as exc:
        main(["run", cfg, "--output-dir", str(out)])
    assert [cell["seed"] for cell in exc.value.args[0]] == [0, 1, 2]
    assert not out.exists()


def test_cli_writes_each_family_as_its_run_cell_returns(tmp_path):
    # a run holds the traces of at most the family it writes and the one it
    # runs, so 16 families peak within one family's trace of 2
    def config(n):
        return {"environment": {"kind": "lower-bound", "params": {"sigma": 0.3}}, "T": 1500,
                "seeds": [0], "algorithms": [{"name": "ogd", "scale": 1.0 + k}
                                             for k in range(n)]}

    main(["run", _write_config(tmp_path, config(1), "warm.yaml"), "--output-dir",
          str(tmp_path / "warm")])
    peaks = []
    for n in (2, 16):
        cfg = _write_config(tmp_path, config(n), f"c{n}.yaml")
        tracemalloc.start()
        try:
            assert main(["run", cfg, "--output-dir", str(tmp_path / f"out{n}")]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len(list((tmp_path / "out16").glob("*.trace.jsonl"))) == 16
    trace = (tmp_path / "out2" / "lower-bound-ogd-s0.trace.jsonl").stat().st_size
    assert peaks[1] - peaks[0] < trace, (peaks, trace)


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
    assert capsys.readouterr().out.splitlines() == [
        "          abprod  two-learner Prod combiner (candidate + benchmark)",
        "   adapt-ml-prod  per-expert Prod over a loss vector",
        "           diomd  implicit mirror descent, fixed or self-tuning weights",
        "  diomd-doubling  self-tuning implicit mirror descent with path doubling restarts",
        "          greedy  follow the leader of the previous round's loss",
        "             ogd  projected online gradient descent baseline",
        "        scaffold  strongly adaptive mixture over dyadic intervals",
    ]


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


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("seeds, override, field", [
    ([], None, "config field 'seeds'"),
    ([0], ",", "--seed-override"),
    ([0, 1], "", "--seed-override"),
], ids=["config-seeds", "seed-override", "empty-seed-override"])
def test_an_empty_seed_list_exits_one_naming_its_field(tmp_path, capsys, command, seeds,
                                                      override, field):
    # a grid of no cells would pass --strict with nothing checked
    config = {**BASIC, "seeds": seeds}
    if command == "sweep":
        config["sweep"] = {"environment.params.tau": [0.5, 4.0]}
    out = tmp_path / "out"
    args = [command, _write_config(tmp_path, config), "--output-dir", str(out), "--strict"]
    if override is not None:
        args += ["--seed-override", override]
    assert main(args) == 1
    assert f"driftlab: error: {field}: need at least one seed" in capsys.readouterr().err
    assert not out.exists()


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


LOWER_BOUND = {
    "environment": {"kind": "lower-bound", "params": {"sigma": 0.3}},
    "T": 20,
    "algorithm": {"name": "diomd", "schedule": "adaptive", "tau": 0.0},
}
EXPERTS = {
    "environment": {"kind": "shifting-experts", "params": {"d": 5, "shifts": 2}},
    "T": 30,
    "algorithm": {"name": "diomd", "schedule": "adaptive", "tau": 4.0},
}
ABPROD = {**BASIC, "algorithm": {"name": "abprod", "candidate": {"name": "diomd"}}}
DOUBLING = {**BASIC, "algorithm": {"name": "diomd-doubling"}}
OGD = {**BASIC, "algorithm": {"name": "ogd"}}


def _verify_mutated_trace(tmp_path, mutate, config=BASIC):
    records = [json.loads(line) for line in run_cell([_cell(config)])[0].trace_lines]
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
    pytest.param(lambda p: _run_config(p, {**BASIC, "algorithm": {
                     "name": "abprod", "loss_range": 1.0}}),
                 "config field 'algorithm.loss_range'", id="abprod-scalar-loss-range"),
    pytest.param(lambda p: _run_config(p, {**EXPERTS, "algorithm": {
                     "name": "adapt-ml-prod", "loss_range": [0, 1, 2]}}),
                 "config field 'algorithm.loss_range'", id="mlprod-three-loss-range"),
    pytest.param(lambda p: _run_config(p, {**EXPERTS, "algorithm": {
                     "name": "scaffold", "loss_range": 1.0}}),
                 "config field 'algorithm.loss_range'", id="scaffold-scalar-loss-range"),
    pytest.param(lambda p: _run_config(p, {**BASIC, "algorithm": {
                     "name": "diomd", "tau": "x"}}),
                 "config field 'algorithm.tau'", id="text-tau"),
    pytest.param(lambda p: _run_config(p, {**BASIC, "algorithm": {
                     "name": "ogd", "scale": "x"}}),
                 "config field 'algorithm.scale'", id="text-ogd-scale"),
    pytest.param(lambda p: _run_config(p, {**BASIC, "algorithm": ["greedy"]}),
                 "config field 'algorithm'", id="algorithm-list"),
    pytest.param(lambda p: _run_config(p, {**BASIC, "algorithm": {
                     "name": "diomd", "bound_style": "expert"}}),
                 "config field 'algorithm.bound_style'", id="expert-style-off-entropy"),
    pytest.param(lambda p: _run_config(p, {**EXPERTS, "algorithm": {
                     "name": "diomd", "bound_style": "bogus"}}),
                 "config field 'algorithm.bound_style'", id="unknown-bound-style"),
    # each of these failed at the parent without naming the field, or with a traceback
    pytest.param(lambda p: _run_config(p, {**BASIC, "geometry": {
                     "domain": {"kind": "box", "lo": [-1, -1], "hi": [1, 1]}}}),
                 "config field 'geometry.domain'", id="box-for-scalar-losses"),
    pytest.param(lambda p: _run_config(p, {**BASIC, "geometry": {
                     "mirror": "entropy", "domain": {"kind": "clipped-simplex", "d": 2,
                                                     "alpha": 0.1}}}),
                 "config field 'geometry.domain'", id="simplex-for-scalar-losses"),
    *(pytest.param(lambda p, base=base: _run_config(p, {**base, "algorithm": {
                       "name": "diomd", "tau": -1.0}}),
                   "config field 'algorithm.tau': must be non-negative",
                   id=f"negative-tau-{name}") for name, base in (("quad", BASIC),
                                                                ("experts", EXPERTS))),
    pytest.param(lambda p: _run_config(p, {**BASIC, "algorithm": {
                     "name": "diomd", "tau": float("nan")}}),
                 "config field 'algorithm.tau': must be a finite number", id="nan-tau"),
    pytest.param(lambda p: _run_config(p, {**BASIC, "algorithm": {
                     "name": "diomd", "tau": float("inf")}}),
                 "config field 'algorithm.tau': must be a finite number", id="infinite-tau"),
    pytest.param(lambda p: _run_config(p, {**BASIC, "algorithm": {
                     "name": "diomd", "beta_sq": 0}}),
                 "config field 'algorithm.beta_sq': must be positive", id="zero-beta-sq"),
    pytest.param(lambda p: _run_config(p, {**EXPERTS, "algorithm": {
                     "name": "scaffold", "base_beta_sq": 0}}),
                 "config field 'algorithm.base_beta_sq': must be positive",
                 id="zero-base-beta-sq"),
    pytest.param(lambda p: _run_config(p, {**EXPERTS, "algorithm": {
                     "name": "diomd", "loss_sup": -1}}),
                 "config field 'algorithm.loss_sup': must be non-negative",
                 id="negative-loss-sup"),
    pytest.param(lambda p: _run_config(p, {**BASIC, "algorithm": {
                     "name": "diomd", "schedule": "fixed", "scale": -1}}),
                 "config field 'algorithm.scale': must be positive", id="negative-scale"),
    pytest.param(lambda p: _run_config(p, {**BASIC, "algorithm": {
                     "name": "ogd", "shape": "cubic"}}),
                 "config field 'algorithm.shape'", id="unknown-shape"),
    pytest.param(lambda p: _run_config(p, {**BASIC, "algorithm": {
                     "name": "adapt-ml-prod", "d": 1}}),
                 "config field 'algorithm.d'", id="one-expert"),
    pytest.param(lambda p: _run_config(p, {**EXPERTS, "algorithm": {
                     "name": "adapt-ml-prod", "d": 4}}),
                 "config field 'algorithm.d'", id="expert-count-off-the-losses"),
    pytest.param(lambda p: _run_config(p, {**ABPROD, "algorithm": {
                     **ABPROD["algorithm"], "loss_range": [0.0, float("inf")]}}),
                 "config field 'algorithm.loss_range': must be a list of 2 finite numbers",
                 id="infinite-loss-range"),
    # a fault in one key of geometry.domain names that key (each of these four
    # named only the mapping at the parent), and a fault between keys the mapping
    pytest.param(lambda p: _run_config(p, {**BASIC, "geometry": {
                     "domain": {"kind": "interval", "lo": None, "hi": 1.0}}}),
                 "config field 'geometry.domain.lo': float() argument", id="null-interval-lo"),
    pytest.param(lambda p: _run_config(p, {**BASIC, "geometry": {
                     "domain": {"kind": "ball", "center": [float("nan")], "radius": 1.0}}}),
                 "config field 'geometry.domain.center': point has NaN",
                 id="nan-ball-center"),
    pytest.param(lambda p: _run_config(p, {**EXPERTS, "geometry": {
                     "mirror": "entropy",
                     "domain": {"kind": "clipped-simplex", "d": "abc", "alpha": 0.1}}}),
                 "config field 'geometry.domain.d': invalid literal", id="text-simplex-d"),
    pytest.param(lambda p: _run_config(p, {**BASIC, "geometry": {
                     "domain": {"kind": "interval", "hi": 1.0}}}),
                 "config field 'geometry.domain.lo': required", id="interval-without-lo"),
    pytest.param(lambda p: _run_config(p, {**BASIC, "geometry": {
                     "domain": {"kind": "interval", "lo": 1.0, "hi": 0.0}}}),
                 "config field 'geometry.domain': bad interval", id="inverted-interval"),
    pytest.param(lambda p: _run_config(p, {**BASIC, "algorithm": {
                     "name": "diomd", "schedule": "fixed", "schedule_kind": "adaptive",
                     "scale": 1.0}}),
                 "config field 'algorithm.schedule': 'fixed' differs from schedule_kind "
                 "'adaptive'", id="schedule-off-schedule-kind"),
    # a key that nothing reads: each of these ran at the parent, the first as
    # adaptive diomd, the second with its sweep dropped
    pytest.param(lambda p: _run_config(p, {**BASIC, "algorithms": [{
                     "name": "diomd", "shedule": "fixed", "scale": 1.0}]}),
                 "config field 'algorithm.shedule': unknown key", id="misspelled-schedule"),
    pytest.param(lambda p: _run_config(p, {**BASIC, "sweeps": {
                     "environment.params.tau": [0.5, 4.0]}}),
                 "config field 'sweeps': unknown key", id="misspelled-sweep"),
    pytest.param(lambda p: _run_config(p, {**BASIC, "environment": {
                     "kind": "drifting-quadratic", "param": {"tau": 4.0}}}),
                 "config field 'environment.param': unknown key", id="misspelled-params"),
    pytest.param(lambda p: _run_config(p, {**BASIC, "geometry": {"mirorr": "euclidean"}}),
                 "config field 'geometry.mirorr': unknown key", id="misspelled-mirror"),
    pytest.param(lambda p: _run_config(p, {**ABPROD, "algorithm": {
                     "name": "abprod", "candidate": {"name": "diomd", "tua": 2.0}}}),
                 "config field 'algorithm.candidate.tua': unknown key",
                 id="misspelled-nested-tau"),
    # a boolean where a number belongs: T blamed environment.params at the
    # parent, and the others ran with true read as 1 or 1.0
    pytest.param(lambda p: _run_config(p, {**BASIC, "T": True}),
                 "config field 'T': must be a positive integer", id="true-T"),
    pytest.param(lambda p: _run_config(p, {**BASIC, "seeds": [True]}),
                 "config field 'seeds': must be a list of integers", id="true-seed"),
    pytest.param(lambda p: _run_config(p, {**BASIC, "algorithm": {
                     "name": "diomd", "tau": True}}),
                 "config field 'algorithm.tau': must be a number", id="true-tau"),
    pytest.param(lambda p: _run_config(p, {**BASIC, "algorithm": {
                     "name": "ogd", "scale": True}}),
                 "config field 'algorithm.scale': must be a number", id="true-scale"),
    pytest.param(lambda p: _run_config(p, {**BASIC, "geometry": {
                     "domain": {"kind": "interval", "lo": -1.0, "hi": True}}}),
                 "config field 'geometry.domain.hi': must be a number", id="true-interval-hi"),
    pytest.param(lambda p: _run_config(p, {**BASIC, "geometry": {
                     "domain": {"kind": "box", "lo": [-1.0], "hi": [True]}}}),
                 "config field 'geometry.domain.hi': must be a number", id="true-box-hi"),
])
def test_malformed_traces_and_configs_exit_one_naming_the_field(tmp_path, capsys, argv, field):
    assert main(argv(tmp_path)) == 1
    assert field in _single_error_line(capsys.readouterr().err)


def _quadratic_losses(records):
    """Give every round a 5-d quadratic loss and recompute what depends on it."""
    for row in records[1:-1]:
        a = np.array(row["loss"]["g"])
        row["loss"] = {"kind": "quadratic", "a": a.tolist(), "y": 0.5}
        row["value"] = 0.5 * (float(a @ np.array(row["x"])) - 0.5) ** 2
    records[-1]["value_sum"] = sum(row["value"] for row in records[1:-1])


def _relabel(records, name):
    records[0]["config"]["algorithm"]["name"] = name


@pytest.mark.parametrize("config, mutate, message", [
    pytest.param(LOWER_BOUND, lambda r: r[9]["loss"].update(y=float("nan")),
                 "line 10: trace field 'loss': loss target y must be finite", id="nan-target"),
    pytest.param(LOWER_BOUND, lambda r: r[3]["loss"].update(y=float("-inf")),
                 "line 4: trace field 'loss': loss target y must be finite", id="infinite-target"),
    pytest.param(BASIC, lambda r: _relabel(r, "diomd-doubling"),
                 "line 2: missing trace field 'epoch'", id="diomd-relabelled-doubling"),
    pytest.param(EXPERTS, lambda r: r[7].pop("eg2"),
                 "line 8: missing trace field 'eg2'", id="expert-row-without-eg2"),
    pytest.param(ABPROD, lambda r: r[4].pop("r"),
                 "line 5: missing trace field 'r'", id="abprod-row-without-r"),
    pytest.param(BASIC, lambda r: r[-1].pop("lam_final"),
                 "final record: missing trace field 'lam_final'", id="final-without-lam"),
    pytest.param(BASIC, lambda r: r[4]["loss"].update(a=[1.0, 2.0]),
                 "line 5: trace field 'loss' must have dimension 1", id="loss-off-the-domain"),
    pytest.param(BASIC, lambda r: r[6].update(value="abc"),
                 "line 7: trace field 'value' must be a finite number", id="text-value"),
    pytest.param(BASIC, lambda r: r[3].update(delta="abc"),
                 "line 4: trace field 'delta' must be a finite number", id="text-delta"),
    pytest.param(BASIC, lambda r: r[3].update(delta=None),
                 "line 4: trace field 'delta' must be a finite number", id="null-delta"),
    pytest.param(BASIC, lambda r: r[5].update(gnorm_dual="x"),
                 "line 6: trace field 'gnorm_dual' must be a finite number", id="text-gnorm"),
    pytest.param(BASIC, lambda r: r[8].update(lam=None),
                 "line 9: trace field 'lam' must be a finite number", id="null-lam"),
    pytest.param(ABPROD, lambda r: r[4].update(p_a="x"),
                 "line 5: trace field 'p_a' must be a finite number", id="text-p-a"),
    pytest.param(ABPROD, lambda r: r[-2].update(k_acc=0),
                 "line 41: trace field 'k_acc' must be at least 1", id="zero-k-acc"),
    pytest.param(BASIC, lambda r: r[-1].update(lam_final="x"),
                 "final record: trace field 'lam_final' must be a finite number",
                 id="text-lam-final"),
    pytest.param(BASIC, lambda r: r[-1].update(value_sum="x"),
                 "final record: trace field 'value_sum' must be a finite number",
                 id="text-value-sum"),
    pytest.param(DOUBLING, lambda r: r[-1].update(epochs="two"),
                 "final record: trace field 'epochs' must be a non-negative integer",
                 id="text-epochs"),
    pytest.param(BASIC, lambda r: r[0]["config"]["algorithm"].pop("beta_sq"),
                 "line 1: missing trace field 'beta_sq'",
                 id="header-without-beta-sq"),
    pytest.param(BASIC, lambda r: r[0]["config"]["algorithm"].update(beta_sq="x"),
                 "line 1: trace field 'beta_sq' must be a finite number",
                 id="header-text-beta-sq"),
    pytest.param(BASIC, lambda r: r[0]["config"]["algorithm"].update(tau="x"),
                 "line 1: trace field 'tau' must be a finite number",
                 id="header-text-tau"),
    pytest.param({**EXPERTS, "algorithm": "adapt-ml-prod"},
                 lambda r: r[0]["config"]["algorithm"].update(loss_range="x"),
                 "line 1: trace field 'loss_range' must be a list of 2 finite numbers",
                 id="header-text-loss-range"),
    pytest.param(OGD, lambda r: r[0]["config"]["algorithm"].update(
                     name="diomd", schedule_kind="fixed"),
                 "line 2: trace field 'delta' must be a finite number", id="ogd-relabelled-fixed"),
    pytest.param(OGD, lambda r: r[0]["config"]["algorithm"].update(
                     name="diomd", schedule_kind="adaptive", beta_sq=1.0)
                 or r[-1].update(lam_final=1.0),
                 "line 2: trace field 'delta' must be a finite number",
                 id="ogd-relabelled-adaptive"),
    # rejected by the trace contract's kinds; each verified at the parent
    pytest.param(DOUBLING, lambda r: r[5].update(epoch=0.5),
                 "line 6: trace field 'epoch' must be a non-negative integer",
                 id="fractional-epoch"),
    pytest.param(DOUBLING, lambda r: r[5].update(restart=0.5),
                 "line 6: trace field 'restart' must be true or false", id="fractional-restart"),
    pytest.param(DOUBLING, lambda r: r[5].update(restart=7),
                 "line 6: trace field 'restart' must be true or false", id="integer-restart"),
    pytest.param(BASIC, lambda r: r[5].update(solver=5),
                 "line 6: trace field 'solver' must be a string", id="numeric-solver"),
    pytest.param(BASIC, lambda r: r[5].update(t=0.5),
                 "line 6: trace field 't' must be a non-negative integer", id="fractional-t"),
    pytest.param({**EXPERTS, "algorithm": "scaffold"}, lambda r: r[5].update(active=-3),
                 "line 6: trace field 'active' must be a non-negative integer",
                 id="negative-active"),
    pytest.param(BASIC, lambda r: r[-1].pop("value_sum"),
                 "final record: missing trace field 'value_sum'", id="final-without-value-sum"),
    pytest.param(BASIC, lambda r: r[0]["config"]["algorithm"].update(beta_sq=0),
                 "line 1: trace field 'beta_sq' must be positive", id="header-zero-beta-sq"),
    pytest.param(BASIC, lambda r: r[0]["config"]["algorithm"].update(beta_sq=-1),
                 "line 1: trace field 'beta_sq' must be positive", id="header-negative-beta-sq"),
    pytest.param(BASIC, lambda r: r[0]["config"]["algorithm"].update(tau=-1),
                 "line 1: trace field 'tau' must be non-negative", id="header-negative-tau"),
    pytest.param(EXPERTS, lambda r: r[0]["config"]["algorithm"].update(loss_sup=-1),
                 "line 1: trace field 'loss_sup' must be non-negative",
                 id="header-negative-loss-sup"),
    pytest.param({**EXPERTS, "algorithm": "adapt-ml-prod"},
                 lambda r: r[0]["config"]["algorithm"].update(loss_range=[1.0, 0.0]),
                 "line 1: trace field 'loss_range' must be increasing",
                 id="mlprod-inverted-loss-range"),
    pytest.param(ABPROD, lambda r: r[0]["config"]["algorithm"].update(loss_range=[1.0, 0.0]),
                 "line 1: trace field 'loss_range' must be increasing",
                 id="abprod-inverted-loss-range"),
    pytest.param(BASIC, lambda r: r[0]["config"]["algorithm"].update(bound_style="bogus"),
                 "line 1: trace field 'bound_style' must be one of "
                 "drift, composite, static, composite-static", id="header-bogus-bound-style"),
    pytest.param(BASIC, lambda r: r[0]["config"]["algorithm"].update(bound_style="expert"),
                 "line 1: trace field 'bound_style' must be one of "
                 "drift, composite, static, composite-static", id="header-expert-off-entropy"),
    pytest.param(BASIC, lambda r: _relabel(r, "nonsense"),
                 "line 1: header field 'config.algorithm.name': unknown algorithm 'nonsense'",
                 id="unknown-algorithm"),
    pytest.param({**EXPERTS, "algorithm": "adapt-ml-prod"},
                 lambda r: r[5]["loss"]["g"].__setitem__(0, 5.0),
                 "line 6: trace field 'loss': loss value 5.0 escapes declared range [0.0, 1.0]",
                 id="mlprod-loss-escapes-range"),
    pytest.param(EXPERTS, lambda r: _quadratic_losses(r),
                 "line 2: trace field 'loss' must be linear on the entropy mirror",
                 id="quadratic-losses-on-the-simplex"),
])
def test_cli_verify_rejects_traces_that_do_not_fit_their_header(
        tmp_path, capsys, config, mutate, message):
    argv = _verify_mutated_trace(tmp_path, mutate, config)
    assert main(argv + ["--strict"]) == 1
    line = _single_error_line(capsys.readouterr().err)
    assert line == f"driftlab: error: {argv[1]}: {message}"


def _forge_corner_plays(records):
    """Move every play to its comparator and recompute what depends on it."""
    for row in records[1:-1]:
        g = np.array(row["loss"]["g"])
        row["x"] = row["u"]
        row["value"] = float(g @ np.array(row["u"]))
        row["eg2"] = float(np.array(row["u"]) @ (g * g))
    records[-1]["value_sum"] = sum(row["value"] for row in records[1:-1])


def test_cli_verify_flags_plays_outside_the_domain(tmp_path, capsys):
    argv = _verify_mutated_trace(tmp_path, _forge_corner_plays, EXPERTS)
    assert main(argv + ["--strict"]) == 2
    assert "integrity" in capsys.readouterr().err
    report = verify_trace(argv[1])
    checks = {v["check"] for v in report["integrity"]["violations"]}
    assert checks == {"play-set"}


def test_cli_verify_flags_a_final_play_outside_the_domain(tmp_path, capsys):
    argv = _verify_mutated_trace(tmp_path, lambda r: r[-1].update(x_final=[5.0]))
    assert main(argv + ["--strict"]) == 2
    captured = capsys.readouterr()
    assert "strict: drifting-quadratic-diomd-s0: integrity" in captured.err
    violations = json.loads(captured.out)["integrity"]["violations"]
    assert violations == [{"round": None, "check": "final-play-set"}]


def test_verify_parses_the_losses_before_it_checks_the_points():
    records = [json.loads(line) for line in run_cell([_cell()])[0].trace_lines]
    records[3]["loss"].pop("y")
    records[2]["x"] = [float("nan")]
    with pytest.raises(TraceError, match="line 4: trace field 'loss'"):
        trace_to_report(records)


def test_mlprod_trees_play_on_the_probability_simplex():
    # their weights fall below the clipped floor, and that is no violation
    for spec in ("adapt-ml-prod", {"name": "abprod", "candidate": "adapt-ml-prod"}):
        res = run_cell([_cell({**EXPERTS, "algorithm": spec})])[0]
        assert res.report["integrity"]["ok"], spec
    records = [json.loads(line) for line in res.trace_lines]  # the abprod cell
    records[4]["x"] = [0.5, 0.5, 0.5, -0.5, 0.0]  # sums to 1, leaves the simplex
    checks = [v for v in trace_to_report(records)["integrity"]["violations"]
              if v["check"] == "play-set"]
    assert checks == [{"round": 4, "check": "play-set"}]


def test_scaffold_bases_play_on_the_configured_simplex():
    res = run_cell([_cell({**EXPERTS, "algorithm": "scaffold", "geometry": {
        "domain": {"kind": "clipped-simplex", "d": 5, "alpha": 0.5}}})])[0]
    header = json.loads(res.trace_lines[0])
    assert header["config"]["algorithm"]["base"]["alpha"] == 0.5
    assert res.report["integrity"]["ok"]


def test_expert_rows_read_alpha_from_the_domain():
    res = run_cell([_cell(EXPERTS)])[0]
    records = [json.loads(line) for line in res.trace_lines]
    records[0]["config"]["algorithm"]["alpha"] = 0.9
    assert trace_to_report(records)["bounds"] == res.report["bounds"]


def test_report_builds_a_constant_number_of_loss_objects(monkeypatch):
    import driftlab.losses as losses_mod

    res = run_cell([_cell({**LOWER_BOUND, "T": 1536})])[0]
    records = [json.loads(line) for line in res.trace_lines]
    built = []

    def counting(init):
        def counted(self, *args):
            built.append(type(self).__name__)
            init(self, *args)
        return counted

    for cls in (losses_mod.LinearLoss, losses_mod._AffineLoss):
        monkeypatch.setattr(cls, "__init__", counting(cls.__init__))
    report = trace_to_report(records)
    assert report_json(report) == report_json(res.report)
    assert 0 < len(built) <= 4


def test_cli_verify_error_names_the_bad_trace_file(tmp_path, capsys, monkeypatch):
    records = [json.loads(line) for line in run_cell([_cell()])[0].trace_lines]
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
    res = run_cell([_cell()])[0]
    records = [json.loads(line) for line in res.trace_lines]
    records[5]["x"] = [float("nan")]  # round 5 lives on line 6
    bad = tmp_path / "nan.trace.jsonl"
    bad.write_text("\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n")
    assert main(["verify", str(bad)]) == 1
    line = _single_error_line(capsys.readouterr().err)
    assert "line 6" in line and "'x'" in line


def test_bad_trace_points_name_the_line_and_field():
    res = run_cell([_cell()])[0]
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


@pytest.mark.parametrize("at, play, message", [
    (3, [math.nan, 0.5, 0.25, 0.25], "line 4: trace field 'x'"),
    (2, [0.5, 0.5], "line 3: trace field 'x'"),
    (41, [0.25, math.inf, 0.25, 0.25], "final record: trace field 'x_final'"),
])
def test_a_run_checks_its_plays_as_verify_does(at, play, message, monkeypatch):
    # a family of one writes from its columns, and checks its plays there
    from driftlab import combiners

    def faulty(self, weights=combiners.AdaptMLProd.x.fget):
        return np.array([play]) if self.t == at else weights(self)

    monkeypatch.setattr(combiners.AdaptMLProd, "x", property(faulty))
    cell = _cell({"environment": {"kind": "shifting-experts", "params": {"d": 4, "shifts": 3}},
                  "T": 40, "seeds": [0], "algorithm": "adapt-ml-prod"})
    with pytest.raises(TraceError, match=message):
        run_cell([cell])


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


def test_importing_the_cli_loads_neither_yaml_nor_a_process_pool():
    # verify reads no config and a one-process run starts no pool, so
    # neither pays for those imports at start-up
    src = str(Path(driftlab.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, driftlab.cli; print(sorted(m for m in "
         "('yaml', 'concurrent.futures.process') if m in sys.modules))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
