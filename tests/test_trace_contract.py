"""The trace contract: ``runner._contract`` declares every header parameter,
row key and final-record key, the writer (``run_cell``) writes what it
declares, and the reader (``trace_to_report``) rejects each field that does
not fit its kind with one error line.  The fault cases are generated from
the table, so a key added to it is covered here without editing this file.
Config faults are generated the same way from a table of the config fields
the builders read: each run exits 0 or with one error line naming the field.
"""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import pytest
import yaml

from driftlab.cli import main
from driftlab.learners import ConfigError
from driftlab.runner import (ALGORITHMS, _TRACE_ENCODER, _contract, expand_config, parse_trace,
                             run_cell, trace_to_report)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BASE_KEYS = {"t", "loss", "x", "u", "value"}
ENVIRONMENTS = {
    "drifting-quadratic": {"kind": "drifting-quadratic", "params": {"tau": 2.0}},
    "shifting-experts": {"kind": "shifting-experts", "params": {"d": 4, "shifts": 3}},
    "lower-bound": {"kind": "lower-bound", "params": {"sigma": 0.3}},
    "alternating-experts": {"kind": "alternating-experts"},
    "fixed-loss": {"kind": "fixed-loss"},
}


def _records(config: dict) -> list:
    return [json.loads(line) for line in run_cell(expand_config(config)[:1])[0].trace_lines]


def _contract_of(records: list) -> tuple:
    config = records[0]["config"]
    linear = records[1]["loss"]["kind"] == "linear"
    return _contract(config["algorithm"]["name"], config["algorithm"],
                     config["geometry"]["mirror"], linear)


FIXED_DIOMD = {"name": "diomd", "schedule": "fixed", "scale": 1.0}


@pytest.mark.parametrize("spec", [*ALGORITHMS, FIXED_DIOMD], ids=str)
def test_writer_matches_reader(spec):
    ran = 0
    for env in ENVIRONMENTS.values():
        try:
            records = _records({"environment": env, "T": 20, "algorithm": spec})
        except ConfigError:  # the algorithm does not run on this environment
            continue
        ran += 1
        header, rows, final = _contract_of(records)
        required = BASE_KEYS | {k for k, kind in rows.items() if kind != "nullable"}
        for row in records[1:-1]:
            assert required <= row.keys() <= BASE_KEYS | rows.keys(), (env, row.keys())
        assert records[-1].keys() == {"final", "x_final"} | final.keys(), env
        assert header.keys() <= records[0]["config"]["algorithm"].keys()
    assert ran, spec


def test_a_doubling_trace_whose_restart_rows_lack_eg2_still_verifies():
    # restart rows on the entropy mirror carry eg2 as every other round does;
    # traces written before they did omit it there, and still verify
    cell = expand_config({"environment": {"kind": "shifting-experts",
                                          "params": {"d": 3, "shifts": 6}},
                          "T": 40, "algorithm": "diomd-doubling"})[0]
    ran = run_cell([cell])[0]
    records = parse_trace("\n".join(ran.trace_lines))
    restarts = [row for row in records[1:-1] if row["restart"]]
    assert restarts and all("eg2" in row for row in records[1:-1])
    for row in restarts:
        del row["eg2"]
    assert trace_to_report(records) == ran.report


def _tiny_cells() -> list:
    spec = importlib.util.spec_from_file_location(
        "driftlab_bench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [cell for config in module.tiny_configs().values()
            for cell in expand_config(config)]


def _cell_of(header: dict) -> dict:
    """The cell a trace header describes: its config, with T and seed moved
    out of config.environment and the other keys there as the parameters."""
    config = copy.deepcopy(header["config"])
    params = config.pop("environment")
    kind, T, seed = (params.pop(key) for key in ("kind", "T", "seed"))
    assert (T, seed) == (config["T"], config["seed"])
    return {**config, "name": header["cell"], "environment": {"kind": kind, "params": params}}


def _rebuilds_from_its_header(cell: dict):
    """Run ``cell``, then the cell its trace header describes: both write the
    same trace bytes and the same report, and each line is the text the
    encoder writes for the record it holds."""
    ran = run_cell([cell])[0]
    again = run_cell([_cell_of(json.loads(ran.trace_lines[0]))])[0]
    assert again.trace_lines == ran.trace_lines
    assert again.report == ran.report
    for line in ran.trace_lines:
        assert line == _TRACE_ENCODER.encode(json.loads(line))


@pytest.mark.parametrize("cell", _tiny_cells(), ids=lambda c: c["name"])
def test_every_tiny_cell_rebuilds_from_its_header(cell):
    _rebuilds_from_its_header(cell)


@pytest.mark.parametrize("spec", [*ALGORITHMS, FIXED_DIOMD, {
    "name": "abprod", "candidate": {"name": "diomd", "x0": [0.5]},
    "benchmark": {"name": "ogd", "x0": [-0.5]}}], ids=str)
def test_every_algorithm_rebuilds_from_its_header(spec):
    ran = 0
    for env in ENVIRONMENTS.values():
        cell = expand_config({"environment": env, "T": 20, "algorithm": spec})[0]
        try:
            _rebuilds_from_its_header(cell)
        except ConfigError:  # the algorithm does not run on this environment
            continue
        ran += 1
    assert ran, spec


# a value of the right JSON type that each kind still rejects
OUT_OF_KIND = {"positive": 0.0, "non-negative": -1.0, "at least 1": 0.5,
               "increasing pair": [1.0, 0.0], "count": 0.5, "flag": 0.5, "label": 5}
# numpy reads true as 1.0 and "1.5" as 1.5, and neither is a JSON number
FAULTS = {"drop": None, "null": None, "text": "abc", "nan": float("nan"),
          "inf": float("inf"), "-inf": float("-inf"), "true": True, "numeric-text": "1.5"}


def _faults(kind):
    faults = dict(FAULTS)
    if kind == "label":
        del faults["text"], faults["numeric-text"]  # text is a label
    if kind == "flag":
        del faults["true"]  # true is a flag
    if kind == "increasing pair":
        faults.update({"pair-of-flags": [False, True], "pair-of-texts": ["0.0", "1.0"]})
    if isinstance(kind, tuple):
        faults["out-of-kind"] = "bogus"
    elif kind in OUT_OF_KIND:
        faults["out-of-kind"] = OUT_OF_KIND[kind]
    return faults


def _cases(records: list):
    """(section, key, fault, mutate, where, may pass) for every declared field."""
    header, rows, final = _contract_of(records)
    mid = len(records) // 2
    sections = [("header", header, lambda r: r[0]["config"]["algorithm"], "line 1"),
                ("row", rows, lambda r: r[mid], f"line {mid + 1}"),
                ("final", final, lambda r: r[-1], "final record")]
    for section, kinds, locate, where in sections:
        for key, kind in kinds.items():
            for fault, value in _faults(kind).items():
                def mutate(r, locate=locate, key=key, fault=fault, value=value):
                    if fault == "drop":
                        locate(r).pop(key, None)
                    else:
                        locate(r)[key] = value
                # a nullable key may be absent or null; a header parameter
                # the table only checks where written may be absent
                may_pass = (kind == "nullable" and fault in ("drop", "null")) or (
                    section == "header" and fault == "drop"
                    and key not in _contract_of(_mutated(records, mutate))[0])
                yield section, key, fault, mutate, where, may_pass


def _mutated(records, mutate):
    bad = copy.deepcopy(records)
    mutate(bad)
    return bad


@pytest.mark.parametrize("cell", _tiny_cells(), ids=lambda c: c["name"])
def test_every_declared_field_rejects_its_faults(cell, tmp_path, capsys):
    records = [json.loads(line) for line in run_cell([cell])[0].trace_lines]
    path = tmp_path / "fault.trace.jsonl"
    wrong = []
    for section, key, fault, mutate, where, may_pass in _cases(records):
        bad = _mutated(records, mutate)
        path.write_text("\n".join(json.dumps(r, sort_keys=True) for r in bad) + "\n")
        code = main(["verify", str(path), "--output-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err.strip().splitlines()
        if may_pass:
            ok = code == 0 and not err
        else:
            ok = code == 1 and len(err) == 1 and err[0].startswith(
                f"driftlab: error: {path}: {where}: ") and repr(key) in err[0]
        if not ok:
            wrong.append((section, key, fault, code, err))
    assert wrong == []


@pytest.mark.parametrize("key, value", [("x", [True]), ("x", ["0.5"]), ("u", ["0.5"])])
def test_a_point_of_flags_or_numeric_text_is_rejected(key, value, tmp_path, capsys):
    records = _records({"environment": ENVIRONMENTS["drifting-quadratic"], "T": 6,
                        "algorithm": "greedy"})
    records[3][key] = value
    path = tmp_path / "fault.trace.jsonl"
    path.write_text("\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n")
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"driftlab: error: {path}: line 4: trace field {key!r} must be a list of 1 finite "
        "numbers"]


@pytest.mark.parametrize("line, text", [(0, "[1]"), (2, "[1, 2]"), (-1, "3")],
                         ids=["header", "round", "final"])
def test_a_trace_line_that_is_not_an_object_is_named(line, text, tmp_path, capsys):
    lines = run_cell(_tiny_cells()[:1])[0].trace_lines
    lines[line] = text
    path = tmp_path / "fault.trace.jsonl"
    path.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--strict", str(path)]) == 1
    where = len(lines) if line < 0 else line + 1
    assert capsys.readouterr().err.splitlines() == [
        f"driftlab: error: {path}: line {where}: a trace line must be a JSON object"]


# ---------------------------------------------------------------------------
# config faults, generated from a table of the fields the builders read
# ---------------------------------------------------------------------------

QUAD = {"environment": {"kind": "drifting-quadratic", "params": {"tau": 1.0, "lo": -1.0,
                                                                  "hi": 1.0}}, "T": 8}
EXPERT = {"environment": {"kind": "shifting-experts", "params": {"d": 4, "shifts": 2}},
          "T": 8}
LOWER = {"environment": {"kind": "lower-bound", "params": {"sigma": 0.5}}, "T": 8}
DIOMD = {"name": "diomd"}
INTERVAL = {"domain": {"kind": "interval", "lo": -1.0, "hi": 1.0}}
BALL = {"domain": {"kind": "ball", "center": [0.0], "radius": 1.0}}
SIMPLEX = {"domain": {"kind": "clipped-simplex", "d": 4, "alpha": 0.1}}
# (field, environment, algorithm, geometry): a config that runs, with the field set
CONFIG_FIELDS = [
    ("T", QUAD, DIOMD, None), ("seeds", QUAD, DIOMD, None),
    ("environment.kind", QUAD, DIOMD, None), ("environment.params", QUAD, DIOMD, None),
    ("environment.params.tau", QUAD, DIOMD, None),
    ("environment.params.lo", QUAD, DIOMD, None), ("environment.params.hi", QUAD, DIOMD, None),
    ("environment.params.sigma", LOWER, DIOMD, None),
    ("environment.params.d", EXPERT, DIOMD, None),
    ("environment.params.shifts", EXPERT, DIOMD, None),
    ("geometry", QUAD, DIOMD, {"mirror": "euclidean"}),
    ("geometry.mirror", QUAD, DIOMD, {"mirror": "euclidean"}),
    ("geometry.domain", QUAD, DIOMD, INTERVAL),
    ("geometry.domain.lo", QUAD, DIOMD, INTERVAL), ("geometry.domain.hi", QUAD, DIOMD, INTERVAL),
    ("geometry.domain.center", QUAD, DIOMD, BALL), ("geometry.domain.radius", QUAD, DIOMD, BALL),
    ("geometry.domain.d", EXPERT, DIOMD, SIMPLEX),
    ("geometry.domain.alpha", EXPERT, DIOMD, SIMPLEX),
    ("algorithm", QUAD, DIOMD, None), ("algorithm.name", QUAD, DIOMD, None),
    ("algorithm.schedule", QUAD, {"name": "diomd", "schedule": "adaptive"}, None),
    ("algorithm.tau", QUAD, {"name": "diomd", "tau": 1.0}, None),
    ("algorithm.tau", EXPERT, {"name": "diomd", "tau": 1.0}, None),
    ("algorithm.beta_sq", QUAD, {"name": "diomd", "beta_sq": 2.0}, None),
    ("algorithm.loss_sup", EXPERT, {"name": "diomd", "loss_sup": 1.0}, None),
    ("algorithm.bound_style", QUAD, {"name": "diomd", "bound_style": "drift"}, None),
    *(("algorithm.x0", QUAD, {"name": name, "x0": [0.0]}, None)
      for name in ("diomd", "greedy", "diomd-doubling", "ogd")),
    ("algorithm.scale", QUAD, {"name": "diomd", "schedule": "fixed", "scale": 1.0}, None),
    ("algorithm.shape", QUAD, {"name": "diomd", "schedule": "fixed", "scale": 1.0,
                               "shape": "inv_t"}, None),
    ("algorithm.scale", QUAD, {"name": "ogd", "scale": 1.0}, None),
    ("algorithm.shape", QUAD, {"name": "ogd", "shape": "inv_t"}, None),
    ("algorithm.loss_range", QUAD, {"name": "abprod", "loss_range": [0.0, 1.0],
                                    "candidate": DIOMD}, None),
    ("algorithm.candidate", QUAD, {"name": "abprod", "candidate": DIOMD}, None),
    ("algorithm.benchmark", QUAD, {"name": "abprod", "candidate": DIOMD,
                                   "benchmark": {"name": "greedy"}}, None),
    ("algorithm.loss_range", EXPERT, {"name": "adapt-ml-prod", "loss_range": [0.0, 1.0]}, None),
    ("algorithm.d", EXPERT, {"name": "adapt-ml-prod", "d": 4}, None),
    ("algorithm.d", EXPERT, {"name": "scaffold", "d": 4}, None),
    ("algorithm.loss_range", EXPERT, {"name": "scaffold", "loss_range": [0.0, 1.0]}, None),
    ("algorithm.base_beta_sq", EXPERT, {"name": "scaffold", "base_beta_sq": 1.0}, None),
    ("algorithm.base", EXPERT, {"name": "scaffold", "base": DIOMD}, None),
    # a field of a nested spec is named by its whole path
    ("algorithm.candidate.tau", QUAD, {"name": "abprod", "candidate": {"name": "diomd",
                                                                       "tau": 1.0}}, None),
    ("algorithm.benchmark.scale", QUAD, {"name": "abprod", "candidate": DIOMD,
                                         "benchmark": {"name": "ogd", "scale": 1.0}}, None),
    ("algorithm.base.beta_sq", EXPERT, {"name": "scaffold", "base": {"name": "diomd",
                                                                     "beta_sq": 1.0}}, None),
    ("algorithm.candidate.x0", QUAD, {"name": "abprod", "candidate": {"name": "diomd",
                                                                      "x0": [0.0]}}, None),
]
CONFIG_FAULTS = {"null": None, "text": "abc", "nan": float("nan"), "inf": float("inf"),
                 "-inf": float("-inf"), "zero": 0, "negative": -1, "true": True, "1.5": "1.5"}
# faults that no config field accepts: true is not a number, a label or a
# mapping, and numeric text is not a number
REJECTED = ("true", "1.5")
# environments and geometry parse the keys inside these two mappings: an
# environment's errors name the mapping, and a domain's name the key, or the
# mapping for a fault between keys
PARSED_INSIDE = ("environment.params.", "geometry.domain.")


def _set(config: dict, dotted: str, value):
    *path, last = dotted.split(".")
    node = config
    for key in path:
        node = node[key]
    node[last] = value


@pytest.mark.parametrize("field, env, algorithm, geometry", CONFIG_FIELDS, ids=[
    f"{field}-{env['environment']['kind']}-{algorithm['name']}"
    for field, env, algorithm, _ in CONFIG_FIELDS])
def test_every_config_field_rejects_its_faults(field, env, algorithm, geometry,
                                               tmp_path, capsys):
    named = next((p[:-1] for p in PARSED_INSIDE if field.startswith(p)), field)
    path = tmp_path / "config.yaml"
    wrong = []
    for fault, value in CONFIG_FAULTS.items():
        config = copy.deepcopy({**env, "algorithm": algorithm, "seeds": [0],
                                **({"geometry": geometry} if geometry else {})})
        _set(config, field, value)
        path.write_text(yaml.safe_dump(config))
        code = main(["run", str(path), "--output-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err.strip().splitlines()
        names_it = len(err) == 1 and err[0].startswith("driftlab: error: config field ") and (
            f"'{named}'" in err[0] or f"'{named}." in err[0])
        ok = code == 1 and names_it or code == 0 and not err and fault not in REJECTED
        if not ok:
            wrong.append((fault, code, err))
    assert wrong == []
