"""The trace contract: ``runner._contract`` declares every header parameter,
row key and final-record key, the writer (``run_cell``) writes what it
declares, and the reader (``trace_to_report``) rejects each field that does
not fit its kind with one error line.  The fault cases are generated from
the table, so a key added to it is covered here without editing this file.
"""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import pytest

from driftlab.cli import main
from driftlab.learners import ConfigError
from driftlab.runner import ALGORITHMS, _contract, expand_config, run_cell

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BASE_KEYS = {"t", "loss", "x", "u", "value"}
ENVIRONMENTS = {
    "drifting-quadratic": {"kind": "drifting-quadratic", "params": {"tau": 2.0}},
    "shifting-experts": {"kind": "shifting-experts", "params": {"d": 4, "shifts": 3}},
}


def _records(config: dict) -> list:
    return [json.loads(line) for line in run_cell(expand_config(config)[0]).trace_lines]


def _contract_of(records: list) -> tuple:
    config = records[0]["config"]
    linear = records[1]["loss"]["kind"] == "linear"
    return _contract(config["algorithm"]["name"], config["algorithm"],
                     config["geometry"]["mirror"], linear)


@pytest.mark.parametrize("spec", [*ALGORITHMS, {"name": "diomd", "schedule": "fixed",
                                                "scale": 1.0}], ids=str)
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


def _tiny_cells() -> list:
    spec = importlib.util.spec_from_file_location(
        "driftlab_bench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [cell for config in module.tiny_configs().values()
            for cell in expand_config(config)]


# a value of the right JSON type that each kind still rejects
OUT_OF_KIND = {"positive": 0.0, "non-negative": -1.0, "at least 1": 0.5,
               "increasing pair": [1.0, 0.0], "count": 0.5, "flag": 0.5, "label": 5}
FAULTS = {"drop": None, "null": None, "text": "abc", "nan": float("nan"),
          "inf": float("inf"), "-inf": float("-inf")}


def _faults(kind):
    faults = dict(FAULTS)
    if kind == "label":
        del faults["text"]  # text is a label
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
    records = _records(cell)
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
