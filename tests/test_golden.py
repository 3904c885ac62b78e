"""Golden digests: the bench workloads and the tiny cell set write pinned bytes.

``perfbench/golden.json`` holds the sha256 of every trace, report and
``summary.csv`` that each benchmark workload writes at the golden seed, and
of the tiny cells (every registered algorithm at T=40 plus a box cell).  This
test runs the same configs in-process and compares every written file, so a
refactor that changes output bytes fails here instead of passing silently.
``golden.json`` is regenerated only by ``perfbench/record.py``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest
import yaml

from driftlab.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())

# Files whose bytes moved on purpose since golden.json was last recorded.
# The greedy drift row and the adaptive diomd drift arms of the box cell
# turned inapplicable: its comparators leave the box, and the bounds need
# them inside the domain.  Scaffold's
# default base gained the loss_sup that the diomd builder resolves on the
# entropy mirror, so a header rebuilds its run; only that header key moved.
MOVED = {
    "tiny-box": {
        "drifting-quadratic-diomd-s3.report.json":
            "189b0fd2c8d5a77ea95daa260654b477ba948435e7693c8cd1f459d53c13ef56",
        "drifting-quadratic-greedy-s3.report.json":
            "342d847f50ac4903d074930ce9033cac1af86df01de497643194848fa18446d5",
        "summary.csv":
            "6e25e61f42fe0060f84d0719fc8d0cd7125dff9a9e4f76cc7c07c107dc699838",
    },
    "expert-shift": {
        "shifting-experts-abprod-s0.report.json":
            "5a12f84a469adb5636768ee27378c4921e3de4ba9d8156ec2b298e3f42044040",
        "shifting-experts-abprod-s0.trace.jsonl":
            "7e4f38ea13ba4ba35589bb3351cec551129380439972eadbcdf310c310ca08d7",
        "shifting-experts-scaffold-s0.report.json":
            "14b2e306e2c9f668451fc41f44b899a469e2387d221ae6ab2d15b89910c6a1f6",
        "shifting-experts-scaffold-s0.trace.jsonl":
            "b0cb4bb5b9d2e508303f184497ba89ec819e68fd043f41cb1407bafd656ac8e6",
    },
    "tiny-experts": {
        "shifting-experts-scaffold-s0.report.json":
            "007013d4c4da4a8ce464c063167e4fdb4d550f5d9f0d6e59cc4307ce67a265e5",
        "shifting-experts-scaffold-s0.trace.jsonl":
            "7a8a8b7e6407015851b39d46d6073d017495f9664877663ca060a6cf333a0e05",
    },
}


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "driftlab_bench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_WORKLOADS = _load_workloads()
SETS = {name: (command, build(_WORKLOADS.GOLDEN_SEED))
        for name, (command, build, _) in _WORKLOADS.WORKLOADS.items()}
SETS.update({name: ("run", config) for name, config in _WORKLOADS.tiny_configs().items()})


@pytest.mark.parametrize("name", sorted(SETS))
def test_golden_digests(name, tmp_path):
    command, config = SETS[name]
    cfg = tmp_path / f"{name}.yaml"
    cfg.write_text(yaml.safe_dump(config, sort_keys=False))
    out = tmp_path / "out"
    assert main([command, str(cfg), "--output-dir", str(out), "--threads", "1"]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.iterdir()) if p.is_file()}
    expected = {**GOLDEN[name], **MOVED.get(name, {})}
    assert sorted(written) == sorted(expected)
    changed = sorted(f for f in expected if written[f] != expected[f])
    assert changed == []
