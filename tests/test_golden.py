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
# The greedy drift row of the box cell turned inapplicable: its comparators
# leave the box, and the bound needs them inside the domain.
MOVED = {
    "tiny-box": {
        "drifting-quadratic-greedy-s3.report.json":
            "342d847f50ac4903d074930ce9033cac1af86df01de497643194848fa18446d5",
        "summary.csv":
            "c31afb5a1c06bda37f9cad89f8b55287ca7825591cb171ef71ab5c69c4a59fde",
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
