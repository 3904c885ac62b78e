"""Regenerate golden.json and record.json from the current package.

    python3 perfbench/record.py            # from the repository root

golden.json holds the sha256 of every trace, report and summary.csv that
each workload writes at the golden seed, and of the tiny cell set.  Rewrite
it only in a change whose CHANGES.md entry says which bytes moved and why.

record.json holds what the benchmark's contract file has no room for: each
workload's config and the reason it was chosen, which per-layer metric
should move which end-to-end metric on which workload, the deterministic
counts of a traced pass at the golden seed (one run plus one verify), and
the machine facts.  Its "observed" section is written by spread.py and kept
here.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import sys
import time

import numpy

import run
import workloads

RECORD = run.HERE / "record.json"

# per-layer metric -> (end-to-end metrics it should move, workloads where it
# shows).  No workload reaches an iterative prox route, so prox.residual_max
# shows nowhere: the numeric-descent route and the variability grid fallback
# run only in the untimed tiny-box cells.
LAYER_MAP = {
    "envs.make_s": (["run_s"], ["noise-seeds"]),
    "envs.round_s": (["run_s"], ["quad-sweep", "noise-seeds", "expert-shift"]),
    "learners.update_s": (["run_s"], ["noise-seeds", "quad-sweep"]),
    "learners.update_calls": (["run_s"], ["noise-seeds", "quad-sweep"]),
    "prox.solve_s": (["run_s"], ["expert-shift"]),
    "prox.calls": (["run_s"], ["expert-shift"]),
    "prox.calls.<route>": (["run_s"], ["expert-shift"]),
    "prox.residual_max": (["run_s"], []),
    "geometry.project_s": (["run_s"], ["expert-shift"]),
    "geometry.project_calls": (["run_s"], ["expert-shift"]),
    "geometry.bregman_s": (["run_s"], ["expert-shift"]),
    "combiners.update_s": (["run_s"], ["expert-shift"]),
    "combiners.play_s": (["run_s"], ["expert-shift"]),
    "combiners.bases_spawned": (["run_s"], ["expert-shift"]),
    "combiners.active_mean": (["run_s"], ["expert-shift"]),
    "losses.variability_s": (["verify_s", "run_s"], ["quad-sweep", "noise-seeds"]),
    "losses.variability_calls": (["verify_s", "run_s"], ["quad-sweep", "noise-seeds"]),
    "losses.from_dict_s": (["verify_s"], ["quad-sweep", "noise-seeds", "expert-shift"]),
    "bounds.evaluate_s": (["verify_s"], ["expert-shift"]),
    "bounds.rows_checked": (["failed_frac"], ["quad-sweep", "expert-shift"]),
    "bounds.rows_inapplicable": (["failed_frac"], ["quad-sweep", "expert-shift"]),
    "bounds.rows_failed": (["failed_frac"], ["quad-sweep", "expert-shift"]),
    "runner.loop_self_s": (["run_s", "peak_rss_mb"], ["expert-shift", "noise-seeds"]),
    "runner.trace_bytes": (["run_s", "peak_rss_mb"], ["expert-shift", "noise-seeds"]),
    "runner.parse_s": (["verify_s"], ["quad-sweep", "noise-seeds", "expert-shift"]),
    "runner.report_self_s": (["verify_s", "run_s"], ["quad-sweep", "noise-seeds"]),
    "runner.summary_s": (["verify_s", "run_s"], ["quad-sweep"]),
    "cli.write_s": (["run_s"], ["noise-seeds", "expert-shift"]),
    "cli.self_s": (["run_s", "setup_s"], ["quad-sweep", "noise-seeds", "expert-shift"]),
    "montecarlo.family_s": ([], ["noise-seeds"]),
    "tracing.overhead_s": ([], ["quad-sweep", "noise-seeds", "expert-shift"]),
}


def _golden() -> dict:
    work = run.WORK_ROOT / f"record-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    sets = {name: (cmd, build(workloads.GOLDEN_SEED))
            for name, (cmd, build, _) in workloads.WORKLOADS.items()}
    sets.update({name: ("run", cfg) for name, cfg in workloads.tiny_configs().items()})
    golden = {}
    try:
        for name, (command, config) in sets.items():
            out = work / name
            cfg = run.write_config(config, work / f"{name}.yaml")
            _, rc, _ = run.run_child([*run.DRIFTLAB, command, cfg, "--output-dir", out,
                                      "--threads", "1"], work / "log", time.monotonic() + 600)
            if rc != 0:
                raise SystemExit(f"{name}: driftlab exited {rc}")
            golden[name] = run.digests(out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return golden


def _counts(name: str) -> dict:
    bench = run.Bench(name, workloads.GOLDEN_SEED, 1)
    bench.deadline = time.monotonic() + 600
    try:
        metrics = bench.traced()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    return {k: v for k, (v, unit) in metrics.items() if unit in ("count", "bytes")}


def main() -> int:
    run.GOLDEN.write_text(json.dumps(_golden(), indent=1, sort_keys=True) + "\n")
    old = json.loads(RECORD.read_text()) if RECORD.is_file() else {}
    record = {
        "golden_seed": workloads.GOLDEN_SEED,
        "workloads": {
            name: {"command": f"driftlab {cmd}", "why": why,
                   "config_at_golden_seed": build(workloads.GOLDEN_SEED),
                   "cells": run.expected_cells(build(workloads.GOLDEN_SEED))}
            for name, (cmd, build, why) in workloads.WORKLOADS.items()
        },
        "tiny_cells": workloads.tiny_configs(),
        "layer_map": {metric: {"moves": moves, "workloads": where}
                      for metric, (moves, where) in LAYER_MAP.items()},
        "deterministic_counts": {
            "note": "one traced run plus one verify of each workload at the golden seed",
            **{name: _counts(name) for name in workloads.WORKLOADS},
        },
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "cpu": platform.processor() or platform.machine()},
        "observed": old.get("observed", {}),
    }
    RECORD.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {run.GOLDEN.relative_to(run.ROOT)} and {RECORD.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
