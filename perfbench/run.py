"""driftlab benchmark: time ``driftlab run`` and ``driftlab verify`` as a user runs them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``./src``.

``--trace 0`` measures the end-to-end metrics.  For S seconds, each
repetition starts a set-up probe (a fresh driftlab process that stops just
before its first cell), a fresh ``driftlab run`` (or ``sweep``) process at
``--threads 1`` with ``--strict``, and a fresh ``driftlab verify`` process
over every trace it wrote.  ``setup_s`` (from at least nine probes),
``run_s``, ``verify_s`` and ``peak_rss_mb`` (the run process's peak RSS)
are medians over the repetitions.  Afterwards, untimed, a ``--threads 2``
run must write the same bytes.

``--trace 1`` runs ``traced_child.py``, which calls the command line inside
one interpreter with spans around every layer, and prints the per-layer
metrics.  Spans are written to ``.perfbench-work/spans-<workload>-seed<N>.json``.
It also hashes the workload's output at the golden seed, and a tiny cell set,
against ``golden.json`` and prints ``bytes_changed`` (reported, not counted).

An operation is one cell run or one trace verified (and, with ``--trace 0``,
one set-up probe).  It fails on a nonzero exit, an integrity failure, a
checked bound that fails, a verify report that differs from the run report,
or bytes that differ between ``--threads 1`` and ``--threads 2`` (traced and
untraced with ``--trace 1``).  The last line of output is one JSON object:
correct, attempted, failed and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import yaml

import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".perfbench-work"
GOLDEN = HERE / "golden.json"

SETUP_PROBES = 9
MIN_REPS = 3
BUDGET_S = 170.0        # the whole benchmark run must end well inside 180 s
DRIFTLAB = [sys.executable, "-m", "driftlab.cli"]


class Ops:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, attempted: int, failed: int = 0, reason: str = ""):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.reasons.append(f"{failed} failed: {reason}")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _kill_group(pid: int):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(argv, log: Path, deadline: float):
    """Run one process to completion; returns (seconds, exit code, peak RSS MB)."""
    timeout = max(1.0, deadline - time.monotonic())
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in argv], stdout=out, stderr=subprocess.STDOUT,
                                env=_env(), cwd=ROOT, start_new_session=True)
        killer = threading.Timer(timeout, _kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss / 1024.0


def expected_cells(config: dict) -> int:
    n = len(config.get("algorithms") or [config["algorithm"]]) * len(config["seeds"])
    for values in config.get("sweep", {}).values():
        n *= len(values)
    return n


def write_config(config: dict, path: Path) -> Path:
    path.write_text(yaml.safe_dump(config, sort_keys=False))
    return path


def _files(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.glob("*")) if p.is_file()}


def digests(out: Path) -> dict:
    return {name: hashlib.sha256(data).hexdigest() for name, data in _files(out).items()}


def check_run(out: Path, n: int, rc: int) -> tuple[int, str]:
    """Failed cells of one run directory: missing, integrity or bound failures."""
    reports = sorted(out.glob("*.report.json"))
    bad = n - len(reports)
    for path in reports:
        rep = json.loads(path.read_text())
        failed_rows = [b for b in rep["bounds"] if b["status"] == "checked" and not b["passed"]]
        if failed_rows or not rep["integrity"]["ok"]:
            bad += 1
    if rc != 0 and bad == 0:
        bad = n
    return min(bad, n), f"run exit {rc}, {len(reports)}/{n} reports"


def check_verify(out: Path, n: int, rc: int) -> int:
    """Traces whose verify report is missing or differs from the run report."""
    if rc != 0:
        return n
    reports = sorted(out.glob("*.report.json"))
    same = sum(1 for p in reports
               if (out / "verify" / p.name).is_file()
               and (out / "verify" / p.name).read_bytes() == p.read_bytes())
    return n - same


def changed_files(a: dict, b: dict) -> list:
    """Names whose contents differ between two {file name: bytes or digest} maps."""
    return sorted(name for name in set(a) | set(b) if a.get(name) != b.get(name))


def compare_dirs(a: Path, b: Path, n: int) -> tuple[int, list]:
    """Cells whose trace or report bytes differ between two run directories."""
    differ = changed_files(_files(a), _files(b))
    cells = {name.split(".")[0] for name in differ if name != "summary.csv"}
    bad = len(cells) or (1 if differ else 0)
    return min(bad, n), differ


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int):
        self.name = workload
        self.command, build, _ = workloads.WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        config = build(seed)
        self.n = expected_cells(config)
        self.deadline = time.monotonic() + BUDGET_S
        self.work = WORK_ROOT / f"{workload}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.cfg = write_config(config, self.work / "config.yaml")
        self.ops = Ops()

    def left(self) -> float:
        return self.deadline - time.monotonic()

    # -- end-to-end --------------------------------------------------------

    def probe(self) -> float:
        """Wall time of one set-up probe process."""
        seconds, rc, _ = run_child(
            [sys.executable, HERE / "setup_child.py", self.command, self.cfg, self.work / "probe"],
            self.work / "probe.log", self.deadline)
        self.ops.add(1, int(rc != 0), f"set-up probe exited {rc}")
        return seconds

    def rep(self, i: int):
        out = self.work / f"rep{i}"
        run_s, rc, rss = run_child(
            [*DRIFTLAB, self.command, self.cfg, "--output-dir", out, "--strict", "--threads", "1"],
            self.work / "run.log", self.deadline)
        traces = sorted(out.glob("*.trace.jsonl"))
        verify_s, vrc, _ = run_child([*DRIFTLAB, "verify", *traces, "--output-dir", out / "verify"],
                                     self.work / "verify.log", self.deadline)
        bad, why = check_run(out, self.n, rc)
        self.ops.add(self.n, bad, f"cell runs ({why})")
        bad = check_verify(out, self.n, vrc)
        self.ops.add(self.n, bad, f"verify reports differ from run reports (exit {vrc})")
        if i:
            shutil.rmtree(out)
        return run_s, verify_s, rss

    def threads_check(self):
        out = self.work / "threads2"
        _, rc, _ = run_child(
            [*DRIFTLAB, self.command, self.cfg, "--output-dir", out, "--strict", "--threads", "2"],
            self.work / "threads2.log", self.deadline)
        bad, differ = compare_dirs(self.work / "rep0", out, self.n)
        if rc != 0:
            bad = self.n
        self.ops.add(self.n, bad, f"--threads 2 bytes differ from --threads 1: {differ[:5]}")

    def golden_check(self):
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
        sets = {self.name: (self.command, workloads.WORKLOADS[self.name][1](workloads.GOLDEN_SEED))}
        sets.update({name: ("run", cfg) for name, cfg in workloads.tiny_configs().items()})
        for name, (command, config) in sets.items():
            if self.left() < 30:
                print(f"bytes_changed[{name}]: not checked, time budget spent")
                continue
            out = self.work / f"golden-{name}"
            cfg = write_config(config, self.work / f"golden-{name}.yaml")
            run_child([*DRIFTLAB, command, cfg, "--output-dir", out, "--threads", "1"],
                      self.work / "golden.log", self.deadline)
            changed = changed_files(digests(out), golden.get(name, {}))
            print(f"bytes_changed[{name}]: {len(changed)}"
                  + (f"  changed: {' '.join(changed)}" if changed else ""))
            for path in sorted(out.glob("*.report.json")):
                rows = json.loads(path.read_text())["bounds"]
                for row in rows:
                    if row["status"] == "checked" and not row["passed"]:
                        print(f"  {name}: {path.name.split('.')[0]} {row['name']} fails "
                              f"(lhs {row['lhs']:.6g} > rhs {row['rhs']:.6g}); "
                              "reported, not counted")

    def end_to_end(self) -> dict:
        self.probe()  # warms the file cache and the bytecode cache; not timed
        probes, reps = [], []
        t0 = time.perf_counter()
        # set-up probes are spread over the timed window, one per repetition
        while self.left() > 60:
            probes.append(self.probe())
            reps.append(self.rep(len(reps)))
            elapsed = time.perf_counter() - t0
            if len(reps) >= MIN_REPS and elapsed * (1 + 1 / len(reps)) > self.seconds:
                break
        while len(probes) < SETUP_PROBES:
            probes.append(self.probe())
        self.threads_check()
        run_s, verify_s, rss = (statistics.median(col) for col in zip(*reps))
        print(f"{self.name} seed {self.seed}: {self.n} cells, {len(reps)} repetitions, "
              f"{len(probes)} set-up probes")
        for name, col in zip(("run_s", "verify_s", "peak_rss_mb"), zip(*reps)):
            print(f"  {name} per repetition: {' '.join(f'{v:.4f}' for v in col)}")
        return {"setup_s": (statistics.median(probes), "s"), "run_s": (run_s, "s"),
                "verify_s": (verify_s, "s"), "peak_rss_mb": (rss, "MB")}

    # -- per layer ---------------------------------------------------------

    def traced(self) -> dict:
        family = workloads.noise_seeds(self.seed)
        spans = WORK_ROOT / f"spans-{self.name}-seed{self.seed}.json"
        spec = {"command": self.command, "config": str(self.cfg), "workdir": str(self.work),
                "seconds": self.seconds, "spans": str(spans),
                "family": {"learner": "diomd-adaptive",
                           "sigma": family["environment"]["params"]["sigma"],
                           "T": family["T"], "seeds": family["seeds"]}}
        spec_path = self.work / "trace-spec.json"
        spec_path.write_text(json.dumps(spec))
        log = self.work / "traced.log"
        _, rc, _ = run_child([sys.executable, HERE / "traced_child.py", spec_path], log,
                             self.deadline)
        self.golden_check()
        lines = log.read_text().splitlines()
        if rc != 0 or not lines:
            self.ops.add(4 * self.n, 4 * self.n, f"traced run exited {rc}: {lines[-3:]}")
            return {}
        res = json.loads(lines[-1])
        codes = res["exit_codes"]
        self.ops.add(len(codes[:-4]) * self.n, sum(self.n for c in codes[:-4] if c != 0),
                     "traced or untraced command exited nonzero")
        for mode, (rc_run, rc_verify) in (("untraced", codes[-4:-2]), ("traced", codes[-2:])):
            out = self.work / mode
            bad, why = check_run(out, self.n, rc_run)
            self.ops.add(self.n, bad, f"{mode} cell runs ({why})")
            self.ops.add(self.n, check_verify(out, self.n, rc_verify),
                         f"{mode} verify reports differ from run reports")
        bad, differ = compare_dirs(self.work / "untraced", self.work / "traced", self.n)
        self.ops.add(0, bad, f"tracing changed output bytes: {differ[:5]}")
        for name in res["absent"]:
            print(f"{name}: absent")
        for note in res["notes"]:
            print(f"note: {note}")
        self_sum = statistics.median(a for a, _ in res["self_sums"])
        print(f"{self.name} seed {self.seed}: {res['passes']} traced passes; self times of "
              f"the run command sum to {self_sum:.4f} s, traced run_s "
              f"{res['traced_run_s']:.4f} s, untraced run_s {res['untraced_run_s']:.4f} s; "
              f"spans -> {spans.relative_to(ROOT)}"
              + (f" ({res['spans_dropped']} not kept)" if res["spans_dropped"] else ""))
        return {name: tuple(v) for name, v in res["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "driftlab" / "cli.py").is_file():
        print("perfbench: no driftlab package under ./src; run from the repository root",
              file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, args.seconds)
    try:
        metrics = bench.traced() if args.trace else bench.end_to_end()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    ops = bench.ops
    for reason in ops.reasons:
        print(f"failure: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(f"failed_frac: {ops.failed / max(1, ops.attempted):.6g} ratio "
          f"({ops.failed} of {ops.attempted} operations)")
    print(json.dumps({
        "correct": ops.failed == 0 and bool(metrics),
        "attempted": max(1, ops.attempted),
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
