"""In-process traced run of one workload (started by run.py, not by hand).

Alternates an untraced and a traced pass until the time budget is spent.
A pass is ``driftlab run`` (or ``sweep``) followed by ``driftlab verify``
over every trace it wrote, both called through ``driftlab.cli.main`` inside
this interpreter.  Per-layer numbers are the medians over the traced passes;
``tracing.overhead_s`` is the median traced run time minus the median
untraced one.  The last line of standard output is one JSON object.

    python3 perfbench/traced_child.py SPEC.json

SPEC holds: command, config, workdir, seconds, spans (output path) and
family (the run_family arguments of the montecarlo baseline).
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

import tracer


def _pass(cli, command, config, out: Path, rec=None):
    """One run + verify, traced when a recorder is given.  Returns the run
    seconds, both exit codes and the self time recorded during the run
    command."""
    main = cli.main if rec is None else rec.span("cli.main", cli.main)
    shutil.rmtree(out, ignore_errors=True)
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        rc_run = main([command, config, "--output-dir", str(out), "--strict", "--threads", "1"])
        t1 = time.perf_counter()
        run_self = sum(rec.self_time.values()) if rec is not None else None
        traces = sorted(str(p) for p in out.glob("*.trace.jsonl"))
        rc_verify = main(["verify", *traces, "--output-dir", str(out / "verify")])
    return t1 - t0, [rc_run, rc_verify], run_self


def _family_seconds(family: dict):
    try:
        from driftlab import montecarlo
        run_family = montecarlo.run_family
    except (ImportError, AttributeError):
        return None, "montecarlo.run_family no longer exists; montecarlo.family_s skipped"
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        run_family(family["learner"], family["sigma"], family["T"], family["seeds"])
        times.append(time.perf_counter() - t0)
    return statistics.median(times), None


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    import driftlab.cli as cli

    work = Path(spec["workdir"])
    deadline = time.perf_counter() + spec["seconds"]
    untraced, traced, codes = [], [], []
    per_layer, self_sums = [], []  # self_sums: (run self-time sum, traced run_s)
    while not traced or time.perf_counter() < deadline:
        run_s, rc, _ = _pass(cli, spec["command"], spec["config"], work / "untraced")
        untraced.append(run_s)
        codes += rc
        rec = tracer.Recorder()
        inst = tracer.Instrumentation(rec)
        try:
            run_s, rc, run_self = _pass(cli, spec["command"], spec["config"],
                                        work / "traced", rec)
        finally:
            inst.close()
        traced.append(run_s)
        codes += rc
        values, absent = tracer.layer_metrics(rec, inst.present)
        per_layer.append(values)
        self_sums.append((run_self, run_s))

    metrics = {}
    for name, (_, unit) in per_layer[0].items():
        value = statistics.median(v[name][0] for v in per_layer)
        metrics[name] = [int(value) if value == int(value) and unit != "s" else value, unit]
    notes = []
    family_s, note = _family_seconds(spec["family"])
    if family_s is None:
        absent.append("montecarlo.family_s")
        notes.append(note)
    else:
        metrics["montecarlo.family_s"] = [family_s, "s"]
    metrics["tracing.overhead_s"] = [statistics.median(traced) - statistics.median(untraced), "s"]
    rec.write(spec["spans"])
    print(json.dumps({
        "metrics": metrics,
        "absent": absent,
        "notes": notes,
        "exit_codes": codes,
        "passes": len(traced),
        "traced_run_s": statistics.median(traced),
        "untraced_run_s": statistics.median(untraced),
        "self_sums": self_sums,
        "spans_dropped": rec.dropped,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
