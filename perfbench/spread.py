"""Run-to-run spread of the end-to-end metrics, as the acceptance rule takes it.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--seconds S] [--first-seed 100] [--save]

Runs run.py once per seed (first-seed, first-seed+1, ...) for S seconds
each (default: run_seconds of BENCHMARK.json) and prints, per metric, the
median and the distance between the first and third quartile of
``statistics.quantiles(values, n=4)`` as a share of the median.  ``--save``
stores the figures under "observed" in record.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import run


def spread(values: list) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int,
                        default=json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--save", action="store_true")
    args = parser.parse_args()
    values = {}
    started = time.time()
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload", args.workload,
                              "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                             cwd=run.ROOT, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.splitlines()[-1])
        if not result["correct"]:
            print(out.stdout)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    figures = {}
    for name, vals in values.items():
        med, iqr = spread(vals)
        figures[name] = {"median": med, "iqr_share": iqr, "min": min(vals), "max": max(vals)}
        print(f"{args.workload} {name}: median {med:.5g}, quartile spread {iqr:.2%} of median, "
              f"range {min(vals):.5g}..{max(vals):.5g} over {len(vals)} seeds")
    if args.save:
        path = run.HERE / "record.json"
        record = json.loads(path.read_text())
        record.setdefault("observed", {})[args.workload] = {
            "seeds": [args.first_seed, args.first_seed + args.runs - 1],
            "seconds": args.seconds,
            "measured_at": time.strftime("%Y-%m-%d %H:%M", time.gmtime(started)),
            "metrics": figures,
        }
        path.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
