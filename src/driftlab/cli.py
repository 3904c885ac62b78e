"""Command-line experiment runner.

Subcommands: ``run`` executes every (environment x algorithm x seed) cell of
a config and writes one trace plus one report per cell and a grid summary;
``sweep`` does the same over a cartesian parameter grid; ``verify``
recomputes a report from a trace alone; ``list-algorithms`` prints the
registry.  Exit codes: 0 success, 1 hard error, 2 bound-check or integrity
failure under --strict.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .learners import ConfigError
from .runner import (
    ALGORITHMS,
    TraceError,
    expand_config,
    expand_sweep,
    families,
    report_json,
    run_cell,
    strict_failures,
    summarize,
    verify_trace,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; keep 2 reserved for
    # strict-mode bound failures and report usage problems as hard errors
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="driftlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--output-dir", default=".", help="directory for traces, reports and summary.csv")
        p.add_argument("--strict", action="store_true",
                       help="exit 2 if any bound check fails or a trace fails integrity")
        p.add_argument("--seed-override", default=None, metavar="SEEDS",
                       help="comma-separated seed list replacing the config's seeds")
        p.add_argument("--threads", type=int, default=1, metavar="N",
                       help="worker processes; each family of seeds runs as at most N chunks")

    p_run = sub.add_parser("run", help="execute one config grid")
    p_run.add_argument("config", help="YAML or JSON experiment config")
    add_common(p_run)

    p_sweep = sub.add_parser("sweep", help="execute the cartesian sweep grid of a config")
    p_sweep.add_argument("config", help="YAML or JSON experiment config with a sweep block")
    add_common(p_sweep)

    p_verify = sub.add_parser("verify", help="recompute reports from trace files alone")
    p_verify.add_argument("traces", nargs="+", help="trace files produced by run/sweep")
    p_verify.add_argument("--output-dir", default=None,
                          help="write {cell}.report.json files here instead of stdout")
    p_verify.add_argument("--strict", action="store_true",
                          help="exit 2 on bound-check or integrity failures")

    sub.add_parser("list-algorithms", help="print the algorithm registry")
    return parser


def _load_config(path: str) -> dict:
    import yaml  # here, not at the top: verify and list-algorithms read no config

    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        config = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path}: parse error: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config {path}: top level must be a mapping")
    return config


def _parse_seeds(text: str) -> list:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"--seed-override: expected comma-separated integers, got {text!r}") from exc


def _execute(cells, threads: int, out_dir: Path) -> list:
    """Every cell's report, in cell order, each family's files written as its
    ``run_cell`` returns.  Each family runs as one ``run_cell`` call, or as at
    most ``threads`` contiguous chunks over no more workers than chunks."""
    jobs = []
    for family in families(cells):
        n = min(threads, len(family))
        jobs += [family[j * len(family) // n:(j + 1) * len(family) // n] for j in range(n)]
    workers = min(threads, len(jobs))
    if workers <= 1:
        return _write_outputs(cells, jobs, map(run_cell, jobs), out_dir)
    from concurrent.futures import ProcessPoolExecutor  # a one-process run starts no pool

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return _write_outputs(cells, jobs, pool.map(run_cell, jobs), out_dir)


def _write_outputs(cells: list, jobs: list, done, out_dir: Path) -> list:
    """The reports of ``done``'s results for ``jobs``, written job by job,
    then ``summary.csv``; the reports in cell order.  A job that fails raises
    the error of the first failing cell in cell order: the cells before its
    last that no job has written rerun one at a time until one fails."""
    where = {id(cell): i for i, cell in enumerate(cells)}
    written, done = {}, iter(done)
    for job in jobs:
        try:
            results = next(done)
        except (ConfigError, TraceError):
            for i in range(where[id(job[-1])] + 1):  # a job's cells are in cell order
                if i not in written:
                    run_cell([cells[i]])
            raise
        out_dir.mkdir(parents=True, exist_ok=True)  # only once a family is done
        for cell, res in zip(job, results):
            (out_dir / f"{res.name}.trace.jsonl").write_text("\n".join(res.trace_lines) + "\n")
            (out_dir / f"{res.name}.report.json").write_text(report_json(res.report))
            written[where[id(cell)]] = res.report
    reports = [written[i] for i in sorted(written)]
    out_dir.mkdir(parents=True, exist_ok=True)  # a grid of no cells still gets its summary
    (out_dir / "summary.csv").write_text(summarize(reports))
    return reports


def _cell_line(report: dict) -> str:
    m = report["metrics"]
    b = report["bounds_summary"]
    flag = "" if report["integrity"]["ok"] else "  INTEGRITY-FAIL"
    return (f"{report['cell']}: regret={m['regret']:.6g} ct={m['ct']:.6g} "
            f"bounds {b['passed']}/{b['checked']} passed, {b['failed']} failed{flag}")


def _grid_command(args, sweep: bool) -> int:
    config = _load_config(args.config)
    seed_override = None if args.seed_override is None else _parse_seeds(args.seed_override)
    if sweep:
        cells = expand_sweep(config, seed_override=seed_override)
    else:
        if "sweep" in config:
            raise ConfigError("config has a sweep block; use the sweep subcommand")
        cells = expand_config(config, seed_override=seed_override)
    if args.threads < 1:
        raise ConfigError("--threads must be >= 1")
    reports = _execute(cells, args.threads, Path(args.output_dir))
    for report in sorted(reports, key=lambda r: r["cell"]):
        print(_cell_line(report))
    failures = strict_failures(reports)
    print(f"{len(reports)} cells -> {args.output_dir}/summary.csv; "
          f"{len(failures)} strict failure(s)")
    return _strict_status(args, failures)


def _strict_status(args, failures: list) -> int:
    """2 under --strict if any bound row or integrity check failed (each
    named on stderr), else 0."""
    if args.strict and failures:
        for cell, name in failures:
            print(f"strict: {cell}: {name}", file=sys.stderr)
        return 2
    return 0


def _verify_command(args) -> int:
    reports = []
    for trace in args.traces:
        report = verify_trace(trace)
        reports.append(report)
        if args.output_dir is not None:
            out_dir = Path(args.output_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / f"{report['cell']}.report.json").write_text(report_json(report))
            print(_cell_line(report))
        else:
            sys.stdout.write(report_json(report))
    return _strict_status(args, strict_failures(reports))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _grid_command(args, sweep=False)
        if args.command == "sweep":
            return _grid_command(args, sweep=True)
        if args.command == "verify":
            return _verify_command(args)
        if args.command == "list-algorithms":
            for name in sorted(ALGORITHMS):
                print(f"{name:>16}  {ALGORITHMS[name][0]}")
            return 0
    except (ConfigError, TraceError, OSError) as exc:
        print(f"driftlab: error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable subcommand")


if __name__ == "__main__":
    sys.exit(main())
