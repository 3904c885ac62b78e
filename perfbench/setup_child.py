"""Set-up probe: a driftlab process that stops just before its first cell.

    python3 perfbench/setup_child.py run|sweep CONFIG OUTPUT_DIR

Runs the real command line (argument parsing, package imports, config load
and expansion) and exits 0 at the first ``run_cell`` call, so its wall time
is what every ``driftlab run`` pays before doing any work.  Exits 3 if the
command finished without reaching a cell.
"""

import sys


class _FirstCell(Exception):
    pass


def _stop(cell):
    raise _FirstCell


def main(argv) -> int:
    import driftlab.cli as cli

    cli.run_cell = _stop
    try:
        cli.main([argv[0], argv[1], "--output-dir", argv[2], "--threads", "1"])
    except _FirstCell:
        return 0
    return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
