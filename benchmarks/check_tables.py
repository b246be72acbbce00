"""Diff every deterministic table against its committed copy.

The tables below are modeled or interpreter-counted, so the same tree
prints the same text on any machine.  Each ``build_report()`` is run and
compared with ``benchmarks/results/<name>.txt``; any difference is
printed as a unified diff and the script exits 1.  The host-timed E3
column (``fig_speedup``), ``compile_cost`` and ``serve`` are timed, and
stay out.  Regenerate a table, and its ``BENCH_*.json`` trajectory if it
has one, with ``pytest benchmarks/bench_<name>.py --benchmark-disable``.

    PYTHONPATH=src python benchmarks/check_tables.py
"""

from __future__ import annotations

import difflib
import importlib
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks.common import RESULTS_DIR

TABLES = ("ablation", "fig_communication", "equivalence",
          "table1_characteristics", "fig_memaccess", "table_energy",
          "table_static_input", "table_buffers", "scaling")


def table_text(name: str) -> str:
    """The table ``bench_<name>.py`` prints, as its results file holds it."""
    report = importlib.import_module(f"benchmarks.bench_{name}").build_report()
    return (report[0] if isinstance(report, tuple) else report) + "\n"


def main() -> int:
    drifted = []
    for name in TABLES:
        text = table_text(name)
        committed = (RESULTS_DIR / f"{name}.txt").read_text()
        if text != committed:
            drifted.append(name)
            sys.stdout.writelines(difflib.unified_diff(
                committed.splitlines(keepends=True),
                text.splitlines(keepends=True),
                f"committed/{name}.txt", f"regenerated/{name}.txt"))
    for name in drifted:
        print(f"table drifted: {name}", file=sys.stderr)
    return 1 if drifted else 0


if __name__ == "__main__":
    sys.exit(main())
