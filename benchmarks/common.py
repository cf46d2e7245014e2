"""Shared helpers for the experiment benchmarks.

Each ``bench_eNN_*.py`` module regenerates one experiment from
``EXPERIMENTS.md``: it prints the experiment's table (the rows the
reproduced results are judged by) and registers timing benchmarks for the
computational kernels involved.  Run with::

    pytest benchmarks/ --benchmark-only -s

The benchmark of record for performance is ``perfbench/`` (see
``BENCHMARK.json``); these tables are the reproduced results.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def print_table(title: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Render one experiment table to stdout."""
    rows = [tuple(str(c) for c in row) for row in rows]
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(header))
    print(f"\n== {title}")
    print(line)
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))


def fmt_frac(value) -> str:
    """Render an exact Fraction with its float approximation."""
    return f"{value} ({float(value):.4f})"
