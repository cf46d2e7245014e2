"""``python -m repro perf calibrate`` — fit engine costs to a trace.

``perf calibrate --trace trace.json [--out cost_calibration.json]`` fits
a seconds-per-run intercept and a seconds-per-count constant per engine
to the observed ``engine_run`` spans and the kernel counts beneath them,
and reports the
predicted-vs-observed relative error before/after.  Exit 0 on success,
2 for bad input (missing file, not a trace, no usable ``engine_run``
spans).
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from repro.perf.calibrate import calibrate, render_calibration


def build_perf_parser() -> argparse.ArgumentParser:
    """The ``perf`` subcommand parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro perf",
        description="Cost calibration over batch trace artifacts.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    cal = sub.add_parser(
        "calibrate",
        help="fit seconds per run and per kernel count to observed "
        "engine_run latencies",
    )
    cal.add_argument(
        "--trace", required=True, metavar="PATH",
        help="a Chrome trace file written by batch --trace-out",
    )
    cal.add_argument(
        "--out", metavar="PATH",
        help="write the calibration JSON here",
    )
    return parser


def perf_main(argv: List[str]) -> int:
    """Run one ``perf`` verb; returns the process exit code."""
    args = build_perf_parser().parse_args(argv)
    try:
        calibration = calibrate(args.trace, out_path=args.out)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_calibration(calibration), end="")
    return 0
