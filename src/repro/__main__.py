"""Command-line entry point: the schema advisor and the batch runtime.

Usage::

    python -m repro "R(A,B,C); B->C"
    python -m repro advise --explain-plan "R(A,B,C); B->C"
    python -m repro --no-measure "R(C,S,Z); CS->Z; Z->C"
    python -m repro --method montecarlo --samples 400 --seed 7 "R(A,B,C); B->C"
    python -m repro batch jobs.jsonl --workers 4 --cache cache.jsonl
    python -m repro batch jobs.jsonl --processes --retries 3
    python -m repro batch jobs.jsonl --trace-out t.json --out report.json
    python -m repro metrics-report --metrics report.json --trace t.json
    python -m repro perf calibrate --trace t.json --out cost_calibration.json

The default mode (spelled ``advise`` or bare) prints the
:class:`repro.advisor.DesignReport` summary for each design argument.
``--no-measure`` skips the witness measurement; ``--method`` pins the
witness engine (``auto`` lets the planner choose between the
exponential exact sweep and the deterministic sampled estimator);
``--explain-plan`` prints the planner's decision — chosen engine, the
worlds each stage would visit, and the fallback chain.

``batch`` executes a JSONL job file (one job object per line — see
:mod:`repro.service.jobs`) through the worker pool and the
content-addressed result cache, and prints a JSON report with per-job
timing plus cache and engine-counter summaries.  ``--trace-out`` records
a span tree (Chrome/Perfetto format), and ``--processes`` shards
Monte-Carlo sampling over worker processes (their counters and spans
are merged back);
``--retries N`` gives each such chunk at most N attempts when its worker
dies.  The report's counters and the kernels' spans carry the work a
measurement cost: worlds, oracle calls, pruning checks and prune hits.
``metrics-report`` pretty-prints those artifacts, and ``perf
calibrate`` fits each engine's seconds per kernel count to a recorded
trace (see :mod:`repro.perf`).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional


def build_parser() -> argparse.ArgumentParser:
    """The advisor CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Diagnose relational designs with the information-theoretic "
            "normal-form framework (Arenas-Libkin, PODS 2003). "
            "Run 'python -m repro batch --help' for JSONL batch mode."
        ),
    )
    parser.add_argument(
        "designs",
        nargs="+",
        metavar="DESIGN",
        help='design notation, e.g. "R(A,B,C); B->C; A->>B"',
    )
    parser.add_argument(
        "--no-measure",
        action="store_true",
        help="skip the witness measurement (syntactic diagnosis only)",
    )
    # The shared --method/--samples/--seed schema (same definition the
    # batch job records validate against).
    from repro.service.validate import add_engine_options

    add_engine_options(parser)
    parser.add_argument(
        "--explain-plan",
        action="store_true",
        help="print the planner's decision for each witness measurement: "
        "chosen engine, the worlds each stage visits, fallback chain",
    )
    return parser


def build_batch_parser() -> argparse.ArgumentParser:
    """The ``batch`` subcommand parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro batch",
        description=(
            "Execute a JSONL job file (advise/measure/rpq jobs) through "
            "the worker pool and the content-addressed result cache."
        ),
    )
    parser.add_argument("jobs", metavar="JOBS.jsonl", help="JSONL job file")
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        metavar="N",
        help="worker pool size (default 4)",
    )
    parser.add_argument(
        "--processes",
        action="store_true",
        help="shard Monte-Carlo sampling over worker processes instead "
        "of threads (CPU parallelism past the GIL); engine metrics and "
        "spans recorded in the workers are merged back into the report",
    )
    parser.add_argument(
        "--cache",
        metavar="PATH",
        help="persistent cache file (JSONL): loaded if present, each "
        "result appended as it completes, compacted on exit; re-running "
        "the same batch, finished or killed, serves every stored result "
        "from it",
    )
    parser.add_argument(
        "--cache-size",
        type=int,
        default=1024,
        metavar="N",
        help="maximum cached results (default 1024)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock budget (default: unlimited); oversized "
        "exact sweeps degrade to Monte Carlo before failing",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        help="write the JSON report here instead of stdout",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=3,
        metavar="N",
        help="attempts per Monte-Carlo chunk when a worker dies "
        "(default 3; a lost chunk reruns at once)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        help="enable span tracing and write a Chrome trace-event JSON "
        "file here (open at chrome://tracing or ui.perfetto.dev)",
    )
    return parser


def build_report_parser() -> argparse.ArgumentParser:
    """The ``metrics-report`` subcommand parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro metrics-report",
        description=(
            "Pretty-print an observability report from batch artifacts: "
            "top spans by self time, job latency quantiles, and "
            "counters."
        ),
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        help="a batch report (--out) JSON file, or a bare metrics "
        "snapshot (its \"metrics\" object: counters only)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="a Chrome trace JSON file written by --trace-out",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=15,
        metavar="N",
        help="how many span rows to show (default 15)",
    )
    return parser


def report_main(argv: List[str]) -> int:
    """Run the ``metrics-report`` subcommand (0 = report printed,
    2 = unreadable/invalid input or nothing to report)."""
    import json

    from repro.service.export import (
        render_report,
        spans_from_chrome_trace,
        validate_chrome_trace,
        validate_metrics,
    )

    args = build_report_parser().parse_args(argv)
    if not args.metrics and not args.trace:
        print(
            "error: pass --metrics PATH and/or --trace PATH",
            file=sys.stderr,
        )
        return 2
    metrics = spans = None
    try:
        if args.metrics:
            with open(args.metrics, "r", encoding="utf-8") as handle:
                metrics = json.load(handle)
            validate_metrics(metrics)
        if args.trace:
            with open(args.trace, "r", encoding="utf-8") as handle:
                document = json.load(handle)
            validate_chrome_trace(document)
            spans = spans_from_chrome_trace(document)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_report(metrics=metrics, spans=spans, top=args.top), end="")
    return 0


def batch_main(argv: List[str]) -> int:
    """Run the ``batch`` subcommand; returns a process exit code
    (0 = every job succeeded, 1 = some jobs failed — typed per-job
    errors in the report, 2 = batch-level failure: bad input, missing
    file, or nothing parseable)."""
    from repro.service.budget import Budget
    from repro.service.cache import ResultCache
    from repro.service.errors import JobError
    from repro.service.export import save_trace
    from repro.service.runner import format_report, run_batch
    from repro.service.trace import TRACER
    from repro.service.validate import (
        check_output_path,
        validate_batch_options,
    )

    args = build_batch_parser().parse_args(argv)

    tracing = bool(args.trace_out)
    if tracing:
        TRACER.reset()
        TRACER.enable()
    try:
        validate_batch_options(
            workers=args.workers,
            timeout=args.timeout,
            cache_size=args.cache_size,
            retries=args.retries,
        )
        # Fail on unwritable destinations *before* the batch runs (and
        # create missing parent directories) — never at save time, when
        # the work is already spent.
        for option, value in (
            ("--out", args.out),
            ("--trace-out", args.trace_out),
            ("--cache", args.cache),
        ):
            check_output_path(option, value)
        cache = None
        if args.cache:
            cache = ResultCache.load(args.cache, maxsize=args.cache_size)

        budget = Budget(wall_seconds=args.timeout)
        report = run_batch(
            args.jobs,
            workers=args.workers,
            cache=cache,
            budget=budget,
            retries=args.retries,
            use_processes=args.processes,
        )
    except (OSError, JobError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if tracing:
            TRACER.disable()

    if args.cache:
        try:
            cache.save(args.cache)
        except OSError as exc:
            print(f"warning: cache not saved: {exc}", file=sys.stderr)

    if tracing:
        try:
            save_trace(args.trace_out, TRACER.drain())
        except OSError as exc:
            print(f"warning: observability output not saved: {exc}",
                  file=sys.stderr)

    text = format_report(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0 if report["failed"] == 0 else 1


#: The exit code of a run whose reader closed stdout: 128 + SIGPIPE, as
#: a shell reports a writer that signal ended.
EXIT_BROKEN_PIPE = 141


def main(argv: Optional[List[str]] = None) -> int:
    """Dispatch to the advisor (default) or the ``batch`` subcommand;
    returns a process exit code (advisor: 0 = all designs well-designed,
    1 = redundancy found, 2 = bad input; any command: 141 when its reader
    closed stdout early, as ``| head`` does)."""
    try:
        code = _dispatch(argv)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
    except BrokenPipeError:
        # Point stdout at devnull, so the flush at exit cannot raise too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


def _dispatch(argv: Optional[List[str]]) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "batch":
        return batch_main(argv[1:])
    if argv and argv[0] == "metrics-report":
        return report_main(argv[1:])
    if argv and argv[0] == "perf":
        from repro.perf.cli import perf_main

        return perf_main(argv[1:])
    if argv and argv[0] == "advise":
        argv = argv[1:]

    args = build_parser().parse_args(argv)
    from repro.advisor import advise
    from repro.service.validate import validate_batch_options

    try:
        validate_batch_options(samples=args.samples)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    any_redundant = False
    for design in args.designs:
        try:
            report = advise(
                design,
                measure_witness=not args.no_measure,
                method=args.method,
                samples=args.samples,
                seed=args.seed,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(report.summary())
        if args.explain_plan and report.witness_plan is not None:
            print(report.witness_plan.explain())
        any_redundant = any_redundant or not report.well_designed
    return 1 if any_redundant else 0


if __name__ == "__main__":
    sys.exit(main())
