"""Observed-cost calibration: fit the CostModel to real engine latencies.

The planner's :class:`~repro.engine.cost.CostModel` predicts abstract
"work units" — pure functions of the problem IR, comparable between
engines but never interpreted as seconds.  Every executed plan stage
records an ``engine_run`` span carrying the engine name, the stage's
estimated ``units``, and the measured duration; this module replays
those spans from a trace file (``--trace-out`` of a batch run, or the
raw drained spans) and fits one **seconds-per-unit** constant per engine
by least squares on the *relative* residual::

    minimize over c:  sum_i ((c * units_i - seconds_i) / seconds_i)^2
    =>  c = sum(x_i) / sum(x_i^2)   with   x_i = units_i / seconds_i

Relative residuals weight a 2x miss on a microsecond run the same as a
2x miss on a minute run — exactly how a planner consumes predictions.

The *before* error is what the uncalibrated model implies: a single
shared seconds-per-unit constant across every engine (its units are
only claimed comparable, so the best single constant is the fairest
reading).  The *after* error uses the per-engine fit.  Per-engine fits
minimize the same objective over a superset of parameterizations, so
the after error never exceeds the before error on the fitted data.

The result is written as ``cost_calibration.json``::

    {"schema": "repro-cost-calibration", "schema_version": 1,
     "env": {...},
     "engines": {"montecarlo": {"seconds_per_unit": 2.1e-07,
                                "runs": 14, "rel_error": 0.06}, ...},
     "error": {"before": 0.81, "after": 0.07, "runs": 31}}

which :func:`repro.engine.cost.load_calibration` reads back and any
:class:`~repro.engine.cost.CostModel`/planner optionally loads — the
estimates then carry predicted wall seconds alongside the unit counts.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from typing import Dict, List, Optional, Sequence

from repro.service.export import spans_from_chrome_trace

#: The calibration file's family marker and version.
SCHEMA_NAME = "repro-cost-calibration"
SCHEMA_VERSION = 1


def _git_commit() -> Optional[str]:
    """The current commit hash, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.SubprocessError):
        return None
    commit = out.stdout.strip()
    return commit if out.returncode == 0 and commit else None


def env_fingerprint() -> dict:
    """The environment a calibration was fitted on: its constants are
    seconds on that machine and interpreter, at that commit."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "commit": _git_commit(),
    }


def collect_engine_runs(trace) -> List[dict]:
    """``engine_run`` observations from a trace document or span list.

    *trace* is either a Chrome Trace Event document (the ``--trace-out``
    file) or a sequence of drained span dicts.  Only spans that carry
    both a positive ``units`` attribute and a positive duration are
    usable — older traces (recorded before the planner attached unit
    estimates) yield an empty list, which callers turn into exit code 2.
    """
    if isinstance(trace, dict):
        spans = spans_from_chrome_trace(trace)
    else:
        spans = list(trace)
    runs = []
    for span in spans:
        if span.get("name") != "engine_run":
            continue
        attrs = span.get("attrs")
        if not isinstance(attrs, dict):
            continue
        engine = attrs.get("engine")
        units = attrs.get("units")
        seconds = span.get("dur", 0.0)
        if not engine or not isinstance(units, (int, float)):
            continue
        if units <= 0 or seconds <= 0 or units == float("inf"):
            continue
        runs.append(
            {"engine": str(engine), "units": float(units),
             "seconds": float(seconds)}
        )
    return runs


def _fit_constant(runs: Sequence[dict]) -> Optional[float]:
    """The least-squares seconds-per-unit constant (relative residual)."""
    num = den = 0.0
    for run in runs:
        x = run["units"] / run["seconds"]
        num += x
        den += x * x
    if den == 0.0:
        return None
    return num / den


def relative_error(
    runs: Sequence[dict], coefficients: Dict[str, float]
) -> Optional[float]:
    """RMS ``(predicted - observed) / observed`` under *coefficients*.

    Root-mean-square of the same relative residual the fit minimizes,
    so the per-engine fit's error provably never exceeds the shared
    constant's on the fitted runs (a mean-absolute report would not
    inherit that guarantee from a least-squares fit).  Runs whose
    engine has no coefficient are skipped; returns None when nothing
    is comparable.
    """
    total = 0.0
    count = 0
    for run in runs:
        coefficient = coefficients.get(run["engine"])
        if coefficient is None:
            continue
        residual = (coefficient * run["units"] - run["seconds"]) / run["seconds"]
        total += residual * residual
        count += 1
    if count == 0:
        return None
    return (total / count) ** 0.5


def fit_calibration(runs: Sequence[dict]) -> dict:
    """Fit per-engine constants and the before/after error summary."""
    if not runs:
        raise ValueError(
            "no usable engine_run observations (the trace must come from "
            "a run whose planner records unit estimates on engine_run "
            "spans — re-record with --trace-out on the current version)"
        )
    by_engine: Dict[str, List[dict]] = {}
    for run in runs:
        by_engine.setdefault(run["engine"], []).append(run)

    engines: Dict[str, dict] = {}
    per_engine: Dict[str, float] = {}
    for engine, engine_runs in sorted(by_engine.items()):
        coefficient = _fit_constant(engine_runs)
        if coefficient is None:
            continue
        per_engine[engine] = coefficient
        engines[engine] = {
            "seconds_per_unit": coefficient,
            "runs": len(engine_runs),
            "rel_error": relative_error(engine_runs, {engine: coefficient}),
        }

    shared = _fit_constant(runs)
    before = (
        relative_error(runs, {engine: shared for engine in by_engine})
        if shared is not None
        else None
    )
    after = relative_error(runs, per_engine)
    return {
        "schema": SCHEMA_NAME,
        "schema_version": SCHEMA_VERSION,
        "env": env_fingerprint(),
        "engines": engines,
        "error": {"before": before, "after": after, "runs": len(runs)},
    }


def calibrate(
    trace_path: str, out_path: Optional[str] = None
) -> dict:
    """Load a trace file, fit, optionally write ``cost_calibration.json``.

    Raises ``OSError`` for unreadable paths and ``ValueError`` for
    non-trace input or traces with no usable ``engine_run`` spans
    (callers map both to exit code 2).
    """
    with open(trace_path, "r", encoding="utf-8") as handle:
        trace = json.load(handle)
    events = trace.get("traceEvents") if isinstance(trace, dict) else None
    if not isinstance(events, list) or not all(
        isinstance(event, dict) for event in events
    ):
        raise ValueError(
            f"{trace_path} is not a Chrome trace document "
            "(expected the --trace-out output of a batch run: an object "
            "whose traceEvents is a list of event objects)"
        )
    calibration = fit_calibration(collect_engine_runs(trace))
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(calibration, handle, indent=2)
            handle.write("\n")
    return calibration


def render_calibration(calibration: dict) -> str:
    """The human rendering of a calibration result."""
    lines = ["Cost-model calibration (seconds per abstract unit)"]
    engines = calibration.get("engines", {})
    if engines:
        width = max(len(name) for name in engines)
        lines.append(
            f"  {'engine'.ljust(width)}  {'sec/unit':>12}  {'runs':>5}  "
            f"{'rel err':>8}"
        )
        for name in sorted(engines):
            entry = engines[name]
            rel = entry.get("rel_error")
            lines.append(
                f"  {name.ljust(width)}  "
                f"{entry['seconds_per_unit']:>12.3e}  "
                f"{entry['runs']:>5}  "
                f"{(f'{rel * 100:.1f}%' if rel is not None else '-'):>8}"
            )
    error = calibration.get("error", {})
    before, after = error.get("before"), error.get("after")
    if before is not None and after is not None:
        lines.append(
            f"  predicted-vs-observed relative error: "
            f"{before * 100:.1f}% (uncalibrated, one shared constant) -> "
            f"{after * 100:.1f}% (per-engine) over {error.get('runs', 0)} "
            "runs"
        )
    return "\n".join(lines) + "\n"
