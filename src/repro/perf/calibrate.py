"""Observed-cost calibration: seconds per run and per unit of kernel work.

A plan says how many worlds each stage would visit, and the kernels
count what they did: the planner puts every finished stage's
``worlds``, ``oracle_calls``, ``prune_calls`` and ``leaves`` on its
``engine_run`` span.  This module replays a trace (``--trace-out`` of a
batch run, or the raw drained spans), sums those four counts on each
``engine_run`` span, and fits per engine a **seconds-per-run**
intercept ``a`` (what every run pays whatever it counts: planning the
stage, building the instance's checks) and a **seconds-per-count**
slope ``c``, by least squares on the *relative* residual::

    minimize over a, c >= 0:  sum_i ((a + c * count_i - seconds_i) / seconds_i)^2

a linear least-squares problem in ``(a, c)`` with the features
``1 / seconds_i`` and ``count_i / seconds_i`` and target 1.  When its
solution is negative in either parameter, or an engine's runs cannot
tell the two apart (one run, or every run the same seconds per count),
the better of the two one-parameter fits is taken.  Relative residuals
weight a 2x miss on a microsecond run the same as a 2x miss on a minute
run.

The *before* error fits one seconds-per-count constant shared by every
engine, with no intercept; the *after* error uses the per-engine fits.
They minimize the same objective over a superset of parameterizations,
so the after error never exceeds the before error on the fitted data.

The result is written as ``cost_calibration.json``::

    {"schema": "repro-cost-calibration", "schema_version": 3,
     "env": {...},
     "engines": {"montecarlo": {"seconds_per_run": 3.1e-04,
                                "seconds_per_count": 2.1e-05,
                                "runs": 14, "rel_error": 0.06}, ...},
     "error": {"before": 0.55, "after": 0.21, "runs": 31}}

a record of the machine's speed per engine; nothing in the library
loads it.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from typing import Dict, List, Optional, Sequence, Tuple

from repro.service.export import spans_from_chrome_trace

#: The calibration file's family marker and version.
SCHEMA_NAME = "repro-cost-calibration"
SCHEMA_VERSION = 3

#: The counts whose sum is a run's work.
COUNTS = ("worlds", "oracle_calls", "prune_calls", "leaves")


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


def _count(span: dict) -> int:
    """The summed :data:`COUNTS` of an ``engine_run`` span."""
    values = (span.get("attrs", {}).get(name) for name in COUNTS)
    return sum(v for v in values if isinstance(v, int))


def collect_engine_runs(trace) -> List[dict]:
    """``engine_run`` observations from a trace document or span list.

    *trace* is either a Chrome Trace Event document (the ``--trace-out``
    file) or a sequence of drained span dicts.  A run's count is the sum
    of :data:`COUNTS` on its own span.  A run that failed (a timed-out
    stage), took no time or counted nothing is skipped; a trace with
    none left yields an empty list, which callers turn into exit code 2.
    """
    spans = spans_from_chrome_trace(trace) if isinstance(trace, dict) else trace
    runs = [
        {"engine": str(span["attrs"]["engine"]), "count": _count(span),
         "seconds": float(span["dur"])}
        for span in spans
        if span.get("name") == "engine_run"
        and span.get("attrs", {}).get("engine") and not span.get("error")
        and span.get("dur", 0) > 0
    ]
    return [run for run in runs if run["count"] > 0]


#: ``(seconds per run, seconds per count)`` of an engine.
Coefficients = Tuple[float, float]


def _fit_constant(runs: Sequence[dict]) -> Optional[float]:
    """The least-squares seconds-per-count constant (relative residual,
    no intercept)."""
    num = den = 0.0
    for run in runs:
        x = run["count"] / run["seconds"]
        num += x
        den += x * x
    if den == 0.0:
        return None
    return num / den


def _fit_engine(runs: Sequence[dict]) -> Optional[Coefficients]:
    """The least-squares ``(seconds per run, seconds per count)`` of one
    engine's runs, both at least 0 (relative residual)."""
    suu = suv = svv = su = sv = 0.0
    for run in runs:
        u, v = 1.0 / run["seconds"], run["count"] / run["seconds"]
        suu, suv, svv, su, sv = suu + u * u, suv + u * v, svv + v * v, su + u, sv + v
    if svv == 0.0:
        return None
    det = suu * svv - suv * suv
    if det > 1e-12 * suu * svv:
        a, c = (su * svv - sv * suv) / det, (sv * suu - su * suv) / det
        if a >= 0.0 and c >= 0.0:
            return a, c
    # The optimum lies on an edge: the better one-parameter fit.
    edges = [(0.0, sv / svv), (su / suu, 0.0)]
    return min(edges, key=lambda ac: sum(
        ((ac[0] + ac[1] * run["count"]) / run["seconds"] - 1.0) ** 2 for run in runs
    ))


def relative_error(
    runs: Sequence[dict], coefficients: Dict[str, Coefficients]
) -> Optional[float]:
    """RMS ``(predicted - observed) / observed`` under *coefficients*
    (engine -> ``(seconds per run, seconds per count)``).

    Root-mean-square of the same relative residual the fit minimizes,
    so the per-engine fit's error provably never exceeds the shared
    constant's on the fitted runs (a mean-absolute report would not
    inherit that guarantee from a least-squares fit).  Runs whose
    engine has no coefficients are skipped; returns None when nothing
    is comparable.
    """
    total = 0.0
    count = 0
    for run in runs:
        fitted = coefficients.get(run["engine"])
        if fitted is None:
            continue
        per_run, per_count = fitted
        predicted = per_run + per_count * run["count"]
        residual = (predicted - run["seconds"]) / run["seconds"]
        total += residual * residual
        count += 1
    if count == 0:
        return None
    return (total / count) ** 0.5


def fit_calibration(runs: Sequence[dict]) -> dict:
    """Fit per-engine coefficients and the before/after error summary."""
    if not runs:
        raise ValueError(
            "no usable engine_run observations (the trace must hold "
            "engine_run spans that carry their counts — re-record with "
            "--trace-out on the current version)"
        )
    by_engine: Dict[str, List[dict]] = {}
    for run in runs:
        by_engine.setdefault(run["engine"], []).append(run)

    engines: Dict[str, dict] = {}
    per_engine: Dict[str, Coefficients] = {}
    for engine, engine_runs in sorted(by_engine.items()):
        fitted = _fit_engine(engine_runs)
        if fitted is None:
            continue
        per_engine[engine] = fitted
        engines[engine] = {
            "seconds_per_run": fitted[0],
            "seconds_per_count": fitted[1],
            "runs": len(engine_runs),
            "rel_error": relative_error(engine_runs, {engine: fitted}),
        }

    shared = _fit_constant(runs)
    before = (
        relative_error(runs, {engine: (0.0, shared) for engine in by_engine})
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
    lines = ["Cost calibration (seconds per run and per kernel count)"]
    engines = calibration.get("engines", {})
    if engines:
        width = max(len(name) for name in engines)
        lines.append(
            f"  {'engine'.ljust(width)}  {'sec/run':>12}  {'sec/count':>12}  "
            f"{'runs':>5}  {'rel err':>8}"
        )
        for name in sorted(engines):
            entry = engines[name]
            rel = entry.get("rel_error")
            lines.append(
                f"  {name.ljust(width)}  "
                f"{entry['seconds_per_run']:>12.3e}  "
                f"{entry['seconds_per_count']:>12.3e}  "
                f"{entry['runs']:>5}  "
                f"{(f'{rel * 100:.1f}%' if rel is not None else '-'):>8}"
            )
    error = calibration.get("error", {})
    before, after = error.get("before"), error.get("after")
    if before is not None and after is not None:
        lines.append(
            f"  predicted-vs-observed relative error: "
            f"{before * 100:.1f}% (one shared constant) -> "
            f"{after * 100:.1f}% (per-engine intercept and constant) over "
            f"{error.get('runs', 0)} "
            "runs"
        )
    return "\n".join(lines) + "\n"
