"""Exporters: Chrome/Perfetto traces and run reports.

Two renderings of the observability layer's raw material:

- :func:`chrome_trace` turns drained spans into the Chrome Trace Event
  JSON format (``{"traceEvents": [...]}``, complete ``"X"`` events plus
  instant ``"i"`` events) — load the file at ``chrome://tracing`` or
  https://ui.perfetto.dev to see the per-job → per-chunk → per-engine
  tree on a timeline, with worker processes on their own ``pid`` lanes;
  :func:`spans_from_chrome_trace` reads such a file back into spans;
- :func:`render_report` pretty-prints a run for humans — top spans by
  self-time, job latency quantiles, and the counters — behind
  ``python -m repro metrics-report``.

:func:`validate_chrome_trace` is the schema check the CI smoke step (and
the tests) run against emitted trace files.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence


# ----------------------------------------------------------------------
# Chrome trace (chrome://tracing / Perfetto)
# ----------------------------------------------------------------------


def chrome_trace(spans: Sequence[dict]) -> dict:
    """The Chrome Trace Event document for drained span dicts."""
    events: List[dict] = []
    for span in spans:
        args = dict(span.get("attrs", {}))
        args["span_id"] = span.get("id")
        if span.get("parent"):
            args["parent_id"] = span["parent"]
        if span.get("error"):
            args["error"] = True
        events.append(
            {
                "name": span["name"],
                "cat": "repro",
                "ph": "X",
                "ts": round(span["ts"] * 1e6, 3),
                "dur": round(span["dur"] * 1e6, 3),
                "pid": span.get("pid", 0),
                "tid": span.get("tid", 0),
                "args": args,
            }
        )
        for event in span.get("events", ()):
            events.append(
                {
                    "name": event["name"],
                    "cat": "repro",
                    "ph": "i",
                    "s": "t",
                    "ts": round(event["ts"] * 1e6, 3),
                    "pid": span.get("pid", 0),
                    "tid": span.get("tid", 0),
                    "args": dict(event.get("attrs", {})),
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def validate_chrome_trace(document: dict) -> int:
    """Check *document* against the trace-event schema; returns the event
    count.  Raises ``ValueError`` on any violation (the CI smoke gate)."""
    if not isinstance(document, dict):
        raise ValueError("trace document must be a JSON object")
    events = document.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace document must carry a traceEvents list")
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"traceEvents[{index}] is not an object")
        for field in ("name", "ph", "ts", "pid", "tid"):
            if field not in event:
                raise ValueError(f"traceEvents[{index}] missing {field!r}")
        if event["ph"] not in ("X", "i", "B", "E", "M"):
            raise ValueError(
                f"traceEvents[{index}] has unknown phase {event['ph']!r}"
            )
        if event["ph"] == "X" and "dur" not in event:
            raise ValueError(f"traceEvents[{index}] complete event lacks dur")
        if not isinstance(event["ts"], (int, float)) or event["ts"] < 0:
            raise ValueError(f"traceEvents[{index}] has a bad timestamp")
    return len(events)


def spans_from_chrome_trace(document: dict) -> List[dict]:
    """The span dicts behind a Chrome trace document: the inverse of
    :func:`chrome_trace` on its complete (``"X"``) events.

    Instant events are not re-attached to their spans, and an event
    whose ``ts`` or ``dur`` is not a number is skipped.
    """
    spans: List[dict] = []
    for event in document.get("traceEvents", []):
        ts, dur = event.get("ts", 0), event.get("dur", 0)
        if event.get("ph") != "X" or not all(
            isinstance(value, (int, float)) for value in (ts, dur)
        ):
            continue
        args = event.get("args")
        attrs = dict(args) if isinstance(args, dict) else {}
        span = {
            "id": attrs.pop("span_id", None),
            "parent": attrs.pop("parent_id", None),
            "name": event.get("name"),
            "ts": ts / 1e6,
            "dur": dur / 1e6,
            "pid": event.get("pid", 0),
            "tid": event.get("tid", 0),
            "attrs": attrs,
            "events": [],
        }
        if attrs.pop("error", False):
            span["error"] = True
        spans.append(span)
    return spans


def validate_metrics(document) -> dict:
    """The metrics snapshot in *document* — a :meth:`Metrics.snapshot`
    dict or a batch report embedding one under ``"metrics"``.  Raises
    ``ValueError`` unless it carries a ``counters`` object, which
    :func:`render_report` relies on."""
    if isinstance(document, dict) and "metrics" in document:
        document = document["metrics"]
    if not isinstance(document, dict):
        raise ValueError("metrics document must be a JSON object")
    if not isinstance(document.get("counters"), dict):
        raise ValueError("metrics document must carry a 'counters' object")
    return document


def save_trace(path: str, spans: Sequence[dict]) -> dict:
    """Write the Chrome trace for *spans* to *path*; returns the document."""
    document = chrome_trace(spans)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
        handle.write("\n")
    return document


# ----------------------------------------------------------------------
# human-readable run report (python -m repro metrics-report)
# ----------------------------------------------------------------------


def _span_rollup(spans: Sequence[dict]) -> List[dict]:
    """Aggregate spans by name: count, total time, and self time.

    Self time is a span's duration minus the durations of its direct
    children — the quantity that answers "where did the time actually
    go" instead of double-counting nested work.
    """
    child_time: Dict[str, float] = {}
    for span in spans:
        parent = span.get("parent")
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + span["dur"]
    rollup: Dict[str, dict] = {}
    for span in spans:
        entry = rollup.setdefault(
            span["name"], {"name": span["name"], "count": 0,
                           "total": 0.0, "self": 0.0}
        )
        entry["count"] += 1
        entry["total"] += span["dur"]
        entry["self"] += max(
            0.0, span["dur"] - child_time.get(span.get("id"), 0.0)
        )
    return sorted(rollup.values(), key=lambda e: (-e["self"], e["name"]))


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.2f} ms"


def nearest_rank(ordered: Sequence[float], percent: int) -> float:
    """The *percent*-th percentile (``0 < percent <= 100``) of the
    sorted, non-empty *ordered* by the nearest-rank rule: its
    ``ceil(percent/100 * n)``-th value."""
    rank = -(-percent * len(ordered) // 100)
    return ordered[rank - 1]


def _job_latencies(results) -> Dict[str, List[float]]:
    """The ``seconds`` of a batch report's computed jobs, by row.

    Only ``ok`` entries that were not cache hits count (a hit costs no
    work).  There is one row per job kind, and measure jobs also land in
    a ``measure.<engine>`` row for the engine that produced the value.
    """
    rows: Dict[str, List[float]] = {}
    for entry in results if isinstance(results, list) else ():
        if not (
            isinstance(entry, dict)
            and entry.get("ok") is True
            and not entry.get("cached")
            and isinstance(entry.get("seconds"), (int, float))
        ):
            continue
        names = [str(entry.get("kind"))]
        value = entry.get("value")
        if entry.get("kind") == "measure" and isinstance(value, dict):
            names.append(f"measure.{value.get('method')}")
        for name in names:
            rows.setdefault(name, []).append(entry["seconds"])
    return rows


def render_report(
    metrics: Optional[dict] = None,
    spans: Optional[Sequence[dict]] = None,
    top: int = 15,
) -> str:
    """The human-readable run report (top spans, latencies, counters).

    *metrics* is a batch report (its ``results`` give the latency table,
    the snapshot under ``"metrics"`` the counters) or a bare
    :meth:`Metrics.snapshot` dict (counters only); *spans* are drained
    span dicts or those :func:`spans_from_chrome_trace` reads back.
    Either may be omitted.
    """
    sections: List[str] = []

    if spans:
        rows = _span_rollup(spans)[:top]
        width = max(len(r["name"]) for r in rows)
        lines = [f"Top spans by self time ({len(spans)} spans)"]
        lines.append(
            f"  {'span'.ljust(width)}  {'count':>6}  "
            f"{'self':>12}  {'total':>12}"
        )
        for row in rows:
            lines.append(
                f"  {row['name'].ljust(width)}  {row['count']:>6}  "
                f"{_ms(row['self']):>12}  {_ms(row['total']):>12}"
            )
        sections.append("\n".join(lines))

    if metrics:
        latencies = _job_latencies(metrics.get("results"))
        if latencies:
            width = max(len(name) for name in latencies)
            lines = ["Job latency (computed jobs; cache hits excluded)"]
            lines.append(
                f"  {'job'.ljust(width)}  {'count':>6}  {'total':>12}  "
                f"{'min':>10}  {'max':>10}  {'p50':>10}  {'p95':>10}  "
                f"{'p99':>10}"
            )
            for name in sorted(latencies):
                ordered = sorted(latencies[name])
                lines.append(
                    f"  {name.ljust(width)}  {len(ordered):>6}  "
                    f"{_ms(sum(ordered)):>12}  "
                    f"{_ms(ordered[0]):>10}  {_ms(ordered[-1]):>10}  "
                    + "  ".join(
                        f"{_ms(nearest_rank(ordered, p)):>10}"
                        for p in (50, 95, 99)
                    )
                )
            sections.append("\n".join(lines))

        if "metrics" in metrics:
            metrics = metrics["metrics"]
        counters = metrics.get("counters", {})
        if counters:
            tallies = ["Counters"]
            for key in sorted(counters):
                tallies.append(f"  {key} = {counters[key]}")
            sections.append("\n".join(tallies))

    if not sections:
        return "nothing to report (no metrics, no spans)\n"
    return "\n\n".join(sections) + "\n"
