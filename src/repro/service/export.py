"""Exporters: Chrome/Perfetto traces and run reports.

Two renderings of the observability layer's raw material:

- :func:`chrome_trace` turns drained spans into the Chrome Trace Event
  JSON format (``{"traceEvents": [...]}``, complete ``"X"`` events plus
  instant ``"i"`` events) — load the file at ``chrome://tracing`` or
  https://ui.perfetto.dev to see the per-job → per-chunk → per-engine
  tree on a timeline, with worker processes on their own ``pid`` lanes;
- :func:`render_report` pretty-prints a run for humans — top spans by
  self-time, latency quantiles, and the retry/checkpoint/cache tallies —
  behind ``python -m repro metrics-report``.

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


def render_report(
    metrics: Optional[dict] = None,
    spans: Optional[Sequence[dict]] = None,
    top: int = 15,
) -> str:
    """The human-readable run report (top spans, quantiles, tallies).

    *metrics* is a :meth:`Metrics.snapshot` dict (or a batch report that
    embeds one under ``"metrics"``); *spans* are drained span dicts or a
    Chrome trace document's source spans.  Either may be omitted.
    """
    if metrics is not None and "metrics" in metrics:
        metrics = metrics["metrics"]
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
        timers = metrics.get("timers", {})
        hists = metrics.get("histograms", {})
        if timers:
            width = max(len(name) for name in timers)
            lines = ["Timers"]
            lines.append(
                f"  {'timer'.ljust(width)}  {'count':>6}  {'total':>12}  "
                f"{'min':>10}  {'max':>10}  {'p50':>10}  {'p95':>10}  "
                f"{'p99':>10}"
            )
            for name in sorted(timers):
                stats = timers[name]
                hist = hists.get(name, {})
                lines.append(
                    f"  {name.ljust(width)}  {stats['count']:>6}  "
                    f"{_ms(stats['seconds']):>12}  "
                    f"{_ms(stats.get('min', 0.0)):>10}  "
                    f"{_ms(stats.get('max', 0.0)):>10}  "
                    f"{_ms(hist.get('p50', 0.0)):>10}  "
                    f"{_ms(hist.get('p95', 0.0)):>10}  "
                    f"{_ms(hist.get('p99', 0.0)):>10}"
                )
            sections.append("\n".join(lines))

        counters = metrics.get("counters", {})
        if counters:
            tallies = ["Counters"]
            for key in sorted(counters):
                tallies.append(f"  {key} = {counters[key]}")
            sections.append("\n".join(tallies))

        resilience = []
        for label, key in (
            ("retries", "retries"),
            ("checkpoints written", "checkpoints_written"),
            ("cache hits", "runner.cache_hits"),
            ("pool rebuilds", "pool.rebuilds"),
        ):
            value = metrics.get("counters", {}).get(key, 0)
            if value:
                resilience.append(f"  {label}: {value}")
        if resilience:
            sections.append("\n".join(["Resilience"] + resilience))

    if not sections:
        return "nothing to report (no metrics, no spans)\n"
    return "\n\n".join(sections) + "\n"
