"""A lightweight counters/timers/histograms registry for the service layer.

This module deliberately imports **nothing** from the rest of ``repro``
(only the standalone :mod:`repro.service.hist`) so that low-level engines
(the chase loop, the symbolic sweep, the RPQ product search) can record
into the default registry without creating import cycles.  Hot loops
batch their increments — one ``inc`` per run with the loop's total, never
one per iteration — so instrumentation cost stays unmeasurable.

Usage::

    from repro.service.metrics import METRICS

    METRICS.inc("chase.steps", steps)
    METRICS.inc("runner.errors", kind="parse")      # labeled counter
    with METRICS.timer("job.advise"):
        ...
    METRICS.snapshot()
    # {"counters": {"chase.steps": 12, "runner.errors{kind=parse}": 1},
    #  "timers": {"job.advise": {"count": 1, "seconds": 0.003,
    #                            "min": 0.003, "max": 0.003}},
    #  "histograms": {"job.advise": {"count": 1, "sum": ..., "p50": ...,
    #                                "p95": ..., "p99": ..., "buckets": ...}}}

Every ``observe``/``timer`` observation feeds both the flat timer stats
(count, total seconds, min, max) and a fixed-bucket log2
:class:`~repro.service.hist.Histogram`, so ``snapshot()`` can report
latency distributions (p50/p95/p99), not just totals.

Cross-process completeness: worker processes record into their own
process-local ``METRICS``; the pool piggybacks each worker's snapshot
onto its chunk results and folds them back with :meth:`Metrics.merge`,
so the parent's ``snapshot()`` is complete under ``--workers N`` even
with a process pool.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Union

from repro.service.hist import Histogram


def label_key(name: str, labels: Dict[str, object]) -> str:
    """The canonical registry key of a labeled counter.

    Labels are sorted and rendered as ``name{k=v,...}``; the encoding is
    stable, so the same labels always hit the same counter.
    """
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Metrics:
    """A named registry of counters, timers, and latency histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._timer_counts: Dict[str, int] = {}
        self._timer_seconds: Dict[str, float] = {}
        self._timer_min: Dict[str, float] = {}
        self._timer_max: Dict[str, float] = {}
        self._hists: Dict[str, Histogram] = {}

    def inc(self, name: str, amount: int = 1, **labels) -> None:
        """Add *amount* to counter *name* (created at zero on first use).

        Keyword arguments become counter labels: ``inc("errors",
        kind="parse")`` increments the ``errors{kind=parse}`` series.
        """
        key = label_key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + amount

    def get(self, name: str, **labels) -> int:
        """Current value of counter *name* (zero if never incremented)."""
        key = label_key(name, labels)
        with self._lock:
            return self._counters.get(key, 0)

    def observe(self, name: str, seconds: float) -> None:
        """Record one timed observation for timer *name*.

        Updates the flat stats (count, sum, min, max) and the log2
        latency histogram backing the p50/p95/p99 summaries.
        """
        with self._lock:
            self._timer_counts[name] = self._timer_counts.get(name, 0) + 1
            self._timer_seconds[name] = (
                self._timer_seconds.get(name, 0.0) + seconds
            )
            prior_min = self._timer_min.get(name)
            if prior_min is None or seconds < prior_min:
                self._timer_min[name] = seconds
            prior_max = self._timer_max.get(name)
            if prior_max is None or seconds > prior_max:
                self._timer_max[name] = seconds
            hist = self._hists.get(name)
            if hist is None:
                hist = self._hists[name] = Histogram()
            hist.observe(seconds)

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Context manager recording the wall-clock time of its block."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - start)

    def snapshot(self) -> dict:
        """A plain-dict copy of every counter/timer/histogram (JSON-safe)."""
        with self._lock:
            return {
                "counters": dict(sorted(self._counters.items())),
                "timers": {
                    name: {
                        "count": self._timer_counts[name],
                        "seconds": self._timer_seconds[name],
                        "min": self._timer_min[name],
                        "max": self._timer_max[name],
                    }
                    for name in sorted(self._timer_counts)
                },
                "histograms": {
                    name: self._hists[name].to_dict()
                    for name in sorted(self._hists)
                },
            }

    def merge(self, other: Union["Metrics", dict]) -> None:
        """Fold *other* — a registry or a :meth:`snapshot` dict — into
        this registry.

        Counters and timer counts/sums add; timer mins/maxes combine as
        min/max; histograms merge bucket-wise (the layout is fixed).
        This is how metrics recorded in worker *processes* become part
        of the parent's snapshot.
        """
        snap = other.snapshot() if isinstance(other, Metrics) else other
        counters = snap.get("counters", {})
        timers = snap.get("timers", {})
        hists = snap.get("histograms", {})
        with self._lock:
            for name, value in counters.items():
                self._counters[name] = self._counters.get(name, 0) + value
            for name, stats in timers.items():
                self._timer_counts[name] = (
                    self._timer_counts.get(name, 0) + stats["count"]
                )
                self._timer_seconds[name] = (
                    self._timer_seconds.get(name, 0.0) + stats["seconds"]
                )
                other_min = stats.get("min", stats["seconds"])
                other_max = stats.get("max", stats["seconds"])
                prior_min = self._timer_min.get(name)
                if prior_min is None or other_min < prior_min:
                    self._timer_min[name] = other_min
                prior_max = self._timer_max.get(name)
                if prior_max is None or other_max > prior_max:
                    self._timer_max[name] = other_max
            for name, payload in hists.items():
                incoming = Histogram.from_dict(payload)
                hist = self._hists.get(name)
                if hist is None:
                    self._hists[name] = incoming
                else:
                    hist.merge(incoming)

    def histogram(self, name: str) -> Optional[Histogram]:
        """The live histogram behind timer *name* (None if never fed)."""
        with self._lock:
            return self._hists.get(name)

    def reset(self) -> None:
        """Zero every counter, timer, and histogram (tests and fresh
        batch runs)."""
        with self._lock:
            self._counters.clear()
            self._timer_counts.clear()
            self._timer_seconds.clear()
            self._timer_min.clear()
            self._timer_max.clear()
            self._hists.clear()


#: The process-wide default registry; the engines record into this one.
METRICS = Metrics()

# Canonical counter names recorded by the fault-tolerance layer (the
# modules share these constants so reports, tests, and docs agree on
# spelling): every policy-driven re-execution, every fault the injection
# harness fired, and every checkpoint line or compaction written.
RETRIES = "retries"
FAULTS_INJECTED = "faults_injected"
CHECKPOINTS_WRITTEN = "checkpoints_written"
