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

Every ``observe``/``timer`` observation feeds one fixed-bucket log2
:class:`~repro.service.hist.Histogram`; ``snapshot()`` derives the flat
timer stats (count, total seconds, min, max) from its exact
``count``/``sum``/``min``/``max`` and reports the latency distribution
(p50/p95/p99) beside them.

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
        """Record one timed observation for timer *name* in its log2
        latency histogram (the source of every timer statistic)."""
        with self._lock:
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
                        "count": hist.count,
                        "seconds": hist.sum,
                        "min": hist.min,
                        "max": hist.max,
                    }
                    for name, hist in sorted(self._hists.items())
                },
                "histograms": {
                    name: self._hists[name].to_dict()
                    for name in sorted(self._hists)
                },
            }

    def merge(self, other: Union["Metrics", dict]) -> None:
        """Fold *other* — a registry or a :meth:`snapshot` dict — into
        this registry.

        Counters add; histograms — and with them the timer stats —
        merge bucket-wise (the layout is fixed).  This is how metrics
        recorded in worker *processes* become part of the parent's
        snapshot.
        """
        snap = other.snapshot() if isinstance(other, Metrics) else other
        counters = snap.get("counters", {})
        hists = snap.get("histograms", {})
        with self._lock:
            for name, value in counters.items():
                self._counters[name] = self._counters.get(name, 0) + value
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
            self._hists.clear()


#: The process-wide default registry; the engines record into this one.
METRICS = Metrics()

# Canonical counter names recorded by the recovery layer (the modules
# share these constants so reports, tests, and docs agree on spelling):
# every chunk resubmitted after a worker died, and every checkpoint line
# or compaction written.
RETRIES = "retries"
CHECKPOINTS_WRITTEN = "checkpoints_written"
