"""A lightweight counters registry for the service layer.

:data:`METRICS` is the runtime's one registry: the batch runner, the
planner, the worker pool, the chase and the RPQ search all record into
it, and :func:`repro.service.runner.run_batch` zeroes it before each
batch, so a batch report's ``metrics`` count that batch only.

This module deliberately imports **nothing** from the rest of ``repro``
so that low-level code (the chase loop, the RPQ product search) can
record into the registry without creating import cycles.  Hot
loops batch their increments — one ``inc`` per run with the loop's
total, never one per iteration — so instrumentation cost stays
unmeasurable.  The ``RIC`` kernels record nothing: they return their
work counts, and the planner adds them here once per engine run.

Usage::

    from repro.service.metrics import METRICS

    METRICS.inc("chase.steps", steps)
    METRICS.inc("runner.errors", kind="parse")      # labeled counter
    METRICS.snapshot()
    # {"counters": {"chase.steps": 12, "runner.errors{kind=parse}": 1}}

The registry counts work; it keeps no durations.  How long something
took is in the spans (:mod:`repro.service.trace`) and in each batch
report entry's ``seconds``, from which ``metrics-report`` derives its
latency table.
"""

from __future__ import annotations

import threading
from typing import Dict


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
    """A named registry of (optionally labeled) counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}

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

    def snapshot(self) -> dict:
        """A plain-dict copy of every counter (JSON-safe)."""
        with self._lock:
            return {"counters": dict(sorted(self._counters.items()))}

    def reset(self) -> None:
        """Zero every counter (tests and fresh batch runs)."""
        with self._lock:
            self._counters.clear()


#: The process-wide registry; the runtime records into this one only.
METRICS = Metrics()

# Canonical counter name recorded by the recovery layer (the modules
# share it so reports, tests, and docs agree on spelling): every chunk
# resubmitted after a worker died.
RETRIES = "retries"
