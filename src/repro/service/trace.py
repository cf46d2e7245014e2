"""A zero-dependency, thread-safe span tracer for the batch runtime.

The tracer answers the question metrics cannot: *why* was this job slow —
the chase loop, an engine run, Monte-Carlo dispatch, a cache miss, or a
retry storm?  Each :class:`Span` is a named, timed region with
attributes and point-in-time events; spans nest through a per-thread
stack (or an explicit ``parent_id`` when work hops threads or
processes), forming the per-job → per-chunk → per-engine tree the
exporters render for ``chrome://tracing`` / Perfetto.

Design constraints, matching the rest of the service layer:

- **off by default, invisible when off** — ``TRACER.span(...)`` returns
  a shared no-op handle after one attribute check, so instrumented hot
  paths cost nanoseconds until ``--trace-out`` (or a test) enables
  tracing;
- **deterministic span IDs** — IDs come from a per-run counter
  (``s1, s2, …``), never ``random`` or the wall clock, so reruns
  replay; timestamps are the only nondeterministic field (they are
  measurements);
- **monotonic timing** — durations come from ``perf_counter``; a
  wall-clock anchor captured at tracer creation places spans on an
  absolute axis so traces from worker *processes* align with the
  parent's;
- **bounded memory** — finished spans beyond ``max_spans`` are counted
  in ``dropped`` instead of accumulating without limit;
- **cross-process adoption** — :meth:`Tracer.adopt` merges spans
  serialized in a worker process into this tracer, remapping their IDs
  from the local counter (collision-free, deterministic in merge order)
  and re-rooting them under the span that spawned the work.

Usage::

    from repro.service.trace import TRACER

    with TRACER.span("chase.run", relation="R") as span:
        ...
        span.set(steps=steps)
        span.event("retry", attempt=1)
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence


class _NoopSpan:
    """The shared do-nothing handle returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def set(self, **attributes) -> None:
        return None

    def event(self, name: str, **attributes) -> None:
        return None


NOOP_SPAN = _NoopSpan()


class Span:
    """One timed, attributed region of work (use via ``with``)."""

    __slots__ = (
        "_tracer",
        "name",
        "span_id",
        "parent_id",
        "start",
        "end",
        "attributes",
        "events",
        "tid",
        "pid",
        "error",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        parent_id: Optional[str],
        attributes: dict,
    ):
        self._tracer = tracer
        self.name = name
        self.span_id: Optional[str] = None
        self.parent_id = parent_id
        self.start = 0.0
        self.end = 0.0
        self.attributes = attributes
        self.events: List[dict] = []
        self.tid = 0
        self.pid = 0
        self.error = False

    def set(self, **attributes) -> None:
        """Attach or overwrite span attributes."""
        self.attributes.update(attributes)

    def event(self, name: str, **attributes) -> None:
        """Record a point-in-time event inside this span."""
        self.events.append(
            {
                "name": name,
                "ts": self._tracer.wall(time.perf_counter()),
                "attrs": attributes,
            }
        )

    def __enter__(self) -> "Span":
        self._tracer._open(self)
        return self

    def __exit__(self, exc_type, *exc) -> None:
        self.error = exc_type is not None
        self._tracer._close(self)

    def to_dict(self) -> dict:
        """The JSON-safe serialization the exporters and workers use."""
        record = {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "ts": self._tracer.wall(self.start),
            "dur": max(0.0, self.end - self.start),
            "pid": self.pid,
            "tid": self.tid,
            "attrs": dict(self.attributes),
            "events": list(self.events),
        }
        if self.error:
            record["error"] = True
        return record


class Tracer:
    """The span registry: per-thread nesting stacks and a finished list."""

    def __init__(self, max_spans: int = 100_000):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._enabled = False
        self._counter = 0
        self._finished: List[Span] = []
        self._adopted: List[dict] = []
        self._tids: Dict[int, int] = {}
        self.max_spans = max_spans
        #: Spans discarded because ``max_spans`` was reached.
        self.dropped = 0
        # Anchor: wall = _epoch + perf_counter(), so monotonic spans get
        # an absolute axis that aligns across processes.
        self._epoch = time.time() - time.perf_counter()

    # ------------------------------------------------------------------
    # switches
    # ------------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def set_enabled(self, enabled: bool) -> None:
        self._enabled = bool(enabled)

    def wall(self, perf: float) -> float:
        """Map a ``perf_counter`` reading onto the wall-clock axis."""
        return self._epoch + perf

    # ------------------------------------------------------------------
    # span lifecycle
    # ------------------------------------------------------------------

    def span(self, name: str, parent_id: Optional[str] = None, **attributes):
        """Open a span (context manager); a shared no-op when disabled.

        Nesting is automatic within a thread; pass ``parent_id`` (from
        :meth:`current_id`) when the work was scheduled from another
        thread or process and the lineage must be kept explicitly.
        """
        if not self._enabled:
            return NOOP_SPAN
        return Span(self, name, parent_id, attributes)

    def event(self, name: str, **attributes) -> None:
        """Attach an event to the current thread's open span, if any."""
        if not self._enabled:
            return
        stack = getattr(self._local, "stack", None)
        if stack:
            stack[-1].event(name, **attributes)

    def current_id(self) -> Optional[str]:
        """The ID of this thread's innermost open span (None outside)."""
        stack = getattr(self._local, "stack", None)
        return stack[-1].span_id if stack else None

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _next_id_locked(self) -> str:
        self._counter += 1
        return f"s{self._counter}"

    def _open(self, span: Span) -> None:
        stack = self._stack()
        ident = threading.get_ident()
        with self._lock:
            span.span_id = self._next_id_locked()
            tid = self._tids.get(ident)
            if tid is None:
                tid = len(self._tids)
                self._tids[ident] = tid
        span.tid = tid
        span.pid = os.getpid()
        if span.parent_id is None and stack:
            span.parent_id = stack[-1].span_id
        stack.append(span)
        span.start = time.perf_counter()

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # tolerate out-of-order exits
            stack.remove(span)
        with self._lock:
            if len(self._finished) + len(self._adopted) < self.max_spans:
                self._finished.append(span)
            else:
                self.dropped += 1

    # ------------------------------------------------------------------
    # harvesting
    # ------------------------------------------------------------------

    def drain(self) -> List[dict]:
        """Pop every finished span (own and adopted) as dicts."""
        with self._lock:
            spans = [span.to_dict() for span in self._finished]
            spans.extend(self._adopted)
            self._finished.clear()
            self._adopted.clear()
        return spans

    def snapshot_spans(self) -> List[dict]:
        """Finished spans as dicts, without clearing them."""
        with self._lock:
            spans = [span.to_dict() for span in self._finished]
            spans.extend(self._adopted)
        return spans

    def adopt(
        self,
        spans: Sequence[dict],
        parent_id: Optional[str] = None,
        dropped: int = 0,
    ) -> List[str]:
        """Merge spans serialized elsewhere (a worker process) into this
        tracer.

        IDs are remapped from the local counter so they can never collide
        with native spans; internal parent links are preserved through
        the remapping and orphan roots are re-rooted under *parent_id*
        (the span that dispatched the work).  Returns the new IDs.

        *dropped* is the remote tracer's own drop counter at drain time;
        it accumulates into this tracer's ``dropped`` so capped-out
        workers are never reported as complete traces — the counter
        survives any number of adoption hops.
        """
        with self._lock:
            self.dropped += max(0, int(dropped))
        if not spans:
            return []
        with self._lock:
            mapping = {
                span["id"]: self._next_id_locked()
                for span in spans
                if span.get("id")
            }
            new_ids = []
            for span in spans:
                record = dict(span)
                record["id"] = mapping.get(record.get("id"))
                record["parent"] = mapping.get(
                    record.get("parent"), parent_id
                )
                if len(self._finished) + len(self._adopted) < self.max_spans:
                    self._adopted.append(record)
                    new_ids.append(record["id"])
                else:
                    self.dropped += 1
        return new_ids

    def reset(self) -> None:
        """Forget finished spans and restart the ID counter.

        Open spans on other threads keep their already-assigned IDs;
        call this between runs, not mid-flight.
        """
        with self._lock:
            self._finished.clear()
            self._adopted.clear()
            self._counter = 0
            self._tids.clear()
            self.dropped = 0


#: The process-wide default tracer; disabled until a CLI flag or test
#: turns it on, so instrumentation is free in ordinary runs.
TRACER = Tracer()


@contextmanager
def tracing(enabled: bool = True, fresh: bool = True) -> Iterator[Tracer]:
    """Temporarily flip the global tracer (tests, benchmarks, CLI).

    With *fresh* (default) the span buffer and ID counter restart so the
    block observes only its own spans; the previous enabled state is
    restored on exit (the collected spans are kept for draining).
    """
    previous = TRACER.enabled
    if fresh:
        TRACER.reset()
    TRACER.set_enabled(enabled)
    try:
        yield TRACER
    finally:
        TRACER.set_enabled(previous)
