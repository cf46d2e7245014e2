"""The worker pool: sharded Monte-Carlo estimation and job fan-out.

Two parallelism axes, both ``concurrent.futures``-backed:

- **within a job** — :func:`ric_montecarlo_parallel` splits the sample
  range ``[0, samples)`` into near-equal contiguous chunks, evaluates
  each via :func:`repro.core.montecarlo.ric_mc_chunk`, and merges the
  sufficient statistics.  Because the sampler is counter-based (sample
  ``j`` is seeded by ``(seed, j)``), the merged estimate is **bit-equal**
  to the serial one for any worker count;
- **across jobs** — the batch runner submits independent jobs to
  :attr:`WorkerPool.executor`.

Threads are the default executor: chunk evaluation releases no locks and
the instances are small, so thread fan-out costs nothing to set up and is
correct everywhere; pass ``use_processes=True`` for CPU-bound sharding on
multi-core machines (jobs and instances are picklable by construction).

Chunk execution survives a dead worker: when a worker process dies
(``BrokenProcessPool``) or the executor was shut down,
:meth:`WorkerPool.map_retrying` rebuilds the executor and resubmits only
the chunks that failed, at once, up to ``retries`` attempts per chunk.
Because chunk results are order-merged sufficient statistics, a
recovered estimate is still bit-identical to the failure-free one.  A
chunk past its deadline is never retried.

Chunk evaluation is also the runtime's **cross-process telemetry seam**:
a chunk that runs in a worker process snapshots its local
:data:`~repro.service.metrics.METRICS` and finished spans and piggybacks
them on the chunk result; the dispatching side merges the snapshots and
adopts the spans under the span that scheduled the work, so the parent's
metrics report and trace tree are complete under process sharding.
"""

from __future__ import annotations

import os
from concurrent.futures import BrokenExecutor, Executor, ThreadPoolExecutor
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from repro.service.errors import from_exception
from repro.service.metrics import METRICS, RETRIES
from repro.service.trace import TRACER
from repro.service.validate import (
    MAX_RETRIES,
    MAX_WORKERS,
    check_positive_int,
)

if TYPE_CHECKING:
    from repro.core.montecarlo import MCChunk, MCEstimate
    from repro.core.positions import Position, PositionedInstance


def chunk_ranges(samples: int, chunks: int) -> List[Tuple[int, int]]:
    """Split ``[0, samples)`` into *chunks* contiguous ``(start, count)``
    ranges differing in size by at most one (empty ranges dropped)."""
    if samples <= 0:
        raise ValueError("need at least one sample")
    chunks = max(1, min(chunks, samples))
    base, extra = divmod(samples, chunks)
    ranges: List[Tuple[int, int]] = []
    start = 0
    for i in range(chunks):
        count = base + (1 if i < extra else 0)
        if count:
            ranges.append((start, count))
            start += count
    return ranges


def ric_mc_chunk(*args):
    """:func:`repro.core.montecarlo.ric_mc_chunk`; the kernel module is
    imported on the first chunk, so a pool that runs none loads none."""
    from repro.core.montecarlo import ric_mc_chunk as kernel

    return kernel(*args)


def _eval_chunk(args) -> Tuple[MCChunk, Optional[dict]]:
    """Module-level chunk worker (picklable for process pools).

    Returns ``(chunk, telemetry)``.  In a worker *process* (detected by
    comparing PIDs against the submitting process), the worker's
    process-local ``METRICS`` and finished spans are snapshotted and
    piggybacked on the result so the parent can fold them into its own
    registry — otherwise every counter the engines record under
    ``use_processes=True`` would silently vanish.  The child registry is
    reset around each chunk so the telemetry is exactly that chunk's
    delta (a fork-started worker inherits the parent's counters; without
    the reset they would be double-counted on merge).  In thread mode
    (same PID) telemetry is ``None`` — the engines already recorded into
    the shared registry.
    """
    (instance, p, start, count, seed, deadline,
     parent_pid, parent_span, trace) = args
    in_child = os.getpid() != parent_pid
    if in_child:
        METRICS.reset()
        TRACER.reset()
        TRACER.set_enabled(trace)
    with TRACER.span(
        "pool.chunk",
        parent_id=None if in_child else parent_span,
        start=start,
        count=count,
    ):
        chunk = ric_mc_chunk(instance, p, start, count, seed, deadline)
    if not in_child:
        return chunk, None
    telemetry = {
        "pid": os.getpid(),
        "metrics": METRICS.snapshot(),
        "spans": TRACER.drain(),
        "dropped": TRACER.dropped,
    }
    METRICS.reset()
    return chunk, telemetry


class WorkerPool:
    """A fixed-size worker pool over threads (default) or processes.

    Usable as a context manager; otherwise call :meth:`shutdown` when
    done.  *retries* bounds the attempts each chunk of
    :meth:`map_retrying` gets.  An externally managed ``executor`` may
    be injected instead (the pool then never shuts it down — and never
    rebuilds it after a crash, since its lifecycle belongs to the
    caller).
    """

    def __init__(
        self,
        workers: int = 4,
        use_processes: bool = False,
        executor: Optional[Executor] = None,
        retries: int = 3,
    ):
        check_positive_int("workers", workers, maximum=MAX_WORKERS)
        check_positive_int("retries", retries, maximum=MAX_RETRIES)
        self.workers = workers
        self.retries = retries
        self._use_processes = use_processes
        self._owned = executor is None
        if executor is not None:
            self._executor = executor
        else:
            self._executor = self._new_executor()

    def _new_executor(self) -> Executor:
        if self._use_processes:
            from concurrent.futures import ProcessPoolExecutor

            return ProcessPoolExecutor(max_workers=self.workers)
        return ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-pool"
        )

    @property
    def executor(self) -> Executor:
        return self._executor

    def rebuild(self) -> None:
        """Replace a broken owned executor with a fresh one.

        Futures already completed keep their results; only the pending
        work the caller chooses to resubmit runs on the new executor.
        Injected executors are left alone (the owner decides).
        """
        if not self._owned:
            return
        try:
            self._executor.shutdown(wait=False)
        except Exception:  # noqa: BLE001 — a broken pool may refuse even this
            pass
        self._executor = self._new_executor()
        METRICS.inc("pool.rebuilds")

    def map_retrying(self, fn: Callable, items: Sequence) -> list:
        """Order-preserving map that reruns the items a dead worker lost.

        A transient failure (``worker_crash``: a worker process died, or
        the executor was shut down) resubmits only the failed items, at
        once, rebuilding the executor if it broke; completed results are
        never recomputed.  Each item gets at most ``retries`` attempts,
        after which its :class:`~repro.service.errors.JobError` is
        raised.  Any other failure raises its taxonomy-wrapped error at
        once, and an expired deadline passes through unwrapped.
        """
        from repro.core.worlds import DeadlineExceeded

        results: List = [None] * len(items)
        pending = list(range(len(items)))
        for attempt in range(1, self.retries + 1):
            futures = [
                (index, self._submit(fn, items[index])) for index in pending
            ]
            failed: List[int] = []
            for index, future in futures:
                try:
                    results[index] = future.result()
                except DeadlineExceeded:
                    raise  # the budget is spent: a retry cannot finish
                except Exception as exc:  # noqa: BLE001 — classified below
                    error = from_exception(exc)
                    if not error.transient or attempt == self.retries:
                        raise error from exc
                    failed.append(index)
            if not failed:
                break
            METRICS.inc(RETRIES, len(failed))
            TRACER.event("retry", attempt=attempt, failed=len(failed))
            pending = failed
        return results

    def _submit(self, fn, item):
        """Submit, rebuilding the executor once if it is broken or shut
        down."""
        try:
            return self._executor.submit(fn, item)
        except (BrokenExecutor, RuntimeError):
            self.rebuild()
            return self._executor.submit(fn, item)

    def ric_montecarlo(
        self,
        instance: PositionedInstance,
        p: Position,
        samples: int = 200,
        seed: int = 0,
        deadline: Optional[float] = None,
    ) -> MCEstimate:
        """Sharded, deterministic Monte-Carlo ``RIC`` (see module doc).

        Chunks run through :meth:`map_retrying`, so a dead worker costs
        only the ranges it lost; the merged estimate is bit-identical to
        the failure-free serial result.
        Every chunk stops at *deadline*, in worker processes too.
        """
        from repro.core.montecarlo import merge_mc_chunks
        from repro.core.symbolic import require_consistent

        require_consistent(instance)
        ranges = chunk_ranges(samples, self.workers)
        METRICS.inc("pool.mc.shards", len(ranges))
        parent_pid = os.getpid()
        trace = TRACER.enabled
        with TRACER.span("pool.mc", shards=len(ranges), samples=samples):
            # Chunks run on pool threads (or processes): thread-local
            # nesting cannot see this span, so its ID is passed along
            # explicitly and every chunk re-roots under it.
            parent_span = TRACER.current_id()
            results = self.map_retrying(
                _eval_chunk,
                [
                    (instance, p, start, count, seed, deadline,
                     parent_pid, parent_span, trace)
                    for start, count in ranges
                ],
            )
        chunks = []
        for chunk, telemetry in results:
            if telemetry is not None:
                METRICS.merge(telemetry["metrics"])
                TRACER.adopt(
                    telemetry["spans"],
                    parent_id=parent_span,
                    dropped=telemetry.get("dropped", 0),
                )
            chunks.append(chunk)
        return merge_mc_chunks(chunks)

    def shutdown(self) -> None:
        """Release the executor (no-op for injected executors)."""
        if self._owned:
            self._executor.shutdown(wait=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


def ric_montecarlo_parallel(
    instance: PositionedInstance,
    p: Position,
    samples: int = 200,
    seed: int = 0,
    workers: int = 4,
    use_processes: bool = False,
) -> MCEstimate:
    """One-shot convenience wrapper around :meth:`WorkerPool.ric_montecarlo`.

    With a fixed *seed* the result is identical for every *workers* value
    (including the serial ``ric_montecarlo(instance, p, samples, seed=seed)``).
    """
    with WorkerPool(workers=workers, use_processes=use_processes) as pool:
        return pool.ric_montecarlo(instance, p, samples=samples, seed=seed)
