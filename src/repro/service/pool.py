"""The worker pool: sharded Monte-Carlo estimation and job fan-out.

Two parallelism axes, both ``concurrent.futures``-backed:

- **within a job** — :meth:`WorkerPool.ric_montecarlo` splits the
  sample range ``[0, samples)`` into near-equal contiguous chunks,
  evaluates each via :func:`repro.core.montecarlo.ric_mc_chunk`, and
  merges the sufficient statistics.  Because the sampler is
  counter-based (sample ``j`` is seeded by ``(seed, j)``), the merged
  estimate is **bit-equal** to the serial one for any worker count;
- **across jobs** — the batch runner submits independent jobs to
  :attr:`WorkerPool.executor`.

Threads are the default executor: chunk evaluation releases no locks and
the instances are small, so thread fan-out costs nothing to set up and is
correct everywhere; pass ``use_processes=True`` for CPU-bound sharding on
multi-core machines (jobs and instances are picklable by construction).

Chunk execution survives a dead worker: when a worker process dies
(``BrokenProcessPool``), the executor was shut down, or a process
executor lost the manager thread that resolves its futures,
:meth:`WorkerPool.map_retrying` rebuilds the executor and resubmits only
the chunks that failed, at once, up to ``retries`` attempts per chunk.
Because chunk results are order-merged sufficient statistics, a
recovered estimate is still bit-identical to the failure-free one.  A
chunk past its deadline is never retried.

Chunk evaluation is also the runtime's **cross-process trace seam**: a
chunk that runs in a worker process drains its finished spans and
piggybacks them on the chunk result; the dispatching side adopts them
under the span that scheduled the work, so the parent's trace tree is
complete under process sharding.  Counts need no seam: every chunk
returns its own.
"""

from __future__ import annotations

import os
from concurrent.futures import BrokenExecutor, Executor, ThreadPoolExecutor, wait
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from repro.core.measure import DEFAULT_SAMPLES
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
    from repro.core.worlds import WorkCounts


#: Seconds between the checks :meth:`WorkerPool.map_retrying` makes, while
#: it waits, that a process executor can still resolve its futures.
POLL_S = 0.5


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

    Returns ``(chunk, telemetry)``; the chunk carries its work counts.
    In a worker *process* (detected by comparing PIDs against the
    submitting process), the worker's finished spans are drained and
    piggybacked on the result so the parent can adopt them into its own
    trace; the child's tracer is reset first (a fork-started worker
    inherits the parent's spans).  In thread mode (same PID) telemetry
    is ``None``: the spans are already in the shared tracer.
    """
    (instance, p, start, count, seed, deadline,
     parent_pid, parent_span, trace) = args
    in_child = os.getpid() != parent_pid
    if in_child:
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
    return chunk, {"spans": TRACER.drain(), "dropped": TRACER.dropped}


class WorkerPool:
    """A fixed-size worker pool over threads (default) or processes.

    The pool builds its executor, rebuilds it after a crash and shuts
    it down: use it as a context manager, or call :meth:`shutdown` when
    done.  *retries* bounds the attempts each chunk of
    :meth:`map_retrying` gets.
    """

    def __init__(
        self,
        workers: int = 4,
        use_processes: bool = False,
        retries: int = 3,
    ):
        check_positive_int("workers", workers, maximum=MAX_WORKERS)
        check_positive_int("retries", retries, maximum=MAX_RETRIES)
        self.workers = workers
        self.retries = retries
        self._use_processes = use_processes
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
        """Replace a broken executor with a fresh one.

        Futures already completed keep their results; only the pending
        work the caller chooses to resubmit runs on the new executor.

        A process executor is joined before its replacement starts, so
        the new workers are never forked, and the new executor's threads
        never started, beside the old manager and queue-feeder threads.
        Under an address-space limit those extra thread stacks could
        keep the new feeder thread from starting; the futures it should
        have fed then never resolve.  A broken executor has already
        failed its futures and terminated its workers, so the join is
        short.
        """
        if self._lost():
            # No manager thread is left to stop the workers: they would
            # wait for work forever, and interpreter exit joins them.
            for process in list((getattr(self._executor, "_processes", None) or {}).values()):
                process.terminate()
        try:
            self._executor.shutdown(wait=self._use_processes)
        except Exception:  # noqa: BLE001 — a broken pool may refuse even this
            pass
        self._executor = self._new_executor()
        METRICS.inc("pool.rebuilds")

    def map_retrying(self, fn: Callable, items: Sequence) -> list:
        """Order-preserving map that reruns the items a dead worker lost.

        A transient failure (``worker_crash``: a worker process died, the
        executor was shut down, or it lost its manager thread with items
        pending, see :meth:`_wait`) resubmits only the failed items, at
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
            lost = self._wait([future for _index, future in futures])
            if lost:
                self.rebuild()
            failed: List[int] = []
            for index, future in futures:
                try:
                    if future in lost:
                        raise BrokenExecutor(
                            "the executor lost its manager thread with work pending"
                        )
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

    def _wait(self, futures) -> set:
        """Wait until every future resolves, and return those that never
        will: the ones still pending once a process executor has
        lost its manager thread (a thread the executor starts internally
        can die, for example when a thread it starts in turn cannot get
        its stack).  Checked every :data:`POLL_S` seconds."""
        pending = set(futures)
        while pending:
            pending = wait(pending, timeout=POLL_S).not_done
            if pending and self._lost():
                # A dead manager thread resolved what it could first.
                return wait(pending, timeout=0).not_done
        return set()

    def _lost(self) -> bool:
        """Has the process executor's manager thread, which resolves its
        futures, died?  (A thread executor never counts.)"""
        if not self._use_processes:
            return False
        thread = getattr(self._executor, "_executor_manager_thread", None)
        return thread is not None and not thread.is_alive()

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
        samples: int = DEFAULT_SAMPLES,
        seed: int = 0,
        deadline: Optional[float] = None,
        counts: Optional[WorkCounts] = None,
    ) -> MCEstimate:
        """Sharded, deterministic Monte-Carlo ``RIC`` (see module doc).

        Chunks run through :meth:`map_retrying`, so a dead worker costs
        only the ranges it lost; the merged estimate is bit-identical to
        the failure-free serial result.
        Every chunk stops at *deadline*, in worker processes too.  The
        chunks' work counts are added into *counts*, when given.
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
                TRACER.adopt(
                    telemetry["spans"],
                    parent_id=parent_span,
                    dropped=telemetry["dropped"],
                )
            chunks.append(chunk)
        return merge_mc_chunks(chunks, counts)

    def shutdown(self) -> None:
        """Release the executor."""
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

