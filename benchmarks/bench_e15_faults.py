"""E15 — batch throughput when workers die.

Runs the same Monte-Carlo measurement batch while a deterministic share
of sample chunks loses its worker on the first attempt (the wrapped
chunk evaluator raises ``BrokenExecutor``, what a dead worker process
leaves behind), and reports throughput plus crash/retry counters.
Recovery is required to be *free of correctness cost*: counter-based
sampling makes re-executed chunks bit-identical, so every crash rate
must reproduce the crash-free estimates exactly.

Expected shape: throughput degrades gracefully with the crash rate
(retried chunks cost wall-clock, nothing else); values never drift.
"""

import hashlib
import time
from concurrent.futures import BrokenExecutor
from contextlib import contextmanager

from repro.service import pool as pool_module
from repro.service.jobs import MeasureJob
from repro.service.metrics import METRICS, Metrics, RETRIES
from repro.service.pool import WorkerPool
from repro.service.runner import BatchRunner

from benchmarks.common import print_table

FAULT_RATES = (0.0, 0.1, 0.3)


def batch_jobs(count=8, samples=3000):
    return [
        MeasureJob(
            design="T(A,B,C); B->C",
            rows=((1, 2, 3), (4, 2, 3), (5, 6, 7)),
            position=(0, "C"),
            method="montecarlo",
            samples=samples,
            seed=seed,
            id=f"m{seed}",
        )
        for seed in range(count)
    ]


def _draw(seed, chunk):
    """A uniform [0, 1) draw fixed by the chunk's (start, count, seed)."""
    digest = hashlib.sha256(f"{seed}|{chunk}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@contextmanager
def crashing_chunks(rate, seed):
    """Fail the first attempt of each chunk whose draw is below *rate*,
    as if its worker had died; yields the list of crashed chunks."""
    real = pool_module._eval_chunk
    crashed = []

    def flaky(args):
        chunk = args[2:5]  # (start, count, seed): the chunk's identity
        if chunk not in crashed and _draw(seed, chunk) < rate:
            crashed.append(chunk)
            raise BrokenExecutor("worker died")
        return real(args)

    pool_module._eval_chunk = flaky
    try:
        yield crashed
    finally:
        pool_module._eval_chunk = real


def run_batch_under_rate(jobs, rate, seed=13):
    runner = BatchRunner(pool=WorkerPool(workers=4), metrics=Metrics())
    retries_before = METRICS.get(RETRIES)
    try:
        with crashing_chunks(rate, seed) as crashed:
            start = time.perf_counter()
            report = runner.run(jobs)
            elapsed = time.perf_counter() - start
    finally:
        runner.pool.shutdown()
    assert report["failed"] == 0
    retries = METRICS.get(RETRIES) - retries_before
    values = [entry["value"] for entry in report["results"]]
    return elapsed, len(crashed), retries, values


def test_e15_fault_rate_table(benchmark):
    jobs = batch_jobs()

    def run():
        rows = []
        baseline = None
        for rate in FAULT_RATES:
            elapsed, injected, retries, values = run_batch_under_rate(
                jobs, rate
            )
            if baseline is None:
                baseline = values
            # Recovery must not change a single bit of any estimate.
            assert values == baseline
            rows.append(
                (
                    f"{rate:.1f}",
                    len(jobs),
                    injected,
                    retries,
                    f"{len(jobs) / max(elapsed, 1e-9):.1f} jobs/s",
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "E15: Monte-Carlo batch under injected worker_crash faults",
        ["fault rate", "jobs", "faults injected", "retries", "throughput"],
        rows,
    )
    # Faults were actually exercised at the non-zero rates, and each
    # crashed chunk ran exactly once more.
    assert rows[0][2] == 0
    assert all(r[2] > 0 for r in rows[1:])
    assert all(r[2] == r[3] for r in rows)


def test_e15_clean_batch_kernel(benchmark):
    jobs = batch_jobs(count=4, samples=1500)
    benchmark.pedantic(
        lambda: run_batch_under_rate(jobs, 0.0), rounds=2, iterations=1
    )


def test_e15_faulty_batch_kernel(benchmark):
    jobs = batch_jobs(count=4, samples=1500)
    benchmark.pedantic(
        lambda: run_batch_under_rate(jobs, 0.3), rounds=2, iterations=1
    )
