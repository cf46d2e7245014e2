"""Chunk retry: the pool's one retry loop, and real worker deaths."""

import os
from concurrent.futures import BrokenExecutor

import pytest

from repro.core.worlds import DeadlineExceeded
from repro.service import pool as pool_module
from repro.service.errors import KINDS, JobError, ValidationError
from repro.service.jobs import MeasureJob
from repro.service.metrics import METRICS, RETRIES, Metrics
from repro.service.pool import WorkerPool
from repro.service.runner import BatchRunner


def die_once_per_item(args):
    """Kill the worker process on the first call per item; a marker file
    under the test's directory records that call across processes."""
    directory, item = args
    marker = os.path.join(directory, f"died-{item}")
    if not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(1)
    return item * item


def always_die(args):
    """Log the attempt, then kill the worker process."""
    directory, item = args
    with open(os.path.join(directory, "attempts"), "a") as handle:
        handle.write(f"{item}\n")
    os._exit(1)


class TestPolicyTable:
    def test_bad_policies_rejected(self):
        with pytest.raises(ValidationError):
            WorkerPool(workers=1, retries=0)
        with pytest.raises(ValidationError):
            WorkerPool(workers=1, retries=101)

    def test_default_table_matches_taxonomy(self):
        # The pool reruns exactly the transient kinds of the taxonomy.
        def rerun(kind):
            calls = []

            def fail_once(x):
                calls.append(x)
                if len(calls) == 1:
                    raise JobError("first attempt", kind=kind)
                return x

            with WorkerPool(workers=1, retries=2) as pool:
                try:
                    pool.map_retrying(fail_once, [0])
                except JobError as exc:
                    assert exc.kind == kind
            return len(calls) == 2

        assert {kind: rerun(kind) for kind in KINDS} == {
            "parse": False,
            "validation": False,
            "budget": False,
            "worker_crash": True,
            "cache_corrupt": True,
            "internal": False,
        }


class TestRetryCall:
    """The retry loop on a single call: recovery, fail-fast, exhaustion."""

    def test_transient_failures_recover(self):
        retries = METRICS.get(RETRIES)
        calls = []

        def flaky(x):
            calls.append(x)
            if len(calls) < 3:
                raise BrokenExecutor("crash")
            return "ok"

        with WorkerPool(workers=1, retries=3) as pool:
            assert pool.map_retrying(flaky, [0]) == ["ok"]
        assert len(calls) == 3
        assert METRICS.get(RETRIES) - retries == 2

    def test_non_retryable_fails_fast(self):
        calls = []

        def bad(x):
            calls.append(x)
            raise ValueError("deterministic")

        with WorkerPool(workers=1, retries=5) as pool:
            with pytest.raises(JobError) as excinfo:
                pool.map_retrying(bad, [0])
        assert len(calls) == 1
        assert excinfo.value.kind == "internal"

    def test_exhaustion_raises_typed_error(self):
        calls = []

        def always(x):
            calls.append(x)
            raise BrokenExecutor("still down")

        with WorkerPool(workers=1, retries=2) as pool:
            with pytest.raises(JobError) as excinfo:
                pool.map_retrying(always, [0])
        assert len(calls) == 2
        assert excinfo.value.kind == "worker_crash"


class TestPoolRetryWiring:
    def test_map_retrying_keeps_completed_items(self):
        attempts = {}

        def flaky(x):
            attempts[x] = attempts.get(x, 0) + 1
            if x == 3 and attempts[x] == 1:
                raise BrokenExecutor("worker died")
            return x * x

        with WorkerPool(workers=2, retries=3) as pool:
            results = pool.map_retrying(flaky, list(range(5)))
        assert results == [x * x for x in range(5)]
        # Only the failed item re-executed; the rest ran exactly once.
        assert attempts == {0: 1, 1: 1, 2: 1, 3: 2, 4: 1}

    def test_map_retrying_raises_non_retryable(self):
        calls = []

        def bad(x):
            calls.append(x)
            if x == 1:
                raise RuntimeError("genuine bug")
            return x

        with WorkerPool(workers=2) as pool:
            with pytest.raises(JobError) as excinfo:
                pool.map_retrying(bad, [0, 1, 2])
        assert excinfo.value.kind == "internal"
        assert sorted(calls) == [0, 1, 2]  # no item ran twice

    def test_map_retrying_passes_an_expired_deadline_through(self):
        # The planner records a stage timeout from the bare exception.
        calls = []

        def late(x):
            calls.append(x)
            raise DeadlineExceeded()

        with WorkerPool(workers=1) as pool:
            with pytest.raises(DeadlineExceeded):
                pool.map_retrying(late, [0])
        assert calls == [0]

    def test_map_retrying_exhaustion(self):
        calls = []

        def always(x):
            calls.append(x)
            raise BrokenExecutor("down forever")

        with WorkerPool(workers=2, retries=2) as pool:
            with pytest.raises(JobError) as excinfo:
                pool.map_retrying(always, [0, 1])
        assert excinfo.value.kind == "worker_crash"
        assert sorted(calls) == [0, 0, 1, 1]

    def test_rebuild_replaces_owned_executor(self):
        pool = WorkerPool(workers=2)
        first = pool.executor
        try:
            pool.rebuild()
            assert pool.executor is not first
            assert pool.map_retrying(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]
        finally:
            pool.shutdown()

    def test_rebuild_leaves_injected_executor_alone(self):
        from concurrent.futures import ThreadPoolExecutor

        executor = ThreadPoolExecutor(max_workers=1)
        try:
            pool = WorkerPool(workers=1, executor=executor)
            pool.rebuild()
            assert pool.executor is executor
        finally:
            executor.shutdown()

    def test_shut_down_executor_is_rebuilt(self):
        pool = WorkerPool(workers=2)
        try:
            pool.executor.shutdown()
            assert pool.map_retrying(lambda x: -x, [1, 2]) == [-1, -2]
        finally:
            pool.shutdown()


class TestWorkerDeath:
    """A worker process that really dies (``os._exit``) costs only the
    items it lost, and never more than ``retries`` attempts each."""

    def test_dead_workers_are_replaced_and_results_correct(self, tmp_path):
        rebuilds = METRICS.get("pool.rebuilds")
        # Each failing round kills at least one fresh item, so three
        # items need at most four rounds.
        with WorkerPool(workers=2, use_processes=True, retries=4) as pool:
            results = pool.map_retrying(
                die_once_per_item, [(str(tmp_path), i) for i in range(3)]
            )
        assert results == [0, 1, 4]
        assert METRICS.get("pool.rebuilds") - rebuilds >= 1

    def test_always_dying_worker_stops_after_retries(self, tmp_path):
        with WorkerPool(workers=1, use_processes=True, retries=3) as pool:
            with pytest.raises(JobError) as excinfo:
                pool.map_retrying(always_die, [(str(tmp_path), 0)])
        assert excinfo.value.kind == "worker_crash"
        attempts = (tmp_path / "attempts").read_text().splitlines()
        assert attempts == ["0", "0", "0"]

    def test_batch_retries_bound_chunk_evaluations(self, monkeypatch):
        # --retries N bounds each chunk at N attempts through the whole
        # runner: 2 chunks x 3 attempts, not multiplied by a job retry.
        calls = []

        def broken(args):
            calls.append(args[2:4])
            raise BrokenExecutor("worker died")

        monkeypatch.setattr(pool_module, "_eval_chunk", broken)
        job = MeasureJob(
            design="T(A,B,C); B->C",
            rows=((1, 2, 3), (4, 2, 3)),
            position=(0, "C"),
            method="montecarlo",
            samples=40,
            seed=7,
            id="m",
        )
        runner = BatchRunner(
            pool=WorkerPool(workers=2, retries=3), metrics=Metrics()
        )
        try:
            report = runner.run([job])
        finally:
            runner.pool.shutdown()
        assert len(calls) == 6
        assert sorted(set(calls)) == [(0, 20), (20, 20)]
        error = report["results"][0]["error"]
        assert error["kind"] == "worker_crash"
        assert error["retryable"] is True
