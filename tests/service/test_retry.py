"""Retry policy: determinism, per-kind table, pool/runner wiring."""

import pytest

from repro.core.worlds import DeadlineExceeded
from repro.service.errors import JobError, WorkerCrashError
from repro.service.metrics import RETRIES, Metrics
from repro.service.pool import WorkerPool
from repro.service.retry import (
    DEFAULT_RETRYABLE,
    RetryPolicy,
    retry_call,
    token_seed,
)


class TestBackoffDeterminism:
    def test_same_seed_same_schedule(self):
        policy = RetryPolicy(max_attempts=6, base_delay=0.1, jitter=0.5)
        assert policy.schedule(seed=42) == policy.schedule(seed=42)

    def test_different_seeds_differ(self):
        policy = RetryPolicy(max_attempts=6, base_delay=0.1, jitter=0.5)
        assert policy.schedule(seed=1) != policy.schedule(seed=2)

    def test_exponential_growth_capped(self):
        policy = RetryPolicy(
            max_attempts=10, base_delay=0.1, max_delay=0.4, jitter=0.0
        )
        assert policy.schedule() == pytest.approx(
            [0.1, 0.2, 0.4, 0.4, 0.4, 0.4, 0.4, 0.4, 0.4]
        )

    def test_jitter_stays_within_fraction(self):
        policy = RetryPolicy(base_delay=1.0, max_delay=1.0, jitter=0.25)
        for attempt in range(20):
            delay = policy.delay(attempt, seed=7)
            assert 1.0 <= delay <= 1.25

    def test_token_seed_is_stable(self):
        assert token_seed("abc") == token_seed("abc")
        assert token_seed("abc") != token_seed("abd")


class TestPolicyTable:
    def test_default_table_matches_taxonomy(self):
        assert DEFAULT_RETRYABLE == {
            "parse": False,
            "validation": False,
            "budget": False,
            "worker_crash": True,
            "cache_corrupt": True,
            "internal": False,
        }

    def test_table_is_overridable(self):
        policy = RetryPolicy(retryable={"internal": True})
        assert policy.is_retryable("internal")
        assert not policy.is_retryable("worker_crash")

    def test_bad_policies_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)


class TestRetryCall:
    def test_transient_failures_recover(self):
        metrics = Metrics()
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise WorkerCrashError("crash")
            return "ok"

        result = retry_call(
            flaky,
            RetryPolicy(max_attempts=3, base_delay=0.0),
            metrics=metrics,
            sleep=lambda _s: None,
        )
        assert result == "ok"
        assert len(calls) == 3
        assert metrics.get(RETRIES) == 2

    def test_non_retryable_fails_fast(self):
        calls = []

        def bad():
            calls.append(1)
            raise ValueError("deterministic")

        with pytest.raises(JobError) as excinfo:
            retry_call(
                bad,
                RetryPolicy(max_attempts=5, base_delay=0.0),
                sleep=lambda _s: None,
            )
        assert len(calls) == 1
        assert excinfo.value.kind == "internal"

    def test_exhaustion_raises_typed_error(self):
        def always():
            raise WorkerCrashError("still down")

        with pytest.raises(JobError) as excinfo:
            retry_call(
                always,
                RetryPolicy(max_attempts=2, base_delay=0.0),
                sleep=lambda _s: None,
            )
        assert excinfo.value.kind == "worker_crash"


class TestPoolRetryWiring:
    def test_map_retrying_keeps_completed_items(self):
        attempts = {}

        def flaky(x):
            attempts[x] = attempts.get(x, 0) + 1
            if x == 3 and attempts[x] == 1:
                raise WorkerCrashError("transient")
            return x * x

        with WorkerPool(
            workers=2, retry=RetryPolicy(max_attempts=3, base_delay=0.0)
        ) as pool:
            results = pool.map_retrying(
                flaky, list(range(5)), sleep=lambda _s: None
            )
        assert results == [x * x for x in range(5)]
        # Only the failed item re-executed; the rest ran exactly once.
        assert attempts == {0: 1, 1: 1, 2: 1, 3: 2, 4: 1}

    def test_map_retrying_raises_non_retryable(self):
        def bad(x):
            if x == 1:
                raise RuntimeError("genuine bug")
            return x

        with WorkerPool(workers=2) as pool:
            with pytest.raises(JobError) as excinfo:
                pool.map_retrying(bad, [0, 1, 2], sleep=lambda _s: None)
        assert excinfo.value.kind == "internal"

    def test_map_retrying_passes_an_expired_deadline_through(self):
        # The planner records a stage timeout from the bare exception.
        calls = []

        def late(x):
            calls.append(x)
            raise DeadlineExceeded()

        with WorkerPool(workers=1) as pool:
            with pytest.raises(DeadlineExceeded):
                pool.map_retrying(late, [0], sleep=lambda _s: None)
        assert calls == [0]

    def test_map_retrying_exhaustion(self):
        def always(x):
            raise WorkerCrashError("down forever")

        with WorkerPool(
            workers=2, retry=RetryPolicy(max_attempts=2, base_delay=0.0)
        ) as pool:
            with pytest.raises(JobError) as excinfo:
                pool.map_retrying(always, [0, 1], sleep=lambda _s: None)
        assert excinfo.value.kind == "worker_crash"

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
