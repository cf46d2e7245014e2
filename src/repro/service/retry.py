"""Deterministic retry with exponential backoff and per-kind policy.

A :class:`RetryPolicy` decides **whether** a failure re-executes (the
per-kind retryability table, defaulting to the taxonomy's transient
kinds) and **when** (exponential backoff capped at ``max_delay``).  The
jitter that de-synchronizes concurrent retries is *counter-seeded*: the
delay for attempt *i* under seed *s* is a pure function of ``(s, i)``
computed through SHA-256, never the process-global ``random`` state —
so a retried batch replays the exact same backoff schedule, which is
what makes fault-injection tests (and post-mortem reproduction of a
flaky run) deterministic.

:func:`retry_call` is the batch runner's per-job retry loop; the worker
pool retries whole rounds of failed chunks in
:meth:`~repro.service.pool.WorkerPool.map_retrying`.
"""

from __future__ import annotations

import hashlib
import time as _time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.service.errors import JobError, from_exception
from repro.service.metrics import METRICS, RETRIES, Metrics
from repro.service.trace import TRACER

#: The per-kind retryability table: transient faults re-execute,
#: deterministic failures (bad input, exhausted budgets, genuine bugs)
#: fail fast — retrying them would only repeat the failure.
DEFAULT_RETRYABLE: Dict[str, bool] = {
    "parse": False,
    "validation": False,
    "budget": False,
    "worker_crash": True,
    "cache_corrupt": True,
    "internal": False,
}


def _unit(seed: int, counter: int) -> float:
    """A deterministic uniform-[0,1) draw keyed on ``(seed, counter)``."""
    digest = hashlib.sha256(f"{seed}:{counter}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to re-execute and how long to wait in between.

    ``max_attempts`` counts the first try (3 means up to two retries);
    ``jitter`` stretches each delay by up to that fraction, drawn
    deterministically from ``(seed, attempt)``.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.1
    retryable: Dict[str, bool] = field(
        default_factory=lambda: dict(DEFAULT_RETRYABLE)
    )

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if not 0 <= self.jitter <= 1:
            raise ValueError("jitter must be within [0, 1]")

    def is_retryable(self, kind: str) -> bool:
        """Whether failures of *kind* re-execute under this policy."""
        return self.retryable.get(kind, False)

    def delay(self, attempt: int, seed: int = 0) -> float:
        """Backoff before retry *attempt* (0-based): capped exponential
        growth plus deterministic counter-seeded jitter."""
        base = min(self.max_delay, self.base_delay * (2**attempt))
        return base * (1.0 + self.jitter * _unit(seed, attempt))

    def schedule(self, seed: int = 0) -> list:
        """The full delay schedule this policy would sleep through."""
        return [self.delay(i, seed) for i in range(self.max_attempts - 1)]


def token_seed(token: str) -> int:
    """A stable integer seed derived from an arbitrary token string."""
    digest = hashlib.sha256(str(token).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def retry_call(
    fn: Callable[[], object],
    policy: RetryPolicy,
    *,
    seed: int = 0,
    metrics: Metrics = METRICS,
    sleep: Callable[[float], None] = _time.sleep,
    on_retry: Optional[Callable[[JobError, int], None]] = None,
):
    """Run *fn*, re-executing transient failures under *policy*.

    Exceptions are classified through the taxonomy; a non-retryable kind
    (or an exhausted attempt budget) raises the wrapping
    :class:`~repro.service.errors.JobError`.  Each retry increments the
    ``retries`` counter and sleeps the deterministic backoff delay.
    """
    attempt = 0
    while True:
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 — classified below
            error = from_exception(exc)
            if (
                not policy.is_retryable(error.kind)
                or attempt + 1 >= policy.max_attempts
            ):
                raise error from exc
            metrics.inc(RETRIES)
            TRACER.event("retry", attempt=attempt, kind=error.kind)
            if on_retry is not None:
                on_retry(error, attempt)
            sleep(policy.delay(attempt, seed))
            attempt += 1
