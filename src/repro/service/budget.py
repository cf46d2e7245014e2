"""Per-job budgets: wall-clock limits, typed exhaustion errors, and the
stage time-boxing machinery the planner executes under.

The exact ``RIC`` sweep is ``Θ(2^(n−1))`` in the number of positions, so
an unguarded service would hang on the first oversized request.  A
:class:`Budget` bounds each job two ways:

- **size** — instances with more than ``exact_max_positions`` positions
  never enter the exact sweep (the planner's cost model marks the stage
  infeasible and the plan skips it);
- **time** — each plan stage runs under the remaining wall-clock
  allowance via :func:`run_time_boxed`; a stage that exceeds it is
  abandoned and the next stage gets what is left.  When the chain is
  exhausted the job fails with a structured :class:`BudgetExceeded`
  carrying the stage history — never a hang, never a bare
  ``TimeoutError``.

Which engines form the chain, and in which order, is decided by
:class:`repro.engine.planner.Planner`: a budgeted measurement is
``plan_and_run(problem, budget=...)``, with the sampling parameters on
the :class:`~repro.engine.problem.Problem`.

Stage timeouts are enforced by running the stage on a sacrificial thread
and abandoning it on expiry — the orphaned thread finishes its
computation and is discarded, which is the strongest guarantee available
without process isolation (CPython offers no safe preemptive kill).
"""

from __future__ import annotations

import threading
import weakref
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.symbolic import EXACT_MAX_POSITIONS
from repro.service.trace import TRACER
from repro.service.validate import check_positive_int, check_timeout


@dataclass(frozen=True)
class Budget:
    """Resource limits applied to a single job.

    ``wall_seconds=None`` disables the clock (size limits still apply);
    ``exact_max_positions`` is the exact sweep guard every plan applies,
    and so the exact→Monte-Carlo degradation threshold (default: the
    exact kernels' own guard, ``cost.EXACT_MAX_POSITIONS``).
    """

    wall_seconds: Optional[float] = None
    exact_max_positions: int = EXACT_MAX_POSITIONS

    def __post_init__(self):
        # Shared bounds validation (raises ValidationError, a ValueError).
        check_timeout("wall_seconds", self.wall_seconds)
        check_positive_int("exact_max_positions", self.exact_max_positions)

    def to_dict(self) -> dict:
        return {
            "wall_seconds": self.wall_seconds,
            "exact_max_positions": self.exact_max_positions,
        }


class BudgetExceeded(RuntimeError):
    """Every plan stage was skipped or timed out.

    Structured: ``stages`` lists ``(stage, outcome)`` pairs in attempt
    order (outcomes: ``"skipped:size"``, ``"timeout"``), ``elapsed`` is
    the wall-clock spent, ``budget`` the limits that were in force.
    """

    def __init__(
        self,
        stages: List[Tuple[str, str]],
        elapsed: float,
        budget: Budget,
    ):
        self.stages = list(stages)
        self.elapsed = elapsed
        self.budget = budget
        detail = ", ".join(f"{stage}={outcome}" for stage, outcome in stages)
        super().__init__(
            f"budget exhausted after {elapsed:.3f}s ({detail}; "
            f"wall_seconds={budget.wall_seconds})"
        )

    def to_dict(self) -> dict:
        """JSON-safe error payload for batch results."""
        return {
            "error": "budget_exceeded",
            "stages": [list(pair) for pair in self.stages],
            "elapsed": self.elapsed,
            "budget": self.budget.to_dict(),
        }


def run_time_boxed(fn, timeout: Optional[float]):
    """Run *fn* under *timeout* seconds; raise FuturesTimeout on expiry.

    The stage runs on a dedicated **daemon** thread so expiry returns
    control immediately and the abandoned stage can never pin process
    exit (``concurrent.futures`` workers are non-daemon and joined at
    interpreter shutdown, which would turn a timed-out job into a hang
    at exit — exactly what budgets exist to prevent).
    """
    if timeout is None:
        return fn()
    outcome: dict = {}
    # The stage thread is outside the caller's span stack; bridge the
    # trace tree across the hop explicitly.
    parent_span = TRACER.current_id()

    def target() -> None:
        try:
            with TRACER.span("budget.stage.thread", parent_id=parent_span):
                outcome["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 — relayed to the caller
            outcome["error"] = exc

    thread = threading.Thread(target=target, name="repro-budget", daemon=True)
    thread.start()
    thread.join(timeout)
    if thread.is_alive():
        _ABANDONED.add(thread)
        raise FuturesTimeout()
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


#: Stage threads abandoned by expired budgets (still draining).
_ABANDONED: "weakref.WeakSet" = weakref.WeakSet()


def drain_abandoned(timeout: Optional[float] = None) -> int:
    """Join abandoned stage threads; returns how many are still alive.

    Abandoned stages finish on daemon threads and are normally just
    discarded; call this for an orderly shutdown (or between tests) when
    their residual CPU use or metric increments would interfere.
    """
    for thread in list(_ABANDONED):
        thread.join(timeout)
    return sum(1 for thread in _ABANDONED if thread.is_alive())
