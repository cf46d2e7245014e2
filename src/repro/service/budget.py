"""Per-job budgets: wall-clock and size limits, and the typed error a
job fails with when they are exhausted.

The exact ``RIC`` sweep is ``Θ(2^(n−1))`` in the number of positions, so
an unguarded service would hang on the first oversized request.  A
:class:`Budget` bounds each job two ways:

- **size** — instances with more than ``exact_max_positions`` positions
  never enter the exact sweep (the planner's cost model marks the stage
  infeasible and the plan skips it);
- **time** — each plan stage gets the remaining wall-clock allowance as
  a deadline that its kernel checks once per world or sample and at
  every pattern-search node.  A stage past it stops, so no work is left
  running, and the next stage gets what is left.  When the chain is
  exhausted the job fails with a structured :class:`BudgetExceeded`
  carrying the stage history — never a hang, never a bare
  ``TimeoutError``.

Which engines form the chain, and in which order, is decided by
:class:`repro.engine.planner.Planner`: a budgeted measurement is
``plan_and_run(problem, budget=...)``, with the sampling parameters on
the :class:`~repro.engine.problem.Problem`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.symbolic import EXACT_MAX_POSITIONS
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
