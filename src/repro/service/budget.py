"""Per-job budgets: the wall-clock limit, and the typed error a job
fails with when it is exhausted.

The exact ``RIC`` sweep is ``Θ(2^(n−1))`` in the number of positions, so
an unguarded service would hang on the first oversized request.  A job
is bounded two ways:

- **size** — instances past the exact sweep's guard
  (:func:`repro.core.measure.exact_fits`) never enter it (the plan
  skips the stage with the guard's reason);
- **time** — under a :class:`Budget`, each plan stage gets the
  remaining wall-clock allowance as a deadline that its kernel checks
  once per world or sample and at every pattern-search node.  A stage past it stops, so no work is left
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

from repro.service.validate import check_timeout


@dataclass(frozen=True)
class Budget:
    """Resource limits applied to a single job.

    ``wall_seconds=None`` disables the clock (the kernels' size guards
    still apply).
    """

    wall_seconds: Optional[float] = None

    def __post_init__(self):
        # Shared bounds validation (raises ValidationError, a ValueError).
        check_timeout("wall_seconds", self.wall_seconds)

    def to_dict(self) -> dict:
        return {"wall_seconds": self.wall_seconds}


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
