"""Budgets: degradation ladder, wall-clock timeouts, structured errors."""

from fractions import Fraction

import pytest

from repro.core import PositionedInstance
from repro.core.montecarlo import MCEstimate
from repro.dependencies import FD
from repro.engine import Problem, plan_and_run
from repro.relational import Relation, RelationSchema
from repro.service.budget import Budget, BudgetExceeded, drain_abandoned


def instance_with_rows(n_rows: int) -> PositionedInstance:
    schema = RelationSchema("R", ("A", "B", "C"))
    rows = [(i, 2, 3) if i < 2 else (i, 20 + i, 30 + i) for i in range(n_rows)]
    return PositionedInstance.from_relation(
        Relation(schema, rows), [FD("B", "C")]
    )


def measure(n_rows: int, budget: Budget, **params):
    """``(value, engine)`` of R[0].C under *budget* (method default auto)."""
    inst = instance_with_rows(n_rows)
    problem = Problem.from_instance(inst, inst.position("R", 0, "C"), **params)
    result = plan_and_run(problem, budget=budget)
    return result.value, result.engine


class TestLadder:
    def test_small_instance_stays_exact(self):
        value, method = measure(2, Budget())
        assert method == "exact"
        assert value == Fraction(7, 8)

    def test_oversized_instance_degrades_to_montecarlo(self):
        # 9 positions > 4-position allowance
        value, method = measure(
            3, Budget(exact_max_positions=4), samples=60, seed=2
        )
        assert method == "montecarlo"
        assert isinstance(value, MCEstimate)
        assert value.samples == 60

    def test_pinned_method_skips_the_ladder(self):
        value, method = measure(
            2, Budget(), method="montecarlo", samples=40
        )
        assert method == "montecarlo"
        assert isinstance(value, MCEstimate)

    def test_degraded_estimate_is_deterministic(self):
        budget = Budget(exact_max_positions=4)
        first, _ = measure(3, budget, samples=50, seed=9)
        second, _ = measure(3, budget, samples=50, seed=9)
        assert first == second


class TestTimeout:
    def test_exhausted_ladder_raises_structured_error(self):
        # A sample count worth seconds of work under a 50 ms clock: the
        # Monte-Carlo stage cannot finish, so the ladder exhausts (exact
        # is skipped by size).  The abandoned stage runs on a daemon
        # thread and drains shortly.
        budget = Budget(wall_seconds=0.05, exact_max_positions=4)
        with pytest.raises(BudgetExceeded) as excinfo:
            measure(6, budget, samples=2_000)
        err = excinfo.value
        assert ("exact", "skipped:size") in err.stages
        assert ("montecarlo", "timeout") in err.stages
        assert err.elapsed > 0
        payload = err.to_dict()
        assert payload["error"] == "budget_exceeded"
        assert payload["budget"]["wall_seconds"] == 0.05
        # Let the abandoned stage finish so its residual metric
        # increments cannot bleed into later tests.
        assert drain_abandoned() == 0

    def test_no_wall_clock_means_no_timeout(self):
        value, _ = measure(2, Budget(wall_seconds=None))
        assert value == Fraction(7, 8)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            Budget(wall_seconds=0)
        with pytest.raises(ValueError):
            Budget(exact_max_positions=0)
