"""The planner: deterministic plans, budget fallback, the plan-keyed cache."""

from fractions import Fraction

import pytest

from repro.core import PositionedInstance
from repro.core.montecarlo import MCEstimate
from repro.dependencies import FD
from repro.engine import PLANNER, Planner, Problem, plan_and_run
from repro.relational import Relation, RelationSchema
from repro.service.budget import Budget, BudgetExceeded
from repro.service.cache import ResultCache
from repro.service.errors import ValidationError
from repro.service.jobs import MeasureJob
from repro.service.metrics import METRICS
from repro.service.pool import WorkerPool
from repro.service.runner import BatchRunner
from repro.service.trace import TRACER, tracing


def instance_with_rows(n_rows: int) -> PositionedInstance:
    schema = RelationSchema("R", ("A", "B", "C"))
    rows = [(i, 2, 3) if i < 2 else (i, 20 + i, 30 + i) for i in range(n_rows)]
    return PositionedInstance.from_relation(
        Relation(schema, rows), [FD("B", "C")]
    )


def problem(n_rows=2, **kwargs):
    inst = instance_with_rows(n_rows)
    return Problem.from_instance(inst, inst.position("R", 0, "C"), **kwargs)


#: Rows past the exact sweep's guard: 7 rows x 3 attributes = 21 positions.
OVERSIZED = 7


class TestPlanDeterminism:
    def test_plan_is_a_pure_function_of_problem_and_budget(self):
        prob = problem(OVERSIZED)
        budget = Budget(wall_seconds=5)
        assert PLANNER.plan(prob, budget) == PLANNER.plan(prob, budget)
        # A fresh planner instance agrees too: no hidden state.
        assert Planner().plan(prob, budget) == PLANNER.plan(prob, budget)

    def test_plan_never_runs_an_engine(self):
        METRICS.reset()
        PLANNER.plan(problem(2))
        snapshot = METRICS.snapshot()["counters"]
        assert snapshot.get("planner.plans") == 1
        assert not any(k.startswith("engine.") for k in snapshot)
        assert not any(k.startswith("ric.") for k in snapshot)

    def test_budget_changes_the_plan(self):
        # The budget's clock is part of the plan; the size guard is the
        # kernels' own, so the chosen engine depends on the problem.
        prob = problem(3)  # 9 positions
        timed = PLANNER.plan(prob, Budget(wall_seconds=5))
        untimed = PLANNER.plan(prob, Budget())
        assert timed != untimed and timed.wall_seconds == 5
        assert timed.chosen == untimed.chosen == "exact"
        assert PLANNER.plan(problem(OVERSIZED), Budget()).chosen == "montecarlo"


class TestFallbackChain:
    def test_auto_chain_matches_the_old_budget_ladder(self):
        # The pre-planner service/budget.py ladder was exact then
        # Monte Carlo; the planner's auto chain must be identical.
        plan = PLANNER.plan(problem(2))
        assert plan.engines == ("exact", "montecarlo")
        assert plan.chosen == "exact"
        assert plan.fallbacks == ("montecarlo",)

    def test_pinned_method_has_no_fallbacks(self):
        plan = PLANNER.plan(problem(2, method="montecarlo"))
        assert plan.engines == ("montecarlo",)
        assert plan.fallbacks == ()

    def test_oversized_exact_is_skipped_with_a_reason(self):
        plan = PLANNER.plan(problem(OVERSIZED))
        step = plan.steps[0]
        assert (step.engine, step.action) == ("exact", "skip:size")
        assert "positions" in step.reason
        assert step.worlds == 2 ** (3 * OVERSIZED - 1)
        assert plan.uses("montecarlo") and not plan.uses("exact")

    def test_exhausted_chain_raises_the_structured_error(self):
        # Same stage history the old degradation ladder produced; the
        # sample count is worth seconds of work against a 50 ms budget.
        prob = problem(OVERSIZED, samples=200_000)
        budget = Budget(wall_seconds=0.05)
        with pytest.raises(BudgetExceeded) as excinfo:
            PLANNER.plan_and_run(prob, budget=budget)
        assert excinfo.value.stages == [
            ("exact", "skipped:size"),
            ("montecarlo", "timeout"),
        ]

    def test_explain_names_every_stage(self):
        text = PLANNER.plan(problem(OVERSIZED)).explain()
        assert "skip exact" in text
        assert "chosen montecarlo" in text
        assert "exceed the exact-sweep budget" in text
        assert f"worlds={2 ** (3 * OVERSIZED - 1)}" in text
        assert "units" not in text


class TestExecution:
    def test_exact_value_matches_the_direct_engine(self):
        result = plan_and_run(problem(2))
        assert result.value == Fraction(7, 8)
        assert result.engine == "exact"

    def test_pinned_montecarlo_runs_with_problem_parameters(self):
        result = plan_and_run(problem(2, method="montecarlo", samples=40))
        assert isinstance(result.value, MCEstimate)
        assert result.value.samples == 40

    def test_unknown_method_is_a_typed_error_not_a_bare_valueerror(self):
        with pytest.raises(ValidationError) as excinfo:
            problem(2, method="quantum")
        assert excinfo.value.kind == "validation"
        assert excinfo.value.details["option"] == "method"


def measure_job(**params) -> MeasureJob:
    """The batch form of ``problem(2, ...)``: R[0].C of the 2-row instance."""
    return MeasureJob(
        design="R(A,B,C); B->C",
        rows=((0, 2, 3), (1, 2, 3)),
        position=(0, "C"),
        **params,
    )


class TestPlanCache:
    """The runner's result cache is keyed by the plan's problem key."""

    @staticmethod
    def run(cache, *jobs):
        runner = BatchRunner(pool=WorkerPool(workers=2), cache=cache)
        try:
            report = runner.run(list(jobs))
        finally:
            runner.pool.shutdown()
        return report["results"], report["metrics"]["counters"]

    def test_cache_hit_skips_engine_execution_entirely(self):
        cache = ResultCache()
        job = measure_job(method="auto")
        [first], _ = self.run(cache, job)
        assert first["cached"] is False
        assert first["key"] == PLANNER.plan(job.problem).key

        METRICS.reset()
        [second], counters = self.run(cache, job)
        assert second["cached"] is True
        assert second["value"] == first["value"]
        assert second["value"]["method"] == "exact"
        assert counters.get("runner.cache_hits") == 1
        assert not any(k.startswith("engine.runs") for k in counters)
        assert not any(k.startswith("planner.plans") for k in counters)

    def test_cached_mc_estimate_round_trips_bit_identically(self):
        cache = ResultCache()
        job = measure_job(method="montecarlo", samples=60, seed=3)
        [first], _ = self.run(cache, job)
        [second], _ = self.run(cache, job)
        assert second["cached"] is True
        # mean, stderr, samples and the interval all equal, bit for bit
        assert second["value"] == first["value"]
        direct = plan_and_run(job.problem).value
        assert (second["value"]["mean"], second["value"]["stderr"]) == (
            direct.mean,
            direct.stderr,
        )

    def test_different_samples_never_share_a_cache_entry(self):
        # The regression the canonical key exists to prevent.
        cache = ResultCache()
        coarse, fine = self.run(
            cache,
            measure_job(method="montecarlo", samples=40),
            measure_job(method="montecarlo", samples=80),
        )[0]
        assert coarse["key"] != fine["key"]
        assert coarse["cached"] is False and fine["cached"] is False
        assert coarse["value"]["samples"] == 40
        assert fine["value"]["samples"] == 80

    def test_exact_result_never_answers_a_sampled_request(self):
        cache = ResultCache()
        self.run(cache, measure_job(method="exact"))
        [sampled], _ = self.run(
            cache, measure_job(method="montecarlo", samples=40)
        )
        assert sampled["cached"] is False
        assert sampled["value"]["kind"] == "montecarlo"


class TestInstrumentation:
    def test_plan_and_run_emits_the_planner_span_tree(self):
        with tracing():
            plan_and_run(problem(2))
        spans = TRACER.drain()
        names = [s["name"] for s in spans]
        assert "plan" in names
        assert "engine_run" in names
        run = next(s for s in spans if s["name"] == "engine_run")
        assert run["attrs"]["engine"] == "exact"
        assert run["attrs"]["worlds"] == 2 ** (6 - 1)  # 2 rows x 3 columns
        assert run["attrs"]["ok"] is True
        # The counts the kernel returned: every world of an FD-only
        # instance is decided by the chase.
        assert run["attrs"]["chased"] == 2 ** (6 - 1)
        assert run["attrs"]["leaves"] == 0

    def test_a_stage_that_raises_records_no_counts(self):
        # W2 under an MVD takes far longer than 50 ms to sweep: the only
        # stage times out, and neither its span nor the registry gets a
        # count.
        from repro.dependencies import MVD

        w2 = PositionedInstance.from_relation(
            Relation(RelationSchema("R", ("A", "B", "C")),
                     [(1, 1, 1), (2, 1, 2), (1, 1, 2), (2, 1, 1)]),
            [MVD("B", "A")],
        )
        METRICS.reset()
        with tracing():
            with pytest.raises(BudgetExceeded):
                plan_and_run(
                    Problem.from_instance(w2, w2.positions[0], method="exact"),
                    budget=Budget(wall_seconds=0.05),
                )
        (run,) = [s for s in TRACER.drain() if s["name"] == "engine_run"]
        assert run["error"] and "leaves" not in run["attrs"]
        counters = METRICS.snapshot()["counters"]
        assert counters["budget.timeouts"] == 1
        assert not any(k.startswith(("engine.", "ric.")) for k in counters)

    def test_counters_cover_plans_runs_and_degradations(self):
        METRICS.reset()
        plan_and_run(problem(OVERSIZED, samples=20))
        counters = METRICS.snapshot()["counters"]
        assert counters["planner.plans"] == 1
        assert counters["engine.runs{engine=montecarlo}"] == 1
        assert counters["engine.worlds{engine=montecarlo}"] == 20
        assert counters["budget.degradations"] == 1
        METRICS.reset()
