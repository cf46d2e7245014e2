"""The planner: one place where engine choice, budgets, and
instrumentation live.

``plan(problem, budget)`` is a **deterministic pure function** of the
problem IR and the budget limits: it costs every candidate engine
through the :class:`~repro.engine.cost.CostModel`, pins the requested
method (or walks the operation's ``"auto"`` ladder from
:mod:`repro.core.measure`), and emits an explainable :class:`Plan` — the
chosen engine, every estimate, and the fallback chain.  No engine runs
during planning.

``execute`` then walks the plan under the budget's wall clock, running
each stage through the method table of :mod:`repro.core.measure`: a
stage whose estimate was infeasible is skipped (recorded as a
degradation), a stage runs with the remaining allowance as a deadline
its kernel checks and stops when it passes it (recorded as a timeout),
and when the chain is exhausted the structured
:class:`~repro.service.budget.BudgetExceeded` carries the full stage
history.

Results are not cached here: the batch runner's content-addressed
:class:`~repro.service.cache.ResultCache`, keyed by
:meth:`Problem.canonical_key`, is the one result cache.

Instrumentation: ``plan`` and per-engine ``cost_estimate`` spans during
planning, one ``engine_run`` span per attempted stage, and counters
``planner.plans`` / ``engine.runs{engine=…}`` in the shared registry
(reset per batch by ``run_batch``).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import monotonic, perf_counter
from typing import Any, Optional, Tuple

from repro.core.measure import inf_k, ladder, ric
from repro.core.worlds import DeadlineExceeded
from repro.engine.cost import CostEstimate, CostModel
from repro.engine.problem import Problem
from repro.service.budget import Budget, BudgetExceeded
from repro.service.metrics import METRICS
from repro.service.trace import TRACER


@dataclass(frozen=True)
class PlanStep:
    """One stage of the fallback chain: run it, or skip it and say why."""

    engine: str
    action: str  # "run" | "skip:size"
    estimate: CostEstimate

    def to_dict(self) -> dict:
        return {
            "engine": self.engine,
            "action": self.action,
            "estimate": self.estimate.to_dict(),
        }


@dataclass(frozen=True)
class Plan:
    """An explainable engine-selection decision for one problem."""

    key: str
    op: str
    method: str
    chosen: Optional[str]
    steps: Tuple[PlanStep, ...]
    wall_seconds: Optional[float]

    @property
    def engines(self) -> Tuple[str, ...]:
        """Every engine in the chain, in attempt order."""
        return tuple(step.engine for step in self.steps)

    @property
    def fallbacks(self) -> Tuple[str, ...]:
        """The chain after the chosen engine."""
        runnable = [s.engine for s in self.steps if s.action == "run"]
        if self.chosen in runnable:
            return tuple(runnable[runnable.index(self.chosen) + 1:])
        return tuple(runnable)

    def uses(self, engine: str) -> bool:
        """Whether *engine* may run under this plan (chosen or fallback)."""
        return any(
            step.engine == engine and step.action == "run"
            for step in self.steps
        )

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "op": self.op,
            "method": self.method,
            "chosen": self.chosen,
            "fallbacks": list(self.fallbacks),
            "wall_seconds": self.wall_seconds,
            "steps": [step.to_dict() for step in self.steps],
        }

    def explain(self) -> str:
        """A human-readable rendering (the ``--explain-plan`` output)."""
        lines = [
            f"plan {self.key[:16]}… op={self.op} method={self.method} "
            f"wall_seconds={self.wall_seconds}"
        ]
        for index, step in enumerate(self.steps, start=1):
            est = step.estimate
            cost = (
                f"worlds={est.worlds:g} units={est.units:g}"
                if est.units != float("inf")
                else "units=inf"
            )
            if est.seconds is not None:
                cost += f" ~{est.seconds:.3g}s"
            if step.action == "run":
                role = "chosen" if step.engine == self.chosen else "fallback"
                lines.append(f"  {index}. {role} {step.engine}  [{cost}]")
            else:
                lines.append(
                    f"  {index}. skip {step.engine}  [{cost}] — {est.reason}"
                )
        if self.chosen is None:
            lines.append("  no feasible engine: execution would fail fast")
        return "\n".join(lines)


@dataclass(frozen=True)
class ExecutionResult:
    """What ``plan_and_run`` hands back to callers."""

    value: Any
    engine: str
    plan: Plan


def _run_engine(problem: Problem, engine: str, pool, deadline):
    """Run *engine* on *problem* through the core method table."""
    instance, p = problem.resolved_instance(), problem.position_obj()
    if problem.op == "inf_k":
        return inf_k(instance, p, problem.k, method=engine, deadline=deadline)
    return ric(
        instance,
        p,
        method=engine,
        samples=problem.samples,
        seed=problem.seed,
        pool=pool,
        deadline=deadline,
    )


class Planner:
    """Cost-based engine selection with budget-driven fallback.

    One planner instance is stateless apart from its cost model; the
    module-level :data:`PLANNER` is the default every caller shares.
    """

    def __init__(self, cost_model: Optional[CostModel] = None):
        self.cost_model = cost_model or CostModel()

    def load_calibration(self, path: str) -> None:
        """Swap in a cost model calibrated from ``cost_calibration.json``
        (written by ``python -m repro perf calibrate``).

        Estimates then carry predicted wall seconds; engine *selection*
        is unchanged, so plans stay deterministic and bit-identical.
        """
        self.cost_model = CostModel.with_calibration(path)

    # ------------------------------------------------------------------
    # planning (pure)
    # ------------------------------------------------------------------

    def plan(
        self, problem: Problem, budget: Optional[Budget] = None
    ) -> Plan:
        """Cost every chain engine and fix the fallback chain.

        Deterministic: the same ``(problem, budget)`` pair always yields
        an identical plan — no clocks, no randomness, no engine runs.
        """
        budget = budget or Budget()
        key = problem.canonical_key()
        steps = []
        with TRACER.span(
            "plan", key=key[:16], op=problem.op, method=problem.method
        ):
            for name in ladder(problem.op, problem.method):
                with TRACER.span("cost_estimate", engine=name):
                    estimate = self.cost_model.estimate(problem, name)
                steps.append(
                    PlanStep(
                        engine=name,
                        action="run" if estimate.feasible else "skip:size",
                        estimate=estimate,
                    )
                )
        chosen = next(
            (step.engine for step in steps if step.action == "run"), None
        )
        METRICS.inc("planner.plans")
        return Plan(
            key=key,
            op=problem.op,
            method=problem.method,
            chosen=chosen,
            steps=tuple(steps),
            wall_seconds=budget.wall_seconds,
        )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def execute(
        self,
        problem: Problem,
        plan: Plan,
        budget: Optional[Budget] = None,
        pool=None,
    ) -> Tuple[Any, str]:
        """Walk the plan's chain under the budget; ``(value, engine)``.

        Skipped stages and timeouts are recorded exactly as the old
        degradation ladder recorded them; an exhausted chain raises the
        structured :class:`~repro.service.budget.BudgetExceeded`.
        """
        budget = budget or Budget()
        attempts = []
        started = perf_counter()

        def stage_deadline() -> Optional[float]:
            """What is left of the budget (at least 1 ms), from now."""
            if budget.wall_seconds is None:
                return None
            left = budget.wall_seconds - (perf_counter() - started)
            return monotonic() + max(left, 0.001)

        for step in plan.steps:
            if step.action != "run":
                attempts.append((step.engine, "skipped:size"))
                METRICS.inc("budget.degradations")
                TRACER.event(
                    "budget.degrade", stage=step.engine, reason="size"
                )
                continue
            try:
                # The span carries the stage's unit estimate (and the
                # calibrated prediction, when one is loaded) next to its
                # measured duration — the (units, seconds) pairs
                # ``repro perf calibrate`` replays to fit the model.
                with TRACER.span(
                    "engine_run",
                    engine=step.engine,
                    op=problem.op,
                    key=plan.key[:16],
                    units=step.estimate.units,
                ) as span:
                    if step.estimate.seconds is not None:
                        span.set(predicted_seconds=step.estimate.seconds)
                    value = _run_engine(
                        problem, step.engine, pool, stage_deadline()
                    )
                    span.set(ok=True)
                METRICS.inc("engine.runs", engine=step.engine)
                return value, step.engine
            except DeadlineExceeded:
                attempts.append((step.engine, "timeout"))
                METRICS.inc("budget.timeouts")
                TRACER.event("budget.timeout", stage=step.engine)

        raise BudgetExceeded(attempts, perf_counter() - started, budget)

    def plan_and_run(
        self,
        problem: Problem,
        budget: Optional[Budget] = None,
        pool=None,
    ) -> ExecutionResult:
        """Plan *problem*, then execute that plan."""
        plan = self.plan(problem, budget=budget)
        value, engine = self.execute(problem, plan, budget=budget, pool=pool)
        return ExecutionResult(value=value, engine=engine, plan=plan)


#: The default planner every thin caller goes through.
PLANNER = Planner()


def plan_and_run(
    problem: Problem,
    budget: Optional[Budget] = None,
    pool=None,
) -> ExecutionResult:
    """Module-level convenience over :data:`PLANNER`."""
    return PLANNER.plan_and_run(problem, budget=budget, pool=pool)
