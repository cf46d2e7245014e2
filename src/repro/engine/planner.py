"""The planner: one place where engine choice, budgets, and
instrumentation live.

``plan(problem, budget)`` is a **deterministic pure function** of the
problem IR and the budget limits: it pins the requested method (or walks
the operation's ``"auto"`` ladder from :mod:`repro.core.measure`), skips
every stage whose kernel's size guard would refuse the problem, and
emits an explainable :class:`Plan` — the chosen engine, the worlds each
stage would visit, and the fallback chain.  No engine runs during
planning.

``execute`` then walks the plan under the budget's wall clock, running
each stage through the method table of :mod:`repro.core.measure`: a
stage the size guards refused is skipped (recorded as a
degradation), a stage runs with the remaining allowance as a deadline
its kernel checks and stops when it passes it (recorded as a timeout),
and when the chain is exhausted the structured
:class:`~repro.service.budget.BudgetExceeded` carries the full stage
history.

Results are not cached here: the batch runner's content-addressed
:class:`~repro.service.cache.ResultCache`, keyed by
:meth:`Problem.canonical_key`, is the one result cache.

Instrumentation: a ``plan`` span during planning, one ``engine_run``
span per attempted stage, and counters ``planner.plans`` /
``engine.runs{engine=…}`` in the shared registry (reset per batch by
``run_batch``).  It is the one place that records the kernels' work:
each stage's kernel fills a :class:`~repro.core.worlds.WorkCounts`,
which goes on the ``engine_run`` span and into the registry
(``engine.worlds{engine=…}``, :data:`WORK_COUNTERS`) once the stage
returns.  A stage that raises records nothing.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from time import monotonic, perf_counter
from typing import Any, Optional, Tuple

from repro.core.measure import inf_k, ladder, refusal, ric, worlds_visited
from repro.core.worlds import DeadlineExceeded, WorkCounts
from repro.engine.problem import Problem
from repro.service.budget import Budget, BudgetExceeded
from repro.service.metrics import METRICS
from repro.service.trace import TRACER


#: The registry counter each kernel work count is added to.
WORK_COUNTERS = {
    "chased": "ric.worlds.chased", "oracle_calls": "ric.oracle.calls",
    "prune_calls": "ric.prune.calls", "prune_hits": "ric.prune.hits",
    "leaves": "ric.pattern.leaves", "deficit_sum": "ric.pattern.deficit",
}


@dataclass(frozen=True)
class PlanStep:
    """One stage of the fallback chain: run it, or skip it and say why."""

    engine: str
    action: str  # "run" | "skip:size"
    worlds: int  # the worlds its method visits
    reason: str  # why the size guard refused it ("" for a run step)


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

    def explain(self) -> str:
        """A human-readable rendering (the ``--explain-plan`` output)."""
        lines = [
            f"plan {self.key[:16]}… op={self.op} method={self.method} "
            f"wall_seconds={self.wall_seconds}"
        ]
        for index, step in enumerate(self.steps, start=1):
            cost = f"worlds={step.worlds}"
            if step.action == "run":
                role = "chosen" if step.engine == self.chosen else "fallback"
                lines.append(f"  {index}. {role} {step.engine}  [{cost}]")
            else:
                lines.append(
                    f"  {index}. skip {step.engine}  [{cost}] — {step.reason}"
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


def _run_engine(problem: Problem, engine: str, pool, deadline, counts):
    """Run *engine* on *problem* through the core method table, adding
    its work into *counts*."""
    instance, p = problem.resolved_instance(), problem.position_obj()
    if problem.op == "inf_k":
        return inf_k(instance, p, problem.k, method=engine,
                     deadline=deadline, counts=counts)
    return ric(
        instance,
        p,
        method=engine,
        samples=problem.samples,
        seed=problem.seed,
        pool=pool,
        deadline=deadline,
        counts=counts,
    )


class Planner:
    """Engine selection by size guard, with budget-driven fallback.

    A planner is stateless; the module-level :data:`PLANNER` is the
    default every caller shares.
    """

    # ------------------------------------------------------------------
    # planning (pure)
    # ------------------------------------------------------------------

    def plan(
        self, problem: Problem, budget: Optional[Budget] = None
    ) -> Plan:
        """Size-check every chain engine and fix the fallback chain.

        Deterministic: the same ``(problem, budget)`` pair always yields
        an identical plan — no clocks, no randomness, no engine runs.
        """
        budget = budget or Budget()
        key = problem.canonical_key()
        n = problem.num_positions
        steps = []
        with TRACER.span(
            "plan", key=key[:16], op=problem.op, method=problem.method
        ):
            for name in ladder(problem.op, problem.method):
                reason = refusal(name, n, problem.k)
                steps.append(
                    PlanStep(
                        engine=name,
                        action="skip:size" if reason else "run",
                        worlds=worlds_visited(name, n, problem.samples),
                        reason=reason,
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
            counts = WorkCounts()
            try:
                # ``repro perf calibrate`` fits each engine's seconds per
                # count from this span's duration and counts.
                with TRACER.span(
                    "engine_run",
                    engine=step.engine,
                    op=problem.op,
                    key=plan.key[:16],
                    worlds=step.worlds,
                ) as span:
                    value = _run_engine(
                        problem, step.engine, pool, stage_deadline(), counts
                    )
                    span.set(ok=True, **asdict(counts))
                METRICS.inc("engine.runs", engine=step.engine)
                METRICS.inc("engine.worlds", counts.worlds, engine=step.engine)
                for attr, counter in WORK_COUNTERS.items():
                    METRICS.inc(counter, getattr(counts, attr))
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
