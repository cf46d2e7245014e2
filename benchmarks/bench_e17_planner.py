"""E17 — The planner: overhead, crossover, result caching.

The planner replaces hand-coded engine dispatch with a pure decision
from the IR shape and the kernels' size guards.  Three claims to
verify:

- **overhead**: planning is a fixed small cost — under 5% of even the
  *cheapest* engine run on the E10 workload (it touches only the IR
  shape, never the instance);
- **crossover**: on small instances the plan picks the exact sweep, past
  the size guard it picks Monte Carlo — the degradation that used to be
  hand-coded in ``service/budget.py``, now visible in the plan;
- **caching**: a repeated batch job is answered from the runner's
  result cache, keyed by the job's ``Problem.canonical_key``, and skips
  planning and engine execution entirely.
"""

import time

from repro.core import PositionedInstance, ric_montecarlo
from repro.dependencies import FD
from repro.engine import PLANNER, Problem
from repro.relational import Relation, RelationSchema
from repro.service.budget import Budget
from repro.service.cache import ResultCache
from repro.service.jobs import MeasureJob
from repro.service.metrics import METRICS
from repro.service.pool import WorkerPool
from repro.service.runner import BatchRunner

from benchmarks.common import print_table


def instance_with_rows(n_rows: int) -> PositionedInstance:
    # The E10 workload family: 3-attribute rows under one FD.
    schema = RelationSchema("R", ("A", "B", "C"))
    rows = [(i, 2, 3) if i < 2 else (i, 20 + i, 30 + i) for i in range(n_rows)]
    return PositionedInstance.from_relation(
        Relation(schema, rows), [FD("B", "C")]
    )


def problem_for(n_rows: int, **kwargs) -> Problem:
    inst = instance_with_rows(n_rows)
    return Problem.from_instance(inst, inst.position("R", 0, "C"), **kwargs)


def test_e17_planner_overhead(benchmark):
    """Planning time vs the cheapest engine on the E10 workload."""
    samples = 100
    plan_iterations = 50

    def run():
        rows = []
        for n_rows in (2, 3, 4):
            prob = problem_for(
                n_rows, method="montecarlo", samples=samples
            )
            inst, p = prob.resolved_instance(), prob.position_obj()

            start = time.perf_counter()
            for _ in range(plan_iterations):
                PLANNER.plan(prob, Budget())
            plan_time = (time.perf_counter() - start) / plan_iterations

            # Monte Carlo is the cheapest engine at every E10 size.
            start = time.perf_counter()
            ric_montecarlo(inst, p, samples=samples, seed=0)
            engine_time = time.perf_counter() - start

            rows.append(
                (
                    prob.num_positions,
                    f"{plan_time * 1e6:.0f} us",
                    f"{engine_time * 1e3:.2f} ms",
                    f"{plan_time / engine_time * 100:.2f}%",
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        f"E17: planning overhead vs cheapest engine (MC, {samples} samples)",
        ["positions", "plan time", "engine time", "overhead"],
        rows,
    )
    for row in rows:
        assert float(row[3].rstrip("%")) < 5.0, row


def test_e17_crossover(benchmark):
    """Where the auto plan flips from the exact sweep to Monte Carlo."""

    def run():
        rows = []
        for n_rows in (2, 4, 6, 7, 8):
            prob = problem_for(n_rows, method="auto")
            plan = PLANNER.plan(prob, Budget())
            rows.append(
                (
                    prob.num_positions,
                    plan.steps[0].worlds,
                    plan.chosen,
                    ",".join(plan.fallbacks) or "-",
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "E17b: auto-plan crossover (exact size guard at 18 positions)",
        ["positions", "exact worlds", "chosen", "fallbacks"],
        rows,
    )
    chosen = [r[2] for r in rows]
    assert chosen[0] == "exact" and chosen[-1] == "montecarlo"
    # One clean crossover, no flapping.
    assert chosen == sorted(chosen, key=("exact", "montecarlo").index)


def test_e17_plan_cache(benchmark):
    """A warm runner-cache hit answers without running any engine."""
    inst = instance_with_rows(4)
    job = MeasureJob(
        design="R(A,B,C); B->C",
        rows=tuple(inst.rows_of("R")),
        position=(0, "C"),
        method="montecarlo",
        samples=400,
        seed=11,
    )

    def run():
        runner = BatchRunner(
            pool=WorkerPool(workers=2), cache=ResultCache()
        )
        METRICS.reset()
        passes = []
        try:
            for label in ("cold", "warm"):
                start = time.perf_counter()
                [entry] = runner.run([job])["results"]
                elapsed = time.perf_counter() - start
                runs = METRICS.snapshot()["counters"].get(
                    "engine.runs{engine=montecarlo}", 0
                )
                passes.append((label, elapsed, entry, runs))
        finally:
            runner.pool.shutdown()

        (_, _, cold, runs_cold), (_, _, warm, runs_warm) = passes
        assert warm["cached"] and warm["value"] == cold["value"]
        assert runs_warm == runs_cold  # no engine ran on the hit
        return [
            (label, f"{elapsed * 1e3:.2f} ms", entry["cached"], runs)
            for label, elapsed, entry, runs in passes
        ]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "E17c: runner result cache, keyed by the problem key "
        "(MC, 400 samples)",
        ["run", "time", "cache hit", "engine runs (cumulative)"],
        rows,
    )
    METRICS.reset()


def test_e17_plan_kernel(benchmark):
    prob = problem_for(4, method="auto")
    budget = Budget()
    benchmark.pedantic(
        lambda: PLANNER.plan(prob, budget), rounds=5, iterations=20
    )
