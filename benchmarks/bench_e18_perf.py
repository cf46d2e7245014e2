"""E18 — The performance observatory: cost calibration.

The claim about the ``repro.perf`` subsystem to verify: fitting a
seconds-per-run intercept and a seconds-per-count constant per engine (a
run's count is the worlds, oracle calls, pruning checks and leaves its
kernel spans record) to recorded ``engine_run`` spans reduces the
predicted-vs-observed relative error against one constant shared across
engines.
"""

from repro.core import PositionedInstance
from repro.dependencies import FD
from repro.engine import PLANNER, Problem
from repro.perf.calibrate import collect_engine_runs, fit_calibration
from repro.relational import Relation, RelationSchema
from repro.service.budget import Budget
from repro.service.trace import tracing

from benchmarks.common import print_table


def instance_with_rows(n_rows: int) -> PositionedInstance:
    # The E10/E17 workload family: 3-attribute rows under one FD.
    schema = RelationSchema("R", ("A", "B", "C"))
    rows = [(i, 2, 3) if i < 2 else (i, 20 + i, 30 + i) for i in range(n_rows)]
    return PositionedInstance.from_relation(
        Relation(schema, rows), [FD("B", "C")]
    )


def problem_for(n_rows: int, **kwargs) -> Problem:
    inst = instance_with_rows(n_rows)
    return Problem.from_instance(inst, inst.position("R", 0, "C"), **kwargs)


def test_e18_calibration(benchmark):
    """Per-engine calibration reduces predicted-vs-observed error."""

    def run():
        with tracing():
            for n_rows in (2, 3, 4):
                PLANNER.plan_and_run(
                    problem_for(n_rows, method="exact"), budget=Budget()
                )
                PLANNER.plan_and_run(
                    problem_for(
                        n_rows,
                        method="montecarlo",
                        samples=200 * n_rows,
                    ),
                    budget=Budget(),
                )
            runs = collect_engine_runs(TRACER_SPANS())
        return fit_calibration(runs)

    def TRACER_SPANS():
        from repro.service.trace import TRACER

        return TRACER.snapshot_spans()

    calibration = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        (
            name,
            f"{entry['seconds_per_run']:.3e}",
            f"{entry['seconds_per_count']:.3e}",
            entry["runs"],
            f"{entry['rel_error'] * 100:.1f}%",
        )
        for name, entry in sorted(calibration["engines"].items())
    ]
    error = calibration["error"]
    rows.append(
        (
            "(all: shared -> per-engine)",
            "-",
            "-",
            error["runs"],
            f"{error['before'] * 100:.1f}% -> {error['after'] * 100:.1f}%",
        )
    )
    print_table(
        "E18b: cost calibration (seconds per run and per kernel count)",
        ["engine", "sec/run", "sec/count", "runs", "rel error"],
        rows,
    )
    assert error["after"] <= error["before"] + 1e-12, error
    # Every run of the workload has a counted kernel span beneath it.
    assert {name: e["runs"] for name, e in calibration["engines"].items()} == {
        "exact": 3,
        "montecarlo": 3,
    }

