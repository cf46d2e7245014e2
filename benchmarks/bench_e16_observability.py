"""E16 — Observability overhead: tracing off must be (nearly) free.

Every hot path in the engines now carries a ``TRACER.span(...)`` call.
Disabled, that call is one attribute check returning a shared no-op
handle; this experiment verifies the claim on the E10b workload
(parallel Monte-Carlo RIC, 400 samples) and records what tracing
actually costs when switched on.

The <2% assertion is made robust against CI timing noise by measuring
the no-op call cost *directly* (a tight loop of disabled spans) and
scaling it by the number of spans the traced run emits — an upper bound
on what the instrumentation can add to the untraced run, independent of
scheduler jitter between the off/on timings.  The measured off/on wall
clocks are reported alongside for the table.
"""

import time

from repro.core import PositionedInstance
from repro.dependencies import FD
from repro.relational import Relation, RelationSchema
from repro.service.pool import WorkerPool
from repro.service.trace import TRACER, tracing

from benchmarks.common import print_table


def instance_with_rows(n_rows: int) -> PositionedInstance:
    schema = RelationSchema("R", ("A", "B", "C"))
    rows = [(i, 2, 3) if i < 2 else (i, 20 + i, 30 + i) for i in range(n_rows)]
    return PositionedInstance.from_relation(
        Relation(schema, rows), [FD("B", "C")]
    )


def _best_of(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_e16_observability_overhead(benchmark):
    inst = instance_with_rows(4)
    p = inst.position("R", 0, "C")
    samples, seed, workers = 400, 11, 2

    def run_mc():
        with WorkerPool(workers=workers) as pool:
            return pool.ric_montecarlo(inst, p, samples=samples, seed=seed)

    def measure():
        run_mc()  # warm caches/threads before timing

        TRACER.reset()
        TRACER.disable()
        off = _best_of(run_mc)

        with tracing():
            on = _best_of(run_mc)
            spans_per_run = len(TRACER.drain()) // 5

        # The direct cost of one disabled span call (the only thing the
        # instrumentation adds to an untraced run), with an attribute
        # kwarg as at the real call sites.
        TRACER.disable()
        calls = 200_000
        start = time.perf_counter()
        for _ in range(calls):
            with TRACER.span("bench.noop", n=1):
                pass
        noop = (time.perf_counter() - start) / calls

        return off, on, spans_per_run, noop

    off, on, spans_per_run, noop = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )

    # Upper bound on what disabled instrumentation adds to the off run.
    added = spans_per_run * noop
    overhead = added / off if off else 0.0
    print_table(
        "E16: observability overhead on E10b parallel MC (400 samples)",
        ["config", "wall", "spans/run", "noop span", "overhead bound"],
        [
            (
                "tracing off",
                f"{off * 1e3:.2f} ms",
                spans_per_run,
                f"{noop * 1e9:.0f} ns",
                f"{overhead * 100:.4f}%",
            ),
            (
                "tracing on",
                f"{on * 1e3:.2f} ms",
                spans_per_run,
                "-",
                f"{(on / off - 1) * 100:+.1f}% measured",
            ),
        ],
    )
    # The acceptance bar: instrumentation left disabled costs <2%.
    assert overhead < 0.02, (
        f"disabled tracing overhead bound {overhead:.4%} exceeds 2% "
        f"({spans_per_run} spans x {noop * 1e9:.0f} ns over {off * 1e3:.2f} ms)"
    )
    assert spans_per_run >= 1 + workers  # pool.mc + chunk spans exist
