"""E10 — Scaling of the measure: exact sweep vs Monte Carlo.

The exact engine averages over all ``2^(n-1)`` revealed sets; Monte Carlo
replaces the outer average by sampling (per-world values stay exact).
This experiment times both as the number of positions grows.

Expected shape: exact wall-clock roughly doubles per added position;
Monte Carlo grows mildly (per-world cost only) — the crossover justifies
the engine split documented in DESIGN.md.
"""

import time

from repro.core import PositionedInstance, ric_exact, ric_montecarlo
from repro.dependencies import FD
from repro.relational import Relation, RelationSchema
from repro.service.pool import WorkerPool

from benchmarks.common import print_table


def instance_with_rows(n_rows: int) -> PositionedInstance:
    schema = RelationSchema("R", ("A", "B", "C"))
    rows = [(i, 2, 3) if i < 2 else (i, 20 + i, 30 + i) for i in range(n_rows)]
    return PositionedInstance.from_relation(
        Relation(schema, rows), [FD("B", "C")]
    )


def test_e10_table(benchmark):
    def run():
        rows = []
        for n_rows in (2, 3, 4):
            inst = instance_with_rows(n_rows)
            p = inst.position("R", 0, "C")
            n_positions = len(inst.positions)

            start = time.perf_counter()
            exact = ric_exact(inst, p)
            exact_time = time.perf_counter() - start

            start = time.perf_counter()
            est = ric_montecarlo(inst, p, samples=100, seed=3)
            mc_time = time.perf_counter() - start

            rows.append(
                (
                    n_positions,
                    f"{float(exact):.4f}",
                    f"{exact_time * 1e3:.1f} ms",
                    f"{est.mean:.4f}",
                    f"{mc_time * 1e3:.1f} ms",
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "E10: exact 2^(n-1) sweep vs Monte Carlo (100 samples)",
        ["positions", "exact RIC", "exact time", "MC estimate", "MC time"],
        rows,
    )
    # The exact sweep must slow down much faster than MC as n grows.
    exact_times = [float(r[2].split()[0]) for r in rows]
    mc_times = [float(r[4].split()[0]) for r in rows]
    assert exact_times[-1] / max(exact_times[0], 1e-3) > (
        mc_times[-1] / max(mc_times[0], 1e-3)
    )


def test_e10_parallel_mc(benchmark):
    """Sharded Monte-Carlo across the worker pool: the estimate is
    bit-identical for every worker count (counter-based seeding); the
    wall-clock column shows the sharding speedup on multi-core hosts
    (threads serialize on the GIL on a single core, so no timing
    assertion is made here)."""
    inst = instance_with_rows(4)
    p = inst.position("R", 0, "C")
    samples, seed = 400, 11

    def run():
        rows = []
        baseline = None
        for workers in (1, 2, 4):
            start = time.perf_counter()
            with WorkerPool(workers=workers) as pool:
                est = pool.ric_montecarlo(inst, p, samples=samples, seed=seed)
            elapsed = time.perf_counter() - start
            baseline = baseline if baseline is not None else est
            rows.append(
                (
                    workers,
                    f"{est.mean:.6f}",
                    f"{est.stderr:.6f}",
                    f"{elapsed * 1e3:.1f} ms",
                    est == baseline,
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        f"E10b: sharded Monte Carlo ({samples} samples, seed {seed})",
        ["workers", "estimate", "stderr", "time", "== 1-worker"],
        rows,
    )
    assert all(r[4] for r in rows)


def test_e10_exact_kernel(benchmark):
    inst = instance_with_rows(3)
    p = inst.position("R", 0, "C")
    benchmark.pedantic(lambda: ric_exact(inst, p), rounds=1, iterations=1)


def test_e10_mc_kernel(benchmark):
    inst = instance_with_rows(4)
    p = inst.position("R", 0, "C")
    benchmark.pedantic(
        lambda: ric_montecarlo(inst, p, samples=50, seed=0),
        rounds=1,
        iterations=1,
    )
