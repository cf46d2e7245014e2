"""E9 — Engine agreement and the accuracy/latency trade-off.

The measure has one definition and three engines.  This experiment (a)
checks the exact engines coincide to machine precision on instances small
enough for literal enumeration, and (b) sweeps the Monte-Carlo sample
count to show the estimator converging on the exact limit with
``1/sqrt(n)`` error.

Expected shape: zero disagreement between brute force and symbolic;
MC absolute error shrinking with samples and covered by its own stderr.
"""

import math

from repro.core import (
    PositionedInstance,
    inf_k_bruteforce,
    inf_k_symbolic,
    ric_exact,
    ric_montecarlo,
)
from repro.dependencies import FD
from repro.relational import Relation, RelationSchema

from benchmarks.common import print_table

SCHEMA = RelationSchema("R", ("A", "B"))


def redundant_pair():
    schema = RelationSchema("T", ("A", "B", "C"))
    rel = Relation(schema, [(1, 2, 3), (4, 2, 3)])
    return PositionedInstance.from_relation(rel, [FD("B", "C")])


def test_e9_exact_agreement(benchmark):
    cases = [
        (Relation(SCHEMA, [(1, 2)]), []),
        (Relation(SCHEMA, [(1, 2), (3, 2)]), [FD("A", "B")]),
        (Relation(SCHEMA, [(1, 2), (3, 4)]), [FD("A", "B")]),
    ]

    def run():
        rows = []
        for relation, fds in cases:
            inst = PositionedInstance.from_relation(relation, fds)
            p = inst.positions[0]
            for k in (4, 5):
                sym = inf_k_symbolic(inst, p, k)
                brute = inf_k_bruteforce(inst, p, k)
                rows.append(
                    (
                        f"{sorted(relation.rows)} {list(map(str, fds))}",
                        k,
                        f"{sym:.6f}",
                        f"{brute:.6f}",
                        f"{abs(sym - brute):.1e}",
                    )
                )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "E9a: symbolic vs brute force (exact INF^k, bits)",
        ["instance", "k", "symbolic", "bruteforce", "|diff|"],
        rows,
    )
    assert all(float(r[4]) < 1e-9 for r in rows)


def test_e9_mc_convergence(benchmark):
    inst = redundant_pair()
    p = inst.position("T", 0, "C")
    exact = float(ric_exact(inst, p))

    def run():
        rows = []
        for samples in (25, 100, 400):
            est = ric_montecarlo(inst, p, samples=samples, seed=7)
            rows.append(
                (
                    samples,
                    f"{est.mean:.4f}",
                    f"{est.stderr:.4f}",
                    f"{abs(est.mean - exact):.4f}",
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        f"E9b: Monte-Carlo convergence to exact RIC = {exact:.4f}",
        ["samples", "estimate", "stderr", "|error|"],
        rows,
    )
    last = rows[-1]
    assert float(last[3]) < max(5 * float(last[2]), 0.02)


def test_e9_symbolic_kernel(benchmark):
    inst = redundant_pair()
    p = inst.position("T", 0, "C")
    benchmark(lambda: inf_k_symbolic(inst, p, 8))


def test_e9_bruteforce_kernel(benchmark):
    inst = PositionedInstance.from_relation(
        Relation(SCHEMA, [(1, 2), (3, 2)]), [FD("A", "B")]
    )
    p = inst.positions[0]
    benchmark(lambda: inf_k_bruteforce(inst, p, 4))
