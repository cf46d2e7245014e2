"""A1 (ablation) — certain-violation pruning in the pattern search.

DESIGN.md calls out the pattern-search pruning as the load-bearing design
choice of the symbolic engine: partial patterns whose concrete cells
already violate a dependency (for every concretization of the unknowns)
are cut.  This ablation runs `max_fresh` with and without the pruning on
the worlds where it matters — heavily-revealed worlds of a redundant
instance — and checks the results are identical while the work is not.
JDs prune through the MVDs their component splits imply: a two-component
JD exactly as its MVD, the cyclic ``JD(AB, BC, CA)`` not at all (it
implies no nontrivial MVD).

Expected shape: identical (d, c) outputs; the pruned search visits the
forced worlds orders of magnitude faster as the instance grows; the
two-component JD world gains like an MVD world, the cyclic one stays level.
"""

import time

from repro.core.patterns import max_fresh
from repro.core.positions import PositionedInstance
from repro.core.worlds import World
from repro.dependencies import FD, JD
from repro.relational import Relation, RelationSchema

from benchmarks.common import print_table


def forced_world(n_rows: int):
    """A world of the CSZ-style redundant instance with everything
    revealed except the measured C slot and one row's cells."""
    schema = RelationSchema("R", ("C", "S", "Z"))
    rows = [(1, 10 + i, 5) for i in range(n_rows)]
    inst = PositionedInstance.from_relation(
        Relation(schema, rows), [FD("SZ", "C"), FD("Z", "C")]
    )
    p = inst.position("R", 0, "C")
    hidden = {inst.position("R", n_rows - 1, a) for a in ("S", "Z")}
    revealed = frozenset(q for q in inst.positions if q != p and q not in hidden)
    return World(inst, p, revealed)


def jd_world(jd):
    """A world of ``R(A,B,C)`` with rows (1,1,1),(2,1,2),(1,1,2),(2,1,1),
    which satisfy both JDs of the table, under *jd*: ``R[0].A`` measured,
    the last two rows hidden."""
    schema = RelationSchema("R", ("A", "B", "C"))
    rows = [(1, 1, 1), (2, 1, 2), (1, 1, 2), (2, 1, 1)]
    inst = PositionedInstance.from_relation(Relation(schema, rows), [jd])
    p = inst.position("R", 0, "A")
    revealed = frozenset(q for q in inst.positions if q != p and q.row < 2)
    return World(inst, p, revealed)


def _time_all_classes(world, prune):
    start = time.perf_counter()
    results = [
        max_fresh(world, candidate, prune=prune)
        for candidate in world.candidate_classes()
    ]
    return results, time.perf_counter() - start


def test_a1_table(benchmark):
    worlds = [(f"FD, {n} rows", forced_world(n)) for n in (2, 3, 4)] + [
        ("JD(AB,BC)", jd_world(JD("AB", "BC"))),
        ("JD(AB,BC,CA)", jd_world(JD("AB", "BC", "CA"))),
    ]

    def run():
        rows = []
        for name, world in worlds:
            pruned, t_on = _time_all_classes(world, prune=True)
            plain, t_off = _time_all_classes(world, prune=False)
            assert pruned == plain  # the ablation must not change results
            rows.append(
                (
                    name,
                    f"{t_on * 1e3:.2f} ms",
                    f"{t_off * 1e3:.2f} ms",
                    f"{t_off / max(t_on, 1e-9):.1f}x",
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "A1: pattern search with/without certain-violation pruning",
        ["world", "pruned", "unpruned", "speedup"],
        rows,
    )
    # Pruning must never lose, and must win clearly on the largest FD case.
    assert float(rows[2][3].rstrip("x")) > 1.0


def test_a1_pruned_kernel(benchmark):
    world = forced_world(3)
    benchmark(lambda: [max_fresh(world, c) for c in world.candidate_classes()])


def test_a1_unpruned_kernel(benchmark):
    world = forced_world(3)
    benchmark.pedantic(
        lambda: [
            max_fresh(world, c, prune=False) for c in world.candidate_classes()
        ],
        rounds=2,
        iterations=1,
    )
