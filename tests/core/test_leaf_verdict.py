"""The pruning state decides the pattern search's leaves.

When every dependency is an FD, an MVD or a JD over its whole table with
at most two components, a leaf the pruned search reaches satisfies
``Σ`` and is counted without the oracle (DESIGN §2.1, the leaf lemma).
Here ``fastcheck``'s MVD and JD checks and the pruning state's verdict
with every cell assigned are checked against an independent criterion:
exact entropies over the uniform distribution on the relation's tuples
(``tests/core/entropy.py``).
"""

from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.fastcheck import compile_check
from repro.core.patterns import max_fresh, pattern_counts
from repro.core.pruning import PruningPlan, PruningState
from repro.core.symbolic import world_limit_ratio
from repro.core.worlds import World
from repro.dependencies.fd import FD
from repro.dependencies.jd import JD
from repro.dependencies.mvd import MVD
from repro.relational.schema import RelationSchema
from tests.core.entropy import jd_holds, mvd_holds
from tests.core.test_patterns import RATIO_CORPUS, SMALL_INSTANCES, every_world

ABC = RelationSchema("R", ("A", "B", "C"))
ABCD = RelationSchema("R", ("A", "B", "C", "D"))

#: MVDs and acyclic JDs over the whole schema.  The three-component JDs
#: are pruned only through the MVDs they imply, so their leaves keep the
#: oracle; the rest are decided by the pruning state.
CASES = [
    (ABC, MVD("A", "B")),
    (ABC, MVD("B", "A")),
    (ABC, MVD("", "B")),
    (ABCD, MVD("AB", "C")),
    (ABCD, MVD("A", "BC")),
    (ABC, JD("AB", "BC")),
    (ABC, JD("AB", "AC")),
    (ABCD, JD("ABC", "CD")),
    (ABCD, JD("AB", "BC", "CD")),
    (ABCD, JD("AB", "AC", "AD")),
]


def cols(schema, attrs):
    return [schema.index(a) for a in sorted(attrs)]


def entropy_verdict(schema, dep, rows) -> bool:
    """Does *dep* hold on *rows*, by the entropy criterion?"""
    if isinstance(dep, MVD):
        return mvd_holds(rows, cols(schema, dep.lhs), cols(schema, dep.rhs), schema.arity)
    components = [cols(schema, comp) for comp in dep.components]
    return jd_holds(rows, components, schema.arity)


def leaf_verdict(schema, dep, rows, order) -> bool:
    """Does the pattern search's path to the complete assignment *rows*
    pass every pruning call?  Every cell is a variable, assigned in
    *order* as the search assigns them, without a budget."""
    variables = [((0, i, c),) for i, c in order]
    plan = PruningPlan([schema], [rows], {"R": [dep]}, variables=variables)
    state = PruningState(plan, variables)
    return not any(
        state.extend(k, rows[i][c]) for k, (i, c) in enumerate(order)
    )


@st.composite
def relations(draw):
    """A dependency of :data:`CASES`, a relation over a small domain, and
    an order of its cells."""
    schema, dep = draw(st.sampled_from(CASES))
    width = schema.arity
    rows = draw(
        st.sets(
            st.tuples(*[st.integers(1, 3)] * width), min_size=1, max_size=6
        )
    )
    rows = [list(row) for row in sorted(rows)]
    order = draw(st.permutations([(i, c) for i in range(len(rows)) for c in range(width)]))
    return schema, dep, rows, order


class TestAgainstEntropy:
    @RATIO_CORPUS
    @given(relations())
    # B ->> A on W2: holds; dropping (2,1,1) loses a witness.
    @example((ABC, MVD("B", "A"), [[1, 1, 1], [1, 1, 2], [2, 1, 1], [2, 1, 2]],
              [(i, c) for i in range(4) for c in range(3)]))
    @example((ABC, MVD("B", "A"), [[1, 1, 1], [1, 1, 2], [2, 1, 2]],
              [(i, c) for i in range(3) for c in range(3)]))
    def test_checks_agree_with_the_entropy_criterion(self, case):
        schema, dep, rows, order = case
        expected = entropy_verdict(schema, dep, rows)
        assert compile_check(dep, schema)(rows) == expected
        verdict = leaf_verdict(schema, dep, rows, order)
        if PruningPlan([schema], [rows], {"R": [dep]}).decides_leaves:
            assert verdict == expected
        else:
            assert verdict or not expected  # sound: never cuts a model


class TestTheFlag:
    """``PruningPlan.decides_leaves`` follows ``Σ``: FDs, MVDs and JDs over
    the whole schema with at most two components."""

    def test_flag_per_dependency_set(self):
        expected = [
            (ABCD, [], True),
            (ABCD, [FD("A", "B")], True),
            (ABCD, [MVD("A", "B")], True),
            (ABCD, [JD("AB", "BCD")], True),
            (ABCD, [FD("A", "B"), MVD("", "C")], True),
            (ABC, [JD("AB", "BC", "CA")], False),  # cyclic
            (ABCD, [JD("AB", "BC", "CD")], False),
            (ABCD, [JD("AB", "BC")], False),  # over part of ABCD
            (ABCD, [FD("A", "B"), JD("AB", "BC", "CD")], False),
        ]
        for schema, deps, flag in expected:
            plan = PruningPlan([schema], [[[1] * schema.arity]], {"R": deps})
            assert plan.decides_leaves is flag, deps

    def test_instances_report_the_flag(self):
        flags = {name: SMALL_INSTANCES[name]().pruning_decides_leaves
                 for name in ("fd", "mvd", "jd2", "jd3", "xml")}
        assert flags == {"fd": True, "mvd": True, "jd2": True, "jd3": False,
                         "xml": True}


def sweep_counts(inst, prune=True):
    """``(leaves, oracle calls)`` of the searches of every world of
    *inst*: ``world_limit_ratio``, or with *prune* off ``max_fresh`` of
    every class."""
    leaves = calls = 0
    for world in every_world(inst):
        if prune:
            world_limit_ratio(world)
        else:
            for candidate in world.candidate_classes():
                max_fresh(world, candidate, prune=False)
        leaves += world.leaves
        calls += world.oracle_calls
    return leaves, calls


class TestOracleAtLeaves:
    def test_decided_leaves_make_no_oracle_call(self):
        for name in ("mvd", "mvd-empty-lhs", "jd2", "fd-mvd"):
            leaves, calls = sweep_counts(SMALL_INSTANCES[name]())
            assert leaves > 0 and calls == 0, name

    def test_cyclic_jd_asks_the_oracle_at_every_leaf(self):
        leaves, calls = sweep_counts(SMALL_INSTANCES["jd3"]())
        assert leaves > 0 and calls == leaves

    def test_unpruned_search_asks_the_oracle_at_every_leaf(self):
        leaves, calls = sweep_counts(SMALL_INSTANCES["mvd"](), prune=False)
        assert leaves > 0 and calls == leaves


class TestVariableOrder:
    """``World.erased`` puts the positions sharing a table column with
    ``p`` first; no count depends on the order."""

    def test_p_column_first_on_every_world(self):
        for name in ("mvd", "jd2", "xml-two-confs", "xml-keys"):
            inst = SMALL_INSTANCES[name]()
            for world in every_world(inst):
                columns = inst.columns_of(world.p)
                shares = [not columns.isdisjoint(inst.columns_of(q)) for q in world.erased]
                assert shares == sorted(shares, reverse=True), name
                positions = inst.positions
                for flag in (True, False):
                    part = [q for q, s in zip(world.erased, shares) if s is flag]
                    assert part == sorted(part, key=positions.index)
                assert set(world.erased) == set(positions) - world.revealed - {world.p}

    def test_w2_erases_p_column_first(self):
        inst = SMALL_INSTANCES["mvd"]()
        world = World(inst, inst.position("R", 0, "A"), frozenset())
        assert [str(q) for q in world.erased[:2]] == ["R[1].A", "R[0].B"]

    def test_counts_do_not_depend_on_the_order(self):
        for name in ("mvd", "fd-mvd", "jd2"):
            inst = SMALL_INSTANCES[name]()
            for world in every_world(inst):
                plain = World(inst, world.p, world.revealed)
                plain.erased = [q for q in inst.positions if q in set(world.erased)]
                for candidate in world.candidate_classes():
                    assert pattern_counts(world, candidate) == pattern_counts(plain, candidate)
