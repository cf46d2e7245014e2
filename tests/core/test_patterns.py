"""Tests for the equality-pattern enumeration."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.patterns import max_fresh, pattern_counts
from repro.core.positions import PositionedInstance
from repro.core.symbolic import ric_exact
from repro.core.worlds import FRESH, World
from repro.dependencies.fd import FD
from repro.dependencies.jd import JD
from repro.dependencies.mvd import MVD
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema

SCHEMA = RelationSchema("R", ("A", "B"))


def world_for(rows, deps, p_spec, revealed_specs):
    inst = PositionedInstance.from_relation(Relation(SCHEMA, rows), deps)
    p = inst.position("R", *p_spec)
    revealed = frozenset(inst.position("R", r, a) for r, a in revealed_specs)
    return World(inst, p, revealed)


class TestPatternCounts:
    def test_unconstrained_counts_are_bell_like(self):
        # One erased cell, no constraints, fresh candidate: the erased cell
        # is either = candidate, or fresh: plus any fixed values (none).
        world = world_for([(1, 2)], [], ("0", "A") if False else (0, "A"), [])
        # positions: p = (0,A); erased = (0,B); no revealed values.
        counts = pattern_counts(world, FRESH)
        # erased cell: label = candidate (b=0) or new fresh (b=1).
        assert counts == {0: 1, 1: 1}

    def test_counts_respect_constraints(self):
        # Rows (1,2),(3,4); p = (1,B); revealed: everything except p.
        world = world_for(
            [(1, 2), (3, 4)],
            [FD("A", "B")],
            (1, "B"),
            [(0, "A"), (0, "B"), (1, "A")],
        )
        assert world.num_erased == 0
        # Candidate = revealed value 2 conflicts? Row1 A=3 differs from
        # row0 A=1, so any candidate works: every class has the empty
        # pattern.
        for candidate in world.candidate_classes():
            assert pattern_counts(world, candidate) == {0: 1}

    def test_forced_candidate_has_no_patterns(self):
        # Rows (1,2),(1,2) collapse; use (1,2),(1,4)? that violates A->B.
        # Instead: rows (1,2),(3,2) with FD A->B, p=(0,B), reveal all:
        # candidate must make row0 = (1, a); row1 = (3, 2): no conflict
        # unless we reveal row1's A as 1 — impossible.  Use FD B->A
        # style: rows (1,2),(1,3)? violates.  Simplest forcing: rows
        # (1,2),(1,2) dedup to one row.  So test with 3 columns.
        schema = RelationSchema("T", ("A", "B", "C"))
        rel = Relation(schema, [(1, 2, 3), (4, 2, 3)])
        inst = PositionedInstance.from_relation(rel, [FD("B", "C")])
        p = inst.position("T", 0, "C")
        revealed = frozenset(q for q in inst.positions if q != p)
        world = World(inst, p, revealed)
        # Revealed B values are equal (2), so C is forced to 3.
        ok = {}
        for candidate in world.candidate_classes():
            ok[repr(candidate)] = pattern_counts(world, candidate)
        assert ok["3"] == {0: 1}
        assert ok["*-1"] == {}  # fresh candidate impossible
        assert ok["2"] == {}


class TestMaxFresh:
    def test_all_fresh_optimum(self):
        world = world_for([(1, 2), (3, 4)], [FD("A", "B")], (0, "A"), [])
        stat = max_fresh(world, FRESH)
        assert stat is not None
        d, c = stat
        assert d == world.num_erased
        assert c == 1

    def test_dead_class_returns_none(self):
        schema = RelationSchema("T", ("A", "B", "C"))
        rel = Relation(schema, [(1, 2, 3), (4, 2, 3)])
        inst = PositionedInstance.from_relation(rel, [FD("B", "C")])
        p = inst.position("T", 0, "C")
        revealed = frozenset(q for q in inst.positions if q != p)
        world = World(inst, p, revealed)
        assert max_fresh(world, FRESH) is None

    def test_max_fresh_agrees_with_full_counts(self):
        world = world_for([(1, 2), (3, 4)], [FD("A", "B")], (1, "B"), [(0, "A")])
        for candidate in world.candidate_classes():
            counts = pattern_counts(world, candidate)
            stat = max_fresh(world, candidate)
            if counts:
                assert stat == (max(counts), counts[max(counts)])
            else:
                assert stat is None


ABC = RelationSchema("R", ("A", "B", "C"))

DEPS = [
    (ABC, FD("A", "B")),
    (ABC, MVD("A", "B")),
    (ABC, MVD("", "B")),
    (ABC, JD("AB", "BC")),
    (ABC, JD("AB", "BC", "CA")),
]


@st.composite
def worlds(draw):
    """A small instance satisfying one dependency, and one of its worlds."""
    schema, dep = draw(st.sampled_from(DEPS))
    rows = draw(
        st.sets(
            st.tuples(st.integers(1, 2), st.integers(1, 2), st.integers(1, 2)),
            min_size=1,
            max_size=3,
        )
    )
    relation = Relation(schema, rows)
    assume(dep.is_satisfied_by(relation))
    inst = PositionedInstance.from_relation(relation, [dep])
    p = draw(st.sampled_from(inst.positions))
    others = [q for q in inst.positions if q != p]
    revealed = draw(st.sets(st.sampled_from(others)))
    assume(len(others) - len(revealed) <= 6)
    return World(inst, p, frozenset(revealed))


def counting(world):
    """Wrap *world*'s oracle; returns the call counter."""
    calls = [0]
    oracle = world.satisfies

    def satisfies(*args):
        calls[0] += 1
        return oracle(*args)

    world.satisfies = satisfies
    return calls


class TestPruningKeepsResults:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(worlds())
    def test_pruned_search_equals_unpruned(self, world):
        calls = counting(world)
        for candidate in world.candidate_classes():
            calls[0] = 0
            pruned = max_fresh(world, candidate, prune=True)
            pruned_calls = calls[0]
            calls[0] = 0
            plain = max_fresh(world, candidate, prune=False)
            assert pruned == plain
            assert pruned_calls <= calls[0]


def test_jd_searches_like_its_mvd(monkeypatch):
    """A two-component JD prunes exactly as its MVD does."""
    rows = [(1, 1, 1), (2, 1, 1), (3, 2, 5)]
    calls = []
    oracle = World.satisfies

    def satisfies(self, *args):
        calls[-1] += 1
        return oracle(self, *args)

    monkeypatch.setattr(World, "satisfies", satisfies)
    results = []
    for dep in (MVD("B", "A"), JD("AB", "BC")):
        inst = PositionedInstance.from_relation(Relation(ABC, rows), [dep])
        calls.append(0)
        results.append(ric_exact(inst, inst.positions[0]))
    assert results[0] == results[1]
    assert calls[0] == calls[1]
