"""Hypothesis property tests on the measure itself.

Invariants of RIC that hold by definition or by the paper's theorems:
bounds, symmetry under value renaming, full information without
constraints, the BCNF direction on random instances, an MVD measuring
like the two-component JD equivalent to it, equivalent FD sets
measuring alike, and an independent extra relation changing nothing.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.measure import ric
from repro.core.positions import PositionedInstance
from repro.core.symbolic import ric_exact
from repro.dependencies.closure import attribute_closure, fds_equivalent
from repro.dependencies.fd import FD
from repro.dependencies.jd import JD
from repro.dependencies.minimal_cover import minimal_cover
from repro.dependencies.mvd import MVD
from repro.relational.relation import DatabaseInstance, Relation
from repro.relational.schema import RelationSchema
from tests.core.test_patterns import SMALL_INSTANCES

AB = RelationSchema("R", ("A", "B"))

small_ab_rows = st.sets(
    st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3
)


def satisfying(rows, fds):
    rel = Relation(AB, rows)
    return all(fd.is_satisfied_by(rel) for fd in fds)


class TestBounds:
    @settings(max_examples=12, deadline=None)
    @given(small_ab_rows)
    def test_ric_within_unit_interval(self, rows):
        fds = [FD("A", "B")]
        if not satisfying(rows, fds):
            return
        inst = PositionedInstance.from_relation(Relation(AB, rows), fds)
        for p in inst.positions[:2]:
            value = ric(inst, p)
            assert Fraction(0) <= value <= Fraction(1)

    @settings(max_examples=12, deadline=None)
    @given(small_ab_rows)
    def test_no_constraints_full_information(self, rows):
        inst = PositionedInstance.from_relation(Relation(AB, rows), [])
        for p in inst.positions[:2]:
            assert ric(inst, p) == 1


class TestGenericity:
    @settings(max_examples=10, deadline=None)
    @given(small_ab_rows, st.permutations([1, 2, 3]))
    def test_invariant_under_value_renaming(self, rows, perm):
        """RIC is generic: renaming domain values cannot change it."""
        fds = [FD("A", "B")]
        if not satisfying(rows, fds):
            return
        mapping = {i + 1: perm[i] for i in range(3)}
        renamed_rows = {(mapping[a], mapping[b]) for a, b in rows}

        inst = PositionedInstance.from_relation(Relation(AB, rows), fds)
        renamed = PositionedInstance.from_relation(
            Relation(AB, renamed_rows), fds
        )
        # Renaming permutes the canonical row order; compare the measured
        # multiset of position values instead of position-by-position.
        original = sorted(ric(inst, p) for p in inst.positions)
        after = sorted(ric(renamed, p) for p in renamed.positions)
        assert original == after


class TestBCNFDirectionRandomized:
    @settings(max_examples=8, deadline=None)
    @given(small_ab_rows)
    def test_key_fd_instances_fully_informative(self, rows):
        """A → B is BCNF over AB: every satisfying instance measures 1."""
        fds = [FD("A", "B")]
        if not satisfying(rows, fds):
            return
        inst = PositionedInstance.from_relation(Relation(AB, rows), fds)
        for p in inst.positions:
            assert ric(inst, p) == 1


class TestDuplicationMonotonicity:
    def test_more_copies_less_information(self):
        """Each extra tuple copying the (B, C) pair lowers the redundant
        position's RIC (the E6 family, in miniature)."""
        schema = RelationSchema("T", ("A", "B", "C"))
        values = []
        for n in (2, 3):
            rows = [(i, 7, 8) for i in range(n)]
            inst = PositionedInstance.from_relation(
                Relation(schema, rows), [FD("B", "C")]
            )
            values.append(ric(inst, inst.position("T", 0, "C")))
        assert values[0] > values[1]


ABC = RelationSchema("R", ("A", "B", "C"))


def mvd_and_its_jd(lhs, rhs):
    """``lhs ↠ rhs`` over ``ABC`` and the JD ``(lhs ∪ rhs, lhs ∪ rest)``."""
    rest = "".join(a for a in "ABC" if a not in lhs + rhs)
    return MVD(lhs, rhs), JD(lhs + rhs, lhs + rest)


@st.composite
def mvd_instances(draw):
    """A 2- or 3-row relation over ``ABC`` satisfying a drawn MVD with
    nonempty ``Y`` and ``Z``, and one of its positions."""
    lhs = draw(st.sampled_from(["", "A", "B", "C"]))
    rhs = draw(st.sampled_from([a for a in "ABC" if a not in lhs]))
    mvd, jd = mvd_and_its_jd(lhs, rhs)
    rows = draw(
        st.sets(
            st.tuples(st.integers(1, 2), st.integers(1, 3), st.integers(1, 2)),
            min_size=2,
            max_size=3,
        )
    )
    relation = Relation(ABC, rows)
    assume(mvd.is_satisfied_by(relation))
    index = draw(st.integers(0, 3 * len(relation) - 1))
    return relation, mvd, jd, index


class TestMvdMeasuresLikeItsJd:
    """``X ↠ Y`` and ``JD(XY, XZ)`` are equivalent, so every position has
    the same ``RIC`` under either."""

    def test_w2(self):
        rows = [(1, 1, 1), (2, 1, 2), (1, 1, 2), (2, 1, 1)]
        values = []
        for dep in mvd_and_its_jd("B", "A"):
            inst = PositionedInstance.from_relation(Relation(ABC, rows), [dep])
            values.append(ric_exact(inst, inst.positions[0]))
        assert values == [Fraction(10049, 12288)] * 2

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(mvd_instances())
    def test_random_corpus(self, case):
        relation, mvd, jd, index = case
        values = []
        for dep in (mvd, jd):
            inst = PositionedInstance.from_relation(relation, [dep])
            values.append(ric_exact(inst, inst.positions[index]))
        assert values[0] == values[1]


@st.composite
def fd_instances(draw):
    """A relation over ``ABC`` with up to three rows satisfying one to
    three drawn FDs (multi-attribute and empty left-hand sides among
    them)."""
    lhs = st.sampled_from(["", "A", "B", "C", "AB", "BC", "AC"])
    fds = draw(
        st.lists(st.builds(FD, lhs, st.sampled_from(["A", "B", "C", "BC"])),
                 min_size=1, max_size=3)
    )
    values = st.integers(1, 2)
    # Rows that flip one or two of the first row's values (1 <-> 2) share
    # the rest, so the FDs bind; a row breaking an FD is left out.
    rows = [draw(st.tuples(values, values, values))]
    flips = st.frozensets(st.integers(0, 2), min_size=1, max_size=2)
    for flipped in draw(st.lists(flips, min_size=2, max_size=2, unique=True)):
        row = tuple(3 - v if c in flipped else v for c, v in enumerate(rows[0]))
        if all(fd.is_satisfied_by(Relation(ABC, rows + [row])) for fd in fds):
            rows.append(row)
    return Relation(ABC, rows), fds


class TestEquivalentFdSetsMeasureAlike:
    """``RIC`` depends on ``Σ`` only through the instances satisfying it,
    so ``Σ``, its minimal cover and ``{X → X⁺ : X → Y ∈ Σ}`` (each FD's
    right-hand side widened to the closure of its left) give every
    position the same exact value."""

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(fd_instances())
    def test_random_corpus(self, case):
        relation, fds = case
        widened = [FD(fd.lhs, attribute_closure(fd.lhs, fds)) for fd in fds]
        profiles = []
        for sigma in (fds, minimal_cover(fds), widened):
            assert fds_equivalent(sigma, fds)
            inst = PositionedInstance.from_relation(relation, sigma)
            profiles.append([ric_exact(inst, p) for p in inst.positions])
        assert profiles[0] == profiles[1] == profiles[2]


class TestIndependentRelation:
    """A relation that no dependency mentions is independent of the
    others: adding one leaves every original position's ``RIC`` as it
    was.  Its row reuses the values 1 and 2 of the original relation."""

    @pytest.mark.parametrize(
        "name", ["fd", "fd-mvd", "mvd", "mvd-empty-lhs", "jd2", "jd3"]
    )
    def test_extra_relation_changes_no_value(self, name):
        inst = SMALL_INSTANCES[name]()
        (schema,) = inst.schemas
        relation = Relation(schema, inst.rows_of(schema.name))
        extra = Relation(RelationSchema("S", ("D", "E")), [(1, 2)])
        both = PositionedInstance.from_instance(
            DatabaseInstance([relation, extra]),
            {schema.name: inst.constraints_for(schema.name)},
        )
        assert len(both.positions) == len(inst.positions) + 2 <= 11
        assert [ric_exact(both, p) for p in inst.positions] == [
            ric_exact(inst, p) for p in inst.positions
        ]
