"""Tests for Armstrong relations."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dependencies.armstrong import (
    armstrong_relation,
    closed_sets,
    satisfied_fds_exactly_implied,
)
from repro.dependencies.fd import FD
from repro.workloads.relational_gen import random_fds


class TestClosedSets:
    def test_universe_always_closed(self):
        assert frozenset("ABC") in closed_sets("ABC", [FD("A", "B")])

    def test_no_fds_everything_closed(self):
        sets = closed_sets("AB", [])
        assert sets == {
            frozenset(),
            frozenset("A"),
            frozenset("B"),
            frozenset("AB"),
        }

    def test_fd_collapses_sets(self):
        sets = closed_sets("AB", [FD("A", "B")])
        assert frozenset("A") not in sets  # A's closure is AB


class TestArmstrongRelation:
    def test_textbook_example(self):
        fds = [FD("A", "B")]
        relation = armstrong_relation("ABC", fds)
        assert FD("A", "B").is_satisfied_by(relation)
        assert not FD("B", "A").is_satisfied_by(relation)
        assert not FD("A", "C").is_satisfied_by(relation)
        assert not FD("B", "C").is_satisfied_by(relation)

    def test_exactness_on_chain(self):
        fds = [FD("A", "B"), FD("B", "C")]
        relation = armstrong_relation("ABC", fds)
        assert satisfied_fds_exactly_implied("ABC", fds, relation)

    def test_no_fds(self):
        relation = armstrong_relation("AB", [])
        assert satisfied_fds_exactly_implied("AB", [], relation)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 4))
    def test_armstrong_property_random(self, seed, n_fds):
        """The defining property, under Hypothesis: the construction
        satisfies exactly the implied FDs."""
        fds = random_fds("ABCD", n_fds, seed=seed) if n_fds else []
        relation = armstrong_relation("ABCD", fds)
        assert satisfied_fds_exactly_implied("ABCD", fds, relation)

    def test_size_bounded_by_closed_sets(self):
        fds = [FD("A", "BCD")]
        relation = armstrong_relation("ABCD", fds)
        assert len(relation) <= len(closed_sets("ABCD", fds))

    def test_armstrong_relation_witnesses_redundancy(self):
        """An Armstrong relation realizes every redundancy its FD set
        permits: for a non-BCNF set it must contain positions with
        measurably reduced information content."""
        from repro.core.montecarlo import ric_montecarlo
        from repro.core.positions import PositionedInstance

        fds = [FD("B", "C")]
        relation = armstrong_relation("ABC", fds)
        inst = PositionedInstance.from_relation(relation, fds)
        # The closed set {B, C} contributes a pair of rows agreeing on
        # (B, C): their C slots are redundant.
        rows = list(relation.sorted_rows())
        c_col = relation.schema.index("C")
        b_col = relation.schema.index("B")
        pairs = [
            (i, j)
            for i in range(len(rows))
            for j in range(i + 1, len(rows))
            if rows[i][b_col] == rows[j][b_col]
            and rows[i][c_col] == rows[j][c_col]
        ]
        assert pairs, "Armstrong construction must realize the FD's group"
        i, _j = pairs[0]
        pos = inst.position(relation.schema.name, i, "C")
        estimate = ric_montecarlo(inst, pos, samples=150, seed=0)
        assert estimate.mean < 1 - 2 * max(estimate.stderr, 1e-9)
