"""Tests for the compiled dependency checks (hot path of the engines).

The compiled closures must agree with the reference ``is_satisfied_by``
methods on every instance — checked exhaustively on small value grids and
under Hypothesis.  The three-valued full check of
:class:`~repro.core.pruning.PruningState` is tested here on fixed rows.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fastcheck import compile_check
from repro.core.pruning import PruningPlan, PruningState
from repro.core.worlds import FRESH, FreshValue, Unknown
from repro.dependencies.fd import FD
from repro.dependencies.jd import JD
from repro.dependencies.mvd import MVD
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema

SCHEMA = RelationSchema("R", ("A", "B", "C"))

rows3 = st.lists(
    st.tuples(st.integers(1, 2), st.integers(1, 2), st.integers(1, 2)),
    min_size=1,
    max_size=5,
)

DEPS = [
    FD("A", "B"),
    FD("AB", "C"),
    MVD("A", "B"),
    MVD("B", "AC"),
    JD("AB", "AC"),
    JD("AB", "BC", "CA"),
]

#: JDs whose join has a component sharing no attribute with the ones
#: before it, or adding none.
JOINS = [JD("A", "BC"), JD("AB", "B", "BC"), JD("BC", "AB", "CA")]

#: Cell values a world's oracle sees: revealed values, fresh blocks, the
#: fresh candidate; and an unknown cell.
VALUES = st.sampled_from([1, 2, FreshValue(0), FreshValue(1), FRESH, Unknown(0)])


class TestCompiledAgreesWithReference:
    @settings(max_examples=40, deadline=None)
    @given(rows3, st.sampled_from(DEPS))
    def test_agreement(self, rows, dep):
        relation = Relation(SCHEMA, rows)
        mutable = [list(r) for r in relation.sorted_rows()]
        check = compile_check(dep, SCHEMA)
        assert check(mutable) == dep.is_satisfied_by(relation)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(VALUES, VALUES, VALUES), min_size=1, max_size=5),
           st.data(), st.sampled_from(DEPS + JOINS))
    def test_agreement_on_duplicate_rows_and_sentinels(self, rows, data, dep):
        # A world's row array may repeat a row, and holds fresh sentinels.
        repeats = data.draw(st.lists(st.sampled_from(rows), max_size=3))
        mutable = [list(r) for r in rows + repeats]
        check = compile_check(dep, SCHEMA)
        assert check(mutable) == dep.is_satisfied_by(Relation(SCHEMA, rows))

    def test_check_sees_mutations(self):
        mutable = [[1, 2, 3], [1, 9, 3]]
        check = compile_check(FD("A", "B"), SCHEMA)
        assert not check(mutable)
        mutable[1][1] = 2
        assert check(mutable)

    def test_unsupported_dependency_rejected(self):
        with pytest.raises(TypeError):
            compile_check(object(), SCHEMA)


def certain(dep, rows, schema=SCHEMA):
    """The full check of a pruning state whose variable cells are the
    :class:`Unknown` cells of *rows*."""
    var_cells = [
        ((0, i, c),)
        for i, row in enumerate(rows)
        for c, v in enumerate(row)
        if isinstance(v, Unknown)
    ]
    plan = PruningPlan([schema], [rows], {schema.name: [dep]})
    state = PruningState(plan, var_cells)
    return state.violated()


class TestCertainViolation:
    def test_fd_concrete_violation_is_certain(self):
        rows = [[1, 2, 3], [1, 9, 3]]
        assert certain(FD("A", "B"), rows)

    def test_fd_unknown_masks_violation(self):
        rows = [[1, Unknown(0), 3], [1, 9, 3]]
        assert not certain(FD("A", "B"), rows)

    def test_fd_unknown_in_lhs_masks(self):
        rows = [[Unknown(0), 2, 3], [1, 9, 3]]
        assert not certain(FD("A", "B"), rows)

    def test_fd_third_row_violation_found(self):
        # Row 0's rhs is unknown but rows 1 and 2 certainly clash.
        rows = [[1, Unknown(0), 0], [1, 5, 0], [1, 6, 0]]
        assert certain(FD("A", "B"), rows)

    def test_mvd_missing_pinned_witness_is_certain(self):
        # Rows agree on A; the required witness (1, 2, 6) cannot be any
        # row: all cells concrete and no row compatible.
        rows = [[1, 2, 3], [1, 5, 6], [1, 9, 9], [1, 8, 8]]
        assert certain(MVD("A", "B"), rows)

    def test_mvd_unknown_witness_cell_not_certain(self):
        # The (t1=row0, t2=row1) witness (1,2,?) is not pinned, and the
        # (t1=row1, t2=row0) witness (1,5,3) is matched by row1 itself
        # via its unknown C — no certain violation either way.
        rows = [[1, 2, 3], [1, 5, Unknown(0)]]
        assert not certain(MVD("A", "B"), rows)

    def test_mvd_compatible_row_with_unknowns_not_certain(self):
        rows = [[1, 2, 3], [1, 5, 6], [1, Unknown(0), Unknown(1)], [1, 8, 8]]
        assert not certain(MVD("A", "B"), rows)

    def test_two_component_jd_prunes_like_its_mvd(self):
        # JD(AB, AC) is MVD A ->> B: the witness (1, 2, 6) is missing.
        rows = [[1, 2, 3], [1, 5, 6], [1, 9, 9], [1, 8, 8]]
        assert certain(JD("AB", "AC"), rows)
        rows = [[1, 2, 3], [1, 5, 6], [1, Unknown(0), Unknown(1)], [1, 8, 8]]
        assert not certain(JD("AB", "AC"), rows)

    def test_cyclic_jd_prunes_through_each_implied_mvd(self):
        # JD(AB, BC, CD, DA) implies AC ->> B and BD ->> A.
        schema = RelationSchema("R", ("A", "B", "C", "D"))
        jd = JD("AB", "BC", "CD", "DA")
        assert certain(jd, [[1, 1, 1, 1], [1, 2, 1, 2]], schema)  # AC ->> B
        assert certain(jd, [[1, 1, 1, 1], [2, 1, 2, 1]], schema)  # BD ->> A
        assert not certain(jd, [[1, 1, 1, 1], [2, 2, 2, 2]], schema)

    def test_jd_over_part_of_the_schema_never_prunes(self):
        # On ABC alone this would be a missing B ->> A witness (1, 2, 6).
        schema = RelationSchema("R", ("A", "B", "C", "D"))
        rows = [[1, 2, 3, 0], [5, 2, 6, 0]]
        assert not certain(JD("AB", "BC"), rows, schema)

    @settings(max_examples=40, deadline=None)
    @given(rows3, st.sampled_from(DEPS))
    def test_soundness_on_concrete_rows(self, rows, dep):
        """With no unknowns, 'certainly violated' must equal 'violated'
        for FDs, MVDs and two-component JDs, and imply it for any JD."""
        relation = Relation(SCHEMA, rows)
        mutable = [list(r) for r in relation.sorted_rows()]
        found = certain(dep, mutable)
        actual = not dep.is_satisfied_by(relation)
        if isinstance(dep, JD) and len(dep.components) > 2:
            assert actual or not found
        else:
            assert found == actual
