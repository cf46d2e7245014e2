"""Property tests for the incremental pruning state.

The pattern search cuts a prefix when :class:`PruningState` reports a
certain violation, or a deficit bound above the search's budget.  The
delta check after one assignment must equal the from-scratch full check
whenever the rows before it were not certainly violated, the full check
must be sound, and the bound must never exceed the least deficit of a
satisfying completion.  That pruning never changes what the search
returns is tested in ``test_patterns.py``.
"""

import os
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pruning import PruningPlan, PruningState
from repro.dependencies.fd import FD
from repro.dependencies.jd import JD
from repro.dependencies.mvd import MVD
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema

ABC = RelationSchema("R", ("A", "B", "C"))
ABCD = RelationSchema("R", ("A", "B", "C", "D"))

CASES = [
    (ABC, FD("A", "B")),
    (ABCD, FD("AB", "CD")),
    (ABC, MVD("A", "B")),
    (ABC, MVD("", "B")),
    (ABCD, MVD("AB", "C")),
    (ABC, JD("AB", "BC")),
    (ABC, JD("AB", "BC", "CA")),
    (ABCD, JD("AB", "BC", "CD", "DA")),
]


def state_for(schema, dep, rows, var_cells):
    """A pruning state whose variables are the one-cell *var_cells*."""
    plan = PruningPlan([schema], [rows], {"R": [dep]})
    return PruningState(plan, [(cell,) for cell in var_cells])


@st.composite
def runs(draw):
    """A dependency, rows over a small domain, variable cells in random
    order, and a walk of assignments: each step goes *back* cells up from
    the deepest assigned one (0 extends the prefix) and assigns *value*."""
    schema, dep = draw(st.sampled_from(CASES))
    width = schema.arity
    n_rows = draw(st.integers(1, 5))
    rows = draw(
        st.lists(
            st.lists(st.integers(1, 2), min_size=width, max_size=width),
            min_size=n_rows,
            max_size=n_rows,
        )
    )
    cells = draw(
        st.permutations([(0, i, c) for i in range(n_rows) for c in range(width)])
    )
    var_cells = cells[: draw(st.integers(1, len(cells)))]
    steps = draw(
        st.lists(
            st.tuples(st.sampled_from([0, 0, 0, 1, 2]), st.integers(1, 4)),
            min_size=1,
            max_size=40,
        )
    )
    return schema, dep, rows, var_cells, steps


def step(state, values, cell, value):
    """Assign *value* at *cell* after *values* at the cells before it, and
    compare the delta verdict with the full check."""
    if cell:
        # Reassigning the previous cell returns every later one to
        # unknown: the rows as they were before this step.
        state.extend(cell - 1, values[cell - 1])
    before = state.violated()
    verdict = state.extend(cell, value)
    after = state.violated()
    assert after or not verdict  # sound in any case
    if cell == 0 or not before:
        assert verdict == after


class TestDeltaEqualsFull:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(runs())
    def test_delta_verdict_equals_full_verdict(self, run):
        schema, dep, rows, var_cells, steps = run
        state = state_for(schema, dep, rows, var_cells)
        values = []
        for back, value in steps:
            cell = max(0, min(len(values), len(var_cells) - 1) - back)
            del values[cell:]
            # Every value the cell can take (3 and 4 are new to the
            # rows), then the drawn one, which stays assigned.
            for candidate in (1, 2, 3, 4, value):
                step(state, values, cell, candidate)
            values.append(value)


    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(runs())
    def test_every_extension_of_a_search(self, run):
        """The walk of the pattern search over up to four variable cells:
        every value at every cell below a prefix that is not violated."""
        schema, dep, rows, var_cells, _steps = run
        state = state_for(schema, dep, rows, var_cells[:4])
        values = []

        def walk(cell):
            for value in (1, 2, 3, 4):
                step(state, values, cell, value)
                if cell + 1 < len(var_cells[:4]) and not state.violated():
                    values.append(value)
                    walk(cell + 1)
                    values.pop()

        walk(0)


def completions(rows, unknown_cells, domain):
    """Every way of filling *unknown_cells* from *domain*."""
    for fill in product(domain, repeat=len(unknown_cells)):
        filled = [list(row) for row in rows]
        for (i, c), v in zip(unknown_cells, fill):
            filled[i][c] = v
        yield filled


class TestFullCheckIsSound:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_certain_violation_holds_in_every_completion(self, data):
        schema, dep = data.draw(st.sampled_from(CASES))
        width = schema.arity
        rows = data.draw(
            st.lists(
                st.lists(st.integers(1, 2), min_size=width, max_size=width),
                min_size=1,
                max_size=4,
            )
        )
        cells = [(i, c) for i in range(len(rows)) for c in range(width)]
        unknown = data.draw(
            st.lists(st.sampled_from(cells), unique=True, max_size=3)
        )
        state = state_for(schema, dep, rows, [(0, i, c) for i, c in unknown])
        if not state.violated():
            return
        # 1, 2 and one fresh value per unknown cell cover every pattern.
        domain = [1, 2] + [10 + k for k in range(len(unknown))]
        for filled in completions(rows, unknown, domain):
            assert not dep.is_satisfied_by(Relation(schema, filled))


def test_empty_relation_is_never_violated():
    for schema, dep in CASES:
        assert not state_for(schema, dep, [], []).violated()


def test_a_variable_assigns_every_cell_it_owns():
    # A -> B: the variable's first cell (row 2) is alone in its A group;
    # only its second (row 1) meets row 0's known B = 5.
    rows = [[1, 5, 7], [1, 0, 0], [2, 0, 0]]
    variables = [((0, 0, 2),), ((0, 2, 1), (0, 1, 1))]
    plan = PruningPlan([ABC], [rows], {"R": [FD("A", "B")]}, variables=variables)
    state = PruningState(plan, variables)
    assert not state.extend(0, 7)
    assert state.extend(1, 6)
    assert not state.extend(1, 5)


def least_deficit(schema, dep, rows, unknown_cells):
    """The least deficit over the satisfying completions of
    *unknown_cells* (in assignment order), by brute force over their label
    patterns, or ``None`` when no completion satisfies.  A cell spends
    nothing only when it opens a new block, a value distinct from every
    known value and every earlier block; a known value or an earlier
    block spends one."""
    hidden = set(unknown_cells)
    known = sorted(
        {v for i, row in enumerate(rows) for c, v in enumerate(row) if (i, c) not in hidden}
    )
    filled = [list(row) for row in rows]
    best = [None]

    def recurse(k, blocks, spent):
        if best[0] is not None and spent >= best[0]:
            return
        if k == len(unknown_cells):
            if dep.is_satisfied_by(Relation(schema, filled)):
                best[0] = spent
            return
        i, c = unknown_cells[k]
        filled[i][c] = 100 + blocks  # a new block: free
        recurse(k + 1, blocks + 1, spent)
        for label in known + [100 + b for b in range(blocks)]:
            filled[i][c] = label
            recurse(k + 1, blocks, spent + 1)

    recurse(0, 0, 0)
    return best[0]


@st.composite
def prefixes(draw):
    """A dependency, rows over a small domain, variable cells in random
    order, and values for a prefix of them (3 and 4 are new to the rows);
    at most four cells stay unknown."""
    schema, dep = draw(st.sampled_from(CASES))
    width = schema.arity
    n_rows = draw(st.integers(1, 4))
    rows = draw(
        st.lists(
            st.lists(st.integers(1, 2), min_size=width, max_size=width),
            min_size=n_rows,
            max_size=n_rows,
        )
    )
    cells = draw(
        st.permutations([(0, i, c) for i in range(n_rows) for c in range(width)])
    )
    var_cells = cells[: draw(st.integers(1, len(cells)))]
    assigned = draw(st.integers(max(1, len(var_cells) - 4), len(var_cells)))
    values = draw(
        st.lists(st.integers(1, 4), min_size=assigned, max_size=assigned)
    )
    return schema, dep, rows, var_cells, values


#: Tier-1 checks a fixed derandomized corpus; ``HYPOTHESIS_PROFILE=ci``
#: (see ``tests/conftest.py``) checks that profile's larger random one.
if os.environ.get("HYPOTHESIS_PROFILE", "default") == "default":
    BOUND_CORPUS = settings(max_examples=300, deadline=None, derandomize=True)
else:
    BOUND_CORPUS = settings(deadline=None)


class TestDeficitBound:
    """The bound never exceeds the least deficit the unknown cells spend in
    a satisfying completion: a state passes with that budget."""

    @BOUND_CORPUS
    @given(prefixes())
    def test_bound_at_most_the_least_deficit(self, case):
        schema, dep, rows, var_cells, values = case
        state = state_for(schema, dep, rows, var_cells)
        for cell, value in enumerate(values[:-1]):
            state.extend(cell, value)
        filled = [list(row) for row in rows]
        for (_r, i, c), value in zip(var_cells, values):
            filled[i][c] = value
        unknown = [(i, c) for _r, i, c in var_cells[len(values):]]
        least = least_deficit(schema, dep, filled, unknown)
        if least is not None:
            assert not state.extend(len(values) - 1, values[-1], least)

    def test_fd_counts_the_forced_cells(self):
        # A -> B: rows 1 and 2 join row 0's A group, whose B is known.
        rows = [[1, 5, 7], [1, 0, 0], [1, 0, 0]]
        state = state_for(ABC, FD("A", "B"), rows, [(0, 0, 2), (0, 1, 1), (0, 2, 1)])
        assert state.extend(0, 7, 1)
        assert not state.extend(0, 7, 2)
        assert least_deficit(ABC, FD("A", "B"), rows, [(1, 1), (2, 1)]) == 2

    def test_fd_counts_a_shared_variable_once(self):
        # A -> B: one variable owns both unknown B cells of row 0's A
        # group, as an XML slot owns a cell per row; it spends one
        # deficit.  A second unknown variable keeps the bound running.
        rows = [[1, 5, 7], [1, 0, 0], [1, 0, 0]]
        variables = [((0, 0, 2),), ((0, 1, 1), (0, 2, 1)), ((0, 1, 2),)]
        plan = PruningPlan([ABC], [rows], {"R": [FD("A", "B")]}, variables=variables)
        state = PruningState(plan, variables)
        assert state.extend(0, 7, 0)
        assert not state.extend(0, 7, 1)

    def test_witnesses_outnumbering_the_unknown_cells(self):
        # B ->> A: the group B = 0 requires (8,0,3) and (8,0,4), and only
        # the row (8,0,?) can become either.  Each witness fits it, so no
        # witness is certainly missing, but two witnesses need two rows:
        # a violation that one unknown cell cannot repair.
        rows = [[2, 0, 3], [2, 0, 4], [5, 6, 7], [0, 0, 0]]
        dep = MVD("B", "A")
        state = state_for(ABC, dep, rows, [(0, 3, 0), (0, 3, 2)])
        assert not state.extend(0, 8)
        assert state.extend(0, 8, 1)  # a budget covering every unknown cell
        assert not state.extend(0, 8, 2)
        rows[3][0] = 8
        assert least_deficit(ABC, dep, rows, [(3, 2)]) is None


@st.composite
def variable_runs(draw):
    """A walk of :func:`runs` whose cells are grouped into variables of
    one to three cells, with a flag per step: is a bound asked for?"""
    schema, dep, rows, var_cells, steps = draw(runs())
    variables = []
    for cell in var_cells:
        if variables and len(variables[-1]) < 3 and draw(st.booleans()):
            variables[-1].append(cell)
        else:
            variables.append([cell])
    bounded = draw(st.lists(st.booleans(), min_size=len(steps), max_size=len(steps)))
    return schema, dep, rows, [tuple(v) for v in variables], steps, bounded


class TestKeptMvdCount:
    """After every ``extend`` that asks for a bound, each MVD check's kept
    count equals the count made from scratch on the same rows."""

    @BOUND_CORPUS
    @given(variable_runs())
    def test_kept_count_equals_the_count_from_scratch(self, run):
        schema, dep, rows, variables, steps, bounded = run
        plan = PruningPlan([schema], [rows], {"R": [dep]}, variables=variables)
        state = PruningState(plan, variables)
        assigned = 0
        for (back, value), bound in zip(steps, bounded):
            cell = max(0, min(assigned, len(variables) - 1) - back)
            assigned = cell + 1
            state.extend(cell, value, len(rows) * schema.arity if bound else None)
            if bound:
                for table, counts in state._counts:
                    for count in counts:
                        assert count.total == count.check.bound(table, float("inf"))
