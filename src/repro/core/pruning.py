"""Incremental certain-violation state: the pattern search's pruning test.

The pattern search (:func:`repro.core.patterns.deficit_walker`) assigns
a world's variables one at a time and cuts a prefix in two cases.  A
relational variable is one cell; an XML slot is one cell per row of each
lowered XFD table it appears in (:mod:`repro.xml.measure`), all assigned
together.

*Certain violation*: some dependency is violated however the unassigned
cells are filled in.  The search extends only prefixes that are not, so
a new violation must involve a cell just assigned.  The root of a
search (variable 0) runs the full check; every later variable, once all
its cells are assigned, runs a delta check of what each of them can
break.

- FD ``X → Y``: rows with known, equal ``X`` and a ``Y`` cell known on both
  and different.
- MVD ``X ↠ Y`` (``Z`` the rest): rows ``t1, t2`` with known, equal ``X``
  require the witness ``t1[XY] + t2[Z]``, certainly missing when its cells
  are known and no row fits it (each cell unknown or equal).
- JD over the whole schema: each split of its components into ``G1 | G2``
  implies the MVD ``(∪G1 ∩ ∪G2) ↠ ∪G1``; pruning through those is sound for
  every JD and complete for two components.

*Deficit over budget*: an unassigned cell spends no deficit only when it
opens a new fresh block, distinct from every value known so far, so each
cell that must take a known value spends one.  Each check counts such
cells from its rows alone, a lower bound of the deficit still to spend
(DESIGN §2.1), and the prefix is cut when the bound exceeds the budget
the search has left.

- FD ``X → Y``: the unknown ``Y`` cells of an ``X`` group (rows with known,
  equal ``X``) in which another row knows that ``Y`` cell, a variable with
  several cells in the column counted at its first only.
- MVD (and JD, through its MVDs): the distinct required witnesses that no
  fully known row equals.  Each needs a row of its own, and that row has
  an unknown cell that must take a known value.  This count can exceed
  the unknown cells (a violation the per-witness check misses), so unlike
  the FD count it is never skipped for a budget that covers them all.

The MVD count is kept as rows change (:class:`_MvdCount`), so a bound
costs the rows changed, not the table.  Each assignment and backtrack
unassignment marks its row in the table's ``dirty`` mask; when a bound
is asked for, each count drops the stored parts of every dirty row, adds
its current ones and the mask is cleared.  Invariant: after any
:meth:`PruningState.extend` that computes a bound, each count's total
equals :meth:`_MVD.bound` counted from scratch.  An ``extend`` assigns
every cell of its variable, then tests the MVD counts, then the delta
(or full) checks, then the FD bounds: the verdict is their OR, whatever
the order, and the cheapest test decides first.

Cells hold values encoded as small ints (``None`` when unassigned) and each
column a bitmask of rows per value, so the checks are mask operations.  A
:class:`PruningPlan`, built once per instance, holds what no world
changes: the codes, the coded rows with their masks and the compiled
checks.  Each :class:`PruningState` copies only the rows and masks, and
owns its MVD counts.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from operator import itemgetter
from typing import Any, Dict, Iterable, List, Optional

from repro.dependencies.fd import FD
from repro.dependencies.jd import JD
from repro.dependencies.mvd import MVD


class PruningPlan:
    """The immutable part of the certain-violation test of one instance.

    *schemas*, *rows* and *constraints* (table name -> dependencies)
    describe the tables.  *values* get codes before the rows' own, so a
    search assigning them (the fresh sentinels) finds them coded.
    *variables* lists the ``(table, row, column)`` cells of each variable
    (a relational variable has one).  Every
    :class:`PruningState` of the instance shares the plan, on any thread.

    ``decides_leaves`` holds when every dependency is an FD, an MVD, or a
    JD over its whole table with at most two components: their checks
    are exact once no cell is unknown, so a complete assignment that
    :meth:`PruningState.extend` passes satisfies every dependency
    (DESIGN §2.1, the leaf lemma).
    """

    def __init__(self, schemas, rows, constraints, values: Iterable[Any] = (), variables=()):
        codes: Dict[Any, int] = {}
        for v in values:
            codes.setdefault(v, len(codes))
        self.tables = [
            _Table.of([[codes.setdefault(v, len(codes)) for v in row] for row in rel], s)
            for rel, s in zip(rows, schemas)
        ]
        # A variable spends deficit once: the FD bound counts only the
        # first of its cells in a column.
        for cells in variables:
            seen = set()
            for r, i, c in sorted(cells, key=itemgetter(1)):
                if (r, c) in seen:
                    self.tables[r].first[c] &= ~(1 << i)
                seen.add((r, c))
        self.codes = codes
        self.decides_leaves = all(
            _exact_when_known(dep, s) for s in schemas for dep in constraints.get(s.name, ())
        )
        self.checks = [
            tuple(ch for dep in constraints.get(s.name, ()) for ch in _compile(dep, s))
            for s in schemas
        ]
        #: The delta checks of each (relation, column).
        self.deltas = [
            [tuple(ch.delta for ch in checks if c in ch.columns) for c in range(s.arity)]
            for checks, s in zip(self.checks, schemas)
        ]


class PruningState:
    """The live rows of one world and the pruning test on them.

    *var_cells* holds, for each variable of the *plan*'s instance in
    assignment order, its ``(table, row, column)`` cells, all unassigned.
    """

    def __init__(self, plan: PruningPlan, var_cells):
        self._codes = plan.codes
        self._extra: Dict[Any, int] = {}  # values the plan has no code for
        tables = [table.copy() for table in plan.tables]
        self.checks = [
            (ch, t) for chs, t in zip(plan.checks, tables) for ch in chs
        ]
        self._fds = [(ch, t) for ch, t in self.checks if isinstance(ch, _FD)]
        #: The kept MVD counts of each table that has some, every row of
        #: it dirty: the first bound counts them all.
        self._counts = []
        for chs, table in zip(plan.checks, tables):
            counts = tuple(
                _MvdCount(ch, len(table.rows)) for ch in chs if isinstance(ch, _MVD)
            )
            if counts:
                table.dirty = table.all
                self._counts.append((table, counts))
        self._cells = []
        for cells in var_cells:
            entry = []
            for r, i, c in cells:
                table = tables[r]
                row, bit, eq = table.rows[i], 1 << i, table.eq[c]
                eq[row[c]] &= ~bit
                table.unknown[c] |= bit
                row[c] = None
                entry.append((row, c, bit, eq, table.unknown, table, i, plan.deltas[r][c]))
            self._cells.append(tuple(entry))
        self._depth = 0

    def violated(self) -> bool:
        """The full check: is some dependency certainly violated?"""
        return any(check.violated(table) for check, table in self.checks)

    def assign(self, cell: int, value: Any) -> tuple:
        """Assign every cell of variable *cell*, every later variable
        unknown, and check nothing; returns the variable's cells."""
        cells = self._cells
        depth = self._depth
        while depth > cell:
            depth -= 1
            for row, c, bit, eq, unknown, table, _i, _deltas in cells[depth]:
                old = row[c]
                if old is not None:
                    row[c] = None
                    eq[old] &= ~bit
                    unknown[c] |= bit
                    table.dirty |= bit
        self._depth = cell + 1
        code = self._codes.get(value)
        if code is None:
            code = self._extra.setdefault(value, len(self._codes) + len(self._extra))
        entry = cells[cell]
        for row, c, bit, eq, unknown, table, _i, _deltas in entry:
            row[c] = code
            eq[code] = eq.get(code, 0) | bit
            unknown[c] &= ~bit
            table.dirty |= bit
        return entry

    def extend(self, cell: int, value: Any, budget: Optional[int] = None) -> bool:
        """Assign variable *cell*, every later variable unknown: is some
        dependency now certainly violated, or, given a *budget*, must the
        unknown cells spend more than *budget* deficit?  Every cell of the
        variable is assigned first (:meth:`assign`).  Then, given a
        budget, the kept MVD counts are tested; then variable 0 runs the
        full violation check, any other the delta check of each of its
        cells: sound, and equal to the full check when the rows were not
        certainly violated before the call; then the FD bounds."""
        entry = self.assign(cell, value)
        # An MVD's count can exceed the unknown cells, so it always runs.
        if budget is not None:
            for table, counts in self._counts:
                dirty = table.dirty
                if dirty:
                    table.dirty = 0
                    for count in counts:
                        count.recount(table, dirty)
                for count in counts:
                    if count.total > budget:
                        return True
        if cell:
            for _row, c, _bit, _eq, _unknown, table, i, deltas in entry:
                for delta in deltas:
                    if delta(table, i, c):
                        return True
        elif self.violated():
            return True
        if budget is None:
            return False
        # An FD's count never exceeds the unknown variables: a budget
        # covering them all skips it.
        if budget < len(self._cells) - cell - 1:
            for check, t in self._fds:
                if check.bound(t, budget + 1) > budget:
                    return True
        return False


def _getter(cols):
    """``row -> key`` of a row's cells in *cols*."""
    return itemgetter(*cols) if cols else lambda row: ()


class _Table:
    """One table's live rows; ``eq[k][v]`` is the bitmask of rows whose
    column ``k`` holds ``v``, ``unknown[k]`` of rows where it is unset, and
    ``first[k]`` of rows whose cell is its variable's first in column
    ``k`` (every row unless a variable has several cells there).
    ``dirty`` is the bitmask of rows assigned or unassigned since the
    kept MVD counts last looked at them."""

    __slots__ = ("rows", "all", "eq", "unknown", "first", "dirty")

    @classmethod
    def of(cls, rows: List[List[Any]], schema: Any) -> "_Table":
        table = cls()
        table.rows = rows
        table.all = (1 << len(rows)) - 1
        table.eq = [{} for _ in range(schema.arity)]
        table.unknown = [0] * schema.arity
        table.first = [table.all] * schema.arity
        table.dirty = 0
        for i, row in enumerate(rows):
            for k, v in enumerate(row):
                table.eq[k][v] = table.eq[k].get(v, 0) | 1 << i
        return table

    def copy(self) -> "_Table":
        table = _Table()
        table.rows = [list(row) for row in self.rows]
        table.all = self.all
        table.eq = [dict(eq) for eq in self.eq]
        table.unknown = list(self.unknown)
        table.first = self.first  # fixed by the plan
        table.dirty = self.dirty
        return table

    def known(self, cols) -> int:
        """Rows with every cell of *cols* assigned."""
        mask = self.all
        for k in cols:
            mask &= ~self.unknown[k]
        return mask

    def agree(self, cols, row) -> int:
        """Rows equal to *row* on its known cells among *cols*."""
        eq = self.eq
        mask = self.all
        for k in cols:
            if row[k] is not None:
                mask &= eq[k][row[k]]
        return mask

    def fit(self, cols, t: int) -> int:
        """Rows compatible with row *t* (known on *cols*) on *cols*: each
        cell unknown or equal."""
        row, eq, unknown = self.rows[t], self.eq, self.unknown
        mask = self.all
        for k in cols:
            mask &= eq[k][row[k]] | unknown[k]
        return mask


def _exact_when_known(dep: Any, schema: Any) -> bool:
    """Do *dep*'s checks decide it when every cell is known?  Those of a
    JD with three or more components, or over part of the schema, only
    prune (through the MVDs it implies)."""
    if isinstance(dep, JD):
        return len(dep.components) <= 2 and dep.attributes == schema.attrset
    return isinstance(dep, (FD, MVD))


@lru_cache(maxsize=256)
def _compile(dep: Any, schema: Any) -> tuple:
    """The checks enforcing *dep* (none when it cannot be pruned)."""
    uni = schema.attrset

    def cols(attrs):
        return tuple(schema.index(a) for a in sorted(attrs))

    if isinstance(dep, FD):
        rhs = cols(dep.rhs - dep.lhs)
        return (_FD(cols(dep.lhs), rhs),) if rhs else ()
    if isinstance(dep, MVD):
        splits = {(dep.lhs & uni, (dep.rhs - dep.lhs) & uni)}
    elif isinstance(dep, JD):
        # Each split G1 | G2 of the components (G1 holding the first); a JD
        # over part of the schema implies no MVD of it and is not pruned.
        first, *rest = dep.components
        splits = set()
        for size in range(len(rest)) if dep.attributes == uni else ():
            for group in combinations(rest, size):
                g1 = first.union(*group)
                x = g1 & frozenset().union(*(c for c in rest if c not in group))
                splits.add((x, g1 - x))
    else:
        raise TypeError(f"unsupported dependency: {dep!r}")
    return tuple(
        _MVD(cols(x), cols(y), cols(uni - x - y))
        for x, y in sorted(splits, key=lambda split: [sorted(s) for s in split])
        if y and uni - x - y
    )


class _FD:
    """Certain violations of ``X → Y``, and the ``Y`` cells it forces."""

    def __init__(self, lhs, rhs):
        self.lhs, self.rhs = lhs, rhs
        self.columns = frozenset(lhs + rhs)

    def violated(self, table: _Table) -> bool:
        return any(self.clash(table, i, self.rhs) for i in range(len(table.rows)))

    def delta(self, table: _Table, i: int, c: int) -> bool:
        return self.clash(table, i, self.rhs if c in self.lhs else (c,))

    def clash(self, table: _Table, i: int, cols) -> bool:
        """Does row *i* certainly clash with another row on *cols*?"""
        row, eq = table.rows[i], table.eq
        same = table.all & ~(1 << i)
        for k in self.lhs:
            if row[k] is None:
                return False
            same &= eq[k][row[k]]
        if same:
            for k in cols:
                v = row[k]
                if v is not None and same & ~table.unknown[k] & ~eq[k][v]:
                    return True
        return False

    def bound(self, table: _Table, limit: int) -> int:
        """The unknown ``Y`` cells of an ``X`` group that another row of
        the group knows, each variable's first only, counted up to
        *limit*."""
        unknown, first = table.unknown, table.first
        count = 0
        keyed = table.known(self.lhs)
        while keyed:
            group = table.agree(self.lhs, table.rows[(keyed & -keyed).bit_length() - 1])
            keyed &= ~group
            if group & (group - 1):  # two rows or more
                for k in self.rhs:
                    forced = group & unknown[k]
                    if forced and forced != group:
                        count += (forced & first[k]).bit_count()
                        if count >= limit:
                            return count
        return count


class _MVD:
    """Certain violations of ``X ↠ Y`` (``Z`` the rest): rows ``t1`` known
    on ``XY`` and ``t2`` known on ``XZ`` in the same ``X`` group require the
    witness ``t1[XY] + t2[Z]``, which a row covers when it fits ``t1`` on
    ``XY`` and ``t2`` on ``Z``."""

    def __init__(self, x, y, z):
        self.x, self.z, self.xy, self.xz = x, z, x + y, x + z
        self.columns = frozenset(x + y + z)
        self.in_y, self.in_z = frozenset(y), frozenset(z)
        self.x_of, self.y_of, self.z_of = _getter(x), _getter(y), _getter(z)

    def missing(self, table: _Table, fits: int, t2s: int) -> bool:
        """Does the witness of a t1 that the rows *fits* fit on ``XY`` with
        some row of *t2s* have no row fitting it?"""
        while t2s:
            fits_z = table.fit(self.z, (t2s & -t2s).bit_length() - 1)
            if not fits & fits_z:
                return True
            t2s &= ~fits_z  # the t2s with the same Z: same witness
        return False

    def uncovered(self, table: _Table, t1s: int, t2s: int) -> bool:
        """Is some witness of a row of *t1s* with a row of *t2s* in its
        ``X`` group missing?"""
        while t1s:
            t1 = (t1s & -t1s).bit_length() - 1
            fits = table.fit(self.xy, t1)
            group = table.agree(self.x, table.rows[t1])
            if self.missing(table, fits, t2s & group):
                return True
            t1s &= ~fits  # the t1s with the same X and Y: same witnesses
        return False

    def violated(self, table: _Table) -> bool:
        return self.uncovered(table, table.known(self.xy), table.known(self.xz))

    def delta(self, table: _Table, i: int, c: int) -> bool:
        row = table.rows[i]
        t1s, t2s = table.known(self.xy), table.known(self.xz)
        # The witnesses the changed row now pins, as t1 or as t2.
        if c not in self.in_z and t1s >> i & 1:
            group = table.agree(self.x, row)
            if self.missing(table, table.fit(self.xy, i), t2s & group):
                return True
        if c not in self.in_y and t2s >> i & 1:
            if self.uncovered(table, t1s & table.agree(self.x, row), 1 << i):
                return True
        # The witnesses it covered only while cell c was unknown: they
        # agree with it elsewhere and differ at c.
        masked = list(row)
        masked[c] = None
        differ = ~table.eq[c][row[c]]
        t1s &= table.agree(self.xy, masked)
        t2s &= table.agree(self.z, masked)
        if c in self.in_z:
            return self.uncovered(table, t1s, t2s & differ)
        return self.uncovered(table, t1s & differ, t2s)

    def bound(self, table: _Table, limit: int) -> int:
        """The distinct witnesses no fully known row equals, counted from
        scratch up to *limit* (the reference of :class:`_MvdCount`, which
        the search uses): in each ``X`` group the ``Y`` values of its t1s times the
        ``Z`` values of its t2s, less its distinct fully known rows (each
        equals one witness)."""
        t1s, t2s = table.known(self.xy), table.known(self.xz)
        x_of, y_of, z_of = self.x_of, self.y_of, self.z_of
        ys: Dict[Any, set] = {}
        zs: Dict[Any, set] = {}
        full = set()
        for t, row in enumerate(table.rows):
            if t1s >> t & 1:
                x = x_of(row)
                ys.setdefault(x, set()).add(y_of(row))
                if t2s >> t & 1:
                    zs.setdefault(x, set()).add(z_of(row))
                    full.add(tuple(row))
            elif t2s >> t & 1:
                zs.setdefault(x_of(row), set()).add(z_of(row))
        count = -len(full)
        for x, group_ys in ys.items():
            count += len(group_ys) * len(zs.get(x, ()))
            if count >= limit:  # the rest only adds
                break
        return count


class _MvdCount:
    """The count of :meth:`_MVD.bound`, kept for one state's table as its
    rows change.  Per ``X`` group a multiplicity map of the ``Y`` parts of
    its t1s and one of the ``Z`` parts of its t2s, a multiplicity map of
    the fully known rows, and ``total`` = ``Σ |ys|·|zs| − |full|``.  Each
    row's counted parts are stored, so :meth:`recount` of a changed row
    drops them and adds its current ones."""

    __slots__ = ("check", "total", "groups", "full", "xs", "ys", "zs")

    def __init__(self, check: _MVD, n_rows: int):
        self.check = check
        self.total = 0
        self.groups: Dict[Any, tuple] = {}  # X -> (Y multiplicities, Z multiplicities)
        self.full: Dict[Any, int] = {}
        # Per row, the X, Y and Z parts it counts (None: not counted).
        self.xs: List[Any] = [None] * n_rows
        self.ys: List[Any] = [None] * n_rows
        self.zs: List[Any] = [None] * n_rows

    def recount(self, table: _Table, dirty: int) -> None:
        """Count the rows of *dirty* again from *table*."""
        check, groups, full, xs, ys, zs = (
            self.check, self.groups, self.full, self.xs, self.ys, self.zs
        )
        t1s, t2s = table.known(check.xy), table.known(check.xz)
        rows = table.rows
        total = self.total
        while dirty:
            low = dirty & -dirty
            dirty ^= low
            t = low.bit_length() - 1
            row = rows[t]
            x = y = z = None
            if t1s & low or t2s & low:
                x = check.x_of(row)
                if t1s & low:
                    y = check.y_of(row)
                if t2s & low:
                    z = check.z_of(row)
            old_x, old_y, old_z = xs[t], ys[t], zs[t]
            if x == old_x and y == old_y and z == old_z:
                continue
            if old_x is not None:  # drop the row's counted parts
                group_ys, group_zs = groups[old_x]
                if old_y is not None:
                    m = group_ys[old_y]
                    if m == 1:
                        del group_ys[old_y]
                        total -= len(group_zs)
                    else:
                        group_ys[old_y] = m - 1
                if old_z is not None:
                    m = group_zs[old_z]
                    if m == 1:
                        del group_zs[old_z]
                        total -= len(group_ys)
                    else:
                        group_zs[old_z] = m - 1
                    if old_y is not None:
                        key = (old_x, old_y, old_z)
                        m = full[key]
                        if m == 1:
                            del full[key]
                            total += 1
                        else:
                            full[key] = m - 1
            if x is not None:  # add its current ones
                group = groups.get(x)
                if group is None:
                    group = groups[x] = ({}, {})
                group_ys, group_zs = group
                if y is not None:
                    m = group_ys.get(y, 0)
                    group_ys[y] = m + 1
                    if not m:
                        total += len(group_zs)
                if z is not None:
                    m = group_zs.get(z, 0)
                    group_zs[z] = m + 1
                    if not m:
                        total += len(group_ys)
                    if y is not None:
                        key = (x, y, z)
                        m = full.get(key, 0)
                        full[key] = m + 1
                        if not m:
                            total -= 1
            xs[t], ys[t], zs[t] = x, y, z
        self.total = total
