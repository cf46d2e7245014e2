"""Positions and positioned instances.

The measure is defined over the *positions* of an instance: one slot per
(tuple, attribute) pair.  Relations are sets, so tuples get a canonical
index (sorted order) when the instance is positioned; the index is stable
for the lifetime of the :class:`PositionedInstance`.

Constraints are attached per relation.  A positioned instance knows how to
rebuild a concrete :class:`~repro.relational.relation.Relation` from any
assignment of values to its positions and check all constraints — this is
the satisfaction oracle every engine in :mod:`repro.core` drives.

The engines compile *tables*: rows, dependencies per table, and each
position's cells.  A relation is a table whose positions own one cell
each; an XML document lowers each XFD to a table in which a slot owns a
cell per row (:class:`repro.xml.measure.PositionedDocument`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Any, Dict, FrozenSet, Iterable, List, Mapping, NamedTuple,
    Optional, Sequence, Tuple,
)

from repro.core.fastcheck import Check, compile_check
from repro.core.fdchase import FDChase
from repro.core.pruning import PruningPlan, PruningState
from repro.core.worlds import FRESH, FreshValue
from repro.dependencies.fd import FD
from repro.relational.relation import DatabaseInstance, Relation

if TYPE_CHECKING:
    from repro.chase.engine import Dependency


#: A table cell: ``(table index, row index, column index)``.
Cell = Tuple[int, int, int]


@dataclass(frozen=True, order=True)
class Position:
    """A value slot: relation name, canonical row index, attribute."""

    relation: str
    row: int
    attribute: str

    def __str__(self) -> str:
        return f"{self.relation}[{self.row}].{self.attribute}"


class _Compiled(NamedTuple):
    """What the chase, the oracle and the pruning state of every world
    share."""

    #: Value codes (fresh sentinels included), coded rows, FD/MVD checks.
    plan: PruningPlan
    #: ``(table index, check(rows))`` of every dependency.
    checks: Tuple[Tuple[int, Check], ...]
    #: The chase deciding every world, when every dependency is an FD.
    chase: Optional[FDChase]


class PositionedInstance:
    """A database instance with indexed positions and attached constraints.

    Build with :meth:`from_relation` (single relation, the paper's usual
    setting) or :meth:`from_instance` (several relations; constraints are
    given per relation name).
    """

    def __init__(
        self,
        relations: Sequence[Relation],
        constraints: Mapping[str, Sequence[Dependency]],
    ):
        schemas = [rel.schema for rel in relations]
        unknown = set(constraints) - {s.name for s in schemas}
        if unknown:
            raise KeyError(f"constraints reference unknown relations: {unknown}")
        rows = [list(rel.sorted_rows()) for rel in relations]
        cells: Dict[Position, Tuple[Cell, ...]] = {}
        for r, schema in enumerate(schemas):
            for i, _row in enumerate(rows[r]):
                for c, attr in enumerate(schema.attributes):
                    cells[Position(schema.name, i, attr)] = ((r, i, c),)
        self._set_tables(schemas, rows, constraints, cells)

    def _set_tables(self, schemas, rows, constraints, cells) -> None:
        """Hold what the engines compile: each schema's *rows* of original
        values, *constraints* per table name, and *cells*, each position's
        ``(table, row, column)`` cells in position order."""
        self._schemas, self._rows, self._cells = list(schemas), rows, cells
        self._columns = {
            pos: frozenset((r, c) for r, _i, c in pos_cells)
            for pos, pos_cells in cells.items()
        }
        self._constraints: Dict[str, List[Dependency]] = {
            name: list(deps) for name, deps in constraints.items()
        }
        self._positions = list(cells)
        #: Is every table cell the one cell of a position?  True of a
        #: relational instance; an XML slot owns a cell per table row it
        #: appears in, beside constant node-id cells.  Then a column's
        #: non-erased cells in a world are its revealed positions and
        #: ``p``, and the pattern search keeps labels column-local
        #: (DESIGN §2.1).
        self.positions_are_cells = all(
            len(pos_cells) == 1 for pos_cells in cells.values()
        ) and len(cells) == sum(len(rel) * s.arity for rel, s in zip(rows, schemas))
        self._compiled: Optional[_Compiled] = None

    def __getstate__(self) -> dict:
        # The compiled checks are closures: each process compiles its own.
        state = self.__dict__.copy()
        state["_compiled"] = None
        return state

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_relation(
        cls, relation: Relation, constraints: Iterable[Dependency]
    ) -> "PositionedInstance":
        """Position a single relation with its constraint set."""
        return cls([relation], {relation.schema.name: list(constraints)})

    @classmethod
    def from_instance(
        cls,
        instance: DatabaseInstance,
        constraints: Mapping[str, Sequence[Dependency]],
    ) -> "PositionedInstance":
        """Position a multi-relation instance; *constraints* maps relation
        names to their dependency lists."""
        return cls(list(instance.relations), constraints)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    @property
    def positions(self) -> List[Position]:
        """All positions in canonical order."""
        return list(self._positions)

    @property
    def schemas(self) -> List[Any]:
        """The relation schemas, in construction order."""
        return list(self._schemas)

    def rows_of(self, relation: str) -> List[Tuple[Any, ...]]:
        """The canonical (sorted-order) rows of *relation*."""
        for r, schema in enumerate(self._schemas):
            if schema.name == relation:
                return list(self._rows[r])
        raise KeyError(f"no such relation: {relation}")

    def position(self, relation: str, row: int, attribute: str) -> Position:
        """The position object for a (relation, row, attribute) triple."""
        pos = Position(relation, row, attribute)
        if pos not in self._cells:
            raise KeyError(f"no such position: {pos}")
        return pos

    def columns_of(self, pos: Position) -> FrozenSet[Tuple[int, int]]:
        """The ``(table index, column index)`` pairs of *pos*'s cells: one
        for a relational position, one per lowered table column for an
        XML slot (none when no XFD reads it)."""
        return self._columns[pos]

    def value_at(self, pos: Position) -> Any:
        """The instance's original value at *pos*."""
        (r, i, c), = self._cells[pos]
        return self._rows[r][i][c]

    def active_domain(self) -> frozenset:
        """All values appearing in the instance."""
        return frozenset(
            v for rows in self._rows for row in rows for v in row
        )

    def constraints_for(self, relation: str) -> List[Dependency]:
        """The dependency list attached to *relation*."""
        return list(self._constraints.get(relation, []))

    # ------------------------------------------------------------------
    # the satisfaction oracle
    # ------------------------------------------------------------------

    def satisfies(self, assignment: Mapping[Position, Any]) -> bool:
        """Does the instance, with *assignment* substituted at the given
        positions, satisfy every attached constraint?

        Positions not mentioned keep their original values.  Substituted
        rows that collapse (set semantics) are merged before checking, as
        in the paper's model.
        """
        for r, schema in enumerate(self._schemas):
            deps = self._constraints.get(schema.name)
            rows = self._rows[r]
            new_rows = []
            for i, row in enumerate(rows):
                cells = list(row)
                for c, attr in enumerate(schema.attributes):
                    pos = Position(schema.name, i, attr)
                    if pos in assignment:
                        cells[c] = assignment[pos]
                new_rows.append(tuple(cells))
            if deps:
                relation = Relation(schema, new_rows)
                if not all(dep.is_satisfied_by(relation) for dep in deps):
                    return False
        return True

    def _compile(self) -> _Compiled:
        """The checks every world of the instance shares, built on first
        use.  Immutable, so the worlds of every thread share one copy; two
        threads may both build it, and either copy serves."""
        compiled = self._compiled
        if compiled is None:
            sentinels = [FRESH] + [FreshValue(b) for b in range(len(self))]
            fd_only = all(
                isinstance(dep, FD) for deps in self._constraints.values() for dep in deps
            )
            compiled = self._compiled = _Compiled(
                PruningPlan(
                    self._schemas, self._rows, self._constraints, sentinels,
                    self._cells.values(),
                ),
                tuple(
                    (r, compile_check(dep, schema))
                    for r, schema in enumerate(self._schemas)
                    for dep in self._constraints.get(schema.name, ())
                ),
                FDChase(self._schemas, self._rows, self._constraints, self._cells)
                if fd_only
                else None,
            )
        return compiled

    def forced_by_chase(
        self, p: Position, revealed: FrozenSet[Position]
    ) -> Optional[bool]:
        """The world's limit ratio when every dependency is an FD: does
        the chase of the *revealed* cells force ``p`` (``r(X) = 0``, see
        :mod:`repro.core.fdchase`)?  ``None`` when some dependency is not
        an FD, so the pattern search decides."""
        chase = self._compile().chase
        return None if chase is None else chase.forced(p, revealed)

    @property
    def pruning_decides_leaves(self) -> bool:
        """Does a complete assignment the pruning state passes satisfy
        every dependency, so the pattern search needs no oracle at its
        leaves?  See :class:`~repro.core.pruning.PruningPlan`."""
        return self._compile().plan.decides_leaves

    def make_oracle(self, variable_positions: Sequence[Position]):
        """A fast satisfaction oracle over a fixed set of variable positions.

        Returns ``oracle(values)`` taking a value sequence aligned with
        *variable_positions*, each value written to every cell of its
        position; all other cells keep their original values.  The
        dependency checks, compiled once per instance, run over the
        oracle's own copy of the rows (no Relation construction) — this
        is the hot path of every engine in :mod:`repro.core`.
        """
        rows = [[list(row) for row in rel] for rel in self._rows]
        slots = [
            (rows[r][i], c, k)
            for k, p in enumerate(variable_positions)
            for r, i, c in self._cells[p]
        ]
        checks = [(rows[r], check) for r, check in self._compile().checks]

        def oracle(values: Sequence[Any]) -> bool:
            # Every call assigns every variable cell: nothing to restore.
            for row, c, k in slots:
                row[c] = values[k]
            return all(check(rel) for rel, check in checks)

        return oracle

    def make_pruning_state(
        self, variable_positions: Sequence[Position]
    ) -> Optional[PruningState]:
        """Three-valued companion of :meth:`make_oracle`: a
        :class:`~repro.core.pruning.PruningState` over the same variable
        positions, all unassigned — the pattern search's pruning test —
        or ``None`` when no constraint can be pruned."""
        plan = self._compile().plan
        if not any(plan.checks):
            return None
        return PruningState(plan, [self._cells[p] for p in variable_positions])

    def check_original(self) -> bool:
        """Sanity check: the unmodified instance satisfies its constraints."""
        return self.satisfies({})

    def __len__(self) -> int:
        return len(self._positions)

    def __str__(self) -> str:
        parts = []
        for r, schema in enumerate(self._schemas):
            deps = "; ".join(str(d) for d in self._constraints.get(schema.name, []))
            parts.append(f"{schema}  {{{deps}}}")
            for row in self._rows[r]:
                parts.append("  " + ", ".join(map(str, row)))
        return "\n".join(parts)
