"""The information-theoretic measure on XML documents.

Positions of an XML document are its attribute-value slots; constraints
are XFDs; the possible-worlds definition is identical to the relational
case (XFDs are generic in the attribute values).  An XFD is an FD over
the document's tree tuples, and their structure is fixed (node
identities never vary in a possible world; only attribute values do), so
each XFD is lowered once to a table with an FD over it:

- one column per left-hand path, then the right-hand path;
- one row per tree tuple with no ``⊥`` on the left-hand side (such a
  tuple never takes part in the XFD), duplicates dropped;
- each cell is a constant (a node id, or ``⊥`` on the right-hand side)
  or the slot it reads.  A column holds node ids or slots, never both.

A slot owns its cells in every table, and none if no XFD mentions it.
The document is then a :class:`~repro.core.positions.PositionedInstance`
over these tables, so ``ric``, ``inf_k`` and the Monte-Carlo engine run
on XML with the relational oracle, pruning state and chase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.core.positions import Cell, PositionedInstance
from repro.dependencies.fd import FD
from repro.relational.schema import RelationSchema
from repro.xml.dtd import DTD
from repro.xml.paths import Path
from repro.xml.tree import XNode
from repro.xml.treetuples import BOTTOM, tree_tuples
from repro.xml.xfd import XFD


@dataclass(frozen=True, order=True)
class XPosition:
    """An attribute-value slot: (pre-order node id, node label, attribute)."""

    node_id: int
    label: str
    attribute: str

    def __str__(self) -> str:
        return f"{self.label}#{self.node_id}.@{self.attribute}"


class PositionedDocument(PositionedInstance):
    """An XML document with indexed positions and attached XFDs, lowered
    to one table per XFD (see the module docstring)."""

    def __init__(self, doc: XNode, dtd: DTD, sigma: Sequence[XFD]):
        errors = dtd.validate(doc)
        if errors:
            raise ValueError(f"document invalid against DTD: {errors[:3]}")
        self.doc = doc
        self.dtd = dtd
        self.sigma = list(sigma)

        slots: Dict[Tuple[int, str], XPosition] = {}
        self._slot_value: Dict[XPosition, Any] = {}
        for i, node in enumerate(doc.walk()):
            for attr in sorted(node.attrs):
                pos = slots[(i, attr)] = XPosition(i, node.label, attr)
                self._slot_value[pos] = node.attrs[attr]

        def cell(t: Dict[Path, Any], path: Path) -> Any:
            entry = t.get(path, BOTTOM)
            if entry is BOTTOM or not path.is_attribute:
                return entry
            return slots[(t[path.element], path.attr)]

        tuples = tree_tuples(doc, dtd)
        schemas, rows, constraints = [], [], {}
        cells: Dict[XPosition, List[Cell]] = {pos: [] for pos in slots.values()}
        for r, dep in enumerate(self.sigma):
            paths = sorted(dep.lhs) + [dep.rhs]
            schema = RelationSchema(f"xfd{r}", [f"c{c}" for c in range(len(paths))])
            table: Dict[tuple, None] = {}  # insertion-ordered set
            for t in tuples:
                row = tuple(cell(t, path) for path in paths)
                if BOTTOM not in row[:-1]:
                    table.setdefault(row)
            for i, row in enumerate(table):
                for c, entry in enumerate(row):
                    if isinstance(entry, XPosition):
                        cells[entry].append((r, i, c))
            schemas.append(schema)
            rows.append([  # a constant stands for itself
                tuple(self._slot_value.get(entry, entry) for entry in row)
                for row in table
            ])
            constraints[schema.name] = [FD(schema.attributes[:-1], schema.attributes[-1:])]
        self._set_tables(schemas, rows, constraints, cells)

    def value_at(self, pos: XPosition) -> Any:
        """The document's original value at *pos*."""
        return self._slot_value[pos]

    def active_domain(self) -> frozenset:
        """All attribute values in the document."""
        return frozenset(self._slot_value.values())

    def satisfies(self, assignment: Mapping[XPosition, Any]) -> bool:
        """Does the document, with *assignment* substituted at the given
        slots, satisfy every XFD?"""
        keys = list(assignment)
        return self.make_oracle(keys)([assignment[k] for k in keys])
