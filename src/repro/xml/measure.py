"""The information-theoretic measure on XML documents.

Positions of an XML document are its attribute-value slots; constraints
are XFDs; the possible-worlds definition is identical to the relational
case (XFDs are generic in the attribute values).  This module adapts a
document to the interface the :mod:`repro.core` engines drive —
``positions`` / ``value_at`` / ``make_oracle`` (with no pruning state and
no chase yet) — so ``ric``, ``inf_k`` and the Monte-Carlo engine work on
XML unchanged.

The tree-tuple *structure* of the document is fixed (node identities never
vary in a possible world; only attribute values do), so it is precomputed
once and every oracle call just re-resolves attribute values — the hot
path stays cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

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


class PositionedDocument:
    """An XML document with indexed positions and attached XFDs.

    Drop-in compatible with :class:`repro.core.positions.PositionedInstance`
    for every engine in :mod:`repro.core`.
    """

    def __init__(self, doc: XNode, dtd: DTD, sigma: Sequence[XFD]):
        errors = dtd.validate(doc)
        if errors:
            raise ValueError(f"document invalid against DTD: {errors[:3]}")
        self.doc = doc
        self.dtd = dtd
        self.sigma = list(sigma)

        self._nodes: List[XNode] = list(doc.walk())
        self._positions: List[XPosition] = []
        self._slot_value: Dict[Tuple[int, str], Any] = {}
        for i, node in enumerate(self._nodes):
            for attr in sorted(node.attrs):
                self._positions.append(XPosition(i, node.label, attr))
                self._slot_value[(i, attr)] = node.attrs[attr]

        # Precompute, per XFD, the structural references of every tree
        # tuple: an element path resolves to its node id; an attribute path
        # resolves to a (node id, attr) slot to be looked up per world.
        raw_tuples = tree_tuples(doc, dtd)
        self._xfd_refs: List[List[Tuple[List[Any], Any]]] = []
        for dep in self.sigma:
            rows = []
            for t in raw_tuples:
                lhs_refs = [self._compile_ref(t, p) for p in sorted(dep.lhs)]
                rhs_ref = self._compile_ref(t, dep.rhs)
                rows.append((lhs_refs, rhs_ref))
            self._xfd_refs.append(rows)

    def _compile_ref(self, t: Dict[Path, Any], path: Path) -> Any:
        entry = t.get(path, BOTTOM)
        if entry is BOTTOM:
            return ("bot",)
        if path.is_attribute:
            node_id = t.get(path.element)
            if node_id is BOTTOM:
                return ("bot",)
            return ("attr", node_id, path.attr)
        return ("node", entry)

    # ------------------------------------------------------------------
    # PositionedInstance-compatible interface
    # ------------------------------------------------------------------

    @property
    def positions(self) -> List[XPosition]:
        """All attribute-value slots in document order."""
        return list(self._positions)

    def position(self, node_id: int, attribute: str) -> XPosition:
        """The position for a (node id, attribute) pair."""
        for p in self._positions:
            if p.node_id == node_id and p.attribute == attribute:
                return p
        raise KeyError(f"no attribute slot @{attribute} on node {node_id}")

    def position_at(self, path_steps: Sequence[str], attribute: str, index: int = 0) -> XPosition:
        """The *index*-th slot (document order) at the given label path."""
        matches = []
        for p in self._positions:
            if p.attribute != attribute:
                continue
            node = self._nodes[p.node_id]
            if node.label == path_steps[-1]:
                matches.append(p)
        if index >= len(matches):
            raise KeyError(
                f"no slot #{index} for @{attribute} under {path_steps[-1]}"
            )
        return matches[index]

    def value_at(self, pos: XPosition) -> Any:
        """The document's original value at *pos*."""
        return self._slot_value[(pos.node_id, pos.attribute)]

    def active_domain(self) -> frozenset:
        """All attribute values in the document."""
        return frozenset(self._slot_value.values())

    def make_oracle(self, variable_positions: Sequence[XPosition]):
        """Fast XFD-satisfaction oracle over the given variable slots."""
        current = dict(self._slot_value)
        var_keys = [(p.node_id, p.attribute) for p in variable_positions]

        def resolve(ref: Tuple) -> Any:
            kind = ref[0]
            if kind == "bot":
                return BOTTOM
            if kind == "node":
                return ("n", ref[1])
            return current.get((ref[1], ref[2]), BOTTOM)

        def oracle(values: Sequence[Any]) -> bool:
            for key, value in zip(var_keys, values):
                current[key] = value
            ok = True
            for rows in self._xfd_refs:
                seen: Dict[Tuple, Any] = {}
                sentinel = object()
                for lhs_refs, rhs_ref in rows:
                    lhs_vals = tuple(resolve(r) for r in lhs_refs)
                    if any(v is BOTTOM for v in lhs_vals):
                        continue
                    rhs_val = resolve(rhs_ref)
                    prior = seen.get(lhs_vals, sentinel)
                    if prior is sentinel:
                        seen[lhs_vals] = rhs_val
                    elif prior != rhs_val:
                        ok = False
                        break
                if not ok:
                    break
            for key, pos in zip(var_keys, variable_positions):
                current[key] = self._slot_value[key]
            return ok

        return oracle

    def make_pruning_state(self, variable_positions: Sequence[XPosition]) -> None:
        """No three-valued checker for XFDs: the pattern search on XML
        worlds does not prune."""
        return None

    def forced_by_chase(
        self, p: XPosition, revealed: FrozenSet[XPosition]
    ) -> Optional[bool]:
        """No chase for XFDs yet: the pattern search decides every XML
        world."""
        return None

    def satisfies(self, assignment: Dict[XPosition, Any]) -> bool:
        """Constraint check with *assignment* substituted (slow path)."""
        keys = list(assignment)
        oracle = self.make_oracle(keys)
        return oracle([assignment[k] for k in keys])

    def check_original(self) -> bool:
        """Sanity check: the unmodified document satisfies its XFDs."""
        return self.satisfies({})

    def __len__(self) -> int:
        return len(self._positions)
