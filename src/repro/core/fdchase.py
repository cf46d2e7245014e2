"""The FD chase that decides a world's limit ratio without a pattern search.

When every dependency is an FD, the per-world limit ratio ``r(X)`` is 0
or 1 (DESIGN §2.1, the FD 0/1 lemma).  Chase the world's cells: merge
the revealed cells that hold equal values, then let each FD ``X → Y``
merge the ``Y`` cells of two rows whose ``X`` cells lie in the same
classes, until nothing changes.  Every satisfying completion keeps every
equality the chase derives, and giving each class its own value (its
revealed value, or a fresh one) satisfies every FD.  So ``r(X) = 0``
exactly when ``p``'s class holds a revealed cell, or when the chase
merges two different revealed values (then no completion satisfies
``Σ``); otherwise ``r(X) = 1``.

A table cell that no position owns (an XML node id, or ⊥) is a
constant: its class starts held, like a revealed cell.  The cells of one
position (an XML slot appears in many rows) start in one class.

An :class:`FDChase`, compiled once per instance, holds what no world
changes: each cell's original value, these starting classes, each
position's first cell, and per FD the ``(X cells, Y cells)`` of every
row.  A world costs one union-find over the instance's cells.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

#: Per FD, the ``(X cells, Y cells)`` of each row, as cell indices.
FDRows = Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], ...]


class FDChase:
    """The chase of one instance whose every dependency is an FD.

    *schemas*, *rows* and *constraints* (table name -> FDs) describe the
    tables; *cells* maps each position to its ``(table, row, column)``
    cells.
    """

    def __init__(self, schemas, rows, constraints: Mapping[str, Sequence[Any]], cells):
        starts: List[int] = []
        self.values: List[Any] = []
        for rel in rows:
            starts.append(len(self.values))
            self.values.extend(v for row in rel for v in row)

        def flat(r: int, i: int, c: int) -> int:
            return starts[r] + i * schemas[r].arity + c

        self.parent = list(range(len(self.values)))
        self.index: Dict[Any, int] = {}
        owned = set()
        for pos, pos_cells in cells.items():
            ks = [flat(*cell) for cell in pos_cells]
            if ks:
                self.index[pos] = ks[0]
                for k in ks[1:]:
                    self.parent[k] = ks[0]
                owned.update(ks)
        self.held = [False] * len(self.values)
        self.first: Dict[Any, int] = {}  # a held root per value
        for k, v in enumerate(self.values):
            if k not in owned:
                root = self.parent[k] = self.first.setdefault(v, k)
                self.held[root] = True
        fds: List[FDRows] = []
        for r, schema in enumerate(schemas):
            for fd in constraints.get(schema.name, ()):
                lhs = [schema.index(a) for a in sorted(fd.lhs)]
                rhs = [schema.index(a) for a in sorted(fd.rhs - fd.lhs)]
                if rhs:
                    fds.append(tuple(
                        (
                            tuple(flat(r, i, c) for c in lhs),
                            tuple(flat(r, i, c) for c in rhs),
                        )
                        for i in range(len(rows[r]))
                    ))
        self.fds = tuple(fds)

    def forced(self, p: Any, revealed: Iterable[Any]) -> bool:
        """Is ``r(X) = 0`` for measuring *p* after revealing *revealed*:
        does the chase put *p* in a class holding a revealed cell, or
        merge two different revealed values?"""
        values, index = self.values, self.index
        parent = list(self.parent)
        held = list(self.held)  # does the class hold a revealed cell?
        first = dict(self.first)
        for q in revealed:
            k = index.get(q)  # None: a slot no table mentions
            if k is not None:
                root = parent[k] = first.setdefault(values[k], k)
                held[root] = True

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            return x

        changed = True
        while changed:
            changed = False
            for rows in self.fds:
                seen: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
                for lhs, rhs in rows:
                    other = seen.setdefault(tuple(map(find, lhs)), rhs)
                    if other is rhs:
                        continue
                    for a, b in zip(other, rhs):
                        a, b = find(a), find(b)
                        if a != b:
                            if held[a] and held[b]:
                                return True  # two revealed values merged
                            parent[b] = a
                            held[a] = held[a] or held[b]
                            changed = True
        k = index.get(p)
        return k is not None and held[find(k)]
