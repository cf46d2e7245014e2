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

An :class:`FDChase`, compiled once per instance, holds what no world
changes: each position's index and original value, and per FD the
``(X cells, Y cells)`` of every row.  A world costs one union-find over
the instance's cells.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

#: Per FD, the ``(X cells, Y cells)`` of each row, as cell indices.
FDRows = Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], ...]


class FDChase:
    """The chase of one instance whose every dependency is an FD.

    *positions* are the instance's positions in (relation, row, column)
    order, the order in which *rows* list the cells of *schemas*;
    *constraints* maps a relation name to its FDs.
    """

    def __init__(self, schemas, rows, constraints: Mapping[str, Sequence[Any]], positions):
        self.index: Dict[Any, int] = {pos: k for k, pos in enumerate(positions)}
        self.values: List[Any] = [v for rel in rows for row in rel for v in row]
        fds: List[FDRows] = []
        start = 0
        for schema, rel in zip(schemas, rows):
            arity = schema.arity
            for fd in constraints.get(schema.name, ()):
                lhs = [schema.index(a) for a in sorted(fd.lhs)]
                rhs = [schema.index(a) for a in sorted(fd.rhs - fd.lhs)]
                if rhs:
                    fds.append(tuple(
                        (
                            tuple(start + i * arity + c for c in lhs),
                            tuple(start + i * arity + c for c in rhs),
                        )
                        for i in range(len(rel))
                    ))
            start += arity * len(rel)
        self.fds = tuple(fds)

    def forced(self, p: Any, revealed: Iterable[Any]) -> bool:
        """Is ``r(X) = 0`` for measuring *p* after revealing *revealed*:
        does the chase put *p* in a class holding a revealed cell, or
        merge two different revealed values?"""
        values = self.values
        parent = list(range(len(values)))
        held = [False] * len(values)  # does the class hold a revealed cell?
        first: Dict[Any, int] = {}
        for q in revealed:
            k = self.index[q]
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
        return held[find(self.index[p])]
