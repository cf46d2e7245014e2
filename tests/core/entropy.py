"""Exact entropies of a relation: an MVD and acyclic-JD oracle for tests.

Take the uniform distribution over a relation's ``n`` distinct tuples.
The entropy of its projection on columns ``S`` is
``H(S) = log2 n − (1/n) Σ_v c_v log2 c_v``, where ``c_v`` counts the
tuples whose projection is ``v``.  Entropies are irrational, so each is
kept as the exact :class:`~fractions.Fraction`
``2^(n·H(S)) = n^n / Π_v c_v^c_v``: a sum of entropies is a product of
these powers, and a combination of them is 0 exactly when the products
of its two sides are equal.

- ``X ↠ Y`` (``Z`` the rest) holds iff ``I(Y; Z | X) = H(XY) + H(XZ) −
  H(XYZ) − H(X) = 0`` (Lee; Wong & Wang's CI axiomatization).
- An acyclic JD with join tree ``T`` holds iff its entropic loss
  ``Σ_i H(Ω_i) − Σ_{(i,j) ∈ T} H(Ω_i ∩ Ω_j) − H(Ω) = 0`` (Lee; Kenig,
  "Quantifying the Loss of Acyclic Join Dependencies").

Nothing here uses :mod:`repro`: it checks ``fastcheck``'s dependency
checks and the pruning state's verdicts from outside.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations
from typing import Iterable, List, Optional, Sequence, Tuple


def entropy_power(rows: Iterable[Sequence], columns: Iterable[int]) -> Fraction:
    """``2^(n·H(columns))`` over the uniform distribution on the distinct
    *rows*."""
    distinct = {tuple(row) for row in rows}
    columns = sorted(set(columns))
    counts = Counter(tuple(row[c] for c in columns) for row in distinct)
    denominator = 1
    for count in counts.values():
        denominator *= count**count
    n = len(distinct)
    return Fraction(n**n, denominator)


def mvd_holds(rows, x: Iterable[int], y: Iterable[int], arity: int) -> bool:
    """Does ``X ↠ Y`` hold on *rows*: is ``I(Y; Z | X)`` zero?"""
    x, y = set(x), set(y) - set(x)
    z = set(range(arity)) - x - y
    power = lambda cols: entropy_power(rows, cols)  # noqa: E731
    return power(x | y) * power(x | z) == power(x | y | z) * power(x)


def join_tree(components: Sequence[frozenset]) -> Optional[List[Tuple[int, int]]]:
    """The edges of a join tree of *components*, or ``None`` when they are
    cyclic.  A maximum-weight spanning tree of the intersection graph is
    a join tree exactly when the hypergraph is acyclic: then the
    components holding each column span a connected subtree."""
    parent = list(range(len(components)))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    pairs = sorted(
        combinations(range(len(components)), 2),
        key=lambda e: -len(components[e[0]] & components[e[1]]),
    )
    edges = []
    for i, j in pairs:
        if root(i) != root(j):
            parent[root(i)] = root(j)
            edges.append((i, j))
    for column in frozenset().union(*components):
        holders = {i for i, comp in enumerate(components) if column in comp}
        inside = [(i, j) for i, j in edges if i in holders and j in holders]
        if len(inside) != len(holders) - 1:  # a forest: not connected
            return None
    return edges


def jd_holds(rows, components: Sequence[Iterable[int]], arity: int) -> bool:
    """Does the acyclic JD with *components* (column sets covering every
    column) hold on *rows*: is its entropic loss zero?"""
    components = [frozenset(c) for c in components]
    if frozenset().union(*components) != frozenset(range(arity)):
        raise ValueError("the JD must cover every column")
    tree = join_tree(components)
    if tree is None:
        raise ValueError("a cyclic JD has no entropic criterion here")
    power = lambda cols: entropy_power(rows, cols)  # noqa: E731
    sides = [Fraction(1), power(range(arity))]
    for comp in components:
        sides[0] *= power(comp)
    for i, j in tree:
        sides[1] *= power(components[i] & components[j])
    return sides[0] == sides[1]
