"""Compiled dependency checks over raw row arrays.

The possible-worlds engines call the satisfaction oracle millions of
times; constructing :class:`~repro.relational.relation.Relation` objects
per call dominates the cost.  :func:`compile_check` specializes each
dependency against a fixed schema and returns a closure taking a row
array (list of lists), so one compiled check serves every world of an
instance, each with its own rows.  Semantics match the
``is_satisfied_by`` methods exactly, including set-collapse of duplicate
rows.
"""

from __future__ import annotations

from typing import Any, Callable, List

from repro.core.pruning import _getter
from repro.dependencies.fd import FD
from repro.dependencies.jd import JD
from repro.dependencies.mvd import MVD
from repro.relational.schema import RelationSchema


Check = Callable[[List[List[Any]]], bool]


def compile_check(dep: Any, schema: RelationSchema) -> Check:
    """A fast ``check(rows) -> bool`` evaluating *dep* on a row array."""
    if isinstance(dep, FD):
        return _compile_fd(dep, schema)
    if isinstance(dep, MVD):
        return _compile_mvd(dep, schema)
    if isinstance(dep, JD):
        return _compile_jd(dep, schema)
    raise TypeError(f"unsupported dependency: {dep!r}")


def _compile_fd(fd: FD, schema: RelationSchema) -> Check:
    lhs_idx = tuple(schema.index(a) for a in sorted(fd.lhs))
    rhs_idx = tuple(schema.index(a) for a in sorted(fd.rhs))

    def check(rows) -> bool:
        seen: dict = {}
        for row in rows:
            key = tuple(row[i] for i in lhs_idx)
            val = tuple(row[i] for i in rhs_idx)
            prior = seen.setdefault(key, val)
            if prior != val:
                return False
        return True

    return check


def _compile_mvd(mvd: MVD, schema: RelationSchema) -> Check:
    uni = schema.attrset
    lhs_idx = tuple(schema.index(a) for a in sorted(mvd.lhs & uni))
    mid_idx = tuple(schema.index(a) for a in sorted((mvd.rhs - mvd.lhs) & uni))
    rest_idx = tuple(schema.index(a) for a in sorted(uni - mvd.lhs - mvd.rhs))

    def check(rows) -> bool:
        groups: dict = {}
        for row in rows:
            key = tuple(row[i] for i in lhs_idx)
            combo = (
                tuple(row[i] for i in mid_idx),
                tuple(row[i] for i in rest_idx),
            )
            groups.setdefault(key, set()).add(combo)
        for combos in groups.values():
            if len(combos) == 1:
                continue
            mids = {m for m, _ in combos}
            rests = {r for _, r in combos}
            if len(combos) != len(mids) * len(rests):
                return False
        return True

    return check


def _compile_jd(jd: JD, schema: RelationSchema) -> Check:
    # Join the components in order.  Each one after the first is looked
    # up by its attributes that earlier components carry (``key``) and
    # fills in the rest (``new``).  Every attribute must be carried.
    first, *others = [sorted(comp & schema.attrset) for comp in jd.components]
    carried = set(first)
    rest = []
    for attrs in others:
        key = tuple(schema.index(a) for a in attrs if a in carried)
        new = tuple(schema.index(a) for a in attrs if a not in carried)
        rest.append((_getter(key), new))
        carried.update(attrs)
    for a in schema.attributes:
        if a not in carried:
            raise KeyError(a)
    first = tuple(schema.index(a) for a in first)
    last = len(rest) - 1

    def check(rows) -> bool:
        # Equal values get equal small-int codes, so hashing is cheap.
        codes: dict = {}
        coded = {tuple([codes.setdefault(v, len(codes)) for v in row]) for row in rows}
        if len(coded) < 2:  # the join of one row's projections is the row
            return True
        indexes = []
        for key_of, _new in rest:
            index: dict = {}
            for row in coded:
                index.setdefault(key_of(row), []).append(row)
            indexes.append(index)
        joined = [None] * schema.arity

        def complete(j: int) -> bool:
            """Is every join tuple extending the components before
            ``rest[j]`` (in *joined*) a row?"""
            key_of, new = rest[j]
            for row in indexes[j].get(key_of(joined), ()):
                for i in new:
                    joined[i] = row[i]
                if j == last:
                    if tuple(joined) not in coded:
                        return False
                elif not complete(j + 1):
                    return False
            return True

        for row in coded:
            for i in first:
                joined[i] = row[i]
            if not complete(0):
                return False
        return True

    return check

