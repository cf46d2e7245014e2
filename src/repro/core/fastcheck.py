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

from itertools import product
from typing import Any, Callable, List

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
    comp_idx = [
        tuple(schema.index(a) for a in sorted(comp & schema.attrset))
        for comp in jd.components
    ]
    # Column order of the reassembled tuple: schema order; for each column
    # remember one component that carries it plus, for join compatibility,
    # all (component, position) pairs per attribute.
    attr_sources = {}
    for ci, comp in enumerate(jd.components):
        for pos, a in enumerate(sorted(comp & schema.attrset)):
            attr_sources.setdefault(a, []).append((ci, pos))
    n_cols = schema.arity
    col_source = [attr_sources[a][0] for a in schema.attributes]
    shared = {a: srcs for a, srcs in attr_sources.items() if len(srcs) > 1}

    def check(rows) -> bool:
        row_set = {tuple(row) for row in rows}
        projections = [
            {tuple(row[i] for i in idx) for row in row_set} for idx in comp_idx
        ]
        for combo in product(*projections):
            compatible = True
            for srcs in shared.values():
                (c0, p0) = srcs[0]
                v = combo[c0][p0]
                for c, p in srcs[1:]:
                    if combo[c][p] != v:
                        compatible = False
                        break
                if not compatible:
                    break
            if not compatible:
                continue
            joined = tuple(combo[c][p] for c, p in col_source)
            if joined not in row_set:
                return False
        return True

    return check
