"""The canonical problem IR: one hashable value describing a computation.

A :class:`Problem` is everything the planner needs to choose, cost, and
run an engine: the schema and constraints, the instance rows, the target
position, the operation (``"ric"`` — the limit measure — or ``"inf_k"``
— the finite-``k`` entropy), the requested method, and the
engine-relevant parameters (``samples``/``seed`` for sampled engines,
``k`` for finite-``k`` ones).

Serialization normalizes away attribute order, dependency order, and row
order, so two textually different but semantically identical requests
share one :meth:`Problem.canonical_key` — the content address the batch
runner's result cache is keyed on.
Crucially, the key *includes* every engine-relevant parameter: the
method, ``samples`` and ``seed`` whenever the method can sample, and
``k`` for finite-``k`` operations.  A cached exact result can therefore
never be served for a Monte-Carlo request (or for a Monte-Carlo request
with different samples), and vice versa.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional, Tuple

from repro.core.measure import METHODS, SAMPLING_METHODS
from repro.service.errors import ValidationError
from repro.service.validate import (
    MAX_SAMPLES,
    check_int,
    check_method,
    check_positive_int,
)

if TYPE_CHECKING:
    from repro.core.positions import Position, PositionedInstance

#: Operations the planner understands.
OPS = tuple(METHODS)

#: One relation of the IR: (schema text, dependency strings, row tuples).
RelationIR = Tuple[str, Tuple[str, ...], Tuple[Tuple[Any, ...], ...]]


def canonical_digest(payload: dict) -> str:
    """SHA-256 over a canonical JSON rendering of *payload*.

    The one digest rule of the runtime: sorted keys, compact separators,
    ``default=str``.  Problem keys and the keys of the other batch job
    kinds (:func:`repro.service.jobs.job_key`) all go through here.
    """
    blob = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _freeze_relation(
    schema: str, deps, rows
) -> RelationIR:
    return (
        str(schema),
        tuple(str(d) for d in deps),
        tuple(tuple(row) for row in rows),
    )


@dataclass(frozen=True)
class Problem:
    """A canonical, hashable description of one RIC/entropy computation.

    *relations* holds ``(schema_text, dep_strings, rows)`` triples
    (dependencies in the order the kernels check them, rows in the
    canonical sorted-row order of
    :class:`~repro.core.positions.PositionedInstance`); *position* is a
    ``(relation, row, attribute)`` triple over that ordering.  The key
    normalizes dependency order away; equality and hashing cover the IR
    fields as given.
    """

    op: str
    relations: Tuple[RelationIR, ...]
    position: Tuple[str, int, str]
    method: str = "auto"
    samples: int = 200
    seed: int = 0
    k: Optional[int] = None
    #: A pre-built instance to run on (identity only — never part of the
    #: key; the canonical payload is always derived from the IR fields).
    instance: Optional[PositionedInstance] = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self):
        if self.op not in OPS:
            raise ValidationError(
                f"unknown operation {self.op!r} (expected one of {OPS})"
            )
        check_method("method", self.method, METHODS[self.op])
        check_positive_int("samples", self.samples, maximum=MAX_SAMPLES)
        check_int("seed", self.seed)
        if self.op == "inf_k":
            if self.k is None:
                raise ValidationError("inf_k problems need a domain size k")
            check_positive_int("k", self.k)
        if not self.relations:
            raise ValidationError("a problem needs at least one relation")
        object.__setattr__(
            self,
            "relations",
            tuple(
                _freeze_relation(schema, deps, rows)
                for schema, deps, rows in self.relations
            ),
        )
        object.__setattr__(
            self,
            "position",
            (
                str(self.position[0]),
                int(self.position[1]),
                str(self.position[2]),
            ),
        )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_design(
        cls,
        design: str,
        rows,
        position: Tuple[int, str],
        op: str = "ric",
        method: str = "auto",
        samples: int = 200,
        seed: int = 0,
        k: Optional[int] = None,
    ) -> "Problem":
        """Build from design notation text plus concrete rows.

        *position* is the ``(row_index, attribute)`` pair of the batch
        job format, over the canonical (deduplicated, sorted) row order;
        the relation is implied by the design.  The IR is built straight
        from the parsed design: no instance is positioned until
        :meth:`resolved_instance` needs one.
        """
        from repro.relational.parser import parse_design

        schema, deps = parse_design(design)
        distinct = {tuple(r) for r in rows}
        for r in distinct:
            if len(r) != schema.arity:
                raise ValidationError(
                    f"row {r!r} has arity {len(r)}, "
                    f"schema {schema} expects {schema.arity}"
                )
        rows = sorted(distinct, key=repr)
        row, attribute = int(position[0]), str(position[1])
        if not 0 <= row < len(rows) or attribute not in schema.attributes:
            raise ValidationError(
                f"no position ({row}, {attribute!r}) in {len(rows)} "
                f"row(s) of {schema}",
                details={"option": "position", "value": [row, attribute]},
            )
        return cls(
            op=op,
            relations=((str(schema), (str(d) for d in deps), rows),),
            position=(schema.name, row, attribute),
            method=method,
            samples=samples,
            seed=seed,
            k=k,
        )

    @classmethod
    def from_instance(
        cls,
        instance: PositionedInstance,
        p: Position,
        op: str = "ric",
        method: str = "auto",
        samples: int = 200,
        seed: int = 0,
        k: Optional[int] = None,
    ) -> "Problem":
        """Build from an already-positioned instance (no re-parsing)."""
        relations = tuple(
            _freeze_relation(
                str(schema),
                (str(d) for d in instance.constraints_for(schema.name)),
                instance.rows_of(schema.name),
            )
            for schema in instance.schemas
        )
        return cls(
            op=op,
            relations=relations,
            position=(p.relation, p.row, p.attribute),
            method=method,
            samples=samples,
            seed=seed,
            k=k,
            instance=instance,
        )

    # ------------------------------------------------------------------
    # execution material
    # ------------------------------------------------------------------

    def resolved_instance(self) -> PositionedInstance:
        """The live instance to run engines on (built once, memoized)."""
        if self.instance is not None:
            return self.instance
        from repro.core.positions import PositionedInstance
        from repro.relational.parser import parse_design
        from repro.relational.relation import Relation

        relations = []
        constraints = {}
        for schema_text, deps, rows in self.relations:
            schema, parsed = parse_design(
                "; ".join((schema_text,) + deps) if deps else schema_text
            )
            relations.append(Relation(schema, [tuple(r) for r in rows]))
            constraints[schema.name] = list(parsed)
        instance = PositionedInstance(relations, constraints)
        object.__setattr__(self, "instance", instance)
        return instance

    def position_obj(self) -> Position:
        """The target :class:`~repro.core.positions.Position`."""
        relation, row, attribute = self.position
        return self.resolved_instance().position(relation, row, attribute)

    # ------------------------------------------------------------------
    # shape (pure functions of the IR — the cost model's inputs)
    # ------------------------------------------------------------------

    @property
    def num_positions(self) -> int:
        """Total position count of the instance (the sweep exponent)."""
        return sum(
            len(rows) * (len(rows[0]) if rows else 0)
            for _, _, rows in self.relations
        )

    @property
    def num_dependencies(self) -> int:
        return sum(len(deps) for _, deps, _ in self.relations)

    @property
    def samples_if_sampled(self) -> Optional[int]:
        """``samples`` when the method can sample, else None."""
        if self.method in SAMPLING_METHODS:
            return self.samples
        return None

    # ------------------------------------------------------------------
    # canonical serialization (the cache-key basis)
    # ------------------------------------------------------------------

    def canonical(self) -> dict:
        """The canonical JSON-safe payload (see the module docstring).

        Rows are re-sorted by ``repr``, so the key is independent of row
        presentation order.
        """
        payload = {
            "op": self.op,
            "relations": [
                {
                    "schema": schema,
                    "deps": sorted(deps),
                    "rows": sorted([list(r) for r in rows], key=repr),
                }
                for schema, deps, rows in self.relations
            ],
            "position": list(self.position),
            "method": self.method,
        }
        if self.samples_if_sampled is not None:
            payload["samples"] = self.samples
            payload["seed"] = self.seed
        if self.op == "inf_k":
            payload["k"] = self.k
        return payload

    def canonical_key(self) -> str:
        """The content address of this problem (SHA-256, hex)."""
        return canonical_digest(self.canonical())
