"""Typed job requests for the batch runtime, with canonical keys.

Three job kinds cover the library's entry points:

- :class:`AdviseJob` — ``repro.advisor.advise`` over a design string;
- :class:`MeasureJob` — ``RIC`` of one position of a concrete instance;
- :class:`RPQJob` — regular path query evaluation over an edge list.

Every job is validated when it is built: a bad design, method, sample
count, seed, or position is a typed :class:`JobSpecError` (taxonomy kind
``validation``) at parse time, carrying its JSONL line number — never a
failure at execution time.

Each job has one content address, :func:`job_key`.  A measure job builds
its :class:`~repro.engine.problem.Problem` once, at construction, and is
keyed by :meth:`~repro.engine.problem.Problem.canonical_key` — the same
problem the runner plans and executes.  Advise and RPQ jobs key on a
canonical payload in which every order-insensitive component (attribute
order in the schema text, dependency order, edge order) is normalized.
Monte-Carlo requests carry ``(samples, seed)`` in their key, so the
deterministic estimator makes a cached value a pure function of the key.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from repro.core.measure import RIC_METHODS, SAMPLING_METHODS
from repro.engine.problem import Problem, canonical_digest
from repro.relational.parser import parse_design
from repro.service.errors import JobError, ValidationError
from repro.service.validate import (
    MAX_SAMPLES,
    check_int,
    check_method,
    check_positive_int,
)


class JobSpecError(ValidationError):
    """A malformed job request (bad kind, missing field, bad value).

    Carries the taxonomy kind ``validation`` by default; JSONL syntax
    failures are raised with ``kind="parse"``.  Remains a ``ValueError``
    for pre-taxonomy callers.
    """


@contextmanager
def _spec_errors():
    """Re-raise a bad field value found while building a job as a
    :class:`JobSpecError`."""
    try:
        yield
    except JobSpecError:
        raise
    except (ValueError, TypeError, IndexError) as exc:
        raise JobSpecError(
            str(exc), details=getattr(exc, "details", None)
        ) from None


@dataclass(frozen=True)
class AdviseJob:
    """Run the schema advisor over *design* notation text."""

    design: str
    measure: bool = True
    method: str = "exact"
    samples: int = 200
    seed: int = 0
    id: Optional[str] = None
    #: The normalized design (schema text, sorted dependency strings).
    _design: Tuple[str, Tuple[str, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        with _spec_errors():
            check_method("method", self.method, RIC_METHODS)
            check_positive_int("samples", self.samples, maximum=MAX_SAMPLES)
            check_int("seed", self.seed)
            schema, deps = parse_design(self.design)
        object.__setattr__(
            self, "_design", (str(schema), tuple(sorted(map(str, deps))))
        )

    @property
    def kind(self) -> str:
        return "advise"

    def canonical(self) -> dict:
        schema, deps = self._design
        payload = {
            "kind": self.kind,
            "schema": schema,
            "deps": list(deps),
            "measure": self.measure,
            "method": self.method,
        }
        # Any method that can sample ("montecarlo", or "auto" degrading
        # to it) must key on (samples, seed) — an exact result may never
        # answer a sampled request with different parameters.
        if self.measure and self.method in SAMPLING_METHODS:
            payload["samples"] = self.samples
            payload["seed"] = self.seed
        return payload

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "design": self.design,
            "measure": self.measure,
            "method": self.method,
            "samples": self.samples,
            "seed": self.seed,
            **({"id": self.id} if self.id is not None else {}),
        }


@dataclass(frozen=True)
class MeasureJob:
    """Measure ``RIC`` of one position of a concrete instance.

    *design* gives the schema and Σ (``"R(A,B,C); B->C"``); *rows* the
    instance tuples in the schema's **sorted** attribute order; *position*
    a ``(row_index, attribute)`` pair over the canonical (sorted-row)
    positioning.  *method* ``"auto"`` lets the planner pick
    exact-vs-Monte-Carlo.  The job's :class:`~repro.engine.problem.Problem`
    is built once, here, and is what the runner keys, plans, and runs.
    """

    design: str
    rows: Tuple[Tuple[Any, ...], ...]
    position: Tuple[int, str]
    method: str = "exact"
    samples: int = 200
    seed: int = 0
    id: Optional[str] = None
    problem: Problem = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        with _spec_errors():
            object.__setattr__(
                self, "rows", tuple(tuple(row) for row in self.rows)
            )
            if not self.rows:
                raise JobSpecError("measure job needs at least one row")
            problem = Problem.from_design(
                self.design,
                self.rows,
                self.position,
                method=self.method,
                samples=self.samples,
                seed=self.seed,
            )
        object.__setattr__(self, "problem", problem)
        object.__setattr__(self, "position", problem.position[1:])

    @property
    def kind(self) -> str:
        return "measure"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "design": self.design,
            "rows": [list(r) for r in self.rows],
            "position": list(self.position),
            "method": self.method,
            "samples": self.samples,
            "seed": self.seed,
            **({"id": self.id} if self.id is not None else {}),
        }


@dataclass(frozen=True)
class RPQJob:
    """Evaluate a regular path query over an edge-list graph.

    *edges* are ``(source, label, target)`` triples; *source* (optional)
    restricts the answer to pairs starting there.
    """

    edges: Tuple[Tuple[Any, str, Any], ...]
    query: str
    source: Optional[Any] = None
    id: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(
            self, "edges", tuple(tuple(e) for e in self.edges)
        )
        for edge in self.edges:
            if len(edge) != 3:
                raise JobSpecError(
                    f"edge must be (source, label, target): {edge!r}"
                )
        if not self.query:
            raise JobSpecError("rpq job needs a query")

    @property
    def kind(self) -> str:
        return "rpq"

    def canonical(self) -> dict:
        return {
            "kind": self.kind,
            "edges": sorted([list(e) for e in self.edges], key=repr),
            "query": self.query,
            "source": self.source,
        }

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "edges": [list(e) for e in self.edges],
            "query": self.query,
            **({"source": self.source} if self.source is not None else {}),
            **({"id": self.id} if self.id is not None else {}),
        }


Job = Any  # AdviseJob | MeasureJob | RPQJob (3.10-friendly alias)

_KINDS = {"advise": AdviseJob, "measure": MeasureJob, "rpq": RPQJob}


def job_key(job: Job) -> str:
    """The content address of *job*: its problem's
    :meth:`~repro.engine.problem.Problem.canonical_key` for a measure
    job, else the SHA-256 of its canonical payload."""
    if isinstance(job, MeasureJob):
        return job.problem.canonical_key()
    return canonical_digest(job.canonical())


def job_from_dict(data: dict) -> Job:
    """Build a job from a decoded JSONL record (``kind`` selects the type)."""
    if not isinstance(data, dict):
        raise JobSpecError(
            f"job record must be an object, got {type(data).__name__}"
        )
    kind = data.get("kind")
    cls = _KINDS.get(kind)
    if cls is None:
        raise JobSpecError(
            f"unknown job kind {kind!r} (expected one of {sorted(_KINDS)})"
        )
    fields = {k: v for k, v in data.items() if k != "kind"}
    try:
        return cls(**fields)
    except TypeError as exc:
        raise JobSpecError(f"bad {kind} job: {exc}") from None


def _parse_line(lineno: int, line: str) -> Job:
    """Decode and validate one JSONL line (typed, line-numbered errors)."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise JobSpecError(
            f"line {lineno}: invalid JSON ({exc})",
            kind="parse",
            details={"line": lineno},
        ) from None
    try:
        return job_from_dict(record)
    except JobSpecError as exc:
        raise JobSpecError(
            f"line {lineno}: {exc}",
            kind=exc.kind,
            details={**exc.details, "line": lineno},
        ) from None


def parse_jsonl(text: str):
    """Parse a JSONL job file into a job list, failing on the first bad
    line (line numbers in errors).  See :func:`parse_jsonl_lenient` for
    the fault-tolerant variant the batch runner uses."""
    return [
        job
        for _, job, error in parse_jsonl_lenient(text, _strict=True)
        if error is None
    ]


def parse_jsonl_lenient(
    text: str, _strict: bool = False
) -> List[Tuple[int, Optional[Job], Optional[JobSpecError]]]:
    """Parse a JSONL job file, reporting bad lines instead of aborting.

    Returns ``(lineno, job, error)`` triples in line order — exactly one
    of ``job``/``error`` is set per triple.  A malformed line therefore
    costs one failed entry in the batch report, never the batch.
    """
    records: List[Tuple[int, Optional[Job], Optional[JobError]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            records.append((lineno, _parse_line(lineno, line), None))
        except JobError as exc:
            if _strict:
                raise
            records.append((lineno, None, exc))
    return records
