"""The structured error taxonomy for the batch runtime.

Every failure inside the service layer is mapped to one of five **kinds**
so that callers (and downstream tooling reading batch reports) can react
mechanically instead of string-matching messages:

========== ===========================================================
kind        meaning
========== ===========================================================
parse       a job line was not valid JSON
validation  a decoded record or CLI option violated an invariant
budget      a per-job budget ladder was exhausted (see ``budget.py``)
worker_crash a pool worker or executor died mid-flight (transient)
internal    any other exception escaping a job (the former blanket
            ``except Exception`` in the runner)
========== ===========================================================

:class:`JobError` carries the kind, a machine-readable ``code``, extra
``details``, and the formatted traceback of the causing exception; its
:meth:`JobError.to_dict` is the JSON shape embedded in batch results.
:func:`classify` maps arbitrary exceptions onto kinds and
:func:`from_exception` wraps them, preserving structured payloads such
as :class:`repro.service.budget.BudgetExceeded`'s stage history.

The transient kinds are the ones a rerun can cure.  The only rerun is
the worker pool's: it resubmits a chunk that failed transiently — in
practice a chunk a dead worker lost
(:meth:`repro.service.pool.WorkerPool.map_retrying`).  Every other kind
is deterministic, so a retry would only repeat it.
"""

from __future__ import annotations

import traceback as _tb
from typing import Any, Dict, Optional, Tuple

#: Every error kind in the taxonomy, in documentation order.
KINDS: Tuple[str, ...] = (
    "parse",
    "validation",
    "budget",
    "worker_crash",
    "internal",
)

#: Kinds that are transient by nature — retrying them can succeed.
TRANSIENT_KINDS = frozenset({"worker_crash"})


class JobError(Exception):
    """A typed service-layer failure with a JSON-safe rendering.

    ``kind`` selects the taxonomy bucket (default per subclass);
    ``code`` is a short machine-readable discriminator (defaults to the
    causing exception's class name, or the kind); ``details`` merge into
    the serialized payload; ``cause`` donates its traceback.
    """

    default_kind = "internal"

    def __init__(
        self,
        message: str,
        *,
        kind: Optional[str] = None,
        code: Optional[str] = None,
        details: Optional[Dict[str, Any]] = None,
        cause: Optional[BaseException] = None,
    ):
        super().__init__(message)
        kind = kind or self.default_kind
        if kind not in KINDS:
            raise ValueError(
                f"unknown error kind {kind!r} (expected one of {KINDS})"
            )
        self.kind = kind
        self.message = str(message)
        self.code = code or (type(cause).__name__ if cause is not None else kind)
        self.details: Dict[str, Any] = dict(details or {})
        self.traceback: Optional[str] = None
        if cause is not None and cause.__traceback__ is not None:
            self.traceback = "".join(
                _tb.format_exception(type(cause), cause, cause.__traceback__)
            )

    @property
    def transient(self) -> bool:
        """Whether this kind is conventionally retryable."""
        return self.kind in TRANSIENT_KINDS

    def to_dict(self) -> dict:
        """The JSON-safe error payload embedded in batch results.

        Always carries ``kind``/``error``/``message``/``retryable``;
        ``details`` merge on top (so a budget error keeps its ``stages``
        at the top level, where pre-taxonomy reports had them), and the
        causing exception's ``traceback`` follows when there was one.
        """
        payload: Dict[str, Any] = {
            "kind": self.kind,
            "error": self.code,
            "message": self.message,
            "retryable": self.transient,
        }
        payload.update(self.details)
        if self.traceback is not None:
            payload["traceback"] = self.traceback
        return payload

    # Exceptions pickle through (cls, self.args); kind/details would be
    # lost crossing a process pool without explicit state.
    def __reduce__(self):
        return (_rebuild, (type(self), self.message, self.__dict__.copy()))


def _rebuild(cls, message, state):
    err = JobError.__new__(cls)
    Exception.__init__(err, message)
    err.__dict__.update(state)
    return err


class ValidationError(JobError, ValueError):
    """A well-formed but invalid request, option, or invariant breach."""

    default_kind = "validation"


def classify(exc: BaseException) -> str:
    """The taxonomy kind of an arbitrary exception."""
    from concurrent.futures import BrokenExecutor
    from json import JSONDecodeError

    if isinstance(exc, JobError):
        return exc.kind
    from repro.service.budget import BudgetExceeded

    if isinstance(exc, BudgetExceeded):
        return "budget"
    if isinstance(exc, BrokenExecutor):
        return "worker_crash"
    if isinstance(exc, JSONDecodeError):
        return "parse"
    return "internal"


def from_exception(exc: BaseException) -> JobError:
    """Wrap *exc* as a :class:`JobError` (pass-through if it is one).

    Structured exceptions keep their payload: a ``BudgetExceeded``'s
    ``to_dict()`` (stage history, elapsed, budget) lands in ``details``
    so batch reports retain the exact pre-taxonomy shape under the new
    ``kind``/``retryable``/``traceback`` envelope.
    """
    if isinstance(exc, JobError):
        return exc
    resolved = classify(exc)
    details: Dict[str, Any] = {}
    if resolved == "budget" and hasattr(exc, "to_dict"):
        details = dict(exc.to_dict())
    return JobError(
        str(exc) or type(exc).__name__,
        kind=resolved,
        details=details,
        cause=exc,
    )
