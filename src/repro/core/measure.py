"""The public measure API: the one method → kernel table.

:func:`ric` and :func:`inf_k` map a method name onto its kernel in
:mod:`repro.core`.  They are the only such table in the library: the
planner (:mod:`repro.engine`) chooses a method and calls them with it,
and they also take XML :class:`~repro.xml.measure.PositionedDocument`
instances, which the planner's problem IR cannot express.  A document is
a positioned instance over its lowered XFD tables, so its worlds get the
same oracle, pruning and FD chase as relational ones.

The method names per operation, the ``"auto"`` ladders the planner
walks, and the exact sweeps' size guard are defined here, next to the
table they index.  Each kernel module is imported when its method first
runs, so callers that need only these constants load no kernel.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

if TYPE_CHECKING:
    from repro.core.montecarlo import MCEstimate
    from repro.core.positions import Position, PositionedInstance

#: The exact sweeps' default guard: more than ``EXACT_MAX_POSITIONS + 1``
#: positions (``2^EXACT_MAX_POSITIONS`` revealed sets) is refused.
EXACT_MAX_POSITIONS = 18

#: ``"auto"`` preference ladders per operation: exactness first, the
#: scalable estimator (or the enumeration ground truth) as fallback.
AUTO_LADDERS = {
    "ric": ("exact", "montecarlo"),
    "inf_k": ("symbolic", "bruteforce"),
}

#: Methods accepted per operation (``"auto"`` delegates to the planner).
METHODS = {op: ("auto",) + ladder for op, ladder in AUTO_LADDERS.items()}
RIC_METHODS = METHODS["ric"]
INF_K_METHODS = METHODS["inf_k"]

#: Methods whose answer depends on ``(samples, seed)``: Monte Carlo, and
#: ``"auto"``, which may degrade to it.
SAMPLING_METHODS = ("auto", "montecarlo")


def ladder(op: str, method: str) -> Tuple[str, ...]:
    """The methods a request for *method* may run, in attempt order."""
    return AUTO_LADDERS[op] if method == "auto" else (method,)


def inf_k(
    instance: PositionedInstance,
    p: Position,
    k: int,
    method: str = "symbolic",
    deadline: Optional[float] = None,
) -> float:
    """``INF_I^k(p | Σ)`` in bits.

    *method*: ``"symbolic"`` (exact, pattern counting) or ``"bruteforce"``
    (exact, literal enumeration; tiny instances only).  Past *deadline*
    (a :func:`time.monotonic` value) the kernel raises ``DeadlineExceeded``.
    """
    if method == "symbolic":
        from repro.core.symbolic import inf_k_symbolic

        return inf_k_symbolic(instance, p, k, deadline=deadline)
    if method == "bruteforce":
        from repro.core.bruteforce import inf_k_bruteforce

        return inf_k_bruteforce(instance, p, k, deadline=deadline)
    raise ValueError(f"unknown method {method!r}")


def ric(
    instance: PositionedInstance,
    p: Position,
    method: str = "exact",
    samples: int = 200,
    seed: int = 0,
    pool=None,
    deadline: Optional[float] = None,
) -> Union[Fraction, MCEstimate]:
    """The relative information content ``RIC_I(p | Σ) ∈ [0, 1]``.

    *method*: ``"exact"`` returns a :class:`~fractions.Fraction` (sweeps
    all revealed sets); ``"montecarlo"`` returns an
    :class:`~repro.core.montecarlo.MCEstimate`, deterministic in
    ``(samples, seed)``, and scales to instances the exact sweep cannot
    handle.  Given a *pool* (a :class:`repro.service.pool.WorkerPool`),
    the Monte-Carlo sample range is sharded across it; the estimate is
    bit-identical either way.  *deadline* is as for :func:`inf_k`.
    """
    if method == "exact":
        from repro.core.symbolic import ric_exact

        return ric_exact(instance, p, deadline=deadline)
    if method == "montecarlo":
        from repro.core.montecarlo import ric_montecarlo

        estimate = ric_montecarlo if pool is None else pool.ric_montecarlo
        return estimate(
            instance, p, samples=samples, seed=seed, deadline=deadline
        )
    raise ValueError(f"unknown method {method!r}")


def ric_profile(
    instance: PositionedInstance,
    method: str = "exact",
    samples: int = 200,
    seed: int = 0,
) -> Dict[Position, Union[Fraction, MCEstimate]]:
    """``RIC`` for every position of the instance."""
    return {
        p: ric(instance, p, method=method, samples=samples, seed=seed)
        for p in instance.positions
    }
