"""The public measure API: the one method → kernel table.

:func:`ric` and :func:`inf_k` map a method name onto its kernel in
:mod:`repro.core`.  They are the only such table in the library: the
planner (:mod:`repro.engine`) chooses a method and calls them with it,
and they also take XML :class:`~repro.xml.measure.PositionedDocument`
instances, which the planner's problem IR cannot express.  A document is
a positioned instance over its lowered XFD tables, so its worlds get the
same oracle, pruning and FD chase as relational ones.

The method names per operation, the ``"auto"`` ladders the planner
walks, the kernels' size guards and the worlds each method visits are
defined here, next to the table they index: the kernels refuse by the
guards and the planner skips by them (:func:`refusal`), so a plan never
picks a stage its kernel would refuse.
Each kernel module is imported when its method first runs, so callers
that need only these constants load no kernel.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

if TYPE_CHECKING:
    from repro.core.montecarlo import MCEstimate
    from repro.core.positions import Position, PositionedInstance
    from repro.core.worlds import WorkCounts

#: The exact sweeps' guard: more than ``EXACT_MAX_POSITIONS + 1``
#: positions (``2^EXACT_MAX_POSITIONS`` revealed sets) is refused.
EXACT_MAX_POSITIONS = 18

#: Brute force's ceiling: at most ``BRUTEFORCE_MAX_WORLDS · k``
#: enumerations (see :func:`bruteforce_fits`).
BRUTEFORCE_MAX_WORLDS = 5_000_000

#: The Monte-Carlo sample count of every entry point that is given none.
DEFAULT_SAMPLES = 200


def exact_fits(n: int) -> bool:
    """Does an exact sweep over *n* positions pass the size guard?"""
    return n <= EXACT_MAX_POSITIONS + 1


def bruteforce_fits(n: int, k: int) -> bool:
    """Does brute force over *n* positions at *k* pass its guards?

    It sweeps ``2^(n−1)`` revealed sets and enumerates up to ``k^n``
    completions in each, a rough ``2^(n−1) · k^n`` oracle calls.
    """
    return exact_fits(n) and 2 ** max(0, n - 1) * k**n <= (
        BRUTEFORCE_MAX_WORLDS * max(k, 1)
    )


def worlds_visited(method: str, n: int, samples: int) -> int:
    """The worlds *method* visits over *n* positions: ``samples`` when
    it samples, else every one of the ``2^(n−1)`` revealed sets."""
    return samples if method == "montecarlo" else 2 ** max(0, n - 1)


def refusal(method: str, n: int, k: Optional[int]) -> str:
    """Why *method*'s size guard refuses *n* positions (at *k*), or
    ``""`` when its kernel accepts them."""
    if method in ("exact", "symbolic") and not exact_fits(n):
        return (
            f"{n} positions exceed the exact-sweep budget "
            f"({EXACT_MAX_POSITIONS})"
        )
    if method == "bruteforce" and not bruteforce_fits(n, k or 0):
        try:
            enumerations = float(2 ** max(0, n - 1) * (k or 0) ** n)
        except OverflowError:
            enumerations = float("inf")
        return f"~{enumerations:.0f} enumerations exceed the brute-force budget"
    return ""


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
    counts: Optional[WorkCounts] = None,
) -> float:
    """``INF_I^k(p | Σ)`` in bits.

    *method*: ``"symbolic"`` (exact, pattern counting) or ``"bruteforce"``
    (exact, literal enumeration; tiny instances only).  Past *deadline*
    (a :func:`time.monotonic` value) the kernel raises ``DeadlineExceeded``.
    The kernel adds the work of the worlds it visits into *counts*, when
    given (a :class:`~repro.core.worlds.WorkCounts`).
    """
    if method == "symbolic":
        from repro.core.symbolic import inf_k_symbolic

        return inf_k_symbolic(instance, p, k, deadline=deadline, counts=counts)
    if method == "bruteforce":
        from repro.core.bruteforce import inf_k_bruteforce

        return inf_k_bruteforce(instance, p, k, deadline=deadline, counts=counts)
    raise ValueError(f"unknown method {method!r}")


def ric(
    instance: PositionedInstance,
    p: Position,
    method: str = "exact",
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    pool=None,
    deadline: Optional[float] = None,
    counts: Optional[WorkCounts] = None,
) -> Union[Fraction, MCEstimate]:
    """The relative information content ``RIC_I(p | Σ) ∈ [0, 1]``.

    *method*: ``"exact"`` returns a :class:`~fractions.Fraction` (sweeps
    all revealed sets); ``"montecarlo"`` returns an
    :class:`~repro.core.montecarlo.MCEstimate`, deterministic in
    ``(samples, seed)``, and scales to instances the exact sweep cannot
    handle.  Given a *pool* (a :class:`repro.service.pool.WorkerPool`),
    the Monte-Carlo sample range is sharded across it; the estimate and
    the counts are the same either way.  *deadline* and *counts* are as
    for :func:`inf_k`.
    """
    if method == "exact":
        from repro.core.symbolic import ric_exact

        return ric_exact(instance, p, deadline=deadline, counts=counts)
    if method == "montecarlo":
        from repro.core.montecarlo import ric_montecarlo

        estimate = ric_montecarlo if pool is None else pool.ric_montecarlo
        return estimate(
            instance, p, samples=samples, seed=seed, deadline=deadline,
            counts=counts,
        )
    raise ValueError(f"unknown method {method!r}")


def ric_profile(
    instance: PositionedInstance,
    method: str = "exact",
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> Dict[Position, Union[Fraction, MCEstimate]]:
    """``RIC`` for every position of the instance."""
    return {
        p: ric(instance, p, method=method, samples=samples, seed=seed)
        for p in instance.positions
    }
