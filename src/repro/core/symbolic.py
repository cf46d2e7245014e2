"""The symbolic engine: exact finite-``k`` values and the exact limit.

Built on :mod:`repro.core.patterns`.  For every revealed set ``X``:

- finite ``k``: the satisfying-completion count of each candidate class is
  an exact integer (a polynomial in ``k`` evaluated via falling
  factorials), giving the exact conditional entropy ``H_k(p | X)``;
- the limit: only the leading term of each polynomial matters.  Writing
  ``N_v(k) ~ c_v·k^{d_v}`` for the revealed values and
  ``N_fresh(k) ~ c_g·k^{d_g}`` for a single fresh candidate (of which
  there are ``~k``), the entropy ratio converges to the probability mass
  the fresh continuum carries among the leading-degree classes:

  ``r(X) = c_g·[d_g+1 = D] / (Σ_{v: d_v = D} c_v + c_g·[d_g+1 = D])``

  with ``D = max(max_v d_v, d_g + 1)``.  The relative information content
  is the exact average of ``r(X)`` over all ``X`` — a rational number.

A class's degree is ``erased − δ`` for its minimal deficit ``δ`` (erased
cells that open no fresh block), so the fresh class has degree
``erased − δ_g + 1`` and a fixed class ``erased − δ_v``.  Hence
:func:`world_limit_ratio` decides:

- every dependency an FD: ``r`` is 0 or 1, and the chase of the revealed
  cells decides which without a pattern search — 0 exactly when it puts
  ``p`` in a class holding a revealed cell (DESIGN §2.1, the FD 0/1
  lemma; :mod:`repro.core.fdchase`).

Otherwise it searches the fresh class first:

- no satisfying fresh pattern: ``r = 0``;
- ``δ_g = 0``: no fixed class can reach the fresh degree, ``r = 1``;
- otherwise only fixed classes with ``δ_v ≤ δ_g − 1`` matter, so their
  search is capped there: one with ``δ_v < δ_g − 1`` outranks the fresh
  class (``r = 0``), and those with ``δ_v = δ_g − 1`` tie with it.

The kernels refuse an instance that violates its own ``Σ``
(:func:`require_consistent`): on one, some worlds have no satisfying
class at all.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from itertools import combinations
from typing import Any, Callable, Iterator, List, Optional, Tuple

from repro.core.measure import EXACT_MAX_POSITIONS
from repro.core.patterns import max_fresh, pattern_counts
from repro.core.positions import Position, PositionedInstance
from repro.core.worlds import FRESH, World, check_deadline
from repro.service.metrics import METRICS
from repro.service.trace import TRACER


_ZERO, _ONE = Fraction(0), Fraction(1)


def falling_factorial(n: int, b: int) -> int:
    """``n (n−1) ⋯ (n−b+1)``; 1 when ``b = 0``; 0 when ``n < b``."""
    if b < 0:
        raise ValueError("negative block count")
    result = 1
    for i in range(b):
        result *= n - i
        if result == 0:
            return 0
    return max(result, 0) if n >= b else 0


def require_consistent(instance: PositionedInstance) -> None:
    """Refuse an instance that violates its own ``Σ``.

    The measure is defined only for instances that satisfy ``Σ``; on one
    that does not, some worlds have no satisfying completion at all, and
    a kernel would return a number that means nothing.
    """
    if not instance.check_original():
        raise ValueError(
            "the instance violates its own constraints Σ; "
            "the measure is defined only for instances that satisfy them"
        )


def revealed_subsets(
    instance: PositionedInstance, p: Position
) -> Iterator[frozenset]:
    """All subsets of ``Pos(I) − {p}`` (the measure's outer average)."""
    others = [q for q in instance.positions if q != p]
    for size in range(len(others) + 1):
        for combo in combinations(others, size):
            yield frozenset(combo)


def world_entropy_k(world: World, k: int, deadline: Optional[float] = None) -> float:
    """Exact ``H_k(p | X)`` in bits for the given world."""
    m = len(world.fixed_values)
    if k < m:
        raise ValueError(f"k={k} smaller than the revealed pool ({m})")

    weights: List[Tuple[int, int]] = []  # (count of candidates, N per candidate)
    for v in world.fixed_values:
        counts = pattern_counts(world, v, deadline=deadline)
        n_v = sum(c * falling_factorial(k - m, b) for b, c in counts.items())
        weights.append((1, n_v))
    fresh_counts = pattern_counts(world, FRESH, deadline=deadline)
    n_f = sum(
        c * falling_factorial(k - m - 1, b) for b, c in fresh_counts.items()
    )
    weights.append((k - m, n_f))

    total = sum(mult * n for mult, n in weights)
    if total == 0:
        raise ArithmeticError(
            "no satisfying completion; the instance must satisfy its "
            "constraints and use integer values within [1, k]"
        )
    entropy = 0.0
    for mult, n in weights:
        if mult == 0 or n == 0:
            continue
        prob = n / total
        entropy -= mult * prob * math.log2(prob)
    return entropy


def world_limit_ratio(
    world: World, deadline: Optional[float] = None
) -> Fraction:
    """The exact limit ``lim_k H_k(p|X) / log2 k`` for the given world.

    When every dependency is an FD, the chase decides it: 0 or 1.
    Otherwise the fresh class is searched first; its deficit ``δ_g`` caps
    the search of every fixed class at ``δ_g − 1`` (see the module
    docstring).
    """
    forced = world.forced_by_chase()
    if forced is not None:
        return _ZERO if forced else _ONE
    fresh = max_fresh(world, FRESH, deadline=deadline)
    if fresh is None:
        return _ZERO
    fresh_blocks, fresh_mass = fresh
    cap = world.num_erased - fresh_blocks - 1  # δ_g − 1
    if cap < 0:
        return _ONE
    fixed_mass = 0
    for v in world.fixed_values:
        stat = max_fresh(world, v, deadline=deadline, max_deficit=cap)
        if stat is not None:
            if world.num_erased - stat[0] < cap:
                return _ZERO
            fixed_mass += stat[1]
    return Fraction(fresh_mass, fixed_mass + fresh_mass)


def sweep(
    instance: PositionedInstance,
    p: Position,
    per_world: Callable[..., Any],
    zero: Any,
    engine: str,
    max_positions: int = EXACT_MAX_POSITIONS,
    deadline: Optional[float] = None,
) -> Any:
    """The exact average of ``per_world(world, deadline=deadline)`` over
    every world of ``p``.

    Starts the sum from *zero* (``Fraction(0)`` or ``0.0``) and visits the
    revealed sets in :func:`revealed_subsets` order, so the result is the
    same bit for bit whichever kernel calls it.  The sweep is over
    ``2^(n−1)`` revealed sets; *max_positions* guards the exponent (use
    the Monte-Carlo engine beyond it).  *deadline* is checked per world
    here and inside one by *per_world*.
    """
    n = len(instance.positions)
    if n > max_positions + 1:
        raise ValueError(
            f"{n} positions exceed the exact-sweep budget; "
            "use ric_montecarlo instead"
        )
    require_consistent(instance)
    total = zero
    count = chased = 0
    with TRACER.span("ric.sweep", engine=engine, positions=n) as span:
        for revealed in revealed_subsets(instance, p):
            check_deadline(deadline)
            world = World(instance, p, revealed)
            total += per_world(world, deadline=deadline)
            chased += world.chased
            count += 1
        span.set(worlds=count, chased=chased)
    METRICS.inc("ric.sweeps")
    METRICS.inc("ric.sweep.worlds", count)
    METRICS.inc("ric.worlds.chased", chased)
    return total / count


def inf_k_symbolic(
    instance: PositionedInstance,
    p: Position,
    k: int,
    max_positions: int = EXACT_MAX_POSITIONS,
    deadline: Optional[float] = None,
) -> float:
    """Exact ``INF_I^k(p | Σ)`` in bits (averaged over all revealed sets)."""
    per_world = partial(world_entropy_k, k=k)
    return sweep(instance, p, per_world, 0.0, "entropy_k", max_positions, deadline)


def ric_exact(
    instance: PositionedInstance,
    p: Position,
    max_positions: int = EXACT_MAX_POSITIONS,
    deadline: Optional[float] = None,
) -> Fraction:
    """The exact relative information content ``RIC_I(p | Σ) ∈ [0, 1]``."""
    return sweep(
        instance, p, world_limit_ratio, Fraction(0), "exact", max_positions, deadline
    )
