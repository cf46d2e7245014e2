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

Otherwise it searches the fresh class first.  Only a tie needs a
count; every other exit needs only to know whether a class has a
pattern, and those searches stop at their first satisfying leaf
(DESIGN §2.1, "Counting only on a tie"):

- no satisfying fresh pattern: ``r = 0``;
- ``δ_g = 0``: no fixed class can reach the fresh degree, ``r = 1``;
- otherwise only fixed classes with ``δ_v ≤ δ_g − 1`` matter, so their
  search is capped there: one with ``δ_v < δ_g − 1`` outranks the fresh
  class (``r = 0``), and only those with ``δ_v = δ_g − 1`` are counted,
  at that deficit alone.  On a relational instance a fixed value that
  no revealed cell of ``p``'s column holds has ``δ_v ≥ δ_g`` and is not
  searched (DESIGN §2.1, "Column-local search");
- no fixed class ties: the fresh class is alone at the top degree,
  ``r = 1``;
- some tie: the fresh class's patterns at ``δ_g`` are counted too, and
  ``r = c_g / (c_g + Σ c_v)``.

The kernels refuse an instance that violates its own ``Σ``
(:func:`require_consistent`): on one, some worlds have no satisfying
class at all.  They sum the work each world counted with
:class:`WorkCounts`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from itertools import combinations
from typing import Any, Callable, Iterator, List, Optional, Tuple

from repro.core.measure import exact_fits
from repro.core.patterns import deficit_walker, least_deficit, pattern_counts
# Re-exported: perfbench's ``pattern`` hook wraps it here by name.
from repro.core.patterns import max_fresh  # noqa: F401
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


class WorkCounts:
    """The work tallies of the worlds a kernel visited, summed.

    :meth:`add` folds in one world; :meth:`record` writes the sums to the
    kernel's span and to the registry (``ric.worlds.chased``,
    ``ric.oracle.calls``, ``ric.prune.calls``, ``ric.prune.hits``,
    ``ric.pattern.leaves``, ``ric.pattern.deficit``), so they are counted
    with tracing on or off.  The fresh classes' least deficits are summed
    (``deficit_sum``) and their maximum kept (``deficit_max``, on the span
    only: registry counters add).
    """

    __slots__ = ("worlds", "chased", "oracle_calls", "prune_calls", "prune_hits",
                 "leaves", "deficit_sum", "deficit_max")

    def __init__(self) -> None:
        self.worlds = self.chased = self.oracle_calls = 0
        self.prune_calls = self.prune_hits = self.leaves = 0
        self.deficit_sum = self.deficit_max = 0

    def add(self, world: World) -> None:
        self.worlds += 1
        self.chased += world.chased
        self.oracle_calls += world.oracle_calls
        self.prune_calls += world.prune_calls
        self.prune_hits += world.prune_hits
        self.leaves += world.leaves
        if world.deficit is not None:
            self.deficit_sum += world.deficit
            self.deficit_max = max(self.deficit_max, world.deficit)

    def record(self, span) -> None:
        span.set(
            worlds=self.worlds,
            chased=self.chased,
            oracle_calls=self.oracle_calls,
            prune_calls=self.prune_calls,
            prune_hits=self.prune_hits,
            leaves=self.leaves,
            deficit_sum=self.deficit_sum,
            deficit_max=self.deficit_max,
        )
        METRICS.inc("ric.worlds.chased", self.chased)
        METRICS.inc("ric.oracle.calls", self.oracle_calls)
        METRICS.inc("ric.prune.calls", self.prune_calls)
        METRICS.inc("ric.prune.hits", self.prune_hits)
        METRICS.inc("ric.pattern.leaves", self.leaves)
        METRICS.inc("ric.pattern.deficit", self.deficit_sum)


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
    Otherwise the fresh class is searched first, and its least deficit
    ``δ_g`` is recorded in ``world.deficit``; it caps the search of every
    fixed class at ``δ_g − 1``, and patterns are counted only on a tie at
    the cap (see the module docstring).
    """
    forced = world.forced_by_chase()
    if forced is not None:
        return _ZERO if forced else _ONE
    fresh = deficit_walker(world, FRESH, deadline=deadline)
    fresh_deficit = world.deficit = least_deficit(fresh, world.num_erased)
    if fresh_deficit is None:
        return _ZERO
    if fresh_deficit == 0:
        return _ONE
    cap = fresh_deficit - 1
    columns = world.columns
    fixed_mass = 0
    for v in world.fixed_values:
        if columns is not None and v not in columns[1][0]:
            continue  # no revealed cell of p's column holds v: δ_v ≥ δ_g
        search = deficit_walker(world, v, deadline=deadline, max_deficit=cap)
        if least_deficit(search, cap - 1) is not None:
            return _ZERO
        if search is not None:
            fixed_mass += search[1](cap, cap).get(cap, 0)
    if not fixed_mass:
        return _ONE
    fresh_mass = fresh[1](fresh_deficit, fresh_deficit)[fresh_deficit]
    return Fraction(fresh_mass, fixed_mass + fresh_mass)


def sweep(
    instance: PositionedInstance,
    p: Position,
    per_world: Callable[..., Any],
    zero: Any,
    engine: str,
    deadline: Optional[float] = None,
) -> Any:
    """The exact average of ``per_world(world, deadline=deadline)`` over
    every world of ``p``.

    Starts the sum from *zero* (``Fraction(0)`` or ``0.0``) and visits the
    revealed sets in :func:`revealed_subsets` order, so the result is the
    same bit for bit whichever kernel calls it.  The sweep is over
    ``2^(n−1)`` revealed sets; :func:`repro.core.measure.exact_fits`
    guards the exponent (use the Monte-Carlo engine beyond it).
    *deadline* is checked per world here and inside one by *per_world*.
    """
    n = len(instance.positions)
    if not exact_fits(n):
        raise ValueError(
            f"{n} positions exceed the exact-sweep budget; "
            "use ric_montecarlo instead"
        )
    require_consistent(instance)
    total = zero
    counts = WorkCounts()
    with TRACER.span("ric.sweep", engine=engine, positions=n) as span:
        for revealed in revealed_subsets(instance, p):
            check_deadline(deadline)
            world = World(instance, p, revealed)
            total += per_world(world, deadline=deadline)
            counts.add(world)
        counts.record(span)
    METRICS.inc("ric.sweeps")
    METRICS.inc("ric.sweep.worlds", counts.worlds)
    return total / counts.worlds


def inf_k_symbolic(
    instance: PositionedInstance,
    p: Position,
    k: int,
    deadline: Optional[float] = None,
) -> float:
    """Exact ``INF_I^k(p | Σ)`` in bits (averaged over all revealed sets)."""
    per_world = partial(world_entropy_k, k=k)
    return sweep(instance, p, per_world, 0.0, "entropy_k", deadline)


def ric_exact(
    instance: PositionedInstance,
    p: Position,
    deadline: Optional[float] = None,
) -> Fraction:
    """The exact relative information content ``RIC_I(p | Σ) ∈ [0, 1]``."""
    return sweep(instance, p, world_limit_ratio, Fraction(0), "exact", deadline)
