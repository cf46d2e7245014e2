"""The brute-force engine: literal enumeration over ``[k]``.

Ground truth for validating the symbolic engine on tiny instances.  Every
revealed set ``X``, every candidate value ``a ∈ [k]`` and every completion
in ``[k]^(#erased)`` is enumerated and checked against the constraints.
Exponential in everything — guarded accordingly.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import product
from typing import Optional

from repro.core.measure import bruteforce_fits
from repro.core.positions import Position, PositionedInstance
from repro.core.symbolic import sweep
from repro.core.worlds import World, WorkCounts, check_deadline


def world_entropy_k_bruteforce(
    world: World, k: int, deadline: Optional[float] = None
) -> float:
    """``H_k(p | X)`` by literal enumeration (values are ``1..k``).

    *deadline* is checked per completion: one world alone enumerates
    ``k^(e+1)`` of them.
    """
    counts = {}
    domain = range(1, k + 1)
    for a in domain:
        n_a = 0
        for completion in product(domain, repeat=world.num_erased):
            check_deadline(deadline)
            if world.satisfies(a, completion):
                n_a += 1
        counts[a] = n_a
    total = sum(counts.values())
    if total == 0:
        raise ArithmeticError(
            "no satisfying completion; instance values must lie in [1, k]"
        )
    entropy = 0.0
    for n_a in counts.values():
        if n_a:
            prob = n_a / total
            entropy -= prob * math.log2(prob)
    return entropy


def inf_k_bruteforce(
    instance: PositionedInstance,
    p: Position,
    k: int,
    deadline: Optional[float] = None,
    counts: Optional[WorkCounts] = None,
) -> float:
    """Exact ``INF_I^k(p | Σ)`` by literal enumeration.

    Refuses an instance past :func:`repro.core.measure.bruteforce_fits`,
    so an accidental large run cannot hang.  The sweep itself (its
    consistency check, deadline, counts) is :func:`repro.core.symbolic.sweep`.
    """
    n = len(instance.positions)
    if not bruteforce_fits(n, k):
        raise ValueError(
            f"brute force over {n} positions at k={k} is out of budget; "
            "use the symbolic engine"
        )
    per_world = partial(world_entropy_k_bruteforce, k=k)
    return sweep(instance, p, per_world, 0.0, deadline, counts)
