"""Equality-pattern enumeration for the symbolic engine.

FDs, MVDs, JDs and XFDs are *generic*: satisfaction is invariant under
permutations of the domain.  Hence, for a fixed world and candidate class,
the set of satisfying completions over ``[k]`` splits into equality
patterns: each erased position is labeled either with one of the fixed
values (revealed pool ∪ candidate) or with one of ``b`` pairwise-distinct
fresh values.  A pattern with ``b`` fresh blocks accounts for exactly
``(k−m)(k−m−1)⋯(k−m−b+1)`` completions, where ``m`` is the number of
distinct fixed values — so satisfying-completion counts are polynomials in
``k`` and the ``k → ∞`` limit of the entropy ratio is computable exactly.

Two enumerators:

- :func:`pattern_counts` — all satisfying patterns grouped by ``b``
  (exact finite-``k`` counts; cost grows like an augmented Bell number of
  the erased-position count, so it is guarded).
- :func:`max_fresh` — only the maximum ``b`` and how many patterns attain
  it (the leading term of the polynomial; branch-and-bound pruned, fast in
  the common all-fresh-satisfiable case).  Its ``max_deficit`` cap lets
  :func:`repro.core.symbolic.world_limit_ratio` stop a fixed class's
  search at the one deficit that can still change the world's ratio.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.worlds import FRESH, FreshValue, Unknown, World, check_deadline


class PatternBudgetExceeded(RuntimeError):
    """Raised when pattern enumeration would exceed the configured budget."""


def pattern_counts(
    world: World,
    candidate: Any,
    max_leaves: int = 2_000_000,
    deadline: Optional[float] = None,
) -> Dict[int, int]:
    """Count satisfying patterns by number of fresh blocks.

    Returns ``{b: count}`` for the given candidate class.  *max_leaves*
    bounds the number of leaf oracle calls (raises
    :class:`PatternBudgetExceeded` beyond it); *deadline* is checked at
    every node, as in :func:`max_fresh`.
    """
    fixed_labels: List[Any] = list(world.fixed_values)
    if candidate is FRESH:
        fixed_labels.append(FRESH)

    erased = world.num_erased
    assignment: List[Any] = [None] * erased
    counts: Dict[int, int] = {}
    leaves = [0]

    def recurse(i: int, blocks: int) -> None:
        if deadline is not None:
            check_deadline(deadline)
        if i == erased:
            leaves[0] += 1
            if leaves[0] > max_leaves:
                raise PatternBudgetExceeded(
                    f"more than {max_leaves} patterns for world "
                    f"(erased={erased})"
                )
            if world.satisfies(candidate, assignment):
                counts[blocks] = counts.get(blocks, 0) + 1
            return
        for label in fixed_labels:
            assignment[i] = label
            recurse(i + 1, blocks)
        for block in range(blocks):
            assignment[i] = FreshValue(block)
            recurse(i + 1, blocks)
        assignment[i] = FreshValue(blocks)
        recurse(i + 1, blocks + 1)
        assignment[i] = None

    recurse(0, 0)
    return counts


def max_fresh(
    world: World,
    candidate: Any,
    prune: bool = True,
    deadline: Optional[float] = None,
    max_deficit: Optional[int] = None,
) -> Optional[Tuple[int, int]]:
    """The leading term of the satisfying-pattern polynomial.

    Returns ``(d, c)``: the maximum number of fresh blocks ``d`` over
    satisfying patterns and the number ``c`` of patterns attaining it, or
    ``None`` if no pattern satisfies the constraints.  With *max_deficit*
    the deepening stops there: ``None`` then also means that every
    satisfying pattern has a deficit above the cap.

    Iterative deepening on the *deficit* (number of erased positions not
    opening a fresh block): a pattern with deficit ``δ`` has
    ``b = erased − δ`` fresh blocks, and constraint forcing pins only a
    few cells in practice, so the search is exponential in ``δ`` only.
    Deficit 0 is the all-distinct completion — a single oracle call in the
    common well-designed case.

    ``prune=False`` disables the certain-violation subtree pruning — kept
    only for the ablation benchmark (``bench_a01``); results must be
    identical either way.

    *deadline* is checked at every node, not only at leaves: pruning
    cuts most subtrees before they reach one.
    """
    fixed_labels: List[Any] = list(world.fixed_values)
    if candidate is FRESH:
        fixed_labels.append(FRESH)
    erased = world.num_erased
    unknowns = [Unknown(i) for i in range(erased)]
    assignment: List[Any] = list(unknowns)
    fresh = [FreshValue(b) for b in range(erased)]

    # Cell 0 of the world is p, cell i + 1 is erased[i]; each check assigns one.
    prune = prune and world.prunable
    violated = world.certainly_violated
    if prune and violated(0, candidate):
        return None  # violated whatever the completion: dead class

    def count_at_deficit(budget: int) -> int:
        found = [0]

        def recurse(i: int, blocks: int, spent: int) -> None:
            if deadline is not None:  # spare the call on every node
                check_deadline(deadline)
            if i == erased:
                if spent == budget and world.satisfies(candidate, assignment):
                    found[0] += 1
                return
            # New fresh block: free.
            value = assignment[i] = fresh[blocks]
            if not (prune and violated(i + 1, value)):
                recurse(i + 1, blocks + 1, spent)
            # Reusing a block or taking a fixed label costs one deficit;
            # skip when the budget cannot be met exactly anyway.  Patterns
            # that underspend are produced by smaller budgets, so the leaf
            # requires spent == budget — no double counting across rounds.
            if spent < budget:
                for value in fresh[:blocks] + fixed_labels:
                    assignment[i] = value
                    if not (prune and violated(i + 1, value)):
                        recurse(i + 1, blocks, spent + 1)
            assignment[i] = unknowns[i]

        recurse(0, 0, 0)
        return found[0]

    last = erased if max_deficit is None else min(erased, max_deficit)
    for deficit in range(last + 1):
        count = count_at_deficit(deficit)
        if count:
            return erased - deficit, count
    return None
