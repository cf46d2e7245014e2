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

One walker, :func:`deficit_walker`, enumerates the patterns of a class by
their *deficit* (erased positions opening no fresh block, so ``b =
erased − deficit``), cutting certainly violated prefixes.  Its callers:

- :func:`pattern_counts` — all satisfying patterns grouped by ``b``
  (exact finite-``k`` counts; one walk over every deficit, whose cost
  grows like an augmented Bell number of the erased-position count, so it
  is guarded).
- :func:`max_fresh` — only the maximum ``b`` and how many patterns attain
  it (the leading term of the polynomial; one walk per deficit from the
  floor up, fast in the common all-fresh-satisfiable case).
- :func:`least_deficit` — only the least deficit, each walk stopping at
  its first satisfying leaf.  :func:`repro.core.symbolic.world_limit_ratio`
  decides most worlds by it and counts patterns only where a fixed class
  ties the fresh one; the walker's ``max_deficit`` cap stops a fixed
  class's search at the one deficit that can still change the ratio.

A walk no higher than the class's least deficit, on a relational
instance, offers each cell only the labels of its own column: every
pattern at the least deficit keeps its labels column-local (DESIGN §2.1,
"Column-local search").  :func:`pattern_counts` needs every deficit, so
its walk keeps every label.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.worlds import FRESH, FreshValue, Unknown, World, check_deadline


class PatternBudgetExceeded(RuntimeError):
    """Raised when pattern enumeration would exceed the configured budget."""


class _FirstLeaf(Exception):
    """Ends a walk asked for its first satisfying leaf once it has one."""


Search = Tuple[int, Callable[..., Dict[int, int]]]


@lru_cache(maxsize=64)
def _cells(n: int) -> Tuple[Tuple[Unknown, ...], Tuple[FreshValue, ...], Tuple[int, ...]]:
    """The unknown and the fresh sentinels of *n* erased cells, and their
    column numbers when every cell shares one pool, built once per size."""
    return (
        tuple(Unknown(i) for i in range(n)),
        tuple(FreshValue(b) for b in range(n)),
        (0,) * n,
    )


def deficit_walker(
    world: World,
    candidate: Any,
    prune: bool = True,
    deadline: Optional[float] = None,
    max_leaves: Optional[int] = None,
    max_deficit: Optional[int] = None,
) -> Optional[Search]:
    """The pattern search of one candidate class, split by deficit.

    Returns ``None`` for a dead class (violated whatever the completion,
    or, given *max_deficit*, by every pattern within it), else ``(floor,
    walk)``: every satisfying pattern has a deficit of at least *floor*
    (at most *max_deficit*), and ``walk(low, high)`` counts the satisfying
    patterns whose deficit lies in ``[low, high]`` and returns ``{deficit:
    count}``; ``walk(low, high, first=True)`` stops at the first one and
    returns ``{its deficit: 1}``, or ``{}``.  Each walk visits the patterns
    in the same order: a new fresh block first (free), then a reused block
    or a fixed label (one deficit each).  It cuts a prefix that is
    certainly violated, that must spend more than ``high`` (see
    :mod:`repro.core.pruning`), or whose cells left cannot reach ``low``.

    Two more cuts keep the walks short (DESIGN §2.1, "Column-local
    search"):

    - a walk at deficit 0 has one path, every erased cell a new block: it
      makes one check of the complete assignment;
    - once the walks below ``high`` have found nothing, ``high`` is at
      most the class's least deficit, and when every position is one
      table cell (:attr:`World.columns`) a cell is offered only the blocks
      opened in its column and the fixed labels its column holds (the
      candidate in ``p``'s): every pattern at the least deficit is one of
      those.

    Each walk first assigns the candidate to ``p`` again (cell 0 of the
    world's pruning state, which every search of the world shares), so
    the walks of several classes of one world may interleave.

    Every leaf reached counts in ``world.leaves``.  When the instance's
    pruning state decides leaves (every dependency an FD, an MVD or a
    two-component JD over its whole schema; DESIGN §2.1, the leaf lemma),
    a leaf the pruned walk reaches satisfies ``Σ`` and is counted without
    the oracle (at deficit 0, only when its one check passes); otherwise
    the oracle decides it.

    ``prune=False`` disables the pruning state and the column-local
    labels — kept only for the ablation benchmark (``bench_a01``), with
    *floor* 0 and the oracle at every leaf; results must be identical
    either way.  *deadline* is checked at every node, not only at leaves:
    pruning cuts most subtrees before they reach one.  *max_leaves*
    bounds the leaves reached over all walks (raises
    :class:`PatternBudgetExceeded` beyond it).
    """
    fixed_labels: Tuple[Any, ...] = world.fixed_values
    if candidate is FRESH:
        fixed_labels += (FRESH,)
    erased = world.num_erased
    unknowns, fresh, one_pool = _cells(erased)
    assignment: List[Any] = list(unknowns)
    first_leaf = world.leaves

    # Cell 0 of the world is p, cell i + 1 is erased[i]; each check assigns
    # one, and cuts when the cells after it must spend more than its budget.
    violated = world.certainly_violated
    decided = prune and world.instance.pruning_decides_leaves
    floor = 0
    # The root's bound is the floor: the least budget it passes (0 mostly).
    cap = erased if max_deficit is None else min(erased, max_deficit)
    if prune and violated(0, candidate, 0):
        if cap == 0 or violated(0, candidate, cap):
            return None
        floor = 1
        while violated(0, candidate, floor):
            floor += 1

    # Each cell's column (its block pool) and each column's labels: one
    # pool and every label, or, column-local, a pool per column and the
    # labels the column holds.
    every_label = (one_pool, (fixed_labels,))
    local = every_label
    columns = world.columns if prune else None
    if columns is not None:
        of_cell, held = columns
        local = of_cell, tuple(
            tuple(v for v in fixed_labels if v in values or (c == 0 and v == candidate))
            for c, values in enumerate(held)
        )
    # No satisfying pattern has a deficit below ``least``: the walks up
    # to it found none.
    least = floor

    def leaf() -> None:
        world.leaves += 1
        if max_leaves is not None and world.leaves - first_leaf > max_leaves:
            raise PatternBudgetExceeded(
                f"more than {max_leaves} patterns for world (erased={erased})"
            )

    def walk(low: int, high: int, first: bool = False) -> Dict[int, int]:
        nonlocal least
        found: Dict[int, int] = {}
        if high < floor:
            return found
        if high == 0 and erased:
            # One path: every erased cell a new block, checked once.
            if not prune or world.passes_full_check(candidate, fresh):
                leaf()
                if decided or world.satisfies(candidate, fresh):
                    found[0] = 1
        else:
            cell_column, labels = local if high <= least else every_label
            opened = [0] * len(labels)

            def recurse(i: int, spent: int) -> None:
                # Invariant: spent + (erased - i) >= low, so every leaf
                # reached lies in [low, high].
                if deadline is not None:  # spare the call on every node
                    check_deadline(deadline)
                if i == erased:
                    leaf()
                    if decided or world.satisfies(candidate, assignment):
                        found[spent] = found.get(spent, 0) + 1
                        if first:
                            raise _FirstLeaf
                    return
                column = cell_column[i]
                blocks = opened[column]
                # New fresh block: free, if the cells after it can still
                # spend up to ``low``.
                if spent + erased - i > low:
                    value = assignment[i] = fresh[blocks]
                    if not (prune and violated(i + 1, value, high - spent)):
                        opened[column] = blocks + 1
                        recurse(i + 1, spent)
                        opened[column] = blocks
                # Reusing a block or taking a fixed label costs one deficit.
                if spent < high:
                    for value in fresh[:blocks] + labels[column]:
                        assignment[i] = value
                        if not (prune and violated(i + 1, value, high - spent - 1)):
                            recurse(i + 1, spent + 1)
                assignment[i] = unknowns[i]

            if prune:  # the root state the floor check passed
                world.assign(0, candidate)
            try:
                recurse(0, 0)
            except _FirstLeaf:
                pass
            # recurse refers to itself: drop the cycle, so the world it
            # holds is freed with its last reference, not by the collector.
            del recurse
        if not found and low <= least:
            least = max(least, high + 1)
        return found

    return floor, walk


def pattern_counts(
    world: World,
    candidate: Any,
    max_leaves: int = 2_000_000,
    deadline: Optional[float] = None,
) -> Dict[int, int]:
    """Count satisfying patterns by number of fresh blocks.

    Returns ``{b: count}`` for the given candidate class.  *max_leaves*
    bounds the number of leaves reached (raises
    :class:`PatternBudgetExceeded` beyond it); *deadline* is checked at
    every node, as in :func:`max_fresh`.
    """
    search = deficit_walker(world, candidate, deadline=deadline, max_leaves=max_leaves)
    if search is None:
        return {}
    _floor, walk = search
    erased = world.num_erased
    return {erased - deficit: c for deficit, c in walk(0, erased).items()}


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

    Iterative deepening on the deficit: a pattern with deficit ``δ`` has
    ``b = erased − δ`` fresh blocks, and constraint forcing pins only a
    few cells in practice, so the search is exponential in ``δ`` only.
    The deepening starts at the walker's floor, the deficit the root
    state already forces; deficit 0 is the all-distinct completion, one
    check of the complete assignment (one pruning check, plus an oracle
    call where the pruning state does not decide leaves).  Each level
    is walked only after every level below it found nothing, so it walks
    column-local labels (see :func:`deficit_walker`).  *prune* and
    *deadline* are as in :func:`deficit_walker`.
    """
    search = deficit_walker(world, candidate, prune, deadline, max_deficit=max_deficit)
    if search is None:
        return None
    floor, walk = search
    erased = world.num_erased
    last = erased if max_deficit is None else min(erased, max_deficit)
    for deficit in range(floor, last + 1):
        count = walk(deficit, deficit).get(deficit)
        if count:
            return erased - deficit, count
    return None


def least_deficit(search: Optional[Search], last: int) -> Optional[int]:
    """The least deficit, up to *last*, of a satisfying pattern of the
    :func:`deficit_walker` *search*, or ``None``.

    Deepening as in :func:`max_fresh`, but each walk stops at its first
    satisfying leaf: existence needs no count.
    """
    if search is None:
        return None
    floor, walk = search
    for deficit in range(floor, last + 1):
        if walk(deficit, deficit, first=True):
            return deficit
    return None
