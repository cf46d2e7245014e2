"""Possible-worlds templates: one per (position, revealed set) pair.

A :class:`World` fixes the measured position ``p`` and the revealed set
``X``; it knows the revealed value pool, the erased positions, and exposes
a satisfaction oracle over ``(candidate value at p, values at erased
positions)``.  Engines differ only in how they enumerate or count the
satisfying completions of a world.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import monotonic
from typing import TYPE_CHECKING, Any, FrozenSet, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # positions imports the sentinels below
    from repro.core.positions import Position, PositionedInstance


class DeadlineExceeded(TimeoutError):
    """A kernel ran past the deadline its caller gave it."""


def check_deadline(deadline: Optional[float]) -> None:
    """Raise :class:`DeadlineExceeded` once :func:`time.monotonic` (a
    system-wide clock, so worker processes share it) passes *deadline*."""
    if deadline is not None and monotonic() > deadline:
        raise DeadlineExceeded()


@dataclass(frozen=True)
class FreshValue:
    """A symbolic domain value distinct from every concrete value.

    Generic constraints (FDs/MVDs/JDs/XFDs) only inspect equalities, so a
    completion that uses "some value outside the revealed pool" can be
    represented by a sentinel; two sentinels with different tags stand for
    two distinct fresh values.
    """

    tag: int

    def __repr__(self) -> str:
        return f"*{self.tag}"


#: Sentinel tag for the candidate value itself when it is fresh.
CANDIDATE_TAG = -1

#: The candidate-class marker for "a fresh value not in the revealed pool".
FRESH = FreshValue(CANDIDATE_TAG)


@dataclass(frozen=True)
class Unknown:
    """A not-yet-assigned cell in a partial pattern.

    Three-valued dependency checks treat :class:`Unknown` cells as
    wildcards: a violation is *certain* only if it holds for every way of
    concretizing them.  Used by the pattern search to prune doomed
    subtrees soundly.
    """

    tag: int

    def __repr__(self) -> str:
        return f"?{self.tag}"


class World:
    """The possible-worlds template for measuring ``p`` after revealing ``X``."""

    def __init__(
        self,
        instance: PositionedInstance,
        p: Position,
        revealed: FrozenSet[Position],
    ):
        if p in revealed:
            raise ValueError("the measured position cannot be revealed")
        self.instance = instance
        self.p = p
        self.revealed = frozenset(revealed)
        hidden = self.revealed | {p}
        self.erased: List[Position] = [
            q for q in instance.positions if q not in hidden
        ]
        self.fixed_values: Tuple[Any, ...] = tuple(
            sorted({instance.value_at(q) for q in self.revealed}, key=repr)
        )
        cells = [p] + self.erased
        self._oracle = instance.make_oracle(cells)
        make_pruning = getattr(instance, "make_pruning_state", None)
        self._pruning = make_pruning(cells) if make_pruning else None
        #: Can the pattern search prune?  (Not XML, nor unprunable constraints.)
        self.prunable = self._pruning is not None

    @property
    def num_erased(self) -> int:
        """Number of erased positions (completion dimensions)."""
        return len(self.erased)

    def candidate_classes(self) -> List[Any]:
        """Symmetry classes for the candidate value at ``p``.

        Each revealed value is its own class; all values outside the
        revealed pool are interchangeable and represented by :data:`FRESH`.
        """
        return list(self.fixed_values) + [FRESH]

    def satisfies(self, candidate: Any, completion: Sequence[Any]) -> bool:
        """Oracle: does ``p := candidate`` plus *completion* at the erased
        positions satisfy every constraint?"""
        return self._oracle([candidate] + list(completion))

    def certainly_violated(
        self, cell: int, value: Any, budget: Optional[int] = None
    ) -> bool:
        """Sound pruning test of the pattern search: assign *value* to cell
        *cell* (0 is ``p``, ``i + 1`` is ``erased[i]``) with every later
        cell :class:`Unknown`; is some constraint now violated however the
        unknown cells are filled in, or, given a *budget*, must they spend
        more deficit than that?  See
        :class:`~repro.core.pruning.PruningState`; ``False`` when the
        instance has no three-valued checker.
        """
        if self._pruning is None:
            return False
        return self._pruning.extend(cell, value, budget)
