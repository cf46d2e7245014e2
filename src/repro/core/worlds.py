"""Possible-worlds templates: one per (position, revealed set) pair.

A :class:`World` fixes the measured position ``p`` and the revealed set
``X``; it knows the revealed value pool, the erased positions, and exposes
a satisfaction oracle over ``(candidate value at p, values at erased
positions)``.  Engines differ only in how they enumerate or count the
satisfying completions of a world.  Relational instances and XML
documents are both tables with cells per position
(:mod:`repro.core.positions`), so their worlds share the chase, the
oracle and the pruning state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
    """The possible-worlds template for measuring ``p`` after revealing ``X``.

    The erased cells, the revealed values, the satisfaction oracle and
    the pruning state are built on first use, so a world the chase
    decides (:meth:`forced_by_chase`) pays for none of them.

    A world counts its own work: whether the chase decided it
    (``chased``), its oracle calls (``oracle_calls``), its pruning
    checks (``prune_calls``), the checks that pruned (``prune_hits``)
    and the pattern leaves its searches reached (``leaves``, counted by
    :func:`repro.core.patterns.deficit_walker`), and the fresh class's
    least deficit (``deficit``, recorded by
    :func:`repro.core.symbolic.world_limit_ratio`; ``None`` when it was
    not searched or has no satisfying pattern).  The kernels sum these
    over the worlds they visit into a :class:`WorkCounts`.
    """

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
        #: Did :meth:`forced_by_chase` decide this world?
        self.chased = False
        self.oracle_calls = 0
        self.prune_calls = 0
        self.prune_hits = 0
        self.leaves = 0
        self.deficit: Optional[int] = None

    @cached_property
    def erased(self) -> List[Position]:
        """The positions neither revealed nor ``p``: those with a cell in
        one of ``p``'s table columns first, then the rest, each in
        instance order.  The pattern search assigns them in this order;
        the patterns it finds do not depend on it, but ``p``'s column
        prunes soonest (DESIGN §2.1)."""
        hidden = self.revealed | {self.p}
        columns_of = self.instance.columns_of
        columns = columns_of(self.p)
        shared: List[Position] = []
        rest: List[Position] = []
        for q in self.instance.positions:
            if q not in hidden:
                (rest if columns.isdisjoint(columns_of(q)) else shared).append(q)
        return shared + rest

    @cached_property
    def fixed_values(self) -> Tuple[Any, ...]:
        """The distinct revealed values, sorted by ``repr``."""
        return tuple(
            sorted({self.instance.value_at(q) for q in self.revealed}, key=repr)
        )

    @cached_property
    def columns(self) -> Optional[Tuple[Tuple[int, ...], Tuple[FrozenSet[Any], ...]]]:
        """``(column of each erased cell, values each column's revealed
        cells hold)``, columns numbered from 0 for ``p``'s, when every
        position is one table cell (a relational instance); ``None``
        otherwise.  The pattern search offers a cell only its column's
        labels at a class's least deficit (DESIGN §2.1)."""
        instance = self.instance
        if not instance.positions_are_cells:
            return None
        index = {}
        held: List[set] = []

        def column(q: Position) -> int:
            (key,) = instance.columns_of(q)
            if key not in index:
                index[key] = len(held)
                held.append(set())
            return index[key]

        column(self.p)
        for q in self.revealed:
            held[column(q)].add(instance.value_at(q))
        erased = tuple(column(q) for q in self.erased)
        return erased, tuple(frozenset(values) for values in held)

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

    def forced_by_chase(self) -> Optional[bool]:
        """When every dependency is an FD, the chase decides the world's
        limit ratio: ``True`` if it is 0, ``False`` if it is 1 (see
        :mod:`repro.core.fdchase`).  ``None`` otherwise."""
        forced = self.instance.forced_by_chase(self.p, self.revealed)
        self.chased = forced is not None
        return forced

    def satisfies(self, candidate: Any, completion: Sequence[Any]) -> bool:
        """Oracle: does ``p := candidate`` plus *completion* at the erased
        positions satisfy every constraint?"""
        self.oracle_calls += 1
        return self._oracle([candidate] + list(completion))

    def passes_full_check(self, candidate: Any, completion: Sequence[Any]) -> bool:
        """The pruning state's verdict on a complete assignment: assign
        ``p := candidate`` and *completion* to every erased cell, without
        a check, then run the full check once (one pruning check): is no
        dependency certainly violated?  Equal to :meth:`satisfies` when
        the pruning state decides leaves (DESIGN §2.1, the leaf lemma)."""
        self.prune_calls += 1
        pruning = self._pruning
        if pruning is None:
            return True
        pruning.assign(0, candidate)
        for cell, value in enumerate(completion, 1):
            pruning.assign(cell, value)
        if pruning.violated():
            self.prune_hits += 1
            return False
        return True

    @cached_property
    def _oracle(self):
        return self.instance.make_oracle([self.p] + self.erased)

    @cached_property
    def _pruning(self):
        return self.instance.make_pruning_state([self.p] + self.erased)

    def assign(self, cell: int, value: Any) -> None:
        """Put *value* in cell *cell* of the pruning state (numbered as in
        :meth:`certainly_violated`), every later cell unknown, without a
        check: a pattern search restoring a root state it checked before."""
        pruning = self._pruning
        if pruning is not None:
            pruning.assign(cell, value)

    def certainly_violated(
        self, cell: int, value: Any, budget: Optional[int] = None
    ) -> bool:
        """Sound pruning test of the pattern search: assign *value* to cell
        *cell* (0 is ``p``, ``i + 1`` is ``erased[i]``; every table cell of
        that position) with every later cell :class:`Unknown`; is some
        constraint now violated however the unknown cells are filled in,
        or, given a *budget*, must they spend more deficit than that?  See
        :class:`~repro.core.pruning.PruningState`; ``False`` when no
        constraint of the instance can be pruned.
        """
        self.prune_calls += 1
        pruning = self._pruning
        if pruning is not None and pruning.extend(cell, value, budget):
            self.prune_hits += 1
            return True
        return False


@dataclass(slots=True)
class WorkCounts:
    """The work tallies of the worlds a kernel visited, summed: :meth:`add`
    folds in one world, :meth:`merge` another tally (a Monte-Carlo
    chunk's).  The fresh classes' least deficits are summed
    (``deficit_sum``) and their maximum kept (``deficit_max``).  A kernel
    fills the tally it is given and records nothing; the planner does."""

    worlds: int = 0
    chased: int = 0
    oracle_calls: int = 0
    prune_calls: int = 0
    prune_hits: int = 0
    leaves: int = 0
    deficit_sum: int = 0
    deficit_max: int = 0

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

    def merge(self, other: "WorkCounts") -> None:
        self.worlds += other.worlds
        self.chased += other.chased
        self.oracle_calls += other.oracle_calls
        self.prune_calls += other.prune_calls
        self.prune_hits += other.prune_hits
        self.leaves += other.leaves
        self.deficit_sum += other.deficit_sum
        self.deficit_max = max(self.deficit_max, other.deficit_max)
