"""Tests for possible-worlds templates."""

from itertools import zip_longest

import pytest

from repro.core.patterns import max_fresh, pattern_counts
from repro.core.positions import PositionedInstance
from repro.core.worlds import FRESH, FreshValue, Unknown, World
from repro.dependencies.fd import FD
from repro.dependencies.mvd import MVD
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema

SCHEMA = RelationSchema("R", ("A", "B"))


def make_world(revealed_specs, p_spec=(0, "A")):
    inst = PositionedInstance.from_relation(
        Relation(SCHEMA, [(1, 2), (3, 4)]), [FD("A", "B")]
    )
    p = inst.position("R", *p_spec)
    revealed = frozenset(inst.position("R", r, a) for r, a in revealed_specs)
    return inst, p, World(inst, p, revealed)


class TestWorld:
    def test_erased_excludes_p_and_revealed(self):
        _inst, p, world = make_world([(0, "B"), (1, "A")])
        assert world.num_erased == 1
        assert p not in world.erased

    def test_measured_position_cannot_be_revealed(self):
        inst = PositionedInstance.from_relation(
            Relation(SCHEMA, [(1, 2)]), []
        )
        p = inst.position("R", 0, "A")
        with pytest.raises(ValueError):
            World(inst, p, frozenset([p]))

    def test_fixed_values_deduplicated(self):
        inst = PositionedInstance.from_relation(
            Relation(SCHEMA, [(1, 1), (1, 2)]), []
        )
        p = inst.position("R", 1, "B")
        revealed = frozenset(q for q in inst.positions if q != p)
        world = World(inst, p, revealed)
        assert set(world.fixed_values) == {1}  # three 1-cells, one value

    def test_candidate_classes(self):
        _inst, _p, world = make_world([(0, "B"), (1, "B")])
        classes = world.candidate_classes()
        assert classes[-1] is FRESH
        assert set(classes[:-1]) == {2, 4}

    def test_satisfies_uses_constraints(self):
        # p = (0, A); revealed: everything else; candidate 3 makes the two
        # rows agree on A with different B: violation.
        _inst, _p, world = make_world([(0, "B"), (1, "A"), (1, "B")])
        assert world.num_erased == 0
        assert not world.satisfies(3, [])
        assert world.satisfies(9, [])
        assert world.satisfies(FRESH, [])

    def test_certainly_violated_on_partial(self):
        _inst, _p, world = make_world([(0, "B"), (1, "B")])
        # Cell 0 is p (row 0's A), cell 1 the erased row-1 A.  Candidate 9
        # with row 1's A unknown: not certain (row 1's A could differ).
        assert not world.certainly_violated(0, 9)
        assert not world.certainly_violated(0, 3)
        # Pin row 1's A equal to the candidate: rows agree on A but B
        # values 2 vs 4 are revealed-distinct: certain violation.
        assert world.certainly_violated(1, 3)
        assert not world.certainly_violated(1, 9)  # cell 1 reassigned


class TestSentinels:
    def test_fresh_values_distinct(self):
        assert FreshValue(0) != FreshValue(1)
        assert FreshValue(0) == FreshValue(0)
        assert FreshValue(0) != 0

    def test_unknown_distinct_from_fresh(self):
        assert Unknown(0) != FreshValue(0)

    def test_reprs(self):
        assert repr(FreshValue(3)) == "*3"
        assert repr(Unknown(3)) == "?3"


def recorded_calls(world):
    """Every oracle and pruning call the pattern searches of *world* make,
    with its answer, on a world nothing else touches."""
    calls = []
    satisfies, violated = world.satisfies, world.certainly_violated

    def record_satisfies(candidate, completion):
        completion = list(completion)  # the search reuses its list
        answer = satisfies(candidate, completion)
        calls.append(("satisfies", (candidate, completion), answer))
        return answer

    def record_violated(*args):
        answer = violated(*args)
        calls.append(("certainly_violated", args, answer))
        return answer

    world.satisfies, world.certainly_violated = record_satisfies, record_violated
    for candidate in world.candidate_classes():
        max_fresh(world, candidate)
        pattern_counts(world, candidate)
    return calls


class TestWorldsShareTheInstance:
    """The worlds of one instance share its compiled checks; each keeps
    its own rows, so interleaved use changes no answer."""

    def test_interleaved_worlds_answer_as_alone(self):
        schema = RelationSchema("R", ("A", "B", "C"))
        rows = [(1, 1, 1), (2, 1, 2), (1, 1, 2), (2, 1, 1)]
        inst = PositionedInstance.from_relation(Relation(schema, rows), [MVD("B", "A")])
        p, q = inst.positions[0], inst.positions[4]
        specs = [
            (p, frozenset(inst.positions[3:9])),
            (q, frozenset(inst.positions[:3] + inst.positions[8:11])),
        ]
        expected = [recorded_calls(World(inst, *spec)) for spec in specs]
        assert all(expected)
        worlds = [World(inst, *spec) for spec in specs]
        for pair in zip_longest(*expected):
            for world, call in zip(worlds, pair):
                if call is not None:
                    name, args, answer = call
                    assert getattr(world, name)(*args) == answer
