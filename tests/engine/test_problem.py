"""The problem IR: canonicalization, cache keys, validation."""

import pytest

from repro.core import PositionedInstance
from repro.dependencies import FD
from repro.engine import Problem
from repro.relational import Relation, RelationSchema
from repro.service.errors import ValidationError

DESIGN = "R(A,B,C); B->C"
ROWS = [[1, 2, 3], [4, 2, 3]]


def problem(**kwargs):
    defaults = dict(op="ric", method="auto", samples=200, seed=0)
    defaults.update(kwargs)
    return Problem.from_design(DESIGN, ROWS, (0, "C"), **defaults)


class TestCanonicalKey:
    def test_key_is_stable_and_hex(self):
        key = problem().canonical_key()
        assert key == problem().canonical_key()
        assert len(key) == 64
        int(key, 16)

    def test_sampled_requests_key_on_samples(self):
        # Regression for the cache-key weakness: an MC result for 100
        # samples must never be served for a 200-sample request.
        assert (
            problem(method="montecarlo", samples=100).canonical_key()
            != problem(method="montecarlo", samples=200).canonical_key()
        )

    def test_sampled_requests_key_on_seed(self):
        assert (
            problem(method="montecarlo", seed=1).canonical_key()
            != problem(method="montecarlo", seed=2).canonical_key()
        )

    def test_exact_and_sampled_never_share_a_key(self):
        assert (
            problem(method="exact").canonical_key()
            != problem(method="montecarlo").canonical_key()
        )

    def test_exact_requests_ignore_sampling_parameters(self):
        # The exact value is independent of (samples, seed); keying on
        # them would only fragment the cache.
        assert (
            problem(method="exact", samples=100, seed=5).canonical_key()
            == problem(method="exact", samples=200, seed=0).canonical_key()
        )

    def test_auto_requests_key_on_sampling_parameters(self):
        # "auto" may degrade to Monte Carlo, so its key must carry the
        # sampling parameters just like a pinned MC request.
        assert (
            problem(method="auto", samples=100).canonical_key()
            != problem(method="auto", samples=200).canonical_key()
        )

    def test_row_presentation_order_is_normalized_away(self):
        forward = Problem.from_design(DESIGN, ROWS, (0, "C"))
        backward = Problem.from_design(DESIGN, list(reversed(ROWS)), (0, "C"))
        assert forward.canonical_key() == backward.canonical_key()

    def test_inf_k_keys_on_k(self):
        assert (
            problem(op="inf_k", method="symbolic", k=2).canonical_key()
            != problem(op="inf_k", method="symbolic", k=3).canonical_key()
        )


class TestConstruction:
    def test_from_design_and_from_instance_agree(self):
        schema = RelationSchema("R", ("A", "B", "C"))
        inst = PositionedInstance.from_relation(
            Relation(schema, [tuple(r) for r in ROWS]), [FD("B", "C")]
        )
        via_instance = Problem.from_instance(inst, inst.position("R", 0, "C"))
        assert via_instance.canonical_key() == problem().canonical_key()

    def test_problems_are_hashable_values(self):
        first, second = problem(), problem()
        assert first == second
        assert hash(first) == hash(second)
        # The memoized instance is identity only — never part of equality.
        first.resolved_instance()
        assert first == second

    def test_resolved_instance_round_trips_the_ir(self):
        prob = problem()
        inst = prob.resolved_instance()
        assert len(inst) == 6
        assert str(prob.position_obj()) == "R[0].C"
        assert inst.check_original()

    def test_shape_properties(self):
        prob = problem()
        assert prob.num_positions == 6
        assert prob.samples_if_sampled == 200
        assert problem(method="exact").samples_if_sampled is None


class TestValidation:
    def test_unknown_method_is_a_typed_validation_error(self):
        with pytest.raises(ValidationError, match="method"):
            problem(method="turbo")

    def test_unknown_method_is_still_a_value_error(self):
        with pytest.raises(ValueError):
            problem(method="turbo")

    def test_inf_k_methods_are_not_ric_methods(self):
        with pytest.raises(ValidationError, match="method"):
            problem(method="symbolic")
        with pytest.raises(ValidationError, match="method"):
            problem(op="inf_k", method="montecarlo", k=2)

    def test_unknown_op_rejected(self):
        with pytest.raises(ValidationError, match="operation"):
            problem(op="ric2")

    def test_inf_k_requires_k(self):
        with pytest.raises(ValidationError, match="k"):
            problem(op="inf_k", method="symbolic")

    def test_nonpositive_samples_rejected(self):
        with pytest.raises(ValidationError, match="samples"):
            problem(samples=0)
