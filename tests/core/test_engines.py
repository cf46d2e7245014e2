"""Engine cross-validation: brute force vs symbolic vs Monte Carlo.

The paper's measure has one definition and we have three engines; these
tests pin them to each other (and to hand-computed values) on instances
small enough for literal enumeration.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bruteforce import inf_k_bruteforce
from repro.core.montecarlo import ric_montecarlo
from repro.core.positions import PositionedInstance
from repro.core.symbolic import (
    falling_factorial,
    inf_k_symbolic,
    ric_exact,
)
from repro.dependencies.fd import FD
from repro.dependencies.mvd import MVD
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema
from repro.service.pool import WorkerPool

AB = RelationSchema("R", ("A", "B"))


class TestInconsistentInstances:
    """The kernels refuse an instance that violates its own Σ."""

    # R[0] and R[1] agree on A but not on B: A -> B fails.
    ROWS = [(1, 1), (1, 2), (2, 3)]

    @pytest.mark.parametrize(
        "kernel",
        [
            ric_exact,
            lambda inst, p: inf_k_symbolic(inst, p, 4),
            lambda inst, p: inf_k_bruteforce(inst, p, 4),
            lambda inst, p: ric_montecarlo(inst, p, samples=20),
        ],
        ids=["ric_exact", "inf_k_symbolic", "inf_k_bruteforce", "montecarlo"],
    )
    @pytest.mark.parametrize("row,attr", [(0, "B"), (2, "A")])
    def test_kernels_raise(self, kernel, row, attr):
        inst = self.instance()
        assert not inst.check_original()
        with pytest.raises(ValueError, match="violates its own"):
            kernel(inst, inst.position("R", row, attr))

    def test_sharded_montecarlo_raises(self):
        inst = self.instance()
        with WorkerPool(workers=2) as pool:
            with pytest.raises(ValueError, match="violates its own"):
                pool.ric_montecarlo(inst, inst.position("R", 2, "A"), 20)

    def instance(self):
        return PositionedInstance.from_relation(
            Relation(AB, self.ROWS), [FD("A", "B")]
        )


class TestFallingFactorial:
    def test_base_cases(self):
        assert falling_factorial(5, 0) == 1
        assert falling_factorial(5, 1) == 5
        assert falling_factorial(5, 2) == 20

    def test_zero_when_not_enough_values(self):
        assert falling_factorial(2, 3) == 0

    def test_negative_blocks_rejected(self):
        with pytest.raises(ValueError):
            falling_factorial(3, -1)


def tiny_instances():
    """Small 2-column instances with an FD, for agreement testing."""
    rows = st.sets(
        st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=2
    )
    return rows.filter(
        lambda rs: FD("A", "B").is_satisfied_by(Relation(AB, rs))
    )


class TestBruteForceVsSymbolic:
    @settings(max_examples=10, deadline=None)
    @given(tiny_instances(), st.integers(3, 5))
    def test_inf_k_agreement(self, rows, k):
        inst = PositionedInstance.from_relation(Relation(AB, rows), [FD("A", "B")])
        p = inst.positions[0]
        sym = inf_k_symbolic(inst, p, k)
        brute = inf_k_bruteforce(inst, p, k)
        assert sym == pytest.approx(brute, abs=1e-9)

    def test_agreement_on_redundant_instance(self):
        schema = RelationSchema("T", ("A", "B", "C"))
        rel = Relation(schema, [(1, 2, 3), (4, 2, 3)])
        inst = PositionedInstance.from_relation(rel, [FD("B", "C")])
        p = inst.position("T", 0, "C")
        for k in (4, 5):
            assert inf_k_symbolic(inst, p, k) == pytest.approx(
                inf_k_bruteforce(inst, p, k), abs=1e-9
            )

    def test_no_constraints_entropy_is_log_k(self):
        inst = PositionedInstance.from_relation(Relation(AB, [(1, 2)]), [])
        p = inst.positions[0]
        for k in (3, 5, 8):
            assert inf_k_symbolic(inst, p, k) == pytest.approx(math.log2(k))

    def test_mvd_agreement(self):
        """The symbolic engine's genericity argument must also hold for
        tuple-generating dependencies: cross-check on an MVD instance."""
        from repro.dependencies.mvd import MVD

        schema = RelationSchema("T", ("A", "B", "C"))
        rel = Relation(schema, [(1, 2, 3), (1, 2, 3)])  # collapses to one
        rel = Relation(schema, [(1, 2, 3), (1, 3, 2)])
        inst = PositionedInstance.from_relation(rel, [MVD("A", "B")])
        assert not inst.check_original()  # needs the mixed tuples
        rel = Relation(schema, [(1, 2, 3), (4, 3, 2)])
        inst = PositionedInstance.from_relation(rel, [MVD("A", "B")])
        assert inst.check_original()
        p = inst.position("T", 0, "B")
        for k in (4, 5):
            assert inf_k_symbolic(inst, p, k) == pytest.approx(
                inf_k_bruteforce(inst, p, k), abs=1e-9
            )

    def test_jd_agreement(self):
        """Same cross-check for a (binary) join dependency."""
        from repro.dependencies.jd import JD

        schema = RelationSchema("T", ("A", "B", "C"))
        rel = Relation(schema, [(1, 2, 3), (4, 5, 6)])
        inst = PositionedInstance.from_relation(rel, [JD("AB", "AC")])
        assert inst.check_original()
        p = inst.position("T", 0, "A")
        for k in (6,):
            assert inf_k_symbolic(inst, p, k) == pytest.approx(
                inf_k_bruteforce(inst, p, k), abs=1e-9
            )


class TestRICExact:
    def test_paper_example_value(self):
        """The canonical redundant instance scores exactly 7/8."""
        schema = RelationSchema("T", ("A", "B", "C"))
        rel = Relation(schema, [(1, 2, 3), (4, 2, 3)])
        inst = PositionedInstance.from_relation(rel, [FD("B", "C")])
        assert str(ric_exact(inst, inst.position("T", 0, "C"))) == "7/8"
        assert str(ric_exact(inst, inst.position("T", 1, "C"))) == "7/8"

    def test_key_positions_score_one(self):
        schema = RelationSchema("T", ("A", "B", "C"))
        rel = Relation(schema, [(1, 2, 3), (4, 2, 3)])
        inst = PositionedInstance.from_relation(rel, [FD("B", "C")])
        assert ric_exact(inst, inst.position("T", 0, "A")) == 1

    def test_bcnf_instance_all_ones(self):
        inst = PositionedInstance.from_relation(
            Relation(AB, [(1, 2), (3, 4)]), [FD("A", "B")]
        )
        for p in inst.positions:
            assert ric_exact(inst, p) == 1

    def test_ric_approached_by_finite_k(self):
        """INF^k / log2 k must approach the exact limit from sensible
        values as k grows."""
        schema = RelationSchema("T", ("A", "B", "C"))
        rel = Relation(schema, [(1, 2, 3), (4, 2, 3)])
        inst = PositionedInstance.from_relation(rel, [FD("B", "C")])
        p = inst.position("T", 0, "C")
        limit = float(ric_exact(inst, p))
        ratios = [inf_k_symbolic(inst, p, k) / math.log2(k) for k in (6, 12, 24)]
        errors = [abs(r - limit) for r in ratios]
        assert errors[0] > errors[-1]
        assert errors[-1] < 0.08

    def test_bounds(self):
        inst = PositionedInstance.from_relation(
            Relation(AB, [(1, 2), (1, 2), (3, 2)]), [FD("A", "B")]
        )
        for p in inst.positions:
            value = ric_exact(inst, p)
            assert 0 <= value <= 1


class TestMonteCarloAgreement:
    def test_mc_close_to_exact(self):
        schema = RelationSchema("T", ("A", "B", "C"))
        rel = Relation(schema, [(1, 2, 3), (4, 2, 3)])
        inst = PositionedInstance.from_relation(rel, [FD("B", "C")])
        p = inst.position("T", 0, "C")
        exact = float(ric_exact(inst, p))
        est = ric_montecarlo(inst, p, samples=300)
        assert abs(est.mean - exact) < max(5 * est.stderr, 0.03)

    def test_mc_exact_on_certain_positions(self):
        inst = PositionedInstance.from_relation(
            Relation(AB, [(1, 2), (3, 4)]), [FD("A", "B")]
        )
        est = ric_montecarlo(inst, inst.positions[0], samples=50)
        assert est.mean == pytest.approx(1.0)
        assert est.stderr == pytest.approx(0.0)

    def test_ci_and_float_protocol(self):
        inst = PositionedInstance.from_relation(Relation(AB, [(1, 2)]), [])
        est = ric_montecarlo(inst, inst.positions[0], samples=10)
        low, high = est.ci95()
        assert 0.0 <= low <= est.mean <= high <= 1.0
        assert float(est) == est.mean

    def test_requires_positive_samples(self):
        inst = PositionedInstance.from_relation(Relation(AB, [(1, 2)]), [])
        with pytest.raises(ValueError):
            ric_montecarlo(inst, inst.positions[0], samples=0)
