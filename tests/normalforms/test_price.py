"""Tests for the price-of-3NF analysis (closed form vs exact engine)."""

from fractions import Fraction

import pytest

from repro.core.measure import ric
from repro.core.positions import PositionedInstance
from repro.normalforms.checks import is_3nf, is_bcnf
from repro.normalforms.price import (
    CSZ_FAMILY_LIMIT,
    CSZ_FDS,
    THREENF_GUARANTEE,
    csz_group_instance,
    csz_price_rows,
    csz_ric_formula,
)


class TestFamily:
    def test_csz_is_3nf_not_bcnf(self):
        assert is_3nf("CSZ", CSZ_FDS)
        assert not is_bcnf("CSZ", CSZ_FDS)

    def test_instances_satisfy_fds(self):
        for n in (1, 2, 4):
            rel = csz_group_instance(n)
            assert all(fd.is_satisfied_by(rel) for fd in CSZ_FDS)
            assert len(rel) == n

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            csz_group_instance(0)
        with pytest.raises(ValueError):
            csz_ric_formula(0)


class TestClosedForm:
    def test_known_values(self):
        assert csz_ric_formula(2) == Fraction(7, 8)
        assert csz_ric_formula(3) == Fraction(25, 32)
        assert csz_ric_formula(4) == Fraction(91, 128)
        assert csz_ric_formula(5) == Fraction(337, 512)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_formula_matches_exact_engine(self, n):
        """The closed form must agree with the exact symbolic sweep."""
        inst = PositionedInstance.from_relation(csz_group_instance(n), CSZ_FDS)
        measured = ric(inst, inst.position("R", 0, "C"))
        assert measured == csz_ric_formula(n)

    def test_monotone_decreasing_to_limit(self):
        values = [csz_ric_formula(n) for n in range(2, 30)]
        assert values == sorted(values, reverse=True)
        assert all(v > CSZ_FAMILY_LIMIT for v in values)
        assert values[-1] - CSZ_FAMILY_LIMIT < Fraction(1, 1000)

    def test_family_realizes_the_tight_bound(self):
        """The family converges to the Kolahi–Libkin 1/2 guarantee —
        the bound is tight along this very family."""
        assert CSZ_FAMILY_LIMIT == THREENF_GUARANTEE
        for _n, value in csz_price_rows(12):
            assert value > THREENF_GUARANTEE
