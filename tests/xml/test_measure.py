"""Tests for the information measure on XML documents."""

from fractions import Fraction

import pytest

from repro.core.measure import inf_k, ric
from repro.core.montecarlo import ric_montecarlo
from repro.workloads.xml_gen import dblp_dtd, dblp_xfds, tiny_dblp_document
from repro.xml.measure import PositionedDocument
from repro.xml.normalize import normalize_to_xnf
from repro.xml.xnf import is_xnf


def tiny_positioned():
    return PositionedDocument(tiny_dblp_document(), dblp_dtd(), dblp_xfds())


class TestPositionedDocument:
    def test_positions_are_attribute_slots(self):
        pd = tiny_positioned()
        assert len(pd) == 6  # title, number, 2x(key, year)
        attrs = sorted(p.attribute for p in pd.positions)
        assert attrs == ["key", "key", "number", "title", "year", "year"]

    def test_original_satisfies(self):
        assert tiny_positioned().check_original()

    def test_invalid_document_rejected(self):
        doc = tiny_dblp_document()
        doc.add(type(doc)("rogue"))
        with pytest.raises(ValueError):
            PositionedDocument(doc, dblp_dtd(), dblp_xfds())

    def test_oracle_detects_xfd_violation(self):
        pd = tiny_positioned()
        years = [p for p in pd.positions if p.attribute == "year"]
        assert not pd.satisfies({years[0]: 1999})
        assert pd.satisfies({years[0]: 2003})

    def test_value_at(self):
        pd = tiny_positioned()
        year = [p for p in pd.positions if p.attribute == "year"][0]
        assert pd.value_at(year) == 2003


class TestXMLRIC:
    def test_redundant_year_scores_half(self):
        """Both copies of the year score exactly 1/2 on the tiny doc."""
        pd = tiny_positioned()
        years = [p for p in pd.positions if p.attribute == "year"]
        for year in years:
            assert ric(pd, year) == Fraction(1, 2)

    def test_keys_score_one(self):
        pd = tiny_positioned()
        keys = [p for p in pd.positions if p.attribute == "key"]
        for key in keys:
            assert ric(pd, key) == 1

    def test_xnf_normalization_restores_full_information(self):
        """Paper theorem T7/T8, measured: after normalization every
        position carries full information."""
        result = normalize_to_xnf(dblp_dtd(), dblp_xfds(), tiny_dblp_document())
        assert is_xnf(result.dtd, result.sigma)
        pd = PositionedDocument(result.doc, result.dtd, result.sigma)
        for p in pd.positions:
            assert ric(pd, p) == 1

    def test_kernels_refuse_a_document_violating_its_xfds(self):
        doc = tiny_dblp_document()
        papers = [n for n in doc.walk() if n.label == "inproceedings"]
        papers[1].attrs["year"] = 1999  # the shared-year XFD now fails
        pd = PositionedDocument(doc, dblp_dtd(), dblp_xfds())
        assert not pd.check_original()
        key = [p for p in pd.positions if p.attribute == "key"][0]
        for method in ("exact", "montecarlo"):
            with pytest.raises(ValueError, match="violates its own"):
                ric(pd, key, method=method)
        with pytest.raises(ValueError, match="violates its own"):
            inf_k(pd, key, 4)

    def test_montecarlo_works_on_documents(self):
        pd = tiny_positioned()
        year = [p for p in pd.positions if p.attribute == "year"][0]
        est = ric_montecarlo(pd, year, samples=200)
        assert abs(est.mean - 0.5) < max(5 * est.stderr, 0.05)
