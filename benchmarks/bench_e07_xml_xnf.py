"""E7 — XML: XNF characterizes well-designed documents.

The paper's DBLP example: the year is stored on every ``inproceedings``
though it is a property of the ``issue``.  The design violates XNF; on
the minimal interesting document the two year slots measure exactly 1/2
while every other slot measures 1.  The XNF-normalized design measures 1
everywhere.

Expected shape: column "before" shows 0.5 exactly on year slots, 1.0
elsewhere; column "after" is identically 1.0.  E7c measures X11, the
first year slot of an 11-slot document (two issues of two papers), with
the exact sweep: also exactly 1/2, decided by the FD chase.
"""

from fractions import Fraction
from time import perf_counter

from repro.core import ric
from repro.core.symbolic import ric_exact
from repro.workloads.xml_gen import dblp_document, dblp_dtd, dblp_xfds, tiny_dblp_document
from repro.xml import PositionedDocument, is_xnf, normalize_to_xnf

from benchmarks.common import print_table


def test_e7_table(benchmark):
    dtd, sigma = dblp_dtd(), dblp_xfds()
    assert not is_xnf(dtd, sigma)

    def run():
        doc = tiny_dblp_document()
        before = PositionedDocument(doc, dtd, sigma)
        before_vals = {p: ric(before, p) for p in before.positions}

        result = normalize_to_xnf(dtd, sigma, tiny_dblp_document())
        after = PositionedDocument(result.doc, result.dtd, result.sigma)
        after_vals = {p: ric(after, p) for p in after.positions}
        return before_vals, after_vals

    before_vals, after_vals = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [(str(p), str(v)) for p, v in sorted(before_vals.items())]
    print_table("E7a: RIC before normalization (non-XNF DBLP)", ["slot", "RIC"], rows)
    rows = [(str(p), str(v)) for p, v in sorted(after_vals.items())]
    print_table("E7b: RIC after XNF normalization", ["slot", "RIC"], rows)

    year_vals = [v for p, v in before_vals.items() if p.attribute == "year"]
    other_vals = [v for p, v in before_vals.items() if p.attribute != "year"]
    assert year_vals and all(v == Fraction(1, 2) for v in year_vals)
    assert all(v == 1 for v in other_vals)
    assert all(v == 1 for v in after_vals.values())


def test_e7_x11(benchmark):
    doc = PositionedDocument(dblp_document(1, 2, 2, seed=0), dblp_dtd(), dblp_xfds())
    year = next(p for p in doc.positions if p.attribute == "year")

    def run():
        start = perf_counter()
        return ric_exact(doc, year), perf_counter() - start

    value, seconds = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "E7c: X11, the first year slot of dblp_document(1, 2, 2)",
        ["slots", "slot", "RIC", "seconds"],
        [(len(doc), year, value, f"{seconds:.3f}")],
    )
    assert value == Fraction(1, 2)


def test_e7_xnf_check_kernel(benchmark):
    dtd, sigma = dblp_dtd(), dblp_xfds()
    assert benchmark(lambda: is_xnf(dtd, sigma)) is False
