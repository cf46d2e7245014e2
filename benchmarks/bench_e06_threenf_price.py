"""E6 — The price of 3NF (dependency preservation vs redundancy).

The classic CSZ design (``CS → Z``, ``Z → C``) is in 3NF but not BCNF: no
BCNF decomposition preserves ``CS → Z``, so any preserving design retains
redundancy.  The information-theoretic extension of the framework
(Kolahi & Libkin) shows 3NF's guaranteed information content is bounded
below by 1/2, and the bound is tight.

Measured here: the redundant ``C`` position of CSZ instances with a
growing number of tuples sharing one ``(Z, C)`` group.  The exact values
follow the closed form this reproduction derives,
``RIC_n(C) = 1/2 + (2/3)(3/4)^n`` — strictly decreasing and converging to
**exactly** the 1/2 bound (the family realizes its tightness).
"""

from repro.chase import preserves_dependencies
from repro.core import PositionedInstance, ric
from repro.normalforms import bcnf_decompose, is_3nf, is_bcnf
from repro.normalforms.price import (
    CSZ_FDS,
    THREENF_GUARANTEE,
    csz_group_instance,
    csz_ric_formula,
)

from benchmarks.common import fmt_frac, print_table


def test_e6_table(benchmark):
    assert is_3nf("CSZ", CSZ_FDS) and not is_bcnf("CSZ", CSZ_FDS)
    frags = bcnf_decompose("CSZ", CSZ_FDS)
    assert not preserves_dependencies(CSZ_FDS, [f.attributes for f in frags])

    def run():
        rows = []
        for n in range(2, 7):
            inst = PositionedInstance.from_relation(
                csz_group_instance(n), CSZ_FDS
            )
            value = ric(inst, inst.position("R", 0, "C"))
            rows.append((n, fmt_frac(value), fmt_frac(csz_ric_formula(n))))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "E6: price of 3NF — RIC of the copied C value vs group size "
        "(limit: exactly 1/2, the Kolahi-Libkin bound)",
        ["tuples sharing (Z,C)", "measured RIC(C)", "closed form"],
        rows,
    )

    for _n, measured, formula in rows:
        assert measured == formula  # exact agreement, fraction for fraction
    floats = [float(cell.split("(")[1].rstrip(")")) for _n, cell, _f in rows]
    assert floats == sorted(floats, reverse=True)
    assert all(v > float(THREENF_GUARANTEE) for v in floats)


def test_e6_preservation_kernel(benchmark):
    frags = bcnf_decompose("CSZ", CSZ_FDS)
    result = benchmark(
        lambda: preserves_dependencies(CSZ_FDS, [f.attributes for f in frags])
    )
    assert result is False
