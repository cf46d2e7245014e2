"""The price of 3NF: quantified residual redundancy.

The CSZ design (``CS → Z``, ``Z → C``) is the canonical schema that is in
3NF but not BCNF; every dependency-preserving decomposition keeps the
``Z → C`` redundancy.  Kolahi & Libkin's information-theoretic study of
3NF shows the guaranteed information content of 3NF designs is bounded
below by **1/2** (tight over all 3NF schemas).

This module provides the witness *family* — instances with one zip code
shared by ``n`` streets — together with the closed form of the redundant
position's relative information content, which this reproduction derives
from the exact symbolic engine's values (7/8, 25/32, 91/128, …) and
verifies against it (experiment E6, ``tests/normalforms/test_price.py``):

    RIC_n(C) = 1/2 + (2/3) · (3/4)^n

The family decreases monotonically from 7/8 (n = 2) and converges to
**exactly 1/2** — the witness family realizes the Kolahi–Libkin tight
lower bound in the limit.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

from repro.dependencies.fd import FD
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema

CSZ_SCHEMA = RelationSchema("R", ("C", "S", "Z"))
CSZ_FDS = [FD("CS", "Z"), FD("Z", "C")]


def csz_group_instance(n_rows: int) -> Relation:
    """*n_rows* streets sharing one (zip, city) pair — the C value is
    copied ``n_rows`` times."""
    if n_rows < 1:
        raise ValueError("need at least one row")
    rows = [(1, 10 + i, 5) for i in range(n_rows)]
    return Relation(CSZ_SCHEMA, rows)


def csz_ric_formula(n_rows: int) -> Fraction:
    """Closed form of ``RIC(C)`` on :func:`csz_group_instance`.

    ``1/2 + (2/3)(3/4)^n``: the measured ``C`` slot is forced exactly
    when, among the revealed cells, its own row's ``Z`` appears together
    with another row whose ``Z`` and ``C`` are both revealed — per extra
    row the chance that no revealed row pins the value picks up a factor
    3/4, and the per-revealed-set limits telescope to the geometric form.
    Verified against the exact symbolic engine for n = 2..5 in
    ``tests/normalforms/test_price.py`` and n = 2..6 in experiment E6.
    """
    if n_rows < 1:
        raise ValueError("need at least one row")
    return Fraction(1, 2) + Fraction(2, 3) * Fraction(3, 4) ** n_rows


def csz_price_rows(max_rows: int) -> List[Tuple[int, Fraction]]:
    """The (group size, formula RIC) series reported by experiment E6."""
    return [(n, csz_ric_formula(n)) for n in range(2, max_rows + 1)]


#: The Kolahi–Libkin universal lower bound for 3NF designs.
THREENF_GUARANTEE = Fraction(1, 2)

#: The limit of the CSZ family: it realizes the universal bound exactly.
CSZ_FAMILY_LIMIT = Fraction(1, 2)
