"""The information-theoretic measure of Arenas & Libkin (PODS 2003).

This package is the primary contribution of the reproduced paper: an
executable definition of *how much information a position in a database
instance carries*, given the schema constraints.

Quick tour
----------

>>> from repro.relational import Relation, RelationSchema
>>> from repro.dependencies import FD
>>> from repro.core import PositionedInstance, ric
>>> schema = RelationSchema("R", ("A", "B", "C"))
>>> inst = PositionedInstance.from_relation(
...     Relation(schema, [(1, 2, 3), (1, 2, 4)]), [FD("A", "B")])
>>> pos = inst.position("R", 0, "B")     # the duplicated B value
>>> float(ric(inst, pos)) < 1.0          # redundant -> less than full info
True

The measure: for domain size ``k``, reveal a uniformly random subset ``X``
of the other positions, erase the rest, and consider all ``Σ``-satisfying
completions over ``[k]``; the entropy of the induced distribution on the
value at ``p``, averaged over ``X`` and normalized by ``log2 k``, tends to
the **relative information content** ``RIC ∈ [0, 1]`` as ``k → ∞``.
``RIC = 1`` everywhere characterizes well-designed schemas (BCNF for FDs,
4NF for FDs+MVDs, XNF for XML).

Engines
-------
- :func:`repro.core.bruteforce.inf_k_bruteforce` — literal enumeration
  (ground truth for tiny cases).
- :func:`repro.core.symbolic.inf_k_symbolic` /
  :func:`repro.core.symbolic.ric_exact` — equality-pattern counting; exact
  polynomial-in-``k`` counts and the exact rational limit.
- :func:`repro.core.montecarlo.ric_montecarlo` — sampled ``X`` with exact
  per-``X`` limits; scales to larger instances.
"""

from repro._lazy import lazy_exports

#: Each public name and the submodule that defines it; a name's module is
#: imported on first access (PEP 562), so ``import repro.core`` loads no
#: kernel.
_EXPORTS = {
    "Position": "positions",
    "PositionedInstance": "positions",
    "inf_k_bruteforce": "bruteforce",
    "inf_k_symbolic": "symbolic",
    "ric_exact": "symbolic",
    "ric_montecarlo": "montecarlo",
    "MCEstimate": "montecarlo",
    "inf_k": "measure",
    "ric": "measure",
    "ric_profile": "measure",
    "is_well_designed_theory": "welldesign",
    "redundant_positions": "welldesign",
    "min_ric": "welldesign",
    "witness_instance": "welldesign",
    "decompose_instance": "gains",
    "normalization_gain": "gains",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
