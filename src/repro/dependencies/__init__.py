"""Dependency theory: FDs, MVDs, JDs and their classical algorithms.

This package implements the constraint classes the Arenas–Libkin framework
quantifies over, plus the standard toolchain built on them:

- :mod:`repro.dependencies.fd` / :mod:`~repro.dependencies.mvd` /
  :mod:`~repro.dependencies.jd` — the constraint classes, each with
  instance-level satisfaction checking (used directly by the possible-worlds
  engines in :mod:`repro.core`).
- :mod:`repro.dependencies.closure` — attribute closure and FD implication
  (Beeri–Bernstein linear-time algorithm).
- :mod:`repro.dependencies.minimal_cover` — canonical/minimal covers.
- :mod:`repro.dependencies.keys` — superkeys, candidate keys, prime
  attributes.
- :mod:`repro.dependencies.basis` — the MVD dependency basis by partition
  refinement.
- :mod:`repro.dependencies.projection` — projecting dependency sets onto
  sub-schemas (used by the decomposition algorithms).

Mixed FD/MVD/JD implication is chase-based and lives in
:mod:`repro.chase.implication` (the chase is complete for full
dependencies).
"""

from repro._lazy import lazy_exports

# Bound eagerly: the name is also a submodule's, and importing that
# submodule anywhere would set the package attribute to the module, which
# a lazy ``__getattr__`` (run only for missing attributes) cannot undo.
from repro.dependencies.minimal_cover import minimal_cover

#: Each other public name and the submodule that defines it (imported on
#: first access, so the constraint classes load without the algorithms).
_EXPORTS = {
    "FD": "fd",
    "MVD": "mvd",
    "JD": "jd",
    "attribute_closure": "closure",
    "fd_implies": "closure",
    "fds_equivalent": "closure",
    "candidate_keys": "keys",
    "is_superkey": "keys",
    "prime_attributes": "keys",
    "dependency_basis": "basis",
    "project_fds": "projection",
    "project_dependencies": "projection",
    "armstrong_relation": "armstrong",
    "closed_sets": "armstrong",
}

__all__ = [
    "FD",
    "MVD",
    "JD",
    "attribute_closure",
    "fd_implies",
    "fds_equivalent",
    "minimal_cover",
    "candidate_keys",
    "is_superkey",
    "prime_attributes",
    "dependency_basis",
    "project_fds",
    "project_dependencies",
    "armstrong_relation",
    "closed_sets",
]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
