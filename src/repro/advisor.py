"""The schema advisor: a one-call design diagnosis built on the library.

``advise("R(A,B,C); B->C")`` returns a structured :class:`DesignReport`:
keys, normal-form membership, the information-theoretic severity of any
redundancy (measured exactly on the canonical witness instance), and the
repair options with their lossless/preservation trade-offs.  The
``examples/schema_advisor.py`` script is a thin presentation layer over
this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Tuple, Union

from repro.chase.lossless import is_lossless
from repro.chase.preservation import preserves_dependencies
from repro.core.measure import DEFAULT_SAMPLES
from repro.core.montecarlo import MCEstimate
from repro.core.welldesign import witness_instance
from repro.engine import Plan, Problem, plan_and_run
from repro.dependencies.fd import FD
from repro.dependencies.jd import JD
from repro.dependencies.keys import candidate_keys
from repro.dependencies.minimal_cover import minimal_cover
from repro.dependencies.mvd import MVD
from repro.normalforms.bcnf import bcnf_decompose
from repro.normalforms.checks import is_2nf, is_3nf, is_4nf, is_bcnf
from repro.normalforms.fournf import fournf_decompose
from repro.normalforms.fragment import Fragment
from repro.normalforms.threenf import threenf_synthesize
from repro.relational.attributes import AttrSet, fmt_attrs
from repro.relational.parser import parse_design
from repro.relational.schema import RelationSchema
from repro.service.budget import Budget


@dataclass(frozen=True)
class RepairOption:
    """One normalization proposal and its classical guarantees."""

    method: str  # "bcnf" | "3nf" | "4nf"
    fragments: Tuple[Fragment, ...]
    lossless: bool
    dependency_preserving: bool

    def __str__(self) -> str:
        frags = "; ".join(str(f) for f in self.fragments)
        return (
            f"{self.method}: {frags} "
            f"[lossless={self.lossless}, preserving={self.dependency_preserving}]"
        )


@dataclass(frozen=True)
class DesignReport:
    """Everything the advisor determined about a design."""

    schema: RelationSchema
    fds: Tuple[FD, ...]
    mvds: Tuple[MVD, ...]
    minimal_cover: Tuple[FD, ...]
    keys: Tuple[AttrSet, ...]
    in_2nf: bool
    in_3nf: bool
    in_bcnf: bool
    in_4nf: bool
    well_designed: bool
    witness_ric: Optional[Union[Fraction, MCEstimate]]
    witness_position: Optional[str]
    repairs: Tuple[RepairOption, ...] = field(default_factory=tuple)
    #: The planner's decision for the witness measurement (None when the
    #: design is well-designed or measurement was skipped).
    witness_plan: Optional[Plan] = field(default=None, compare=False)

    def summary(self) -> str:
        """A human-readable multi-line report."""
        lines = [
            f"Design {self.schema} with "
            + "; ".join(map(str, self.fds + self.mvds)),
            f"  keys: {', '.join(fmt_attrs(k) for k in self.keys)}",
            f"  2NF={self.in_2nf} 3NF={self.in_3nf} "
            f"BCNF={self.in_bcnf} 4NF={self.in_4nf}",
        ]
        if self.well_designed:
            lines.append("  verdict: well-designed (RIC = 1 everywhere)")
        elif self.witness_ric is None:
            lines.append(
                "  verdict: redundant (syntactic; witness not measured)"
            )
        elif isinstance(self.witness_ric, MCEstimate):
            est = self.witness_ric
            lines.append(
                f"  verdict: redundant — witness {self.witness_position} "
                f"carries RIC ≈ {est.mean:.3f} "
                f"(±{1.96 * est.stderr:.3f}, {est.samples} samples)"
            )
        else:
            lines.append(
                f"  verdict: redundant — witness {self.witness_position} "
                f"carries RIC = {self.witness_ric} "
                f"({float(self.witness_ric):.3f})"
            )
        for repair in self.repairs:
            lines.append(f"  repair {repair}")
        return "\n".join(lines)


def advise(
    design: Union[str, Tuple[RelationSchema, list]],
    measure_witness: bool = True,
    method: str = "exact",
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    budget: Optional[Budget] = None,
) -> DesignReport:
    """Diagnose a design given as notation text or (schema, deps) pair.

    With ``measure_witness`` (default) the advisor computes the ``RIC``
    of the canonical witness position when the design is not
    well-designed; pass ``False`` to skip the measurement and rely on
    the syntactic characterization alone.  *method* selects the witness
    engine: ``"exact"`` (exponential sweep, exact
    :class:`~fractions.Fraction`), ``"montecarlo"`` (the scalable
    deterministic estimator under ``(samples, seed)``), or ``"auto"``
    (the planner chooses by the size guards).  The chosen
    :class:`~repro.engine.planner.Plan` is attached to the report as
    ``witness_plan``.  The witness measurement runs under *budget*
    (a :class:`~repro.service.budget.Budget`; none by default), so a
    batch job's ``--timeout`` bounds it.
    """
    if isinstance(design, str):
        schema, deps = parse_design(design)
    else:
        schema, deps = design
    fds = tuple(d for d in deps if isinstance(d, FD))
    mvds = tuple(d for d in deps if isinstance(d, MVD))
    if any(isinstance(d, JD) for d in deps):
        raise ValueError(
            "the advisor covers FD/MVD designs; JD well-designedness has no "
            "complete syntactic characterization (see DESIGN.md, E4)"
        )
    universe = schema.attrset

    cover = tuple(minimal_cover(fds))
    keys = tuple(candidate_keys(universe, fds))
    in_bcnf = is_bcnf(universe, fds)
    in_4nf = is_4nf(universe, fds, mvds)
    well = in_4nf if mvds else in_bcnf

    witness_ric = None
    witness_pos = None
    witness_plan = None
    if not well and measure_witness:
        witness = witness_instance(universe, fds, mvds)
        if witness is not None:
            inst, pos = witness
            problem = Problem.from_instance(
                inst, pos, method=method, samples=samples, seed=seed
            )
            result = plan_and_run(problem, budget=budget)
            witness_ric = result.value
            witness_plan = result.plan
            witness_pos = str(pos)

    repairs: List[RepairOption] = []
    if not in_bcnf:
        frags = tuple(bcnf_decompose(universe, fds))
        attrs = [f.attributes for f in frags]
        repairs.append(
            RepairOption(
                "bcnf",
                frags,
                is_lossless(universe, attrs, list(fds)),
                preserves_dependencies(fds, attrs),
            )
        )
        syn = tuple(threenf_synthesize(universe, fds))
        syn_attrs = [f.attributes for f in syn]
        repairs.append(
            RepairOption(
                "3nf",
                syn,
                is_lossless(universe, syn_attrs, list(fds)),
                preserves_dependencies(fds, syn_attrs),
            )
        )
    if mvds and not in_4nf:
        frags4 = tuple(fournf_decompose(universe, fds, mvds))
        attrs4 = [f.attributes for f in frags4]
        repairs.append(
            RepairOption(
                "4nf",
                frags4,
                is_lossless(universe, attrs4, list(fds) + list(mvds)),
                preserves_dependencies(fds, attrs4),
            )
        )

    return DesignReport(
        schema=schema,
        fds=fds,
        mvds=mvds,
        minimal_cover=cover,
        keys=keys,
        in_2nf=is_2nf(universe, fds),
        in_3nf=is_3nf(universe, fds),
        in_bcnf=in_bcnf,
        in_4nf=in_4nf,
        well_designed=well,
        witness_ric=witness_ric,
        witness_position=witness_pos,
        repairs=tuple(repairs),
        witness_plan=witness_plan,
    )
