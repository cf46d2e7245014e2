"""Output checks: stored golden values and in-process recomputation.

``golden.json`` holds the outputs at :data:`inputs.DEFAULT_SEED`: the
exact sweep fractions, the Monte-Carlo means (compared bit for bit), and a
digest of every batch job's value.  Under any other seed a batch report is
checked by recomputing each job in-process through a second path: exact
jobs with ``ric_exact``, Monte-Carlo jobs with serial ``ric_montecarlo``,
advise jobs with ``advise``, RPQ jobs with the DFA search.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction
from typing import Dict, Optional

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def load_golden(path: str = GOLDEN_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def digest(value) -> str:
    """A short digest of a JSON value (floats compared bit for bit)."""
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _instance(job: dict):
    from repro.core.positions import PositionedInstance
    from repro.relational.parser import parse_design
    from repro.relational.relation import Relation

    schema, deps = parse_design(job["design"])
    instance = PositionedInstance.from_relation(
        Relation(schema, [tuple(r) for r in job["rows"]]), deps
    )
    row, attribute = job["position"]
    return instance, instance.position(schema.name, row, attribute)


def recomputed_ok(job: dict, value: dict) -> bool:
    """Does *value* match an independent in-process recomputation?"""
    kind = job["kind"]
    if kind == "measure" and job.get("method") == "montecarlo":
        from repro.core.montecarlo import ric_montecarlo

        estimate = ric_montecarlo(
            *_instance(job), samples=job["samples"], seed=job["seed"]
        )
        return (value.get("mean"), value.get("stderr")) == (
            estimate.mean,
            estimate.stderr,
        )
    if kind == "measure":
        from repro.core.symbolic import ric_exact

        return value.get("fraction") == str(ric_exact(*_instance(job)))
    if kind == "advise":
        from repro.advisor import advise

        report = advise(job["design"], measure_witness=job.get("measure", True))
        return value.get("summary") == report.summary()
    if kind == "rpq":
        from repro.graph.graphdb import GraphDB
        from repro.graph.rpq import rpq_reachable

        graph = GraphDB.from_edges(tuple(e) for e in job["edges"])
        sources = (
            [job["source"]] if "source" in job else sorted(graph.nodes, key=repr)
        )
        found = set()
        for source in sources:
            for node in rpq_reachable(graph, job["query"], source, use_dfa=True):
                found.add((source, node))
        if "source" in job:
            return sorted(value.get("reachable", [])) == sorted(n for _, n in found)
        return sorted(map(tuple, value.get("pairs", []))) == sorted(found)
    return False


def expected_digests(
    jobs, report: dict, golden: Optional[Dict[str, str]]
) -> Dict[str, Optional[str]]:
    """The value digest every job must reproduce (None: already wrong).

    With *golden* (the default seed) the stored digests are the
    expectation.  Otherwise each value of *report* is recomputed once; a
    value that passes becomes the expectation for every later pass.
    """
    if golden is not None:
        return {job["id"]: golden.get(job["id"]) for job in jobs}
    results = {entry.get("id"): entry for entry in report["results"]}
    expected = {}
    for job in jobs:
        entry = results.get(job["id"])
        good = (
            entry is not None
            and entry.get("ok")
            and recomputed_ok(job, entry["value"])
        )
        expected[job["id"]] = digest(entry["value"]) if good else None
    return expected


def failed_jobs(report: dict, expected: Dict[str, Optional[str]], cached: bool) -> int:
    """Jobs of *report* that failed, differ from *expected*, or (for a
    warm batch, *cached*) were recomputed instead of served from cache."""
    failed = 0
    seen = set()
    for entry in report["results"]:
        job_id = entry.get("id")
        seen.add(job_id)
        want = expected.get(job_id)
        if (
            not entry.get("ok")
            or want is None
            or digest(entry["value"]) != want
            or (cached and not entry.get("cached"))
        ):
            failed += 1
    return failed + len(set(expected) - seen)


def exact_ok(value, expected: str) -> bool:
    """An exact sweep answer equals its stored fraction."""
    return isinstance(value, Fraction) and value == Fraction(expected)
