"""Tests of the benchmark itself: output checks, hook counts, missing hooks.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import pytest  # noqa: E402

from checks import digest, failed_jobs  # noqa: E402
from hooks import HOOKS, Hook, Probe  # noqa: E402
from inputs import Problem  # noqa: E402
from layers import absent_metrics, kernel_counts, metric_units  # noqa: E402
from repro.core.positions import PositionedInstance  # noqa: E402
from repro.core.symbolic import ric_exact  # noqa: E402
from repro.core.worlds import World  # noqa: E402
from repro.workloads.relational_gen import paper_example_instance  # noqa: E402
from run import E2E_UNITS  # noqa: E402
from workloads import Sweep  # noqa: E402

#: The counts two traced runs must reproduce exactly.
COUNTS = (
    "worlds.built",
    "oracle.calls",
    "prune.calls",
    "prune.hits",
    "pattern.leaves",
    "pattern.max_deficit",
)


@pytest.fixture(scope="module")
def paper():
    """The paper's example: R(A,B,C), B -> C, rows (1,2,3), (4,2,3);
    p = row 0, attribute C; RIC 7/8 over 2^5 = 32 revealed sets."""
    relation, fds = paper_example_instance()
    instance = PositionedInstance.from_relation(relation, fds)
    return Problem("paper", instance, instance.position("R", 0, "C"))


def traced_counts(problem, hooks=HOOKS):
    with Probe(hooks) as probe:
        value = ric_exact(problem.instance, problem.position)
        tally = probe.collect()
    return value, tally, probe.absent


def test_paper_example_counts_32_worlds(paper):
    value, tally, absent = traced_counts(paper)
    assert str(value) == "7/8"
    assert absent == {}
    assert tally.calls["world"] == 32
    assert tally.calls["ratio_sweep"] == 32
    assert tally.calls["ratio_mc"] == 0


def test_two_traced_runs_count_the_same(paper):
    first = kernel_counts(traced_counts(paper)[1])
    second = kernel_counts(traced_counts(paper)[1])
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert first["oracle.calls"] > 0 and first["prune.calls"] > 0


def test_hooks_are_removed_after_the_run(paper):
    original = World.__dict__["satisfies"]
    traced_counts(paper)
    assert World.__dict__["satisfies"] is original


def test_removed_hook_leaves_other_metrics_intact(paper):
    renamed = tuple(
        Hook(h.name, h.target + "_gone", h.spans, h.observe)
        if h.name == "prune" else h
        for h in HOOKS
    )
    value, tally, absent = traced_counts(paper, renamed)
    assert str(value) == "7/8"
    assert set(absent) == {"prune"}
    reasons = absent_metrics(absent)
    assert "prune.calls" in reasons and "prune.hits.w1_fd" in reasons
    assert "pattern.self_s" in reasons
    assert "worlds.built" not in reasons and "oracle.calls" not in reasons

    full = kernel_counts(traced_counts(paper)[1])
    partial = kernel_counts(tally)
    for metric in ("worlds.built", "oracle.calls", "pattern.calls", "pattern.leaves",
                   "pattern.max_deficit"):
        assert partial[metric] == full[metric], metric


def sweep_on(problem, expected: str) -> Sweep:
    sweep = Sweep(seed=0, workdir=".")
    sweep.problems = [problem]
    sweep.golden = {problem.name: expected}
    return sweep


def test_perturbed_sweep_golden_fails(paper):
    good = sweep_on(paper, "7/8")
    assert good.failures([good.run_pass()]) == 0
    bad = sweep_on(paper, "7/9")
    passes = [bad.run_pass()]
    assert bad.failures(passes) / sum(p.ops for p in passes) > 0


def test_perturbed_batch_golden_fails():
    value = {"kind": "exact", "fraction": "7/8", "value": 0.875}
    report = {"results": [{"id": "j000", "ok": True, "cached": False, "value": value}]}
    assert failed_jobs(report, {"j000": digest(value)}, cached=False) == 0
    perturbed = dict(value, fraction="7/9")
    assert failed_jobs(report, {"j000": digest(perturbed)}, cached=False) == 1
    assert failed_jobs(report, {"j000": digest(value)}, cached=True) == 1


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert [m["name"] for m in spec["per_layer"]] == list(metric_units())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metric_units()
