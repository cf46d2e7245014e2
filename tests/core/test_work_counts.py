"""The kernels count their own work: worlds, chase decisions, oracle
calls, pruning checks, prune hits, pattern leaves and the fresh classes'
least deficits.  They return the counts (a ``WorkCounts``, or on a
Monte-Carlo chunk) and record nothing; the planner puts them on its
``engine_run`` span and in the registry.

On W2 the pruning state decides every leaf, so the search makes no
oracle call (DESIGN §2.1, the leaf lemma); it assigns ``p``'s column
first, offers a cell only its column's labels at a least deficit, skips
the fixed classes ``p``'s column does not hold and checks a deficit-0
walk once (DESIGN §2.1, "Column-local search").
"""

import json
from dataclasses import asdict

import pytest

from repro.__main__ import main
from repro.core import PositionedInstance
from repro.core.montecarlo import ric_mc_chunk, ric_montecarlo
from repro.core.symbolic import ric_exact
from repro.core.worlds import WorkCounts
from repro.dependencies import FD, MVD
from repro.dependencies.jd import JD
from repro.engine import Problem, plan_and_run
from repro.relational import Relation, RelationSchema
from repro.service.metrics import METRICS
from repro.service.trace import TRACER, tracing
from repro.workloads.relational_gen import random_instance

W2_ROWS = [(1, 1, 1), (2, 1, 2), (1, 1, 2), (2, 1, 1)]

COUNTERS = ("ric.worlds.chased", "ric.oracle.calls", "ric.prune.calls",
            "ric.prune.hits", "ric.pattern.leaves", "ric.pattern.deficit")
ATTRS = ("chased", "oracle_calls", "prune_calls", "prune_hits", "leaves",
         "deficit_sum")


def w2(dependency) -> PositionedInstance:
    schema = RelationSchema("R", ("A", "B", "C"))
    return PositionedInstance.from_relation(
        Relation(schema, W2_ROWS), [dependency]
    )


def w1() -> PositionedInstance:
    deps = [FD("B", "C"), FD("A", "B")]
    relation = random_instance("ABCD", fds=deps, n_rows=4, domain=3, seed=1)
    return PositionedInstance.from_relation(relation, deps)


def exact_counts(instance, p):
    """``(value, counts)`` of a direct ``ric_exact`` call."""
    counts = WorkCounts()
    value = ric_exact(instance, p, counts=counts)
    return value, counts


def planned(instance, p, trace=True, **options):
    """``(value, engine_run span attributes, registry counters)`` of one
    planner run."""
    METRICS.reset()
    problem = Problem.from_instance(instance, p, **options)
    if not trace:
        return plan_and_run(problem).value, None, METRICS.snapshot()["counters"]
    with tracing():
        value = plan_and_run(problem).value
    (span,) = [s for s in TRACER.drain() if s["name"] == "engine_run"]
    return value, span["attrs"], METRICS.snapshot()["counters"]


def test_direct_kernel_calls_touch_no_registry():
    instance = w2(MVD("B", "A"))
    METRICS.reset()
    with tracing():
        exact_counts(instance, instance.positions[0])
        ric_montecarlo(instance, instance.positions[0], samples=5,
                       counts=WorkCounts())
    assert TRACER.drain() == []
    assert METRICS.snapshot()["counters"] == {}


@pytest.mark.parametrize(
    "dependency", [MVD("B", "A"), JD("AB", "BC")], ids=["mvd", "jd"]
)
def test_w2_sweep_counts_its_search(dependency):
    instance = w2(dependency)
    value, counts = exact_counts(instance, instance.positions[0])
    assert str(value) == "10049/12288"
    expected = {"worlds": 2048, "chased": 0, "oracle_calls": 0,
                "prune_calls": 29204, "prune_hits": 11901, "leaves": 2617,
                "deficit_sum": 1878, "deficit_max": 6}
    assert asdict(counts) == expected
    value, attrs, counters = planned(instance, instance.positions[0],
                                     method="exact")
    assert str(value) == "10049/12288"
    assert {k: attrs[k] for k in expected} == expected
    assert counters["engine.worlds{engine=exact}"] == 2048
    assert [counters[name] for name in COUNTERS] == [0, 0, 29204, 11901, 2617, 1878]


def test_w1_sweep_is_decided_by_the_chase():
    instance = w1()
    value, counts = exact_counts(instance, instance.positions[2])
    assert str(value) == "7/8"
    expected = {"worlds": 2048, "chased": 2048, "oracle_calls": 0,
                "prune_calls": 0, "prune_hits": 0, "leaves": 0,
                "deficit_sum": 0, "deficit_max": 0}
    assert asdict(counts) == expected
    _value, attrs, counters = planned(instance, instance.positions[2],
                                      method="exact")
    assert {k: attrs[k] for k in expected} == expected
    assert [counters[name] for name in COUNTERS] == [2048, 0, 0, 0, 0, 0]


def test_counts_do_not_need_the_tracer():
    instance = w2(MVD("B", "A"))
    _value, _attrs, counters = planned(instance, instance.positions[0],
                                       trace=False, method="exact")
    assert [counters[name] for name in COUNTERS] == [0, 0, 29204, 11901, 2617, 1878]


def test_mc_engine_run_span_carries_the_counts():
    instance = w2(MVD("B", "A"))
    chunk = ric_mc_chunk(instance, instance.positions[0], 0, 30, seed=3)
    assert chunk.counts.worlds == 30
    _value, attrs, counters = planned(instance, instance.positions[0],
                                      method="montecarlo", samples=30, seed=3)
    assert attrs["worlds"] == 30
    assert counters["engine.worlds{engine=montecarlo}"] == 30
    assert counters["ric.pattern.leaves"] > 0
    assert counters["ric.prune.hits"] > 0
    for name, attr in zip(COUNTERS, ATTRS):
        assert counters[name] == attrs[attr] == getattr(chunk.counts, attr)


def test_chunks_merge_their_counts():
    instance = w2(MVD("B", "A"))
    p = instance.positions[0]
    whole = ric_mc_chunk(instance, p, 0, 30, seed=3)
    merged = ric_mc_chunk(instance, p, 0, 12, seed=3).merge(
        ric_mc_chunk(instance, p, 12, 18, seed=3))
    assert merged.counts == whole.counts
    counts = WorkCounts()
    ric_montecarlo(instance, p, samples=30, seed=3, counts=counts)
    assert counts == whole.counts


def w4() -> PositionedInstance:
    """perfbench's ``w4_mvd``: 21 positions, past the exact guard."""
    schema = RelationSchema("R", ("A", "B", "C"))
    rows = [(a, 1, c) for a in (1, 2) for c in (1, 2, 3)] + [(1, 2, 1)]
    return PositionedInstance.from_relation(Relation(schema, rows), [MVD("B", "A")])


def test_w4_samples_count_their_search():
    # perfbench's mc workload samples w4 at seed 0, 4 samples: the counts
    # of each sample explain its time.
    instance = w4()
    samples = []
    for j in range(4):
        counts = ric_mc_chunk(instance, instance.positions[0], j, 1, seed=0).counts
        samples.append(tuple(getattr(counts, k) for k in ATTRS + ("deficit_max",)))
    assert samples == [
        # chased, oracle, prune calls, hits, leaves, deficit sum and max
        (0, 0, 34, 18, 1, 3, 3),
        (0, 0, 449, 218, 1, 3, 3),
        (0, 0, 323, 197, 1, 3, 3),
        (0, 0, 2, 0, 1, 0, 0),
    ]


MC_JOB = {
    "kind": "measure",
    "design": "R(A,B,C); B->>A",
    "rows": [list(row) for row in W2_ROWS],
    "position": [0, "A"],
    "method": "montecarlo",
    "samples": 30,
    "seed": 3,
}


def batch_counters(tmp_path, *flags):
    jobs = tmp_path / "jobs.jsonl"
    jobs.write_text(json.dumps(MC_JOB) + "\n", encoding="utf-8")
    out = tmp_path / f"report{len(flags)}.json"
    assert main(["batch", str(jobs), "--workers", "2", "--out", str(out),
                 *flags]) == 0
    counters = json.loads(out.read_text(encoding="utf-8"))["metrics"][
        "counters"]
    return [counters.get(name) for name in COUNTERS]


def test_batch_counts_the_same_over_threads_and_processes(tmp_path):
    instance = w2(MVD("B", "A"))
    counts = WorkCounts()
    ric_montecarlo(instance, instance.positions[0], samples=30, seed=3,
                   counts=counts)
    serial = [getattr(counts, attr) for attr in ATTRS]
    assert serial[4] > 0 and serial[2] > 0
    assert batch_counters(tmp_path) == serial
    assert batch_counters(tmp_path, "--processes") == serial
