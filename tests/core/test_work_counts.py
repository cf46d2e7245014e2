"""The kernels count their own work: worlds, chase decisions, oracle
calls, pruning checks, prune hits, pattern leaves and the fresh classes'
least deficits, on the ``ric.sweep`` / ``mc.chunk`` spans and in the
registry.

On W2 the pruning state decides every leaf, so the search makes no
oracle call (DESIGN §2.1, the leaf lemma); it assigns ``p``'s column
first, offers a cell only its column's labels at a least deficit, skips
the fixed classes ``p``'s column does not hold and checks a deficit-0
walk once (DESIGN §2.1, "Column-local search").
"""

import json

import pytest

from repro.__main__ import main
from repro.core import PositionedInstance
from repro.core.montecarlo import ric_mc_chunk, ric_montecarlo
from repro.core.symbolic import ric_exact
from repro.dependencies import FD, MVD
from repro.dependencies.jd import JD
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


def traced_sweep(instance, p):
    """``(value, ric.sweep span attributes, registry counters)``."""
    METRICS.reset()
    with tracing():
        value = ric_exact(instance, p)
    (span,) = [s for s in TRACER.drain() if s["name"] == "ric.sweep"]
    return value, span["attrs"], METRICS.snapshot()["counters"]


@pytest.mark.parametrize(
    "dependency", [MVD("B", "A"), JD("AB", "BC")], ids=["mvd", "jd"]
)
def test_w2_sweep_counts_its_search(dependency):
    instance = w2(dependency)
    value, attrs, counters = traced_sweep(instance, instance.positions[0])
    assert str(value) == "10049/12288"
    expected = {"worlds": 2048, "chased": 0, "oracle_calls": 0,
                "prune_calls": 29204, "prune_hits": 11901, "leaves": 2617,
                "deficit_sum": 1878, "deficit_max": 6}
    assert {k: attrs[k] for k in expected} == expected
    assert counters["ric.sweep.worlds"] == 2048
    assert [counters[name] for name in COUNTERS] == [0, 0, 29204, 11901, 2617, 1878]


def test_w1_sweep_is_decided_by_the_chase():
    instance = w1()
    value, attrs, counters = traced_sweep(instance, instance.positions[2])
    assert str(value) == "7/8"
    expected = {"worlds": 2048, "chased": 2048, "oracle_calls": 0,
                "prune_calls": 0, "prune_hits": 0, "leaves": 0,
                "deficit_sum": 0, "deficit_max": 0}
    assert {k: attrs[k] for k in expected} == expected
    assert [counters[name] for name in COUNTERS] == [2048, 0, 0, 0, 0, 0]


def test_counts_do_not_need_the_tracer():
    instance = w2(MVD("B", "A"))
    METRICS.reset()
    ric_exact(instance, instance.positions[0])
    assert [METRICS.get(name) for name in COUNTERS] == [0, 0, 29204, 11901, 2617, 1878]


def test_mc_chunk_span_carries_the_counts():
    instance = w2(MVD("B", "A"))
    METRICS.reset()
    with tracing():
        ric_montecarlo(instance, instance.positions[0], samples=30, seed=3)
    (span,) = [s for s in TRACER.drain() if s["name"] == "mc.chunk"]
    counters = METRICS.snapshot()["counters"]
    assert span["attrs"]["worlds"] == 30
    assert counters["ric.pattern.leaves"] > 0
    assert counters["ric.prune.hits"] > 0
    for name, attr in zip(COUNTERS, ATTRS):
        assert counters[name] == span["attrs"][attr]


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
        with tracing():
            ric_mc_chunk(instance, instance.positions[0], j, 1, seed=0)
        (span,) = [s for s in TRACER.drain() if s["name"] == "mc.chunk"]
        samples.append(tuple(span["attrs"][k] for k in ATTRS + ("deficit_max",)))
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
    METRICS.reset()
    ric_montecarlo(instance, instance.positions[0], samples=30, seed=3)
    serial = [METRICS.get(name) for name in COUNTERS]
    assert serial[4] > 0 and serial[2] > 0
    assert batch_counters(tmp_path) == serial
    assert batch_counters(tmp_path, "--processes") == serial
