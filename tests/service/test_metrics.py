"""The metrics registry and its wiring into the engines: the chase and
RPQ search record themselves; the ``RIC`` kernels return their counts
and the planner records them."""

from repro.chase.engine import chase
from repro.core import PositionedInstance, ric_exact, ric_montecarlo
from repro.core.worlds import WorkCounts
from repro.engine import Problem, plan_and_run
from repro.dependencies import FD
from repro.dependencies.mvd import MVD
from repro.graph.graphdb import GraphDB
from repro.graph.rpq import rpq_reachable
from repro.relational import Relation, RelationSchema
from repro.service.metrics import METRICS, Metrics
from repro.service.trace import TRACER, tracing


class TestRegistry:
    def test_counters_accumulate(self):
        metrics = Metrics()
        metrics.inc("x")
        metrics.inc("x", 4)
        assert metrics.get("x") == 5
        assert metrics.get("never") == 0

    def test_snapshot_and_reset(self):
        metrics = Metrics()
        metrics.inc("a", 2)
        assert metrics.snapshot()["counters"] == {"a": 2}
        metrics.reset()
        assert metrics.snapshot() == {"counters": {}}

    def test_labeled_counters(self):
        metrics = Metrics()
        metrics.inc("errors", kind="parse")
        metrics.inc("errors", 2, kind="budget")
        metrics.inc("errors", kind="parse")
        assert metrics.get("errors", kind="parse") == 2
        assert metrics.get("errors", kind="budget") == 2
        assert metrics.get("errors") == 0  # unlabeled series is distinct
        counters = metrics.snapshot()["counters"]
        assert counters["errors{kind=parse}"] == 2
        assert counters["errors{kind=budget}"] == 2


class TestEngineWiring:
    def test_chase_records_steps(self):
        METRICS.reset()
        schema = RelationSchema("R", ("A", "B", "C"))
        result = chase(
            Relation(schema, [(1, 2, 3), (1, 5, 6)]), [MVD("A", "B")]
        )
        assert result.consistent and result.steps >= 1
        assert METRICS.get("chase.runs") == 1
        assert METRICS.get("chase.steps") == result.steps

    def test_ric_sweep_records_worlds(self):
        METRICS.reset()
        schema = RelationSchema("R", ("A", "B"))
        inst = PositionedInstance.from_relation(
            Relation(schema, [(1, 2), (3, 2)]), [FD("A", "B")]
        )
        counts = WorkCounts()
        ric_exact(inst, inst.positions[0], counts=counts)
        # 4 positions -> 2^3 revealed sets swept.
        assert counts.worlds == 8
        assert METRICS.snapshot()["counters"] == {}
        plan_and_run(Problem.from_instance(inst, inst.positions[0], method="exact"))
        assert METRICS.get("engine.runs", engine="exact") == 1
        assert METRICS.get("engine.worlds", engine="exact") == 8

    def test_chased_worlds_are_counted_per_sweep_and_chunk(self):
        # Every world of an FD-only instance is decided by the chase; the
        # count lands once on each engine run's span.
        schema = RelationSchema("R", ("A", "B"))
        inst = PositionedInstance.from_relation(
            Relation(schema, [(1, 2), (3, 2)]), [FD("A", "B")]
        )
        sweep, chunk = WorkCounts(), WorkCounts()
        ric_exact(inst, inst.positions[0], counts=sweep)
        ric_montecarlo(inst, inst.positions[0], samples=5, counts=chunk)
        assert (sweep.chased, chunk.chased) == (8, 5)
        METRICS.reset()
        with tracing():
            for method in ("exact", "montecarlo"):
                plan_and_run(Problem.from_instance(
                    inst, inst.positions[0], method=method, samples=5))
        spans = {s["attrs"]["engine"]: s["attrs"] for s in TRACER.drain()
                 if s["name"] == "engine_run"}
        assert spans["exact"]["chased"] == 8
        assert spans["montecarlo"]["chased"] == 5
        assert METRICS.get("ric.worlds.chased") == 13

    def test_mvd_worlds_are_not_chased(self):
        schema = RelationSchema("R", ("A", "B", "C"))
        inst = PositionedInstance.from_relation(
            Relation(schema, [(1, 2, 3), (1, 2, 1)]), [MVD("A", "B")]
        )
        METRICS.reset()
        with tracing():
            plan_and_run(Problem.from_instance(inst, inst.positions[0], method="exact"))
        (run,) = [s for s in TRACER.drain() if s["name"] == "engine_run"]
        assert run["attrs"]["chased"] == 0
        assert METRICS.get("ric.worlds.chased") == 0

    def test_montecarlo_records_samples(self):
        METRICS.reset()
        schema = RelationSchema("R", ("A", "B"))
        inst = PositionedInstance.from_relation(
            Relation(schema, [(1, 2)]), []
        )
        plan_and_run(Problem.from_instance(
            inst, inst.positions[0], method="montecarlo", samples=17))
        assert METRICS.get("engine.worlds", engine="montecarlo") == 17

    def test_rpq_records_expansions(self):
        METRICS.reset()
        graph = GraphDB.from_edges(
            [("a", "l", "b"), ("b", "l", "c"), ("c", "l", "a")]
        )
        rpq_reachable(graph, "l+", "a")
        assert METRICS.get("rpq.searches") == 1
        assert METRICS.get("rpq.expansions") > 0
