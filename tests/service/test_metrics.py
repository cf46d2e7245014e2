"""The metrics registry and its wiring into the engines."""

from repro.chase.engine import chase
from repro.core import PositionedInstance, ric_exact, ric_montecarlo
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

    def test_merge_combines_counters(self):
        parent, child = Metrics(), Metrics()
        parent.inc("x", 1)
        child.inc("x", 2)
        child.inc("y", 3)

        parent.merge(child.snapshot())
        assert parent.snapshot() == {"counters": {"x": 3, "y": 3}}

    def test_merge_disjoint_labeled_counters_stay_distinct(self):
        parent, child = Metrics(), Metrics()
        parent.inc("errors", 2, kind="parse")
        parent.inc("errors", 1)  # the unlabeled series
        child.inc("errors", 3, kind="budget")
        child.inc("errors", 5, kind="parse", stage="retry")

        parent.merge(child.snapshot())
        counters = parent.snapshot()["counters"]
        # Disjoint label sets merge as separate series — nothing is
        # summed across labels, nothing collapses into the bare name.
        assert counters["errors{kind=parse}"] == 2
        assert counters["errors{kind=budget}"] == 3
        assert counters["errors{kind=parse,stage=retry}"] == 5
        assert counters["errors"] == 1
        assert parent.get("errors", kind="budget") == 3

    def test_merge_accepts_registry_instances(self):
        parent, child = Metrics(), Metrics()
        child.inc("z", 7)
        parent.merge(child)
        assert parent.get("z") == 7

    def test_merge_is_associative_on_snapshots(self):
        a, b, c = Metrics(), Metrics(), Metrics()
        for m, v in ((a, 1), (b, 2), (c, 4)):
            m.inc("t", v)
            m.inc("n")
        left = Metrics()
        left.merge(a)
        left.merge(b)
        left.merge(c)
        right = Metrics()
        bc = Metrics()
        bc.merge(b)
        bc.merge(c)
        right.merge(a)
        right.merge(bc)
        assert left.snapshot() == right.snapshot() == {
            "counters": {"n": 3, "t": 7}
        }


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
        ric_exact(inst, inst.positions[0])
        assert METRICS.get("ric.sweeps") == 1
        # 4 positions -> 2^3 revealed sets swept.
        assert METRICS.get("ric.sweep.worlds") == 8

    def test_chased_worlds_are_counted_per_sweep_and_chunk(self):
        # Every world of an FD-only instance is decided by the chase; the
        # count lands once on the sweep's and the chunk's span.
        schema = RelationSchema("R", ("A", "B"))
        inst = PositionedInstance.from_relation(
            Relation(schema, [(1, 2), (3, 2)]), [FD("A", "B")]
        )
        METRICS.reset()
        with tracing():
            ric_exact(inst, inst.positions[0])
            ric_montecarlo(inst, inst.positions[0], samples=5)
        spans = {s["name"]: s["attrs"] for s in TRACER.drain()}
        assert spans["ric.sweep"]["chased"] == 8
        assert spans["mc.chunk"]["chased"] == 5
        assert METRICS.get("ric.worlds.chased") == 13

    def test_mvd_worlds_are_not_chased(self):
        schema = RelationSchema("R", ("A", "B", "C"))
        inst = PositionedInstance.from_relation(
            Relation(schema, [(1, 2, 3), (1, 2, 1)]), [MVD("A", "B")]
        )
        METRICS.reset()
        with tracing():
            ric_exact(inst, inst.positions[0])
        (sweep,) = [s for s in TRACER.drain() if s["name"] == "ric.sweep"]
        assert sweep["attrs"]["chased"] == 0
        assert METRICS.get("ric.worlds.chased") == 0

    def test_montecarlo_records_samples(self):
        METRICS.reset()
        schema = RelationSchema("R", ("A", "B"))
        inst = PositionedInstance.from_relation(
            Relation(schema, [(1, 2)]), []
        )
        ric_montecarlo(inst, inst.positions[0], samples=17)
        assert METRICS.get("ric.mc.samples") == 17

    def test_rpq_records_expansions(self):
        METRICS.reset()
        graph = GraphDB.from_edges(
            [("a", "l", "b"), ("b", "l", "c"), ("c", "l", "a")]
        )
        rpq_reachable(graph, "l+", "a")
        assert METRICS.get("rpq.searches") == 1
        assert METRICS.get("rpq.expansions") > 0
