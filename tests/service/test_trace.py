"""The span tracer: nesting, determinism, thread safety, adoption."""

import threading

from repro.service.trace import NOOP_SPAN, Tracer, TRACER, tracing


class TestSpanLifecycle:
    def test_disabled_tracer_returns_shared_noop(self):
        tracer = Tracer()
        span = tracer.span("anything", attr=1)
        assert span is NOOP_SPAN
        # The no-op honours the full span protocol.
        with span as s:
            s.set(x=1)
            s.event("e", y=2)
        assert tracer.drain() == []

    def test_ids_are_deterministic_counters(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        ids = [s["id"] for s in tracer.drain()]
        assert ids == ["s1", "s2"]
        tracer.reset()
        with tracer.span("c"):
            pass
        assert [s["id"] for s in tracer.drain()] == ["s1"]

    def test_nesting_links_parents_within_a_thread(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("outer"):
            outer_id = tracer.current_id()
            with tracer.span("inner"):
                with tracer.span("leaf"):
                    pass
        spans = {s["name"]: s for s in tracer.drain()}
        assert spans["outer"]["parent"] is None
        assert spans["inner"]["parent"] == spans["outer"]["id"] == outer_id
        assert spans["leaf"]["parent"] == spans["inner"]["id"]

    def test_attributes_events_and_error_flag(self):
        tracer = Tracer()
        tracer.enable()
        try:
            with tracer.span("work", stage="one") as span:
                span.set(rows=7)
                span.event("tick", n=1)
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        (record,) = tracer.drain()
        assert record["attrs"] == {"stage": "one", "rows": 7}
        assert record["error"] is True
        (event,) = record["events"]
        assert event["name"] == "tick" and event["attrs"] == {"n": 1}
        assert record["ts"] <= event["ts"] <= record["ts"] + record["dur"]

    def test_tracer_event_attaches_to_innermost_open_span(self):
        tracer = Tracer()
        tracer.enable()
        tracer.event("dropped")  # no open span: silently ignored
        with tracer.span("outer"):
            with tracer.span("inner"):
                tracer.event("hit", k=1)
        spans = {s["name"]: s for s in tracer.drain()}
        assert spans["outer"]["events"] == []
        assert [e["name"] for e in spans["inner"]["events"]] == ["hit"]

    def test_explicit_parent_bridges_thread_hops(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("dispatch"):
            parent = tracer.current_id()

            def worker():
                with tracer.span("offloaded", parent_id=parent):
                    pass

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        spans = {s["name"]: s for s in tracer.drain()}
        assert spans["offloaded"]["parent"] == spans["dispatch"]["id"]
        assert spans["offloaded"]["tid"] != spans["dispatch"]["tid"]

    def test_drain_clears_snapshot_does_not(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("a"):
            pass
        assert len(tracer.snapshot_spans()) == 1
        assert len(tracer.snapshot_spans()) == 1
        assert len(tracer.drain()) == 1
        assert tracer.drain() == []

    def test_max_spans_caps_memory_and_counts_drops(self):
        tracer = Tracer(max_spans=3)
        tracer.enable()
        for _ in range(5):
            with tracer.span("s"):
                pass
        assert len(tracer.drain()) == 3
        assert tracer.dropped == 2
        tracer.reset()
        assert tracer.dropped == 0


class TestThreadSafety:
    def test_concurrent_threads_keep_independent_stacks(self):
        tracer = Tracer()
        tracer.enable()
        # A thread that fails to start breaks the barrier for the others
        # after the timeout, so the test fails instead of hanging.
        barrier = threading.Barrier(4, timeout=30)

        def worker(tag):
            barrier.wait()
            for i in range(25):
                with tracer.span("outer", tag=tag):
                    with tracer.span("inner", tag=tag, i=i):
                        pass

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        spans = tracer.drain()
        assert len(spans) == 4 * 25 * 2
        assert len({s["id"] for s in spans}) == len(spans)  # unique IDs
        by_id = {s["id"]: s for s in spans}
        for span in spans:
            if span["name"] == "inner":
                parent = by_id[span["parent"]]
                # Nesting never crosses threads.
                assert parent["name"] == "outer"
                assert parent["attrs"]["tag"] == span["attrs"]["tag"]


class TestAdoption:
    def test_adopt_remaps_ids_and_reroots_orphans(self):
        child = Tracer()
        child.enable()
        with child.span("chunk"):
            with child.span("engine"):
                pass
        shipped = child.drain()

        parent = Tracer()
        parent.enable()
        with parent.span("dispatch"):
            anchor = parent.current_id()
        new_ids = parent.adopt(shipped, parent_id=anchor)
        spans = {s["name"]: s for s in parent.drain()}
        # Remapped IDs continue the parent's counter — no collisions.
        assert spans["dispatch"]["id"] == "s1"
        assert set(new_ids) == {spans["chunk"]["id"], spans["engine"]["id"]}
        assert spans["chunk"]["id"] != "s1"
        # The orphan root is re-rooted; the internal link is preserved.
        assert spans["chunk"]["parent"] == "s1"
        assert spans["engine"]["parent"] == spans["chunk"]["id"]

    def test_adopt_empty_is_a_noop(self):
        tracer = Tracer()
        tracer.enable()
        assert tracer.adopt([]) == []
        assert tracer.drain() == []

    def test_adopt_preserves_drop_counts_across_two_hops(self):
        # worker -> pool-process tracer -> parent: spans dropped at the
        # source must stay visible at the end of the chain, or the
        # parent would report a complete trace that silently is not.
        worker = Tracer(max_spans=2)
        worker.enable()
        for _ in range(5):
            with worker.span("w"):
                pass
        assert worker.dropped == 3

        middle = Tracer()
        middle.enable()
        middle.adopt(worker.drain(), dropped=worker.dropped)
        with middle.span("m"):
            pass
        assert middle.dropped == 3

        parent = Tracer()
        parent.enable()
        parent.adopt(middle.drain(), dropped=middle.dropped)
        assert parent.dropped == 3
        assert len(parent.drain()) == 3  # 2 surviving w spans + m

    def test_adopt_counts_drops_even_without_spans(self):
        # A fully saturated worker ships zero spans but a real drop
        # count; the early return for empty payloads must not skip it.
        parent = Tracer()
        parent.enable()
        assert parent.adopt([], dropped=7) == []
        assert parent.dropped == 7


class TestGlobalHelpers:
    def test_tracing_context_restores_previous_state(self):
        assert TRACER.enabled is False
        with tracing() as tracer:
            assert tracer is TRACER and TRACER.enabled
            with TRACER.span("inside"):
                pass
        assert TRACER.enabled is False
        # Collected spans survive the context for draining.
        assert [s["name"] for s in TRACER.drain()] == ["inside"]

    def test_tracing_fresh_resets_counter(self):
        with tracing():
            with TRACER.span("a"):
                pass
        with tracing():
            with TRACER.span("b"):
                pass
            (span,) = TRACER.drain()
            assert span["id"] == "s1"
