"""Cost calibration: reading engine_run spans, the fit, the error
accounting."""

import json

import pytest

from repro.engine.planner import Planner
from repro.perf.calibrate import (
    calibrate,
    collect_engine_runs,
    fit_calibration,
    relative_error,
    render_calibration,
)
from repro.service.budget import Budget, BudgetExceeded
from repro.service.runner import run_batch
from repro.service.trace import TRACER, tracing

#: W2 under an MVD: its worlds make oracle-free pruned searches.
W2_MVD = (
    '{"kind": "measure", "design": "R(A,B,C); B->>A",'
    ' "rows": [[1,1,1],[2,1,2],[1,1,2],[2,1,1]], "position": [0, "A"],'
    ' "method": "montecarlo", "samples": 60, "seed": %d}'
)


def run_span(span_id, engine, dur_s, parent=None, **attrs):
    return {"id": span_id, "parent": parent, "name": "engine_run",
            "dur": dur_s, "attrs": {"engine": engine, **attrs}}


def timed_run(span_id, engine, count, dur_s):
    """An engine_run span that counted *count* worlds."""
    return [run_span(span_id, engine, dur_s, worlds=count)]


def as_chrome_trace(spans):
    return {"traceEvents": [
        {"ph": "X", "name": s["name"], "ts": 0, "dur": s["dur"] * 1e6,
         "args": {**s["attrs"], "span_id": s["id"],
                  **({"parent_id": s["parent"]} if s["parent"] else {}),
                  **({"error": True} if s.get("error") else {})}}
        for s in spans
    ]}


class TestCollect:
    def test_collects_only_usable_engine_runs(self):
        spans = [
            *timed_run("a", "exact", 100, 0.01),
            *timed_run("b", "exact", 0, 0.01),  # counted nothing
            *timed_run("c", "exact", 100, 0.0),  # zero duration
            run_span("d", "exact", 0.01),  # carries no counts
            {**run_span("e", "exact", 0.01, worlds=100), "error": True},  # failed
            run_span("f", None, 0.01, worlds=100),  # no engine
            {"id": "g", "parent": None, "name": "pool.chunk", "dur": 0.01,
             "attrs": {"engine": "exact", "worlds": 100}},  # not a run
        ]
        runs = collect_engine_runs(spans)
        assert runs == [{"engine": "exact", "count": 100, "seconds": 0.01}]

    def test_a_run_counts_what_its_own_span_carries(self):
        spans = [
            # Chased worlds and prune hits are not part of the count.
            run_span("e1", "exact", 0.5, worlds=8, chased=8, oracle_calls=3,
                     prune_calls=20, prune_hits=11, leaves=5),
            run_span("e2", "montecarlo", 0.2, worlds=60, leaves=2,
                     prune_calls=7),
            # The spans beneath a run add nothing.
            {"id": "c1", "parent": "e2", "name": "pool.chunk", "dur": 0.1,
             "attrs": {"worlds": 30}},
            {"id": "o", "parent": "e2", "name": "chase.run", "dur": 0.0,
             "attrs": {"worlds": 1000}},
        ]
        for trace in (spans, as_chrome_trace(spans)):
            runs = collect_engine_runs(trace)
            assert [(r["engine"], r["count"]) for r in runs] == [
                ("exact", 8 + 3 + 20 + 5),
                ("montecarlo", 30 + 2 + 30 + 7),
            ]

    def test_reads_chrome_trace_documents(self):
        trace = as_chrome_trace(timed_run("s1", "montecarlo", 500, 0.01))
        trace["traceEvents"].append({"ph": "M", "name": "process_name"})
        (run,) = collect_engine_runs(trace)
        assert run["seconds"] == pytest.approx(0.01)  # us -> s
        assert run["count"] == 500

    def test_a_timed_out_stage_is_skipped(self):
        # W2's MVD sweep takes far longer than 50 ms: the exact stage
        # times out, and only the completed run below is fitted.
        w2 = (
            '{"kind": "measure", "design": "R(A,B,C); B->>A",'
            ' "rows": [[1,1,1],[2,1,2],[1,1,2],[2,1,1]],'
            ' "position": [0, "A"], "method": "exact"}'
        )
        from repro.service.jobs import parse_jsonl_lenient
        from tests.perf.workload import small_problem

        [(_, job, error)] = parse_jsonl_lenient(w2)
        assert error is None
        planner = Planner()
        with tracing():
            with pytest.raises(BudgetExceeded):
                planner.plan_and_run(
                    job.problem, budget=Budget(wall_seconds=0.05)
                )
            planner.plan_and_run(small_problem(2, method="exact"))
            spans = TRACER.drain()
        timed_out = [s for s in spans
                     if s["name"] == "engine_run" and s.get("error")]
        assert len(timed_out) == 1
        (run,) = collect_engine_runs(spans)
        assert (run["engine"], run["count"]) == ("exact", 32)  # 2^5 worlds


class TestFit:
    def test_perfectly_linear_engine_fits_exactly(self):
        spans = [span for count in (100, 200, 400)
                 for span in timed_run(f"e{count}", "exact", count,
                                       count * 2e-6)]
        calibration = fit_calibration(collect_engine_runs(spans))
        entry = calibration["engines"]["exact"]
        assert entry["seconds_per_count"] == pytest.approx(2e-6)
        assert entry["seconds_per_run"] == pytest.approx(0.0, abs=1e-12)
        assert entry["rel_error"] == pytest.approx(0.0, abs=1e-9)
        assert calibration["schema_version"] == 3

    def test_a_fixed_cost_per_run_is_the_intercept(self):
        # Every run pays 0.3 ms whatever it counts: a slope alone misses
        # the small runs by far, an intercept fits them exactly.
        runs = [{"engine": "exact", "count": c, "seconds": 3e-4 + c * 1e-6}
                for c in (4, 32, 256, 832)]
        calibration = fit_calibration(runs)
        entry = calibration["engines"]["exact"]
        assert entry["seconds_per_run"] == pytest.approx(3e-4)
        assert entry["seconds_per_count"] == pytest.approx(1e-6)
        assert entry["rel_error"] == pytest.approx(0.0, abs=1e-9)
        assert calibration["error"]["before"] > 0.5

    def test_one_run_fits_a_slope_alone(self):
        # One run cannot tell a fixed cost from a per-count one.
        calibration = fit_calibration(
            [{"engine": "exact", "count": 10, "seconds": 1e-3}]
        )
        entry = calibration["engines"]["exact"]
        assert (entry["seconds_per_run"], entry["seconds_per_count"]) == (0.0, 1e-4)

    def test_a_negative_intercept_is_clamped(self):
        # Seconds grow faster than counts: the free fit's intercept is
        # negative, so the slope alone is fitted.
        runs = [{"engine": "exact", "count": c, "seconds": c * c * 1e-6}
                for c in (10, 20, 40)]
        entry = fit_calibration(runs)["engines"]["exact"]
        assert entry["seconds_per_run"] == 0.0
        assert entry["seconds_per_count"] > 0.0

    def test_per_engine_error_never_exceeds_shared(self):
        # Two engines with very different true constants: one shared
        # coefficient must be strictly worse than the per-engine fit.
        runs = [
            {"engine": "exact", "count": c, "seconds": c * 1e-5}
            for c in (50, 100)
        ] + [
            {"engine": "montecarlo", "count": c, "seconds": c * 1e-7}
            for c in (5000, 9000)
        ]
        calibration = fit_calibration(runs)
        error = calibration["error"]
        assert error["after"] <= error["before"]
        assert error["after"] == pytest.approx(0.0, abs=1e-9)
        assert error["before"] > 0.1

    def test_empty_runs_raise(self):
        with pytest.raises(ValueError):
            fit_calibration([])

    def test_relative_error_skips_unknown_engines(self):
        runs = [{"engine": "exact", "count": 10, "seconds": 1.0}]
        assert relative_error(runs, {}) is None

    def test_render_mentions_engines_and_errors(self):
        runs = [{"engine": "exact", "count": c, "seconds": c * 1e-5}
                for c in (50, 100)]
        text = render_calibration(fit_calibration(runs))
        assert "exact" in text and "sec/run" in text and "sec/count" in text


class TestEndToEnd:
    def test_process_batch_counts_equal_the_report_counters(self, tmp_path):
        # Chunks run in worker processes and return their counts; the
        # planner puts them on the engine_run span in this process.
        path = tmp_path / "jobs.jsonl"
        path.write_text(W2_MVD % 1 + "\n" + W2_MVD % 2 + "\n",
                        encoding="utf-8")
        with tracing():
            report = run_batch(str(path), workers=2, use_processes=True)
            spans = TRACER.drain()
        assert report["ok"] == 2
        counters = report["metrics"]["counters"]
        runs = collect_engine_runs(spans)
        assert [r["engine"] for r in runs] == ["montecarlo"] * 2
        assert counters["ric.prune.calls"] > 0
        assert sum(r["count"] for r in runs) == sum(
            counters.get(name, 0)
            for name in ("engine.worlds{engine=montecarlo}", "ric.oracle.calls",
                         "ric.prune.calls", "ric.pattern.leaves")
        )

    def test_calibrate_fits_a_recorded_trace(self, tmp_path):
        from repro.service.export import save_trace
        from tests.perf.workload import small_problem

        with tracing():
            planner = Planner()
            for n_rows in (2, 3):
                planner.plan_and_run(small_problem(n_rows, method="exact"))
                planner.plan_and_run(
                    small_problem(n_rows, method="montecarlo", samples=100)
                )
            spans = TRACER.drain()
        trace_path = str(tmp_path / "trace.json")
        save_trace(trace_path, spans)
        out_path = str(tmp_path / "cost_calibration.json")
        calibration = calibrate(trace_path, out_path)
        assert set(calibration["engines"]) == {"exact", "montecarlo"}
        assert all(e["runs"] == 2 for e in calibration["engines"].values())
        assert calibration["error"]["after"] <= calibration["error"]["before"]
        with open(out_path, "r", encoding="utf-8") as handle:
            assert json.load(handle)["engines"] == calibration["engines"]

    def test_calibrate_rejects_non_trace_input(self, tmp_path):
        path = str(tmp_path / "not_trace.json")
        bad_events = (
            {"ph": "X", "name": "engine_run", "dur": "x",
             "args": {"engine": "exact", "span_id": "s1"}},
            {"ph": "X", "name": "engine_run", "dur": 100, "args": ["x"]},
        )
        for document in ({"tables": []}, {"traceEvents": ["x"]},
                         *({"traceEvents": [e]} for e in bad_events)):
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(document, handle)
            with pytest.raises(ValueError):
                calibrate(path)

    def test_calibrate_rejects_traces_without_kernel_counts(self, tmp_path):
        path = str(tmp_path / "old_trace.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": [
                {"ph": "X", "name": "engine_run", "dur": 100,
                 "args": {"engine": "exact", "units": 1.0,
                          "span_id": "s1"}}]}, handle)
        with pytest.raises(ValueError):
            calibrate(path)
