"""Cost calibration: span harvesting, the fit, the error accounting."""

import json

import pytest

from repro.engine import Problem
from repro.engine.cost import CostModel, load_calibration
from repro.engine.planner import Planner
from repro.perf.calibrate import (
    calibrate,
    collect_engine_runs,
    fit_calibration,
    relative_error,
    render_calibration,
)
from repro.service.budget import Budget
from repro.service.trace import TRACER, tracing


def span(engine, units, dur_s, name="engine_run"):
    return {"name": name, "dur": dur_s, "attrs": {"engine": engine,
                                                  "units": units}}


class TestCollect:
    def test_collects_only_usable_engine_runs(self):
        spans = [
            span("exact", 100.0, 0.01),
            span("exact", 100.0, 0.01, name="plan"),  # wrong span
            span("exact", 0.0, 0.01),  # zero units
            span("exact", float("inf"), 0.01),  # unbounded estimate
            span("exact", 100.0, 0.0),  # zero duration
            {"name": "engine_run", "dur": 0.01, "attrs": {}},  # no engine
        ]
        runs = collect_engine_runs(spans)
        assert len(runs) == 1
        assert runs[0] == {"engine": "exact", "units": 100.0,
                           "seconds": 0.01}

    def test_reads_chrome_trace_documents(self):
        trace = {
            "traceEvents": [
                {"ph": "X", "name": "engine_run", "dur": 10_000,
                 "args": {"engine": "montecarlo", "units": 500.0}},
                {"ph": "M", "name": "process_name"},
            ]
        }
        (run,) = collect_engine_runs(trace)
        assert run["seconds"] == pytest.approx(0.01)  # us -> s


class TestFit:
    def test_perfectly_linear_engine_fits_exactly(self):
        runs = [span("exact", units, units * 2e-6)
                for units in (100.0, 200.0, 400.0)]
        calibration = fit_calibration(collect_engine_runs(runs))
        entry = calibration["engines"]["exact"]
        assert entry["seconds_per_unit"] == pytest.approx(2e-6)
        assert entry["rel_error"] == pytest.approx(0.0, abs=1e-9)

    def test_per_engine_error_never_exceeds_shared(self):
        # Two engines with very different true constants: one shared
        # coefficient (the uncalibrated model's implicit claim) must be
        # strictly worse than the per-engine fit.
        runs = collect_engine_runs(
            [span("exact", u, u * 1e-5) for u in (50.0, 100.0)]
            + [span("montecarlo", u, u * 1e-7) for u in (5000.0, 9000.0)]
        )
        calibration = fit_calibration(runs)
        error = calibration["error"]
        assert error["after"] <= error["before"]
        assert error["after"] == pytest.approx(0.0, abs=1e-9)
        assert error["before"] > 0.1

    def test_empty_runs_raise(self):
        with pytest.raises(ValueError):
            fit_calibration([])

    def test_relative_error_skips_unknown_engines(self):
        runs = collect_engine_runs([span("exact", 10.0, 1.0)])
        assert relative_error(runs, {}) is None

    def test_render_mentions_engines_and_errors(self):
        runs = collect_engine_runs(
            [span("exact", u, u * 1e-5) for u in (50.0, 100.0)]
        )
        text = render_calibration(fit_calibration(runs))
        assert "exact" in text and "sec/unit" in text


class TestEndToEnd:
    def test_calibrate_round_trips_into_the_cost_model(self, tmp_path):
        # Record real engine_run spans through the planner...
        from tests.perf.workload import small_problem

        with tracing():
            planner = Planner()
            for n_rows in (2, 3):
                planner.plan_and_run(
                    small_problem(n_rows, method="exact"), budget=Budget()
                )
                planner.plan_and_run(
                    small_problem(n_rows, method="montecarlo", samples=100),
                    budget=Budget(),
                )
            spans = TRACER.drain()
        trace_path = str(tmp_path / "trace.json")
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump(
                {"traceEvents": [
                    {"ph": "X", "name": s["name"],
                     "dur": s["dur"] * 1e6, "args": s["attrs"]}
                    for s in spans
                ]},
                handle,
            )
        out_path = str(tmp_path / "cost_calibration.json")
        calibration = calibrate(trace_path, out_path)
        assert set(calibration["engines"]) == {"exact", "montecarlo"}
        assert calibration["error"]["after"] <= calibration["error"]["before"]

        # ...and the written file loads into a CostModel whose
        # estimates now carry predicted wall seconds.
        model = CostModel.with_calibration(out_path)
        prob = small_problem(3, method="exact")
        estimate = model.estimate(prob, "exact")
        assert estimate.seconds is not None and estimate.seconds > 0
        assert "seconds" in estimate.to_dict()

    def test_calibration_never_changes_engine_selection(self, tmp_path):
        from tests.perf.workload import small_problem

        calibration = {
            "schema": "repro-cost-calibration", "schema_version": 1,
            # Absurd constants: even a million seconds per unit must
            # not flip the planner's choice — selection stays on units.
            "engines": {"exact": {"seconds_per_unit": 1e6},
                        "montecarlo": {"seconds_per_unit": 1e-12}},
        }
        path = str(tmp_path / "cal.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(calibration, handle)

        plain, calibrated = Planner(), Planner()
        calibrated.load_calibration(path)
        for method in ("auto", "exact", "montecarlo"):
            prob = small_problem(3, method=method, samples=100)
            assert (
                plain.plan(prob, Budget()).chosen
                == calibrated.plan(prob, Budget()).chosen
            )

    def test_load_calibration_rejects_malformed_files(self, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"engines": {"exact": {"seconds_per_unit": -1.0}}},
                      handle)
        with pytest.raises(ValueError):
            load_calibration(path)
        for document in ({"not_engines": {}}, {"engines": []},
                         {"engines": {"exact": 5}}):
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(document, handle)
            with pytest.raises(ValueError):
                load_calibration(path)

    def test_calibrate_rejects_non_trace_input(self, tmp_path):
        path = str(tmp_path / "not_trace.json")
        bad_events = (
            {"ph": "X", "name": "engine_run", "dur": "x",
             "args": {"engine": "exact", "units": 1.0}},
            {"ph": "X", "name": "engine_run", "dur": 100, "args": ["x"]},
        )
        for document in ({"tables": []}, {"traceEvents": ["x"]},
                         *({"traceEvents": [e]} for e in bad_events)):
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(document, handle)
            with pytest.raises(ValueError):
                calibrate(path)

    def test_calibrate_rejects_traces_without_units(self, tmp_path):
        path = str(tmp_path / "old_trace.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": [
                {"ph": "X", "name": "engine_run", "dur": 100,
                 "args": {"engine": "exact"}}]}, handle)
        with pytest.raises(ValueError):
            calibrate(path)
