"""The exporters: Chrome trace documents and run reports."""

import json

import pytest

from repro.service.export import (
    chrome_trace,
    render_report,
    save_trace,
    validate_chrome_trace,
)
from repro.service.metrics import Metrics
from repro.service.trace import Tracer


def _sample_spans():
    tracer = Tracer()
    tracer.enable()
    with tracer.span("batch.run", jobs=2) as span:
        with tracer.span("job", kind="measure") as inner:
            inner.event("retry", attempt=0)
        span.set(ok=2)
    return tracer.drain()


class TestChromeTrace:
    def test_spans_become_complete_events_with_parent_args(self):
        spans = _sample_spans()
        document = chrome_trace(spans)
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        complete = {e["args"]["span_id"]: e for e in events if e["ph"] == "X"}
        assert set(complete) == {"s1", "s2"}
        root, child = complete["s1"], complete["s2"]
        assert root["name"] == "batch.run"
        assert root["args"]["jobs"] == 2 and root["args"]["ok"] == 2
        assert "parent_id" not in root["args"]
        assert child["args"]["parent_id"] == "s1"
        # ts/dur are microseconds on the same axis: child within parent.
        assert root["ts"] <= child["ts"]
        assert child["ts"] + child["dur"] <= root["ts"] + root["dur"] + 1

    def test_span_events_become_instant_events(self):
        document = chrome_trace(_sample_spans())
        instants = [e for e in document["traceEvents"] if e["ph"] == "i"]
        assert [e["name"] for e in instants] == ["retry"]
        assert instants[0]["args"] == {"attempt": 0}

    def test_error_spans_are_flagged(self):
        tracer = Tracer()
        tracer.enable()
        with pytest.raises(RuntimeError):
            with tracer.span("bad"):
                raise RuntimeError("x")
        (event,) = chrome_trace(tracer.drain())["traceEvents"]
        assert event["args"]["error"] is True

    def test_validate_accepts_emitted_documents(self):
        document = chrome_trace(_sample_spans())
        assert validate_chrome_trace(document) == 3

    @pytest.mark.parametrize(
        "document",
        [
            [],  # not an object
            {},  # no traceEvents
            {"traceEvents": [{"ph": "X", "ts": 0, "pid": 0, "tid": 0}]},
            {"traceEvents": [{"name": "a", "ph": "?", "ts": 0.0,
                              "pid": 0, "tid": 0}]},
            {"traceEvents": [{"name": "a", "ph": "X", "ts": 0.0,
                              "pid": 0, "tid": 0}]},  # X without dur
            {"traceEvents": [{"name": "a", "ph": "i", "ts": -5,
                              "pid": 0, "tid": 0}]},
        ],
    )
    def test_validate_rejects_malformed_documents(self, document):
        with pytest.raises(ValueError):
            validate_chrome_trace(document)

    def test_save_trace_writes_loadable_json(self, tmp_path):
        path = tmp_path / "trace.json"
        save_trace(str(path), _sample_spans())
        loaded = json.loads(path.read_text())
        assert validate_chrome_trace(loaded) == 3


class TestRenderReport:
    def test_report_rolls_up_spans_by_self_time(self):
        report = render_report(spans=_sample_spans())
        assert "Top spans by self time" in report
        assert "batch.run" in report and "job" in report

    def test_report_covers_timers_counters_resilience(self):
        metrics = Metrics()
        metrics.inc("retries", 4)
        metrics.observe("job.measure", 0.25)
        report = render_report(metrics=metrics.snapshot())
        assert "Timers" in report and "job.measure" in report
        assert "Counters" in report and "retries = 4" in report
        assert "Resilience" in report and "retries: 4" in report

    def test_report_unwraps_batch_reports(self):
        metrics = Metrics()
        metrics.inc("chase.runs")
        wrapped = {"ok": 1, "metrics": metrics.snapshot()}
        assert "chase.runs = 1" in render_report(metrics=wrapped)

    def test_report_with_nothing_says_so(self):
        assert "nothing to report" in render_report()
