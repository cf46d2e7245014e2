"""The exporters: Chrome trace documents and run reports."""

import json

import pytest

from repro.service.export import (
    chrome_trace,
    nearest_rank,
    render_report,
    save_trace,
    spans_from_chrome_trace,
    validate_chrome_trace,
)
from repro.service.metrics import Metrics
from repro.service.trace import Tracer


def _entry(kind, seconds, ok=True, cached=False, method=None):
    """A batch report result entry."""
    entry = {"kind": kind, "ok": ok, "cached": cached, "seconds": seconds}
    if method is not None:
        entry["value"] = {"method": method}
    return entry


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

    def test_spans_read_back_from_the_trace(self):
        spans = _sample_spans()
        spans[1]["error"] = True
        read = spans_from_chrome_trace(chrome_trace(spans))
        keys = ("id", "parent", "name", "attrs", "pid", "tid", "error")
        assert [{k: s.get(k) for k in keys} for s in read] == [
            {k: s.get(k) for k in keys} for s in spans
        ]
        for original, back in zip(spans, read):
            assert abs(back["ts"] - original["ts"]) < 1e-6
            assert abs(back["dur"] - original["dur"]) < 1e-6

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

    def test_report_covers_latency_and_counters(self):
        metrics = Metrics()
        metrics.inc("retries", 4)
        report = render_report(metrics={
            "results": [_entry("measure", 0.25, method="exact")],
            "metrics": metrics.snapshot(),
        })
        assert "Job latency" in report and "measure.exact" in report
        assert "Counters" in report and "retries = 4" in report

    def test_latency_quantiles_are_exact_nearest_rank(self):
        report = render_report(metrics={"results": [
            _entry("measure", 0.1, method="montecarlo"),
            _entry("measure", 0.3, method="montecarlo"),
            _entry("rpq", 2.0, cached=True),  # a hit: not run, not counted
            _entry("advise", 9.0, ok=False),  # failed: not counted
        ]})
        rows = {
            line.split()[0]: line.split()[1:]
            for line in report.splitlines()[2:]
        }
        # count, total, min, max, p50, p95, p99 (value + "ms" each).
        expected = ["2", "400.00", "ms", "100.00", "ms", "300.00", "ms",
                    "100.00", "ms", "300.00", "ms", "300.00", "ms"]
        assert rows == {"measure": expected, "measure.montecarlo": expected}

    def test_nearest_rank(self):
        ordered = [float(i) for i in range(1, 21)]
        assert [nearest_rank(ordered, p) for p in (50, 95, 99)] == [
            10.0, 19.0, 20.0
        ]
        assert nearest_rank([7.0], 50) == 7.0

    def test_report_unwraps_batch_reports(self):
        metrics = Metrics()
        metrics.inc("chase.runs")
        wrapped = {"ok": 1, "metrics": metrics.snapshot()}
        assert "chase.runs = 1" in render_report(metrics=wrapped)

    def test_snapshot_alone_has_no_latency_table(self):
        metrics = Metrics()
        metrics.inc("chase.runs")
        report = render_report(metrics=metrics.snapshot())
        assert "Job latency" not in report and "chase.runs = 1" in report

    def test_report_with_nothing_says_so(self):
        assert "nothing to report" in render_report()
