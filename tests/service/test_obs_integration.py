"""Observability end to end: cross-process counts, traces, the CLI."""

import json

import pytest

from repro.__main__ import main
from repro.service.export import validate_chrome_trace
from repro.service.runner import run_batch
from repro.service.trace import TRACER, tracing

MC_JOB = (
    '{"kind": "measure", "id": "m1", "design": "T(A,B,C); B->C",'
    ' "rows": [[1,2,3],[4,2,3]], "position": [0, "C"],'
    ' "method": "montecarlo", "samples": 80, "seed": 7}'
)
MIXED_JOBS = [
    '{"kind": "advise", "id": "a1", "design": "R(A,B,C); B->C"}',
    MC_JOB,
    '{"kind": "rpq", "id": "r1", "edges": [["a","knows","b"],'
    ' ["b","knows","c"]], "query": "knows+", "source": "a"}',
]


#: The worlds the Monte-Carlo engine visited: one per sample.
MC_WORLDS = "engine.worlds{engine=montecarlo}"


def write_jobs(tmp_path, lines=MIXED_JOBS, name="jobs.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestCrossProcessMetrics:
    def test_worker_process_counters_reach_the_parent_snapshot(
        self, tmp_path
    ):
        # Monte-Carlo sampling happens inside worker *processes*; the
        # chunks return their counts, so the 80 samples and the 4 shards
        # must still appear in the parent's report.
        report = run_batch(
            write_jobs(tmp_path, [MC_JOB]),
            workers=4,
            use_processes=True,
        )
        assert report["ok"] == 1
        counters = report["metrics"]["counters"]
        assert counters[MC_WORLDS] == 80
        assert counters["pool.mc.shards"] == 4

    def test_process_and_thread_pools_agree_on_counters(self, tmp_path):
        path = write_jobs(tmp_path, [MC_JOB])
        threaded = run_batch(path, workers=2, use_processes=False)
        sharded = run_batch(path, workers=2, use_processes=True)
        assert (
            threaded["metrics"]["counters"][MC_WORLDS]
            == sharded["metrics"]["counters"][MC_WORLDS]
            == 80
        )
        # The estimate itself is bit-identical across pool types.
        assert (
            threaded["results"][0]["value"]["mean"]
            == sharded["results"][0]["value"]["mean"]
        )


class TestMetricsResetBetweenBatches:
    def test_each_batch_reports_only_its_own_counts(self, tmp_path):
        # Regression: METRICS is process-global, so without the per-batch
        # reset a second run_batch call doubles every engine counter.
        path = write_jobs(tmp_path, [MC_JOB])
        first = run_batch(path, workers=2)
        second = run_batch(path, workers=2)
        assert (
            first["metrics"]["counters"][MC_WORLDS]
            == second["metrics"]["counters"][MC_WORLDS]
            == 80
        )


class TestTraceTree:
    def test_batch_trace_nests_job_chunk_engine(self, tmp_path):
        path = write_jobs(tmp_path)
        with tracing():
            report = run_batch(path, workers=2, use_processes=True)
        spans = TRACER.drain()
        assert report["ok"] == 3

        by_id = {s["id"]: s for s in spans}
        names = {s["name"] for s in spans}
        assert {"batch.run", "job", "engine_run", "pool.mc", "pool.chunk",
                "chase.run"} <= names

        def ancestors(span):
            chain = []
            while span.get("parent"):
                span = by_id[span["parent"]]
                chain.append(span["name"])
            return chain

        # Every job hangs off the batch root.
        for span in spans:
            if span["name"] == "job":
                assert ancestors(span) == ["batch.run"]
        # Worker-process chunk spans climb through the dispatch and the
        # engine run back to their job: the per-job -> per-engine ->
        # per-chunk tree.
        chunks = [s for s in spans if s["name"] == "pool.chunk"]
        assert chunks
        for span in chunks:
            chain = ancestors(span)
            assert chain[0] == "pool.mc"
            assert "engine_run" in chain
            assert chain[-2:] == ["job", "batch.run"]
        # Worker spans kept their own pid lanes.
        pids = {s["pid"] for s in chunks}
        root_pid = next(
            s["pid"] for s in spans if s["name"] == "batch.run"
        )
        assert pids and root_pid not in pids

    def test_disabled_tracer_collects_nothing(self, tmp_path):
        TRACER.reset()
        run_batch(write_jobs(tmp_path), workers=2)
        assert TRACER.drain() == []


class TestObservabilityCLI:
    def test_batch_emits_trace_and_metrics_files(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        report_path = tmp_path / "report.json"
        code = main(
            [
                "batch",
                write_jobs(tmp_path),
                "--workers", "2",
                "--trace-out", str(trace_path),
                "--out", str(report_path),
            ]
        )
        capsys.readouterr()
        assert code == 0

        document = json.loads(trace_path.read_text())
        assert validate_chrome_trace(document) > 0
        span_names = {
            e["name"] for e in document["traceEvents"] if e["ph"] == "X"
        }
        assert {"batch.run", "job"} <= span_names

        snapshot = json.loads(report_path.read_text())["metrics"]
        assert snapshot["counters"][MC_WORLDS] == 80
        assert list(snapshot) == ["counters"]

    def test_metrics_report_renders_both_inputs(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        report_path = tmp_path / "report.json"
        main(
            [
                "batch",
                write_jobs(tmp_path),
                "--trace-out", str(trace_path),
                "--out", str(report_path),
            ]
        )
        capsys.readouterr()
        code = main(
            [
                "metrics-report",
                "--metrics", str(report_path),
                "--trace", str(trace_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Top spans by self time" in out
        latency = out.split("Job latency")[1].split("\n\n")[0]
        rows = [line.split()[:2] for line in latency.splitlines()[2:]]
        assert rows == [["advise", "1"], ["measure", "1"],
                        ["measure.montecarlo", "1"], ["rpq", "1"]]
        assert MC_WORLDS in out

    def test_metrics_report_requires_an_input(self, capsys):
        code = main(["metrics-report"])
        assert code == 2
        assert "metrics" in capsys.readouterr().err.lower()

    def test_metrics_report_rejects_malformed_metrics(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        for document in (["x"], {"timers": {"job": 5}}, {"counters": [1]}):
            path.write_text(json.dumps(document), encoding="utf-8")
            assert main(["metrics-report", "--metrics", str(path)]) == 2
            assert "error" in capsys.readouterr().err

    def test_trace_flag_leaves_global_tracer_disabled_after(
        self, tmp_path, capsys
    ):
        main(
            [
                "batch",
                write_jobs(tmp_path),
                "--trace-out", str(tmp_path / "t.json"),
            ]
        )
        capsys.readouterr()
        assert TRACER.enabled is False
