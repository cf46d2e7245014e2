"""The planner inside the batch runtime: counters, spans, scheduling."""

from repro.service.cache import ResultCache
from repro.service.jobs import parse_jsonl_lenient
from repro.service.runner import run_batch
from repro.service.trace import TRACER, tracing

MC_JOB = (
    '{"kind": "measure", "id": "m1", "design": "T(A,B,C); B->C",'
    ' "rows": [[1,2,3],[4,2,3]], "position": [0, "C"],'
    ' "method": "montecarlo", "samples": 80, "seed": 7}'
)
EXACT_JOB = (
    '{"kind": "measure", "id": "m2", "design": "T(A,B,C); B->C",'
    ' "rows": [[1,2,3],[4,2,3]], "position": [0, "C"],'
    ' "method": "exact"}'
)
AUTO_JOB = (
    '{"kind": "measure", "id": "m3", "design": "T(A,B,C); B->C",'
    ' "rows": [[1,2,3],[4,2,3]], "position": [0, "C"],'
    ' "method": "auto"}'
)


def write_jobs(tmp_path, lines, name="jobs.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestPlannerCounterReset:
    def test_reset_metrics_also_resets_planner_counters(self, tmp_path):
        # Regression: planner counters live in the same global registry;
        # a second batch must not report the first batch's plans.
        path = write_jobs(tmp_path, [EXACT_JOB])
        first = run_batch(path, workers=2)
        second = run_batch(path, workers=2)
        for report in (first, second):
            counters = report["metrics"]["counters"]
            assert counters["planner.plans"] == first["metrics"][
                "counters"
            ]["planner.plans"]
            assert counters["engine.runs{engine=exact}"] == 1


class TestEngineRunSpansAcrossProcesses:
    def test_worker_process_chunks_nest_under_the_engine_run_span(
        self, tmp_path
    ):
        # Monte-Carlo chunks execute in worker *processes*; their spans
        # ship back through the pool's adopt() path and must climb to
        # the planner's engine_run span, which anchors the job's side of
        # the tree.
        path = write_jobs(tmp_path, [MC_JOB])
        with tracing():
            report = run_batch(path, workers=2, use_processes=True)
        spans = TRACER.drain()
        assert report["ok"] == 1

        by_id = {s["id"]: s for s in spans}
        runs = [s for s in spans if s["name"] == "engine_run"]
        assert runs and runs[-1]["attrs"]["engine"] == "montecarlo"

        def ancestors(span):
            chain = []
            while span.get("parent"):
                span = by_id[span["parent"]]
                chain.append(span["name"])
            return chain

        chunks = [s for s in spans if s["name"] == "pool.chunk"]
        assert chunks
        for chunk in chunks:
            chain = ancestors(chunk)
            assert "engine_run" in chain
            assert chain[-2:] == ["job", "batch.run"]
        # The worker spans genuinely crossed a process boundary.
        root_pid = next(s["pid"] for s in spans if s["name"] == "batch.run")
        assert {s["pid"] for s in chunks} and root_pid not in {
            s["pid"] for s in chunks
        }

    def test_plans_are_traced_per_measure_job(self, tmp_path):
        path = write_jobs(tmp_path, [EXACT_JOB, MC_JOB])
        with tracing():
            run_batch(path, workers=2)
        names = [s["name"] for s in TRACER.drain()]
        assert names.count("engine_run") == 2
        assert names.count("plan") == 2


class TestPlanBasedScheduling:
    def test_auto_jobs_shard_and_exact_jobs_fan_out(self, tmp_path):
        # auto's plan may run Monte Carlo -> sharded axis; a pinned
        # exact plan cannot -> fan-out axis.  Observable via the pool
        # chunk counters: only the sharded job produces mc chunks.
        path = write_jobs(tmp_path, [EXACT_JOB, AUTO_JOB])
        report = run_batch(path, workers=2)
        assert report["ok"] == 2
        by_id = {entry["id"]: entry for entry in report["results"]}
        # Small instance: auto's chain starts at exact, which succeeds.
        assert by_id["m3"]["value"]["method"] == "exact"
        assert by_id["m2"]["value"]["method"] == "exact"

    def test_method_strings_in_payloads_are_engine_names(self, tmp_path):
        path = write_jobs(tmp_path, [MC_JOB])
        report = run_batch(path, workers=2)
        assert report["results"][0]["value"]["method"] == "montecarlo"


#: A job whose plan skips exact by size and shards Monte Carlo.
WIDE_AUTO_JOB = (
    '{"kind": "measure", "id": "m4", "design": "W(A,B,C,D,E,F,G); B->C",'
    ' "rows": [[1,2,3,4,5,6,7],[8,2,3,9,10,11,12],[13,14,15,16,17,18,19]],'
    ' "position": [0, "C"], "method": "auto", "samples": 12, "seed": 1}'
)


class TestOneKeyOnePlan:
    LINES = [MC_JOB, EXACT_JOB, AUTO_JOB, WIDE_AUTO_JOB]

    def test_cold_batch_plans_each_job_exactly_once(self, tmp_path):
        path = write_jobs(tmp_path, self.LINES)
        with tracing():
            report = run_batch(path, workers=2)
        spans = TRACER.drain()
        assert report["ok"] == len(self.LINES)
        assert report["metrics"]["counters"]["planner.plans"] == len(
            self.LINES
        )
        plan_keys = [s["attrs"]["key"] for s in spans if s["name"] == "plan"]
        assert sorted(plan_keys) == sorted(
            entry["key"][:16] for entry in report["results"]
        )
        by_id = {entry["id"]: entry for entry in report["results"]}
        assert by_id["m4"]["value"]["method"] == "montecarlo"

    def test_report_keys_are_the_problem_keys(self, tmp_path):
        path = write_jobs(tmp_path, self.LINES)
        report = run_batch(path, workers=2)
        records = parse_jsonl_lenient("\n".join(self.LINES))
        assert [error for _, _, error in records] == [None] * len(records)
        assert [entry["key"] for entry in report["results"]] == [
            job.problem.canonical_key() for _, job, _ in records
        ]

    def test_warm_batch_plans_nothing(self, tmp_path):
        path = write_jobs(tmp_path, self.LINES)
        cache = ResultCache()
        run_batch(path, workers=2, cache=cache)
        warm = run_batch(path, workers=2, cache=cache)
        assert all(entry["cached"] for entry in warm["results"])
        assert "planner.plans" not in warm["metrics"]["counters"]
