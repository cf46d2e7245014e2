"""The batch runner and the ``python -m repro batch`` CLI."""

import json
from fractions import Fraction

import pytest

from repro.__main__ import main
from repro.service.budget import Budget
from repro.service.jobs import (
    AdviseJob,
    JobSpecError,
    MeasureJob,
    RPQJob,
    parse_jsonl_lenient,
)
from repro.service.metrics import METRICS, Metrics
from repro.service.runner import BatchRunner, format_report, run_batch
from repro.service.pool import WorkerPool

THREE_JOBS = [
    '{"kind": "advise", "id": "a1", "design": "R(A,B,C); B->C"}',
    '{"kind": "measure", "id": "m1", "design": "T(A,B,C); B->C",'
    ' "rows": [[1,2,3],[4,2,3]], "position": [0, "C"],'
    ' "method": "montecarlo", "samples": 80, "seed": 7}',
    '{"kind": "rpq", "id": "r1", "edges": [["a","knows","b"],'
    ' ["b","knows","c"]], "query": "knows+", "source": "a"}',
]


def write_jobs(tmp_path, lines=THREE_JOBS):
    path = tmp_path / "jobs.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestBatchRunner:
    def test_mixed_batch_in_input_order(self):
        runner = BatchRunner(pool=WorkerPool(workers=2), metrics=Metrics())
        try:
            report = runner.run(
                [
                    AdviseJob(design="R(A,B,C); B->C", id="a"),
                    MeasureJob(
                        design="T(A,B,C); B->C",
                        rows=((1, 2, 3), (4, 2, 3)),
                        position=(0, "C"),
                        id="m",
                    ),
                    RPQJob(
                        edges=(("a", "l", "b"),), query="l", source="a", id="r"
                    ),
                ]
            )
        finally:
            runner.pool.shutdown()
        assert report["ok"] == 3 and report["failed"] == 0
        assert [entry["id"] for entry in report["results"]] == ["a", "m", "r"]
        advise_value = report["results"][0]["value"]
        assert advise_value["well_designed"] is False
        assert advise_value["witness"]["ric"]["fraction"] == "7/8"
        measure_value = report["results"][1]["value"]
        assert measure_value["method"] == "exact"
        assert measure_value["fraction"] == "7/8"
        rpq_value = report["results"][2]["value"]
        assert rpq_value["reachable"] == ["b"]

    def test_second_run_is_fully_cached(self):
        jobs = [
            AdviseJob(design="R(A,B,C); B->C"),
            MeasureJob(
                design="T(A,B,C); B->C",
                rows=((1, 2, 3), (4, 2, 3)),
                position=(0, "C"),
                method="montecarlo",
                samples=60,
            ),
        ]
        runner = BatchRunner(pool=WorkerPool(workers=2), metrics=Metrics())
        try:
            first = runner.run(jobs)
            second = runner.run(jobs)
        finally:
            runner.pool.shutdown()
        assert all(not entry["cached"] for entry in first["results"])
        assert all(entry["cached"] for entry in second["results"])
        assert second["results"] == [
            {**entry, "seconds": 0.0, "cached": True}
            for entry in first["results"]
        ]

    def test_job_errors_do_not_kill_the_batch(self):
        runner = BatchRunner(pool=WorkerPool(workers=2), metrics=Metrics())
        try:
            report = runner.run(
                [
                    AdviseJob(design="R(A,B,C); B->C", id="good"),
                    # A query that only fails when it is evaluated (bad
                    # job fields are rejected earlier, when jobs are built).
                    RPQJob(edges=(("a", "l", "b"),), query="((", id="bad"),
                ]
            )
        finally:
            runner.pool.shutdown()
        assert report["ok"] == 1 and report["failed"] == 1
        bad = report["results"][1]
        assert bad["ok"] is False
        assert "error" in bad

    def test_budget_exceeded_is_structured_in_results(self):
        runner = BatchRunner(
            pool=WorkerPool(workers=2),
            budget=Budget(wall_seconds=0.05, exact_max_positions=4),
            metrics=Metrics(),
        )
        try:
            report = runner.run(
                [
                    MeasureJob(
                        design="R(A,B,C); B->C",
                        rows=tuple(
                            (i, 2, 3) if i < 2 else (i, 20 + i, 30 + i)
                            for i in range(6)
                        ),
                        position=(0, "C"),
                        method="auto",
                        samples=200_000,
                    )
                ]
            )
        finally:
            runner.pool.shutdown()
        entry = report["results"][0]
        assert entry["ok"] is False
        assert entry["error"]["error"] == "budget_exceeded"
        assert ["exact", "skipped:size"] in entry["error"]["stages"]


MEASURE = (
    '"kind": "measure", "design": "T(A,B,C); B->C",'
    ' "rows": [[1,2,3],[4,2,3]], "method": "montecarlo"'
)

#: Records with a bad parameter value, each of which must be rejected
#: when its job is built (line 1 is a good job).
BAD_PARAMETERS = [
    '{' + MEASURE + ', "position": [0, "C"], "samples": 20, "seed": "x"}',
    '{"kind": "advise", "design": "R(A,B,C); B->C",'
    ' "method": "montecarlo", "seed": 1.5}',
    '{' + MEASURE + ', "position": [7, "C"]}',
    '{' + MEASURE + ', "position": [0, "C"], "samples": true}',
    '{' + MEASURE + ', "position": [0, "C"], "samples": 2.5}',
    '{"kind": "advise", "design": "R(A,B,C); B->Q"}',
]


class TestParseTimeValidation:
    def test_bad_parameters_are_line_numbered_validation_entries(
        self, tmp_path
    ):
        path = write_jobs(tmp_path, [THREE_JOBS[0]] + BAD_PARAMETERS)
        report = run_batch(path, workers=2)
        assert report["ok"] == 1
        assert report["parse_errors"] == len(BAD_PARAMETERS)
        for lineno, entry in enumerate(report["results"][1:], start=2):
            assert entry["ok"] is False
            assert entry["line"] == lineno
            assert entry["error"]["kind"] == "validation", entry

    def test_each_bad_field_is_named(self):
        records = parse_jsonl_lenient("\n".join(BAD_PARAMETERS))
        messages = [str(error) for _, _, error in records]
        assert all(isinstance(e, JobSpecError) for _, _, e in records)
        for message, field in zip(
            messages,
            ["seed", "seed", "position", "samples", "samples", "schema"],
        ):
            assert field in message, message


def batch_report(results, **header):
    return {
        "jobs": len(results),
        "ok": len(results),
        "failed": 0,
        "elapsed_seconds": 0.125,
        "results": results,
        "cache": {"entries": 0, "hits": 0, "hit_rate": 0.0},
        "metrics": {"counters": {"runner.cache_hits": 0}, "timers": {}},
        "parse_errors": 0,
        **header,
    }


class TestFormatReport:
    """The report text: indented header, one compact line per result."""

    @staticmethod
    def check(report):
        text = format_report(report)
        assert json.loads(text) == json.loads(json.dumps(report, default=str))
        entries = [
            line.strip().rstrip(",")
            for line in text.splitlines()
            if line.startswith("    {")
        ]
        assert [json.loads(e) for e in entries] == json.loads(
            json.dumps(report["results"], default=str)
        )
        return text

    def test_fractions_render_as_strings(self):
        exact = {"kind": "exact", "fraction": Fraction(7, 8), "value": 0.875}
        text = self.check(
            batch_report(
                [{"id": "m1", "ok": True, "value": exact}],
                ratio=Fraction(1, 3),
            )
        )
        assert '"fraction": "7/8"' in text and '"ratio": "1/3"' in text

    def test_rpq_pairs_stay_on_their_entry_line(self):
        runner = BatchRunner(pool=WorkerPool(workers=1), metrics=Metrics())
        try:
            report = runner.run([
                RPQJob(edges=(("a", "l", "b"), ("b", "l", "c")), query="l+"),
                RPQJob(edges=(("x", "m", "y"),), query="m", source="x"),
            ])
        finally:
            runner.pool.shutdown()
        assert report["results"][0]["value"]["pairs"] == [
            ["a", "b"], ["a", "c"], ["b", "c"]
        ]
        self.check(report)

    def test_empty_results(self):
        text = self.check(batch_report([]))
        assert '"results": []' in text


class TestBatchCLI:
    def test_three_job_smoke(self, tmp_path, capsys):
        code = main(["batch", write_jobs(tmp_path), "--workers", "2"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["jobs"] == 3 and report["failed"] == 0
        assert {entry["id"] for entry in report["results"]} == {
            "a1",
            "m1",
            "r1",
        }
        # Nonzero engine counters after a batch run (acceptance
        # criterion).  The CLI records into the process-global registry,
        # which other tests may already have fed — assert lower bounds.
        counters = report["metrics"]["counters"]
        assert counters["chase.steps"] > 0 or counters["chase.runs"] > 0
        assert counters["ric.sweeps"] > 0
        assert counters["ric.mc.samples"] >= 80

    def test_rerun_with_persistent_cache_hits_everything(self, tmp_path, capsys):
        jobs = write_jobs(tmp_path)
        cache = str(tmp_path / "cache.json")
        assert main(["batch", jobs, "--cache", cache]) == 0
        capsys.readouterr()
        assert main(["batch", jobs, "--cache", cache]) == 0
        report = json.loads(capsys.readouterr().out)
        assert all(entry["cached"] for entry in report["results"])
        assert report["cache"]["hit_rate"] == 1.0
        assert report["cache"]["misses"] == 0

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["batch", write_jobs(tmp_path), "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["jobs"] == 3

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code = main(["batch", str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_jobs_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "advise"}\n', encoding="utf-8")
        assert main(["batch", str(path)]) == 2
        assert "error" in capsys.readouterr().err


class TestAdvisorCLIFlags:
    def test_montecarlo_method_flag(self, capsys):
        code = main(
            ["--method", "montecarlo", "--samples", "100", "--seed", "7",
             "R(A,B,C); B->C"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "RIC ≈" in out
        assert "100 samples" in out

    def test_montecarlo_is_deterministic_in_seed(self, capsys):
        args = ["--method", "montecarlo", "--samples", "60", "--seed", "3",
                "R(A,B,C); B->C"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first

    def test_default_method_is_exact(self, capsys):
        main(["R(A,B,C); B->C"])
        assert "7/8" in capsys.readouterr().out
