"""Recovery paths, each driven by its real trigger: a truncated cache
file, a malformed JSONL line, a failing job, a dead worker."""

import json
from concurrent.futures import BrokenExecutor

from repro.__main__ import main
from repro.service import pool as pool_module
from repro.service.budget import Budget, BudgetExceeded
from repro.service.cache import ResultCache
from repro.service.jobs import AdviseJob, MeasureJob, parse_jsonl_lenient
from repro.service.pool import WorkerPool
from repro.service.runner import BatchRunner

JOBS_JSONL = "\n".join(
    [
        '{"kind": "advise", "id": "a1", "design": "R(A,B,C); B->C"}',
        '{"kind": "measure", "id": "m1", "design": "T(A,B,C); B->C",'
        ' "rows": [[1,2,3],[4,2,3]], "position": [0, "C"],'
        ' "method": "montecarlo", "samples": 80, "seed": 7}',
        '{"kind": "rpq", "id": "r1", "edges": [["a","knows","b"],'
        ' ["b","knows","c"]], "query": "knows+", "source": "a"}',
    ]
)


def crash_first_attempt(monkeypatch, share=1):
    """Make every *share*-th chunk's first attempt fail as if its worker
    died; returns the list of chunks that failed."""
    real = pool_module._eval_chunk
    crashed = []

    def flaky(args):
        chunk = args[2:5]  # (start, count, seed): the chunk's identity
        if chunk not in crashed and (chunk[0] // chunk[1]) % share == 0:
            crashed.append(chunk)
            raise BrokenExecutor("worker died")
        return real(args)

    monkeypatch.setattr(pool_module, "_eval_chunk", flaky)
    return crashed


class TestEveryKindInjects:
    """Each kind a job can meet surfaces as a typed, JSON-shaped entry —
    the recovery paths are exercised, not assumed."""

    def run_one_advise(self, monkeypatch, exc):
        def fail(self, job, plan):
            raise exc

        monkeypatch.setattr(BatchRunner, "execute", fail)
        runner = BatchRunner(pool=WorkerPool(workers=2))
        try:
            return runner.run([AdviseJob(design="R(A,B,C); B->C", id="a")])
        finally:
            runner.pool.shutdown()

    def assert_typed_error(self, entry, kind, code):
        assert entry["ok"] is False
        error = entry["error"]
        assert error["kind"] == kind
        assert error["error"] == code
        assert error["retryable"] is False
        assert isinstance(error["message"], str)
        json.dumps(error)

    def test_internal_fault_at_job_site(self, monkeypatch):
        report = self.run_one_advise(monkeypatch, RuntimeError("bug"))
        self.assert_typed_error(
            report["results"][0], "internal", "RuntimeError"
        )

    def test_budget_fault_at_job_site(self, monkeypatch):
        exc = BudgetExceeded(
            [("exact", "timeout")], 0.5, Budget(wall_seconds=0.5)
        )
        report = self.run_one_advise(monkeypatch, exc)
        entry = report["results"][0]
        self.assert_typed_error(entry, "budget", "budget_exceeded")
        assert entry["error"]["stages"] == [["exact", "timeout"]]

    def test_parse_and_validation_faults_at_parse_site(self):
        records = parse_jsonl_lenient(
            '{"kind": "advise", "design": \n'
            '{"kind": "advise", "design": "R(A,B); A->B", "seed": "x"}\n'
        )
        for (lineno, job, error), kind in zip(
            records, ("parse", "validation")
        ):
            assert job is None
            assert error.kind == kind
            payload = error.to_dict()
            assert payload["kind"] == kind
            assert payload["line"] == lineno
        assert [lineno for lineno, _, _ in records] == [1, 2]

    def test_cache_corrupt_fault_quarantines_on_load(self, tmp_path, capsys):
        path = str(tmp_path / "cache.json")
        cache = ResultCache()
        cache.put("k", {"v": 1})
        cache.save(path)
        text = open(path, encoding="utf-8").read()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text[: len(text) // 2])  # truncated on disk
        loaded = ResultCache.load(path)
        assert loaded.recovered_from == path + ".corrupt"
        assert len(loaded) == 0

        # The batch CLI meets the same truncated file, quarantines it,
        # and completes.
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text[: len(text) // 2])
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text(JOBS_JSONL + "\n", encoding="utf-8")
        code = main(["batch", str(jobs), "--workers", "2", "--cache", path])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["failed"] == 0
        assert (tmp_path / "cache.json.corrupt").exists()
        assert len(ResultCache.load(path)) == 3


class TestChunkRecovery:
    def test_sharded_mc_recovers_bit_identically(self, monkeypatch):
        job = MeasureJob(
            design="T(A,B,C); B->C",
            rows=((1, 2, 3), (4, 2, 3)),
            position=(0, "C"),
            method="montecarlo",
            samples=200,
            seed=7,
            id="m",
        )

        def run():
            runner = BatchRunner(
                pool=WorkerPool(workers=4, retries=2)
            )
            try:
                return runner.run([job])
            finally:
                runner.pool.shutdown()

        clean = run()
        crashed = crash_first_attempt(monkeypatch, share=2)
        stormy = run()
        assert len(crashed) == 2
        assert stormy["results"][0]["ok"] is True
        # Recovery preserves bit-identical estimates (counter-based
        # sampling; chunks re-executed, never resampled differently).
        assert (
            stormy["results"][0]["value"] == clean["results"][0]["value"]
        )


class TestFaultCLI:
    def test_worker_crash_batch_completes_correctly(
        self, tmp_path, capsys, monkeypatch
    ):
        path = tmp_path / "jobs.jsonl"
        path.write_text(JOBS_JSONL + "\n", encoding="utf-8")
        clean_code = main(["batch", str(path), "--workers", "2"])
        clean = json.loads(capsys.readouterr().out)

        crashed = crash_first_attempt(monkeypatch)
        code = main(["batch", str(path), "--workers", "2", "--retries", "2"])
        report = json.loads(capsys.readouterr().out)
        assert clean_code == code == 0
        assert report["failed"] == 0
        assert len(crashed) == 2
        assert report["metrics"]["counters"]["retries"] == 2
        # Correctness under fire: the Monte-Carlo estimate matches the
        # failure-free deterministic value.
        values = [
            next(e for e in r["results"] if e["id"] == "m1")["value"]
            for r in (clean, report)
        ]
        assert values[0] == values[1]
