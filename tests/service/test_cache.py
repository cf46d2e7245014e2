"""The content-addressed LRU result cache and its journal file."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.service.cache import ResultCache, entry_checksum
from repro.service.jobs import AdviseJob, MeasureJob
from repro.service.metrics import Metrics
from repro.service.pool import WorkerPool
from repro.service.runner import BatchRunner


class TestLRU:
    def test_hit_miss_stats(self):
        cache = ResultCache(maxsize=4)
        assert cache.get("a") is None
        cache.put("a", {"v": 1})
        assert cache.get("a") == {"v": 1}
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == 0.5

    def test_eviction_is_least_recently_used(self):
        cache = ResultCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a; b is now the oldest
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats()["evictions"] == 1

    def test_put_refreshes_existing_key(self):
        cache = ResultCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 10

    def test_len_and_maxsize_validation(self):
        cache = ResultCache(maxsize=3)
        for key in "abc":
            cache.put(key, key)
        assert len(cache) == 3
        with pytest.raises(ValueError):
            ResultCache(maxsize=0)


def fill(path, write, maxsize, items):
    """Put *items* into a cache that writes them to *path* by one
    ``"save"`` or through the ``"journal"`` of each put."""
    if write == "journal":
        cache = ResultCache.load(path, maxsize=maxsize)
    else:
        cache = ResultCache(maxsize=maxsize)
    for key, value in items:
        cache.put(key, value)
    if write == "save":
        cache.save(path)


def file_lines(path):
    return Path(path).read_text(encoding="utf-8").splitlines(keepends=True)


WRITES = ("save", "journal")


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        for write in WRITES:
            path = str(tmp_path / f"{write}.jsonl")
            fill(path, write, 8, [
                ("k1", {"value": 0.875}), ("k2", {"pairs": [["a", "b"]]})
            ])

            loaded = ResultCache.load(path)
            assert loaded.maxsize == 8
            assert loaded.get("k1") == {"value": 0.875}
            assert loaded.get("k2") == {"pairs": [["a", "b"]]}
            assert loaded.corrupt_entries == 0
            assert loaded.recovered_from is None

    def test_load_preserves_recency_order(self, tmp_path):
        for write in WRITES:
            path = str(tmp_path / f"{write}.jsonl")
            fill(path, write, 2, [("old", 1), ("new", 2)])

            loaded = ResultCache.load(path)
            loaded.put("newest", 3)  # must evict "old", not "new"
            assert "old" not in loaded
            assert loaded.get("new") == 2

    def test_inspect_only_load_leaves_the_file_alone(self, tmp_path):
        for write in WRITES:
            path = str(tmp_path / f"{write}.jsonl")
            fill(path, write, 8, [("k1", {"value": 1}), ("k2", {"value": 2})])
            before = Path(path).read_bytes()

            loaded = ResultCache.load(path)
            assert loaded.get("k1") == {"value": 1}
            assert "k3" not in loaded
            assert Path(path).read_bytes() == before


class TestJournal:
    def test_replay_past_maxsize_matches_the_cache_in_memory(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        cache = ResultCache.load(path, maxsize=3)
        for key in "abcadebfa":  # 9 puts, refreshes among them
            cache.put(key, {"v": key})

        replayed = ResultCache.load(path)
        assert replayed.maxsize == 3
        assert list(replayed._entries.items()) == list(cache._entries.items())
        assert replayed.stats()["evictions"] == 0

    def test_append_then_load_round_trips(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        cache = ResultCache.load(path, maxsize=8)
        values = {"k1": {"value": 0.875}, "k2": {"pairs": [["a", "b"]]}}
        for key, value in values.items():
            cache.put(key, value)

        lines = file_lines(path)
        assert json.loads(lines[0]) == {"maxsize": 8}
        entries = [json.loads(line) for line in lines[1:]]
        assert [(key, value) for key, value, _ in entries] == list(
            values.items()
        )
        for _, value, checksum in entries:
            assert checksum == entry_checksum(value)

        loaded = ResultCache.load(path)
        assert {key: loaded.get(key) for key in values} == values
        assert loaded.corrupt_entries == 0

    def test_missing_file_is_created_by_the_first_put(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        cache = ResultCache.load(path, maxsize=4)
        assert len(cache) == 0
        assert not os.path.exists(path)

        cache.put("k", {"v": 1})
        assert os.path.exists(path)
        assert ResultCache.load(path).get("k") == {"v": 1}

    def test_failed_append_stops_the_journal(self, tmp_path, caplog):
        path = str(tmp_path / "no-such-dir" / "cache.jsonl")
        cache = ResultCache.load(path)
        cache.put("k1", 1)
        cache.put("k2", 2)
        assert (cache.get("k1"), cache.get("k2")) == (1, 2)
        assert not os.path.exists(path)
        assert caplog.text.count("journal stopped") == 1

    def test_puts_after_save_append_to_the_compacted_file(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        cache = ResultCache.load(path)
        cache.put("k1", 1)
        cache.save(path)
        cache.put("k2", 2)
        loaded = ResultCache.load(path)
        assert (loaded.get("k1"), loaded.get("k2")) == (1, 2)
        assert len(file_lines(path)) == 3  # header + two entries

    def test_torn_final_line_is_skipped_and_quarantined(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        cache = ResultCache.load(path)
        cache.put("k1", {"v": 1})
        cache.put("k2", {"v": 2})
        torn = Path(path).read_text(encoding="utf-8")[:-9]  # the kill
        Path(path).write_text(torn, encoding="utf-8")

        loaded = ResultCache.load(path)
        assert loaded.get("k1") == {"v": 1}
        assert "k2" not in loaded
        assert loaded.corrupt_entries == 1
        assert loaded.recovered_from == path + ".corrupt"
        assert Path(path + ".corrupt").read_text(encoding="utf-8") == torn
        # The good entries were saved back: the file loads clean.
        again = ResultCache.load(path)
        assert again.get("k1") == {"v": 1}
        assert again.recovered_from is None

    def test_wrong_checksum_is_skipped_and_counted(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        cache = ResultCache(maxsize=8)
        cache.put("k1", {"v": 1})
        cache.put("k2", {"v": 2})
        cache.save(path)
        lines = file_lines(path)
        assert lines[2] == f'["k2",{{"v":2}},"{entry_checksum({"v": 2})}"]\n'
        lines[2] = lines[2].replace('{"v":2}', '{"v":3}')
        Path(path).write_text("".join(lines), encoding="utf-8")

        loaded = ResultCache.load(path)
        assert loaded.corrupt_entries == 1
        assert loaded.get("k1") == {"v": 1}
        assert "k2" not in loaded
        assert loaded.recovered_from == path + ".corrupt"

    def test_structurally_wrong_lines_are_skipped(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        value = {"v": 1}
        good = ["k", value, entry_checksum(value)]
        with open(path, "w", encoding="utf-8") as handle:
            for record in (
                {"maxsize": 4},
                good,
                ["k2", value],  # no checksum
                [5, value, entry_checksum(value)],  # key not a string
                {"maxsize": 4},  # a header after the first line
                "text",
            ):
                handle.write(json.dumps(record) + "\n")
        loaded = ResultCache.load(path)
        assert loaded.maxsize == 4
        assert loaded.corrupt_entries == 4
        assert len(loaded) == 1 and loaded.get("k") == value

    def test_single_object_file_is_quarantined(self, tmp_path):
        # The whole-file JSON object that caches were written as before
        # the journal: one recomputation, never a wrong answer.
        path = str(tmp_path / "cache.json")
        value = {"v": 1}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "maxsize": 8,
                    "entries": [["k", value, entry_checksum(value)]],
                },
                handle,
            )
        loaded = ResultCache.load(path)
        assert len(loaded) == 0
        assert loaded.corrupt_entries == 1
        assert os.path.exists(path + ".corrupt")


JOBS = [
    AdviseJob(design="R(A,B,C); B->C", id="a1"),
    MeasureJob(
        design="T(A,B,C); B->C",
        rows=((1, 2, 3), (4, 2, 3)),
        position=(0, "C"),
        method="montecarlo",
        samples=60,
        seed=7,
        id="m1",
    ),
    AdviseJob(design="S(A,B); A->B", id="a2"),
    MeasureJob(
        design="U(A,B); A->B",
        rows=((1, 2),),
        position=(0, "B"),
        id="m2",
    ),
]


def run_jobs(jobs, cache):
    runner = BatchRunner(
        pool=WorkerPool(workers=2), cache=cache, metrics=Metrics()
    )
    try:
        return runner.run(jobs)
    finally:
        runner.pool.shutdown()


def without_timing(report):
    return [
        {k: v for k, v in entry.items() if k not in ("seconds", "cached")}
        for entry in report["results"]
    ]


class TestRerun:
    """A batch run again against its journal reuses what was finished."""

    def test_rerun_equals_uninterrupted_run(self, tmp_path):
        full = run_jobs(JOBS, ResultCache.load(str(tmp_path / "full.jsonl")))
        assert full["failed"] == 0

        # "Interrupted" run: only the first two jobs finished.
        path = str(tmp_path / "part.jsonl")
        assert run_jobs(JOBS[:2], ResultCache.load(path))["failed"] == 0

        rerun = run_jobs(JOBS, ResultCache.load(path))
        assert rerun["failed"] == 0
        cached = [entry["cached"] for entry in rerun["results"]]
        assert cached == [True, True, False, False]
        # Finished jobs were not executed again: only a2/m2 ran.
        timers = rerun["metrics"]["timers"]
        assert timers["job.advise"]["count"] == 1
        assert timers["job.measure"]["count"] == 1
        assert without_timing(rerun) == without_timing(full)

    def test_failed_jobs_are_not_journaled(self, tmp_path, monkeypatch):
        path = str(tmp_path / "cache.jsonl")

        def fail(self, job, plan):
            raise RuntimeError("bug")

        with monkeypatch.context() as patch:
            patch.setattr(BatchRunner, "execute", fail)
            assert run_jobs(JOBS[:1], ResultCache.load(path))["failed"] == 1
        assert not os.path.exists(path)

        rerun = run_jobs(JOBS[:1], ResultCache.load(path))
        assert rerun["results"][0]["ok"] is True
        assert rerun["results"][0]["cached"] is False


class TestCorruptCacheCLI:
    """The counters a quarantine records at load reach the batch report."""

    def test_quarantine_counters_reach_report_and_metrics_out(
        self, tmp_path
    ):
        from repro.__main__ import main

        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text(
            "".join(json.dumps(job.to_dict()) + "\n" for job in JOBS[2:]),
            encoding="utf-8",
        )
        path = str(tmp_path / "cache.jsonl")
        out, metrics = tmp_path / "report.json", tmp_path / "metrics.json"
        batch = ["batch", str(jobs), "--workers", "1", "--cache", path]
        assert main(batch + ["--out", str(out)]) == 0
        # One line's value no longer matches its checksum.
        lines = file_lines(path)
        lines[1] = lines[1].replace("true", "false", 1)
        assert lines[1] != file_lines(path)[1]
        Path(path).write_text("".join(lines), encoding="utf-8")

        code = main(
            batch + ["--out", str(out), "--metrics-out", str(metrics)]
        )
        assert code == 0
        assert os.path.exists(path + ".corrupt")
        report = json.loads(out.read_text(encoding="utf-8"))
        assert [e["cached"] for e in report["results"]].count(False) == 1
        for counters in (
            report["metrics"]["counters"],
            json.loads(metrics.read_text(encoding="utf-8"))["counters"],
        ):
            assert counters["cache.recoveries"] == 1
            assert counters["cache.corrupt_entries"] == 1


SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


class TestKillRerunCLI:
    """A real SIGKILL mid-batch, then the same command again."""

    @pytest.mark.skipif(
        not hasattr(signal, "SIGKILL"), reason="needs POSIX SIGKILL"
    )
    def test_sigkill_then_rerun_matches_uninterrupted(self, tmp_path):
        jobs_path = tmp_path / "jobs.jsonl"
        # Enough deterministic Monte-Carlo jobs that the batch takes a
        # while on one worker; distinct seeds make every job distinct.
        lines = [
            json.dumps(
                MeasureJob(
                    design="T(A,B,C); B->C",
                    rows=((1, 2, 3), (4, 2, 3), (5, 6, 7)),
                    position=(0, "C"),
                    method="montecarlo",
                    samples=4000,
                    seed=seed,
                    id=f"m{seed}",
                ).to_dict()
            )
            for seed in range(12)
        ]
        jobs_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(SRC)

        def batch(cache, out):
            return [
                sys.executable, "-m", "repro", "batch", str(jobs_path),
                "--workers", "1", "--cache", cache, "--out", str(out),
            ]

        full_cache = str(tmp_path / "full.jsonl")
        subprocess.run(
            batch(full_cache, tmp_path / "full.json"),
            check=True, env=env, timeout=120,
        )

        # Interrupted run: SIGKILL once at least one entry is journaled.
        kill_cache = str(tmp_path / "kill.jsonl")
        proc = subprocess.Popen(
            batch(kill_cache, tmp_path / "kill.json"), env=env
        )
        try:
            deadline = time.time() + 90
            while time.time() < deadline and proc.poll() is None:
                if (  # the header and one whole entry line
                    os.path.exists(kill_cache)
                    and Path(kill_cache).read_bytes().count(b"\n") >= 2
                ):
                    proc.send_signal(signal.SIGKILL)
                    break
                time.sleep(0.005)
        finally:
            proc.wait(timeout=60)
        assert proc.returncode == -signal.SIGKILL

        journaled = set()
        for line in file_lines(kill_cache)[1:]:
            try:
                journaled.add(json.loads(line)[0])
            except ValueError:
                pass  # the torn tail
        assert 1 <= len(journaled) < len(lines)

        subprocess.run(
            batch(kill_cache, tmp_path / "rerun.json"),
            check=True, env=env, timeout=120,
        )
        full, rerun = (
            json.loads((tmp_path / name).read_text(encoding="utf-8"))
            for name in ("full.json", "rerun.json")
        )
        assert rerun["failed"] == 0
        assert without_timing(rerun) == without_timing(full)
        for entry in rerun["results"]:
            assert entry["cached"] == (entry["key"] in journaled)

        full_map, kill_map = (
            ResultCache.load(path) for path in (full_cache, kill_cache)
        )
        assert len(full_map) == len(kill_map) == len(lines)
        for entry in full["results"]:
            assert kill_map.get(entry["key"]) == full_map.get(entry["key"])
