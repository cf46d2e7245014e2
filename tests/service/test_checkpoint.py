"""Checkpointing: torn-tail tolerance, resume equivalence, kill-resume."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.__main__ import main
from repro.service.checkpoint import Checkpoint, checkpoint_entry
from repro.service.jobs import AdviseJob, MeasureJob, job_key
from repro.service.metrics import CHECKPOINTS_WRITTEN, Metrics
from repro.service.pool import WorkerPool
from repro.service.runner import BatchRunner

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

JOB_LINES = "\n".join(json.dumps(job.to_dict()) for job in JOBS) + "\n"


def run_jobs(jobs, checkpoint=None, resume_map=None, metrics=None):
    runner = BatchRunner(
        pool=WorkerPool(workers=2), metrics=metrics or Metrics()
    )
    try:
        return runner.run(jobs, checkpoint=checkpoint, resume_map=resume_map)
    finally:
        runner.pool.shutdown()


class TestCheckpointFile:
    def test_projection_drops_volatile_fields(self):
        entry = {
            "id": "x",
            "key": "k",
            "ok": True,
            "cached": False,
            "seconds": 1.23,
            "resumed": True,
            "value": {"v": 1},
        }
        assert checkpoint_entry(entry) == {
            "id": "x",
            "key": "k",
            "ok": True,
            "cached": False,
            "value": {"v": 1},
        }

    def test_append_then_load_round_trips(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        metrics = Metrics()
        ck = Checkpoint(path, metrics=metrics)
        ck.append("k1", {"key": "k1", "ok": True, "seconds": 9.0, "value": 1})
        ck.append("k2", {"key": "k2", "ok": True, "seconds": 2.0, "value": 2})
        ck.close()
        loaded = Checkpoint(path).load()
        assert set(loaded) == {"k1", "k2"}
        assert loaded["k1"] == {"key": "k1", "ok": True, "value": 1}
        assert metrics.get(CHECKPOINTS_WRITTEN) == 2

    def test_torn_tail_is_skipped_not_fatal(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        ck = Checkpoint(path)
        ck.append("k1", {"key": "k1", "ok": True, "value": 1})
        ck.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "k2", "entry": {"ok": tr')  # the kill
        fresh = Checkpoint(path)
        assert set(fresh.load()) == {"k1"}
        assert fresh.skipped_lines == 1

    def test_structurally_wrong_lines_are_skipped(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('[1, 2, 3]\n{"key": 5, "entry": {}}\n"text"\n')
        fresh = Checkpoint(path)
        assert fresh.load() == {}
        assert fresh.skipped_lines == 3

    def test_missing_file_is_empty_map(self, tmp_path):
        assert Checkpoint(str(tmp_path / "none.jsonl")).load() == {}

    def test_finalize_is_input_ordered_and_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        entries = [
            {"key": "k2", "ok": True, "seconds": 5.0, "value": 2},
            {"key": "k1", "ok": True, "seconds": 1.0, "value": 1},
        ]
        Checkpoint(a).finalize(entries)
        Checkpoint(b).finalize(entries)
        assert open(a, "rb").read() == open(b, "rb").read()
        keys = [
            json.loads(line)["key"]
            for line in open(a, encoding="utf-8")
        ]
        assert keys == ["k2", "k1"]  # input order, not sorted


class TestResumeEquivalence:
    def test_resumed_run_equals_uninterrupted_run(self, tmp_path):
        # Uninterrupted reference run.
        full_path = str(tmp_path / "full.jsonl")
        full = run_jobs(JOBS, checkpoint=Checkpoint(full_path))
        assert full["failed"] == 0

        # "Interrupted" run: only the first two jobs completed before
        # the kill; the checkpoint holds their entries (append order).
        part_path = str(tmp_path / "part.jsonl")
        part_ck = Checkpoint(part_path)
        partial = run_jobs(JOBS[:2], checkpoint=part_ck)
        assert partial["failed"] == 0

        # Resume the full batch from the partial checkpoint.
        resume_ck = Checkpoint(part_path)
        resume_map = resume_ck.load()
        metrics = Metrics()
        resumed = run_jobs(
            JOBS, checkpoint=resume_ck, resume_map=resume_map, metrics=metrics
        )
        assert resumed["failed"] == 0
        assert resumed["resumed"] == 2
        assert metrics.get("runner.checkpoint_hits") == 2
        # Completed jobs were not re-executed: only a2/m2 ran.
        timers = resumed["metrics"]["timers"]
        assert timers["job.advise"]["count"] == 1
        assert timers["job.measure"]["count"] == 1

        # The finalized checkpoint is byte-identical to the
        # uninterrupted one (acceptance criterion).
        assert (
            open(part_path, "rb").read() == open(full_path, "rb").read()
        )

        # And the report values match entry-for-entry (timing aside).
        strip = lambda e: {
            k: v for k, v in e.items() if k not in ("seconds", "resumed")
        }
        assert [strip(e) for e in resumed["results"]] == [
            strip(e) for e in full["results"]
        ]

    def test_resume_skips_only_ok_entries(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        bad_key = job_key(JOBS[0])
        ck = Checkpoint(path)
        ck.append(bad_key, {"key": bad_key, "ok": False, "error": {}})
        ck.close()
        resumed = run_jobs(JOBS[:1], resume_map=Checkpoint(path).load())
        # The failed checkpoint entry is ignored; the job re-executes.
        assert resumed["results"][0]["ok"] is True
        assert "resumed" not in resumed["results"][0]


class TestKillResumeCLI:
    """A real SIGKILL mid-batch, then --resume (acceptance criterion)."""

    @pytest.mark.skipif(
        not hasattr(signal, "SIGKILL"), reason="needs POSIX SIGKILL"
    )
    def test_sigkill_then_resume_matches_uninterrupted(self, tmp_path):
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
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")

        # Reference: uninterrupted run.
        full_ck = str(tmp_path / "full.ck.jsonl")
        subprocess.run(
            [
                sys.executable, "-m", "repro", "batch", str(jobs_path),
                "--workers", "1", "--checkpoint", full_ck,
                "--out", str(tmp_path / "full.json"),
            ],
            check=True,
            env=env,
            timeout=120,
        )

        # Interrupted run: SIGKILL once at least one job is durable.
        kill_ck = str(tmp_path / "kill.ck.jsonl")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "batch", str(jobs_path),
                "--workers", "1", "--checkpoint", kill_ck,
                "--out", str(tmp_path / "kill.json"),
            ],
            env=env,
        )
        try:
            deadline = time.time() + 90
            while time.time() < deadline:
                if (
                    os.path.exists(kill_ck)
                    and open(kill_ck, encoding="utf-8").read().count("\n") >= 1
                ):
                    break
                if proc.poll() is not None:
                    break  # finished before we could kill it — still fine
                time.sleep(0.02)
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
        finally:
            proc.wait(timeout=60)

        completed_before = sum(
            1
            for line in open(kill_ck, encoding="utf-8")
            if line.strip()
        )

        # Resume and compare.
        result = subprocess.run(
            [
                sys.executable, "-m", "repro", "batch", str(jobs_path),
                "--workers", "1", "--resume", kill_ck,
                "--out", str(tmp_path / "resumed.json"),
            ],
            check=True,
            env=env,
            timeout=120,
            capture_output=True,
        )
        assert result.returncode == 0
        assert (
            open(kill_ck, "rb").read() == open(full_ck, "rb").read()
        ), "resumed checkpoint must be byte-identical to uninterrupted"

        resumed_report = json.loads(
            (tmp_path / "resumed.json").read_text(encoding="utf-8")
        )
        assert resumed_report["failed"] == 0
        if proc.returncode == -signal.SIGKILL:
            # Jobs durable before the kill were reused, not re-executed.
            assert resumed_report["resumed"] >= min(completed_before, 1)
