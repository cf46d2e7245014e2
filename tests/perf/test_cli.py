"""``python -m repro perf calibrate`` and the batch CLI's profiling/output
paths."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.service.errors import ValidationError
from repro.service.validate import check_output_path


class TestPerfCalibrateCli:
    def test_calibrate_fits_and_writes(self, tmp_path, capsys):
        trace = str(tmp_path / "trace.json")
        with open(trace, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": [
                {"ph": "X", "name": "engine_run", "dur": u * 10,
                 "args": {"engine": "exact", "units": u}}
                for u in (100.0, 200.0)
            ]}, handle)
        out = str(tmp_path / "cost_calibration.json")
        assert main(["perf", "calibrate", "--trace", trace,
                     "--out", out]) == 0
        assert "exact" in capsys.readouterr().out
        with open(out, "r", encoding="utf-8") as handle:
            assert "exact" in json.load(handle)["engines"]

    def test_unusable_trace_exits_two(self, tmp_path, capsys):
        trace = str(tmp_path / "trace.json")
        with open(trace, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": []}, handle)
        assert main(["perf", "calibrate", "--trace", trace]) == 2
        assert "error" in capsys.readouterr().err


JOB = '{"kind": "rpq", "edges": [["a","l","b"]], "query": "l"}\n'


class TestBatchOutputPaths:
    def test_nested_output_dirs_are_created_up_front(self, tmp_path):
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text(JOB, encoding="utf-8")
        trace = tmp_path / "deep" / "nested" / "trace.json"
        profile = tmp_path / "prof" / "stacks.collapsed"
        code = main(["batch", str(jobs),
                     "--trace-out", str(trace),
                     "--profile-out", str(profile)])
        assert code == 0
        assert trace.exists() and profile.exists()

    def test_directory_as_output_path_exits_two(self, tmp_path, capsys):
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text(JOB, encoding="utf-8")
        code = main(["batch", str(jobs), "--trace-out", str(tmp_path)])
        assert code == 2
        assert "directory" in capsys.readouterr().err

    def test_uncreatable_parent_exits_two(self, tmp_path, capsys):
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text(JOB, encoding="utf-8")
        # A file used as a directory component cannot be created.
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="utf-8")
        code = main(["batch", str(jobs),
                     "--metrics-out", str(blocker / "m.json")])
        assert code == 2
        assert "error" in capsys.readouterr().err.lower()

    def test_check_output_path_is_typed(self, tmp_path):
        with pytest.raises(ValidationError):
            check_output_path("--trace-out", str(tmp_path))
        assert check_output_path("--trace-out", None) is None
        nested = str(tmp_path / "a" / "b" / "out.json")
        assert check_output_path("--trace-out", nested) == nested
        assert os.path.isdir(os.path.dirname(nested))

    @pytest.mark.skipif(os.geteuid() == 0, reason="root ignores modes")
    def test_unwritable_parent_exits_two(self, tmp_path):
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text(JOB, encoding="utf-8")
        locked = tmp_path / "locked"
        locked.mkdir()
        locked.chmod(0o500)
        try:
            code = main(["batch", str(jobs),
                         "--out", str(locked / "r.jsonl")])
        finally:
            locked.chmod(0o700)
        assert code == 2

    def test_profile_flag_prints_summary(self, tmp_path, capsys):
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text(JOB * 3, encoding="utf-8")
        code = main(["batch", str(jobs), "--profile"])
        assert code == 0
        assert "Profile:" in capsys.readouterr().err


def test_cli_import_loads_no_perf_module():
    # The profiler and the calibrator load only under --profile and
    # "perf calibrate", so every other CLI run skips their imports.
    code = (
        "import sys, repro.__main__; "
        "print(sorted(m for m in sys.modules if m.startswith('repro.perf')))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=env, check=True,
    ).stdout
    assert out.strip() == "[]"


def loaded_modules(code: str) -> set:
    """The modules a fresh interpreter holds after running *code*."""
    code += "\nimport sys; print(' '.join(sorted(sys.modules)))"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=env, check=True,
    ).stdout
    return set(out.split())


def test_cli_import_loads_no_advisor_or_kernel():
    loaded = loaded_modules("import repro.__main__")
    assert "repro.__main__" in loaded
    assert not loaded & {"repro.advisor", "repro.core.symbolic"}


#: One job of each kind, the measure jobs on both engines.
EVERY_KIND = [
    {"kind": "advise", "design": "R(A,B,C); B->C", "id": "a"},
    {"kind": "measure", "design": "T(A,B,C); B->C",
     "rows": [[1, 2, 3], [4, 2, 3]], "position": [0, "C"], "id": "m"},
    {"kind": "measure", "design": "T(A,B,C); B->C",
     "rows": [[1, 2, 3], [4, 2, 3]], "position": [0, "C"],
     "method": "montecarlo", "samples": 40, "seed": 3, "id": "mc"},
    {"kind": "rpq", "edges": [["a", "l", "b"], ["b", "l", "c"]],
     "query": "l+", "source": "a", "id": "r"},
]


def test_warm_batch_loads_no_advisor_planner_or_kernel(tmp_path):
    # Every job is a cache hit, so nothing that computes a result loads.
    jobs = tmp_path / "jobs.jsonl"
    jobs.write_text(
        "".join(json.dumps(job) + "\n" for job in EVERY_KIND),
        encoding="utf-8",
    )
    cache, out = str(tmp_path / "cache.jsonl"), tmp_path / "report.json"
    argv = ["batch", str(jobs), "--workers", "2", "--cache", cache,
            "--out", str(out)]
    assert main(argv) == 0

    loaded = loaded_modules(
        f"from repro.__main__ import main\nassert main({argv!r}) == 0"
    )
    report = json.loads(out.read_text(encoding="utf-8"))
    assert [e["cached"] for e in report["results"]] == [True] * 4
    assert not loaded & {
        "repro.advisor",
        "repro.engine.planner",
        "repro.core.symbolic",
        "repro.core.pruning",
        "repro.core.positions",
        "repro.chase.engine",
        "multiprocessing",
    }
