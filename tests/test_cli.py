"""Tests for the ``python -m repro`` command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import EXIT_BROKEN_PIPE, build_parser, main


class TestCLI:
    def test_well_designed_exit_zero(self, capsys):
        code = main(["R(A,B,C); A->BC"])
        out = capsys.readouterr().out
        assert code == 0
        assert "well-designed" in out

    def test_redundant_exit_one(self, capsys):
        code = main(["R(A,B,C); B->C"])
        out = capsys.readouterr().out
        assert code == 1
        assert "redundant" in out
        assert "7/8" in out

    def test_no_measure_flag(self, capsys):
        code = main(["--no-measure", "R(A,B,C); B->C"])
        out = capsys.readouterr().out
        assert code == 1
        assert "7/8" not in out

    def test_multiple_designs(self, capsys):
        code = main(["R(A,B); A->B", "S(X,Y,Z); Y->Z"])
        out = capsys.readouterr().out
        assert code == 1
        assert out.count("Design") == 2

    def test_bad_input_exit_two(self, capsys):
        code = main(["not a design"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error" in err

    def test_parser_help_mentions_notation(self):
        parser = build_parser()
        assert "B->C" in parser.format_help()


@pytest.mark.parametrize("command", ["advise", "batch"])
def test_a_closed_stdout_ends_without_a_traceback(tmp_path, command):
    # The reader goes away before any output, as ``| head`` may.
    jobs = tmp_path / "jobs.jsonl"
    jobs.write_text('{"kind": "advise", "design": "R(A,B,C); B->C"}\n')
    args = {"advise": ["R(A,B,C); B->C"], "batch": ["batch", str(jobs)]}
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *args[command]],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == EXIT_BROKEN_PIPE
    assert "Traceback" not in stderr
