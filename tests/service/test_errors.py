"""The structured error taxonomy: kinds, JSON shapes, classification."""

import json
import pickle

import pytest

from repro.service.budget import Budget, BudgetExceeded
from repro.service.errors import (
    KINDS,
    JobError,
    ValidationError,
    classify,
    from_exception,
)
from repro.service.jobs import JobSpecError


def _raise_and_wrap(exc):
    try:
        raise exc
    except Exception as caught:  # noqa: BLE001 — test helper
        return from_exception(caught)


class TestTaxonomy:
    def test_the_five_kinds(self):
        assert KINDS == (
            "parse",
            "validation",
            "budget",
            "worker_crash",
            "internal",
        )

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError, match="unknown error kind"):
            JobError("boom", kind="nonsense")

    def test_subclass_default_kinds(self):
        assert ValidationError("x").kind == "validation"
        assert JobError("x").kind == "internal"

    def test_only_transient_kinds_are_retryable(self):
        transient = {k: JobError("x", kind=k).transient for k in KINDS}
        assert transient == {
            "parse": False,
            "validation": False,
            "budget": False,
            "worker_crash": True,
            "internal": False,
        }


class TestJsonShapes:
    """Every kind in the taxonomy has a serialized shape test."""

    def assert_envelope(self, payload, kind, retryable):
        assert payload["kind"] == kind
        assert payload["retryable"] is retryable
        assert isinstance(payload["error"], str)
        assert isinstance(payload["message"], str)
        json.dumps(payload)  # JSON-safe throughout

    def test_parse_shape(self):
        err = JobSpecError(
            "line 3: invalid JSON", kind="parse", details={"line": 3}
        )
        payload = err.to_dict()
        self.assert_envelope(payload, "parse", False)
        assert payload["line"] == 3

    def test_validation_shape(self):
        err = ValidationError(
            "workers must be >= 1", details={"option": "workers"}
        )
        payload = err.to_dict()
        self.assert_envelope(payload, "validation", False)
        assert payload["option"] == "workers"

    def test_budget_shape_keeps_stage_history(self):
        exc = BudgetExceeded(
            [("exact", "skipped:size"), ("montecarlo", "timeout")],
            elapsed=0.25,
            budget=Budget(wall_seconds=0.2),
        )
        payload = _raise_and_wrap(exc).to_dict()
        self.assert_envelope(payload, "budget", False)
        # Pre-taxonomy report shape is preserved at the top level.
        assert payload["error"] == "budget_exceeded"
        assert ["exact", "skipped:size"] in payload["stages"]
        assert payload["elapsed"] == 0.25
        assert payload["budget"]["wall_seconds"] == 0.2

    def test_worker_crash_shape(self):
        from concurrent.futures.process import BrokenProcessPool

        payload = _raise_and_wrap(BrokenProcessPool("worker died")).to_dict()
        self.assert_envelope(payload, "worker_crash", True)
        assert payload["error"] == "BrokenProcessPool"
        assert "Traceback" in payload["traceback"]

    def test_internal_shape_captures_traceback(self):
        payload = _raise_and_wrap(RuntimeError("surprise")).to_dict()
        self.assert_envelope(payload, "internal", False)
        assert payload["error"] == "RuntimeError"
        assert "RuntimeError: surprise" in payload["traceback"]
        assert "traceback" not in JobError("no cause").to_dict()


class TestClassify:
    def test_budget_exceeded(self):
        exc = BudgetExceeded([], 0.0, Budget())
        assert classify(exc) == "budget"

    def test_broken_executor(self):
        from concurrent.futures import BrokenExecutor

        assert classify(BrokenExecutor()) == "worker_crash"

    def test_json_decode_error(self):
        try:
            json.loads("{nope")
        except json.JSONDecodeError as exc:
            assert classify(exc) == "parse"

    def test_job_spec_error_is_validation(self):
        assert classify(JobSpecError("bad job")) == "validation"

    def test_job_error_keeps_its_kind(self):
        error = JobError("lost", kind="worker_crash", code="chunk")
        assert classify(error) == "worker_crash"

    def test_everything_else_is_internal(self):
        assert classify(KeyError("x")) == "internal"
        assert classify(ZeroDivisionError()) == "internal"

    def test_from_exception_passes_job_errors_through(self):
        err = ValidationError("already typed")
        assert from_exception(err) is err


class TestPickling:
    """Errors must survive a process-pool hop with their structure."""

    def test_job_error_round_trips(self):
        err = JobError(
            "boom", kind="worker_crash", code="X", details={"a": 1}
        )
        clone = pickle.loads(pickle.dumps(err))
        assert clone.kind == "worker_crash"
        assert clone.code == "X"
        assert clone.details == {"a": 1}
        assert str(clone) == "boom"

    def test_job_error_subclass_round_trips(self):
        err = JobSpecError("bad line", kind="parse", details={"line": 2})
        clone = pickle.loads(pickle.dumps(err))
        assert type(clone) is JobSpecError
        assert clone.kind == "parse"
        assert clone.details == {"line": 2}
