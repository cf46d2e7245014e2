"""Shared bounds validation: helpers, Budget/pool wiring, CLI fuzzing."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.service.budget import Budget
from repro.service.errors import ValidationError
from repro.service.pool import WorkerPool
from repro.service.validate import (
    MAX_WORKERS,
    check_int,
    check_positive_int,
    check_timeout,
    validate_batch_options,
)


class TestHelpers:
    def test_check_int_bounds(self):
        assert check_int("x", 5, minimum=1, maximum=10) == 5
        with pytest.raises(ValidationError, match=">= 1"):
            check_int("x", 0, minimum=1)
        with pytest.raises(ValidationError, match="<= 10"):
            check_int("x", 11, maximum=10)
        with pytest.raises(ValidationError, match="integer"):
            check_int("x", 1.5)
        with pytest.raises(ValidationError, match="integer"):
            check_int("x", True)

    def test_check_timeout(self):
        assert check_timeout("t", None) is None
        assert check_timeout("t", 1.5) == 1.5
        for bad in (0, -1, float("inf"), float("nan"), "soon"):
            with pytest.raises(ValidationError):
                check_timeout("t", bad)

    def test_validation_errors_are_typed_and_value_errors(self):
        with pytest.raises(ValueError) as excinfo:
            check_positive_int("workers", -2)
        err = excinfo.value
        assert err.kind == "validation"
        payload = err.to_dict()
        assert payload["kind"] == "validation"
        assert payload["option"] == "workers"
        json.dumps(payload)

    def test_validate_batch_options_happy_path(self):
        validate_batch_options(
            workers=4, timeout=30.0, samples=200, cache_size=10, retries=3
        )

    def test_validate_batch_options_rejects_each_option(self):
        with pytest.raises(ValidationError):
            validate_batch_options(workers=0)
        with pytest.raises(ValidationError):
            validate_batch_options(workers=MAX_WORKERS + 1)
        with pytest.raises(ValidationError):
            validate_batch_options(timeout=-1)
        with pytest.raises(ValidationError):
            validate_batch_options(samples=0)
        with pytest.raises(ValidationError):
            validate_batch_options(cache_size=-5)
        with pytest.raises(ValidationError):
            validate_batch_options(retries=0)


class TestSharedWiring:
    """Budget and WorkerPool check invariants through the same helper."""

    def test_budget_invariants(self):
        with pytest.raises(ValidationError):
            Budget(wall_seconds=-1)
        Budget(wall_seconds=None)  # valid

    def test_worker_pool_bounds(self):
        with pytest.raises(ValidationError):
            WorkerPool(workers=0)
        with pytest.raises(ValidationError):
            WorkerPool(workers=MAX_WORKERS + 1)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    workers=st.integers(min_value=-5, max_value=5),
    timeout=st.one_of(
        st.none(),
        st.floats(
            min_value=-10,
            max_value=10,
            allow_nan=False,
            allow_infinity=False,
        ),
    ),
    retries=st.integers(min_value=-3, max_value=5),
)
def test_no_batch_cli_input_raises_unhandled(
    tmp_path_factory, workers, timeout, retries
):
    """Property: every numeric CLI combination yields an exit code —
    valid inputs run, invalid ones exit 2 — never a traceback."""
    path = tmp_path_factory.mktemp("cli") / "jobs.jsonl"
    path.write_text(
        '{"kind": "rpq", "edges": [["a","l","b"]], "query": "l"}\n',
        encoding="utf-8",
    )
    argv = ["batch", str(path), "--workers", str(workers),
            "--retries", str(retries)]
    if timeout is not None:
        argv += ["--timeout", str(timeout)]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's own rejection path
        code = exc.code
    assert code in (0, 1, 2)
    valid = (
        1 <= workers
        and 1 <= retries
        and (timeout is None or timeout > 0)
    )
    if valid:
        assert code == 0
    else:
        assert code == 2


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    samples=st.integers(min_value=-100, max_value=300),
    seed=st.integers(min_value=-10, max_value=10),
)
def test_no_advisor_cli_input_raises_unhandled(capsys, samples, seed):
    argv = ["--method", "montecarlo", "--samples", str(samples),
            "--seed", str(seed), "R(A,B); A->B"]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    capsys.readouterr()
    assert code in (0, 1, 2)
    if samples <= 0:
        assert code == 2