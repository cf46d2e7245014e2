"""Budgets: degradation ladder, wall-clock timeouts, structured errors."""

import json
import resource
import threading
import time
from fractions import Fraction

import pytest

from repro.core import PositionedInstance
from repro.core.montecarlo import MCEstimate
from repro.dependencies import FD, MVD
from repro.engine import Problem, plan_and_run
from repro.normalforms.price import CSZ_FDS, csz_group_instance
from repro.relational import Relation, RelationSchema
from repro.service.budget import Budget, BudgetExceeded
from repro.service.jobs import job_from_dict
from repro.service.pool import WorkerPool
from repro.service.runner import BatchRunner, run_batch


def instance_with_rows(n_rows: int) -> PositionedInstance:
    schema = RelationSchema("R", ("A", "B", "C"))
    rows = [(i, 2, 3) if i < 2 else (i, 20 + i, 30 + i) for i in range(n_rows)]
    return PositionedInstance.from_relation(
        Relation(schema, rows), [FD("B", "C")]
    )


def measure(n_rows: int, budget: Budget, **params):
    """``(value, engine)`` of R[0].C under *budget* (method default auto)."""
    inst = instance_with_rows(n_rows)
    problem = Problem.from_instance(inst, inst.position("R", 0, "C"), **params)
    result = plan_and_run(problem, budget=budget)
    return result.value, result.engine


class TestLadder:
    def test_small_instance_stays_exact(self):
        value, method = measure(2, Budget())
        assert method == "exact"
        assert value == Fraction(7, 8)

    def test_oversized_instance_degrades_to_montecarlo(self):
        # 7 rows x 3 attributes = 21 positions, past the exact guard
        value, method = measure(7, Budget(), samples=60, seed=2)
        assert method == "montecarlo"
        assert isinstance(value, MCEstimate)
        assert value.samples == 60

    def test_pinned_method_skips_the_ladder(self):
        value, method = measure(
            2, Budget(), method="montecarlo", samples=40
        )
        assert method == "montecarlo"
        assert isinstance(value, MCEstimate)

    def test_degraded_estimate_is_deterministic(self):
        budget = Budget()
        first, _ = measure(7, budget, samples=50, seed=9)
        second, _ = measure(7, budget, samples=50, seed=9)
        assert first == second


class TestTimeout:
    def test_exhausted_ladder_raises_structured_error(self):
        # A sample count worth seconds of work under a 50 ms clock: the
        # Monte-Carlo stage cannot finish, so the ladder exhausts (exact
        # is skipped by size).
        budget = Budget(wall_seconds=0.05)
        with pytest.raises(BudgetExceeded) as excinfo:
            measure(7, budget, samples=200_000)
        err = excinfo.value
        assert ("exact", "skipped:size") in err.stages
        assert ("montecarlo", "timeout") in err.stages
        assert err.elapsed > 0
        payload = err.to_dict()
        assert payload["error"] == "budget_exceeded"
        assert payload["budget"]["wall_seconds"] == 0.05

    def test_no_wall_clock_means_no_timeout(self):
        value, _ = measure(2, Budget(wall_seconds=None))
        assert value == Fraction(7, 8)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            Budget(wall_seconds=0)


# ----------------------------------------------------------------------
# an expired budget leaves no work running
# ----------------------------------------------------------------------

TIMEOUT = 0.05

#: One sharded Monte-Carlo job worth seconds of work (6 rows, 18
#: positions, 200,000 samples: the chase decides each FD world in
#: about 30 us, so 2,000 samples no longer outlast the budget).
MC_JOB = {
    "kind": "measure",
    "design": "R(A,B,C); B->C",
    "rows": [[i, 2, 3] if i < 2 else [i, 20 + i, 30 + i] for i in range(6)],
    "position": [0, "C"],
    "method": "montecarlo",
    "samples": 200_000,
}


def assert_no_work_left(threads_before):
    """No thread outlives the call, and process CPU time stops."""
    assert set(threading.enumerate()) <= threads_before
    cpu = time.process_time()
    time.sleep(0.5)
    assert time.process_time() - cpu < 0.2


def assert_timed_out(report):
    entry = report["results"][0]
    assert report["failed"] == 1
    assert entry["error"]["error"] == "budget_exceeded"
    assert entry["error"]["stages"] == [["montecarlo", "timeout"]]


class TestBudgetBoundsWork:
    def test_exact_sweep_stops_at_the_deadline(self):
        # E6 at n = 6: 18 positions, 131,072 chase-decided worlds, a sweep
        # of seconds.
        inst = PositionedInstance.from_relation(csz_group_instance(6), CSZ_FDS)
        problem = Problem.from_instance(
            inst, inst.position("R", 0, "C"), method="exact"
        )
        threads = set(threading.enumerate())
        with pytest.raises(BudgetExceeded) as excinfo:
            plan_and_run(problem, budget=Budget(wall_seconds=TIMEOUT))
        assert excinfo.value.stages == [("exact", "timeout")]
        assert_no_work_left(threads)

    def test_pattern_search_stops_inside_one_world(self):
        # One sample of this 27-position instance at seed 2 is a single
        # world whose pattern search runs for minutes; pruning cuts most
        # subtrees before a leaf, so only a check at every node stops it
        # near the deadline (a check per leaf alone takes over 10 s).
        schema = RelationSchema("R", ("A", "B", "C"))
        rows = [(a, 1, c) for a in (1, 2) for c in (1, 2, 3, 4)] + [(1, 2, 1)]
        inst = PositionedInstance.from_relation(
            Relation(schema, rows), [MVD("B", "A")]
        )
        problem = Problem.from_instance(
            inst, inst.positions[0], method="montecarlo", samples=1, seed=2
        )
        threads = set(threading.enumerate())
        with pytest.raises(BudgetExceeded) as excinfo:
            plan_and_run(problem, budget=Budget(wall_seconds=TIMEOUT))
        assert excinfo.value.stages == [("montecarlo", "timeout")]
        assert excinfo.value.elapsed < 0.25
        assert_no_work_left(threads)

    def test_inf_k_stops_inside_one_world(self):
        # The sweep's first world reveals nothing, so pattern_counts
        # walks the patterns of 9 erased cells (~0.4 s here); only a
        # check inside the world stops it near the deadline.
        schema = RelationSchema("R", ("A", "B"))
        inst = PositionedInstance.from_relation(
            Relation(schema, [(i, i % 2) for i in range(5)]), [FD("A", "B")]
        )
        problem = Problem.from_instance(
            inst, inst.positions[0], op="inf_k", method="symbolic", k=12
        )
        threads = set(threading.enumerate())
        with pytest.raises(BudgetExceeded) as excinfo:
            plan_and_run(problem, budget=Budget(wall_seconds=TIMEOUT))
        assert excinfo.value.stages == [("symbolic", "timeout")]
        assert excinfo.value.elapsed < 0.25
        assert_no_work_left(threads)

    def test_bruteforce_stops_inside_one_world(self):
        # One world of brute force at k=40 enumerates 40^4 completions
        # (seconds); only a check per completion stops it near the
        # deadline.
        schema = RelationSchema("R", ("A", "B"))
        inst = PositionedInstance.from_relation(
            Relation(schema, [(1, 1), (2, 2)]), [FD("A", "B")]
        )
        problem = Problem.from_instance(
            inst, inst.positions[0], op="inf_k", method="bruteforce", k=40
        )
        threads = set(threading.enumerate())
        with pytest.raises(BudgetExceeded) as excinfo:
            plan_and_run(problem, budget=Budget(wall_seconds=TIMEOUT))
        assert excinfo.value.stages == [("bruteforce", "timeout")]
        assert excinfo.value.elapsed < 0.25
        assert_no_work_left(threads)

    def test_sharded_job_spends_no_cpu_past_the_deadline(self):
        cpu = time.process_time()
        runner = BatchRunner(
            pool=WorkerPool(workers=2),
            budget=Budget(wall_seconds=TIMEOUT),
        )
        try:
            report = runner.run([job_from_dict(MC_JOB)])
        finally:
            runner.pool.shutdown()
        assert_timed_out(report)
        assert time.process_time() - cpu < 1.0

    def test_worker_processes_stop_at_the_deadline(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        path.write_text(json.dumps(MC_JOB) + "\n")
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        report = run_batch(
            str(path),
            workers=2,
            budget=Budget(wall_seconds=TIMEOUT),
            use_processes=True,
        )
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        assert_timed_out(report)
        cpu = (after.ru_utime - children.ru_utime) + (
            after.ru_stime - children.ru_stime
        )
        assert cpu < 1.0
