"""The four workloads, and the stopwatch that times them.

Each workload is a closed loop with one client: a pass starts the next
operation only when the previous one returned.  A workload object has
``setup(reuse=False)``, ``run_pass(probe=None)``, ``failures(passes)``
and ``close()``.  ``run_pass`` returns a :class:`Pass`; given a
:class:`hooks.Probe` it also fills ``Pass.tallies`` with one tally per
problem (or one for the whole batch).
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import subprocess
import sys
import threading
import time
from time import perf_counter
from typing import Callable, Dict, List, NamedTuple, Optional

import inputs
from checks import exact_ok, expected_digests, failed_jobs, load_golden

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Thread CPU seconds the reference loop takes at nominal machine speed.
NOMINAL_REF_S = 0.010
_REF_LOOPS = 200_000
#: While an operation runs, a sampler thread times a quarter-length
#: reference loop every this many seconds.
SAMPLE_EVERY_S = 0.5


def reference_seconds(fraction: int = 1) -> float:
    """Thread CPU time of a fixed pure-Python loop: the machine's speed now.

    Thread CPU time, not wall time, so a program thread holding the
    interpreter lock cannot slow the reference down.  A loop shortened
    by *fraction* is scaled back up to the full loop.
    """
    start = time.thread_time()
    total = 0
    for i in range(_REF_LOOPS // fraction):
        total += i
    return (time.thread_time() - start) * fraction


class Timing(NamedTuple):
    """One timed operation: raw wall and CPU seconds, and the factor that
    scales them to nominal machine speed."""

    wall: float
    cpu: float
    scale: float


class Stopwatch:
    """Times operations and scales them to nominal machine speed.

    The sandbox host's speed drifts by ±15% over tens of seconds, for
    every process alike.  Each operation is therefore bracketed by runs of
    :func:`reference_seconds` (consecutive operations share a bracket), a
    sampler thread adds a shorter run every ``SAMPLE_EVERY_S`` while the
    operation lasts, and its times are scaled by ``NOMINAL_REF_S`` over
    the mean of all those runs.
    """

    def __init__(self):
        self._ref = reference_seconds()

    def time(self, operation: Callable):
        """``(result, Timing)`` of ``operation()``."""
        refs = [self._ref]
        stop = threading.Event()

        def sample():
            while not stop.wait(SAMPLE_EVERY_S):
                refs.append(reference_seconds(fraction=4))

        sampler = threading.Thread(target=sample, name="perfbench-speed")
        sampler.start()
        try:
            cpu0 = cpu_seconds()
            start = perf_counter()
            result = operation()
            wall = perf_counter() - start
            cpu = cpu_seconds() - cpu0
        finally:
            stop.set()
            sampler.join()
        self._ref = reference_seconds()
        refs.append(self._ref)
        return result, Timing(wall, cpu, NOMINAL_REF_S * len(refs) / sum(refs))


class Pass(NamedTuple):
    """What one pass did and cost (times scaled to nominal speed)."""

    wall: float
    cpu: float
    raw_wall: float
    #: High-water RSS of the CLI child (None for in-process passes).
    child_rss_mb: Optional[float]
    ops: int
    failed: int
    #: Scaled seconds per problem (kernel workloads) or per job (batch).
    seconds: Dict[str, float]
    tallies: dict
    #: The batch report (batch workloads only).
    report: Optional[dict] = None


def cpu_seconds() -> float:
    """User + system time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def run_child(argv: List[str], log_path: str) -> int:
    """Run ``python3 argv`` to completion; its exit code."""
    with open(log_path, "ab") as log:
        return subprocess.run(
            [sys.executable] + argv,
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.DEVNULL,
            stderr=log,
        ).returncode


def peak_rss_mb(status_path: str = "/proc/self/status") -> float:
    """The ``VmHWM`` line of a ``/proc/<pid>/status`` file, in MB.

    Unlike ``ru_maxrss``, which a child inherits from its parent's memory
    at fork, it covers only the program the process runs.
    """
    with open(status_path, "r", encoding="ascii") as handle:
        line = next(line for line in handle if line.startswith("VmHWM:"))
    return int(line.split()[1]) / 1024.0


#: ``python -c`` program that runs ``python -m repro`` and, at exit, copies
#: its own ``/proc/self/status`` to the file named by its first argument.
_CLI_KEEPING_STATUS = (
    "import atexit, runpy, shutil, sys\n"
    "status = sys.argv.pop(1)\n"
    "atexit.register(shutil.copyfile, '/proc/self/status', status)\n"
    "runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
)


def pin_to_one_cpu() -> None:
    """Keep this process, and the threads and children it starts later, on
    one CPU, so the speed sampler runs where the measured threads run.

    CLI runs are not pinned: there the child's two threads would share
    one CPU, and passes spread more, not less.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class _Kernel:
    """Shared loop of the in-process kernel workloads."""

    pinned = True

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.golden = None
        self.problems = []
        self.watch = Stopwatch()

    def setup(self, reuse: bool = False) -> None:
        self.golden = load_golden()[self.name]
        # The seed picks the order in which a pass visits the problems.
        random.Random(self.seed).shuffle(self.problems)

    def close(self) -> None:
        pass

    def failures(self, passes: List[Pass]) -> int:
        return sum(p.failed for p in passes)

    def run_pass(self, probe=None) -> Pass:
        seconds, tallies = {}, {}
        wall = cpu = raw = 0.0
        ops = failed = 0
        for problem in self.problems:
            if probe is not None:
                probe.reset()
            ok, t = self.watch.time(lambda: self.solve(problem))
            if probe is not None:
                tallies[problem.name] = probe.collect()
            seconds[problem.name] = t.wall * t.scale
            wall += t.wall * t.scale
            cpu += t.cpu * t.scale
            raw += t.wall
            weight = self.ops_of(problem)
            ops += weight
            failed += 0 if ok else weight
        return Pass(wall, cpu, raw, None, ops, failed, seconds, tallies)


class Sweep(_Kernel):
    """``ric_exact`` in-process on the four fixed exact problems."""

    name = "sweep"

    def setup(self, reuse: bool = False) -> None:
        self.problems = inputs.sweep_problems()
        super().setup()

    def ops_of(self, problem) -> int:
        return 1

    def solve(self, problem) -> bool:
        from repro.core.symbolic import ric_exact

        value = ric_exact(problem.instance, problem.position)
        return exact_ok(value, self.golden[problem.name])


class MonteCarlo(_Kernel):
    """``plan_and_run`` with ``method="auto"`` over a 2-thread pool."""

    name = "mc"

    def setup(self, reuse: bool = False) -> None:
        from repro.service.pool import WorkerPool

        self.problems = inputs.mc_problems()
        self.pool = WorkerPool(workers=2)
        super().setup()

    def close(self) -> None:
        self.pool.shutdown()

    def ops_of(self, problem) -> int:
        return problem.samples

    def solve(self, problem) -> bool:
        from repro.engine import Problem, plan_and_run

        result = plan_and_run(
            Problem.from_instance(
                problem.instance,
                problem.position,
                method="auto",
                samples=problem.samples,
                seed=inputs.MC_SEED,
            ),
            pool=self.pool,
        )
        want = self.golden[problem.name]
        return (
            result.engine == "montecarlo"
            and want["samples"] == problem.samples
            and result.value.mean == want["mean"]
        )


class Batch:
    """``python -m repro batch`` on the seeded JSONL file.

    Cold: every pass starts from a fresh cache file.  Warm: every pass
    reads a copy of a cache filled during set-up, so every job is a hit.
    """

    pinned = False

    def __init__(self, seed: int, workdir: str, warm: bool):
        self.name = "batch-warm" if warm else "batch-cold"
        self.seed = seed
        self.warm = warm
        self.workdir = workdir
        self.jobs_path = os.path.join(workdir, "jobs.jsonl")
        self.cache_path = os.path.join(workdir, "cache.json")
        self.warm_cache = os.path.join(workdir, "warm-cache.json")
        self.report_path = os.path.join(workdir, "report.json")
        self.log_path = os.path.join(workdir, "cli.log")
        self.jobs: List[dict] = []
        self.expected = None
        self.watch = Stopwatch()

    def argv(self, *extra: str) -> List[str]:
        return [
            "-m", "repro", "batch", self.jobs_path, "--workers", "2",
            "--cache", self.cache_path, "--out", self.report_path, *extra,
        ]

    def setup(self, reuse: bool = False) -> None:
        """Write the job file; a warm batch also fills its cache, unless
        *reuse* and an earlier set-up of this run already left one."""
        self.jobs = inputs.batch_jobs(self.seed)
        inputs.write_jobs(self.jobs_path, self.jobs)
        if self.warm and not (reuse and os.path.exists(self.warm_cache)):
            self._fresh_cache(fill=False)
            code = run_child(self.argv(), self.log_path)
            if code != 0:
                raise RuntimeError(f"cache pre-fill exited {code}; see {self.log_path}")
            shutil.copyfile(self.cache_path, self.warm_cache)

    def close(self) -> None:
        pass

    def _fresh_cache(self, fill: bool) -> None:
        if fill:
            shutil.copyfile(self.warm_cache, self.cache_path)
        elif os.path.exists(self.cache_path):
            os.unlink(self.cache_path)
        if os.path.exists(self.report_path):
            os.unlink(self.report_path)

    def _finish(self, t: Timing, rss, tallies) -> Pass:
        try:
            with open(self.report_path, "r", encoding="utf-8") as handle:
                report = json.load(handle)
        except FileNotFoundError:  # the batch failed as a whole
            report = {"results": []}
        seconds = {
            e.get("id"): e.get("seconds", 0.0) * t.scale for e in report["results"]
        }
        return Pass(
            t.wall * t.scale, t.cpu * t.scale, t.wall, rss,
            len(self.jobs), 0, seconds, tallies, report,
        )

    def failures(self, passes: List[Pass]) -> int:
        """Failed or wrong jobs over *passes* (checked after timing, so
        recomputation never runs between timed passes)."""
        if self.expected is None:
            golden = None
            if self.seed == inputs.DEFAULT_SEED:
                golden = load_golden()["batch"]
            self.expected = expected_digests(self.jobs, passes[0].report, golden)
        return sum(failed_jobs(p.report, self.expected, self.warm) for p in passes)

    def run_pass(self, probe=None) -> Pass:
        """One CLI invocation in a child process (``python -m repro``, run
        through a wrapper that keeps the child's memory high-water mark)."""
        self._fresh_cache(fill=self.warm)
        status = os.path.join(self.workdir, "child-status.txt")
        argv = ["-c", _CLI_KEEPING_STATUS, status] + self.argv()[2:]
        _, t = self.watch.time(lambda: run_child(argv, self.log_path))
        return self._finish(t, peak_rss_mb(status), {})

    def outside_batch_seconds(self) -> float:
        """CLI wall time outside the ``batch.run`` span: interpreter
        start, imports, argument and cache handling, report writing."""
        trace_path = os.path.join(self.workdir, "trace.json")
        self._fresh_cache(fill=self.warm)
        _, t = self.watch.time(
            lambda: run_child(self.argv("--trace-out", trace_path), self.log_path)
        )
        with open(trace_path, "r", encoding="utf-8") as handle:
            events = json.load(handle)["traceEvents"]
        inside = sum(
            e["dur"] for e in events if e.get("ph") == "X" and e["name"] == "batch.run"
        )
        return t.wall - inside / 1e6

    def run_in_process(self, probe=None) -> Pass:
        """The same command through ``batch_main`` in this process (the
        traced run needs its wrappers in the process doing the work)."""
        from repro.__main__ import batch_main

        self._fresh_cache(fill=self.warm)
        if probe is not None:
            probe.reset()
        _, t = self.watch.time(lambda: batch_main(self.argv()[3:]))
        tallies = {"batch": probe.collect()} if probe is not None else {}
        return self._finish(t, None, tallies)


def make(name: str, seed: int, workdir: str):
    """The workload called *name*."""
    if name == "sweep":
        return Sweep(seed, workdir)
    if name == "mc":
        return MonteCarlo(seed, workdir)
    if name in ("batch-cold", "batch-warm"):
        return Batch(seed, workdir, warm=name == "batch-warm")
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("sweep", "mc", "batch-cold", "batch-warm")
