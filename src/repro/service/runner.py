"""JSONL batch execution through the pool and the result cache.

The runner takes a job list (usually parsed from a JSONL file, one job
object per line — see :mod:`repro.service.jobs`), consults the
content-addressed cache for each, and executes the misses:

- measure jobs whose :class:`~repro.engine.planner.Plan` may run the
  Monte-Carlo engine run on the main thread with their **sample range
  sharded across the pool** (the intra-job axis);
- every other job fans out to the pool as an independent future (the
  inter-job axis).

Each measure job carries one :class:`~repro.engine.problem.Problem`,
keyed once by :func:`~repro.service.jobs.job_key` and planned once, on a
cache miss, in the scheduling loop; the same plan is then executed.
Which engines may run is the planner's decision — the runner only asks
``plan.uses("montecarlo")``; it holds no engine-selection logic of its
own.

Keeping the two axes on disjoint scheduling paths makes the design
deadlock-free: a sharded job never waits on pool slots held by other
sharded jobs.  Results come back in input order as JSON-safe dicts with
per-job timing and the cache key, followed by the cache stats and a
snapshot of :data:`repro.service.metrics.METRICS`, the one registry the
runner, the planner, the pool, the chase and the RPQ search record into.

Fault tolerance (see also :mod:`repro.service.errors`):

- every job failure is a **typed** entry — a
  :class:`~repro.service.errors.JobError` payload with its taxonomy
  ``kind``, machine-readable code, and captured traceback — never an
  anonymous string, and never fatal to the batch;
- a Monte-Carlo chunk lost to a dead worker process re-runs inside the
  pool (:meth:`~repro.service.pool.WorkerPool.map_retrying`), at most
  the pool's ``retries`` attempts per chunk; nothing else is retried,
  because every other failure would only repeat;
- a malformed JSONL line becomes a ``parse``/``validation`` entry with
  its line number; the remaining lines still run;
- with a loaded :class:`~repro.service.cache.ResultCache`, each result
  is journaled to the cache file as it completes, so rerunning a killed
  batch against the same file serves those jobs as cache hits;
- a damaged cache *file* is quarantined at load (see
  :meth:`~repro.service.cache.ResultCache.load`) — it costs
  recomputation, never a wrong or missing result.
"""

from __future__ import annotations

import json
from fractions import Fraction
from time import perf_counter
from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Tuple

from repro.relational.attributes import fmt_attrs
from repro.service.budget import Budget
from repro.service.cache import ResultCache
from repro.service.errors import JobError, ValidationError, from_exception
from repro.service.jobs import (
    AdviseJob,
    Job,
    MeasureJob,
    RPQJob,
    job_key,
    parse_jsonl_lenient,
)
from repro.service.metrics import METRICS
from repro.service.pool import WorkerPool
from repro.service.trace import TRACER

if TYPE_CHECKING:
    from repro.advisor import DesignReport
    from repro.engine import Plan

# The advisor and the graph engines load on the first job that runs them,
# so a batch served from the cache imports neither.  The jobs call these
# module globals, so replacing one (perfbench's traced run wraps them by
# name) sees every call.


def advise(*args, **kwargs):
    """:func:`repro.advisor.advise`, imported on first use."""
    from repro.advisor import advise as run

    return run(*args, **kwargs)


def rpq_eval(*args, **kwargs):
    """:func:`repro.graph.rpq.rpq_eval`, imported on first use."""
    from repro.graph.rpq import rpq_eval as run

    return run(*args, **kwargs)


def rpq_reachable(*args, **kwargs):
    """:func:`repro.graph.rpq.rpq_reachable`, imported on first use."""
    from repro.graph.rpq import rpq_reachable as run

    return run(*args, **kwargs)


def ric_payload(value) -> dict:
    """JSON-safe rendering of an exact or estimated ``RIC`` value."""
    from repro.core.montecarlo import MCEstimate

    if isinstance(value, MCEstimate):
        low, high = value.ci95()
        return {
            "kind": "montecarlo",
            "mean": value.mean,
            "stderr": value.stderr,
            "samples": value.samples,
            "ci95": [low, high],
            "value": value.mean,
        }
    if isinstance(value, Fraction):
        return {
            "kind": "exact",
            "fraction": str(value),
            "value": float(value),
        }
    return {"kind": "float", "value": float(value)}


def report_payload(report: DesignReport) -> dict:
    """JSON-safe rendering of a :class:`~repro.advisor.DesignReport`."""
    return {
        "schema": str(report.schema),
        "fds": [str(fd) for fd in report.fds],
        "mvds": [str(mvd) for mvd in report.mvds],
        "minimal_cover": [str(fd) for fd in report.minimal_cover],
        "keys": [fmt_attrs(key) for key in report.keys],
        "normal_forms": {
            "2nf": report.in_2nf,
            "3nf": report.in_3nf,
            "bcnf": report.in_bcnf,
            "4nf": report.in_4nf,
        },
        "well_designed": report.well_designed,
        "witness": (
            None
            if report.witness_position is None
            else {
                "position": report.witness_position,
                "ric": (
                    None
                    if report.witness_ric is None
                    else ric_payload(report.witness_ric)
                ),
            }
        ),
        "repairs": [
            {
                "method": repair.method,
                "fragments": [str(f) for f in repair.fragments],
                "lossless": repair.lossless,
                "dependency_preserving": repair.dependency_preserving,
            }
            for repair in report.repairs
        ],
        "summary": report.summary(),
    }


class BatchRunner:
    """Execute job batches through one pool, cache, and budget.

    The runner never builds or shuts down a pool: the caller owns *pool*
    (job fan-out) and *shard_pool* (Monte-Carlo chunks, *pool* when not
    given), as :func:`run_batch` does.
    """

    def __init__(
        self,
        pool: WorkerPool,
        cache: Optional[ResultCache] = None,
        budget: Optional[Budget] = None,
        shard_pool: Optional[WorkerPool] = None,
    ):
        self.pool = pool
        self.cache = cache if cache is not None else ResultCache()
        self.budget = budget or Budget()
        # Job fan-out always stays on `pool` (thread-backed: it submits
        # bound methods of this runner, which do not pickle); Monte-Carlo
        # chunk sharding may be routed to a separate, possibly
        # process-backed, pool.
        self.shard_pool = shard_pool if shard_pool is not None else self.pool
        self._batch_span: Optional[str] = None

    # ------------------------------------------------------------------
    # single-job execution (cache-oblivious)
    # ------------------------------------------------------------------

    def execute(self, job: Job, plan: Optional[Plan]) -> dict:
        """Run one job and return its JSON-safe value dict (a measure
        job runs *plan*, its :meth:`_plan`)."""
        if isinstance(job, AdviseJob):
            return self._execute_advise(job)
        if isinstance(job, MeasureJob):
            return self._execute_measure(job, plan)
        if isinstance(job, RPQJob):
            return self._execute_rpq(job)
        raise TypeError(f"unsupported job: {job!r}")

    def _execute_advise(self, job: AdviseJob) -> dict:
        report = advise(
            job.design,
            measure_witness=job.measure,
            method=job.method,
            samples=job.samples,
            seed=job.seed,
            budget=self.budget,
        )
        return report_payload(report)

    def _plan(self, job: Job) -> Optional[Plan]:
        """The planner's decision for a measure job (None for others)."""
        if not isinstance(job, MeasureJob):
            return None
        from repro.engine import PLANNER

        return PLANNER.plan(job.problem, budget=self.budget)

    def _execute_measure(self, job: MeasureJob, plan: Plan) -> dict:
        from repro.engine import PLANNER

        value, engine = PLANNER.execute(
            job.problem, plan, budget=self.budget, pool=self.shard_pool
        )
        payload = ric_payload(value)
        payload["method"] = engine
        payload["position"] = str(job.problem.position_obj())
        return payload

    def _execute_rpq(self, job: RPQJob) -> dict:
        from repro.graph.graphdb import GraphDB
        from repro.graph.regex import parse_regex

        try:
            query = parse_regex(job.query)
        except ValueError as exc:
            raise ValidationError(f"bad rpq query: {exc}") from None
        graph = GraphDB.from_edges(job.edges)
        if job.source is not None:
            nodes = rpq_reachable(graph, query, job.source)
            return {
                "source": job.source,
                "reachable": sorted(nodes, key=repr),
                "count": len(nodes),
            }
        pairs = rpq_eval(graph, query)
        return {
            "pairs": [list(pair) for pair in sorted(pairs, key=repr)],
            "count": len(pairs),
        }

    # ------------------------------------------------------------------
    # batch execution (cache + fan-out)
    # ------------------------------------------------------------------

    def run(self, jobs: Sequence[Job]) -> dict:
        """Run *jobs*, returning the full batch report dict.

        When tracing is enabled the batch runs under a ``batch.run``
        root span and every job opens a ``job`` span re-rooted under it
        (jobs execute on pool threads, outside this thread's nesting
        stack).
        """
        with TRACER.span("batch.run", jobs=len(jobs)) as span:
            self._batch_span = TRACER.current_id()
            try:
                report = self._run(jobs)
            finally:
                self._batch_span = None
            span.set(ok=report["ok"], failed=report["failed"])
            return report

    def _run(self, jobs: Sequence[Job]) -> dict:
        batch_start = perf_counter()
        results: List[Optional[dict]] = [None] * len(jobs)
        sharded: List[Tuple[int, Job, str, Optional[Plan]]] = []
        fanout: List[Tuple[int, Job, str, Optional[Plan]]] = []

        for index, job in enumerate(jobs):
            key = job_key(job)
            cached = self.cache.get(key)
            if cached is not None:
                METRICS.inc("runner.cache_hits")
                results[index] = self._entry(
                    job, key, ok=True, value=cached, seconds=0.0, cached=True
                )
            else:
                plan = self._plan(job)
                axis = sharded if plan and plan.uses("montecarlo") else fanout
                axis.append((index, job, key, plan))

        futures = [
            (
                index,
                job,
                key,
                self.pool.executor.submit(self._run_timed, job, plan),
            )
            for index, job, key, plan in fanout
        ]
        for index, job, key, plan in sharded:
            results[index] = self._complete(
                job, key, *self._run_timed(job, plan)
            )
        for index, job, key, future in futures:
            results[index] = self._complete(job, key, *future.result())

        ok = sum(1 for entry in results if entry and entry["ok"])
        return {
            "jobs": len(jobs),
            "ok": ok,
            "failed": len(jobs) - ok,
            "elapsed_seconds": perf_counter() - batch_start,
            "results": results,
            "cache": self.cache.stats(),
            "metrics": METRICS.snapshot(),
        }

    def _run_timed(self, job: Job, plan: Optional[Plan]):
        """Execute one job, capturing ``(value|None, error|None, seconds)``.

        Failures are classified through the error taxonomy and run once:
        the only retry is the pool's, per chunk.  The returned error is
        the typed JSON payload — jobs must not kill the batch, but
        neither may they fail anonymously.
        """
        start = perf_counter()
        with TRACER.span(
            "job", parent_id=self._batch_span, kind=job.kind, id=job.id
        ) as span:
            try:
                value = self.execute(job, plan)
            except Exception as exc:  # noqa: BLE001 — classified here
                error = from_exception(exc)
                METRICS.inc("runner.errors", kind=error.kind)
                span.set(failed=error.kind)
                return None, error.to_dict(), perf_counter() - start
            return value, None, perf_counter() - start

    def _complete(self, job: Job, key: str, value, error, seconds) -> dict:
        if error is None:
            self.cache.put(key, value)
            return self._entry(
                job, key, ok=True, value=value, seconds=seconds, cached=False
            )
        return self._entry(
            job, key, ok=False, error=error, seconds=seconds, cached=False
        )

    @staticmethod
    def _entry(
        job: Job,
        key: str,
        ok: bool,
        seconds: float,
        cached: bool,
        value: Any = None,
        error: Any = None,
    ) -> dict:
        entry = {
            "id": job.id,
            "kind": job.kind,
            "key": key,
            "ok": ok,
            "cached": cached,
            "seconds": seconds,
        }
        if ok:
            entry["value"] = value
        else:
            entry["error"] = error
        return entry


def _parse_error_entry(lineno: int, error: JobError) -> dict:
    """The failed result entry for an unparseable JSONL line."""
    return {
        "id": None,
        "kind": None,
        "line": lineno,
        "ok": False,
        "cached": False,
        "seconds": 0.0,
        "error": error.to_dict(),
    }


def run_batch(
    path: str,
    workers: int = 4,
    cache: Optional[ResultCache] = None,
    budget: Optional[Budget] = None,
    retries: int = 3,
    use_processes: bool = False,
) -> dict:
    """Execute the JSONL job file at *path* and return the batch report.

    Malformed lines become typed ``parse``/``validation`` entries (with
    their line numbers) in the report instead of aborting the batch; a
    file with *no* parseable job at all raises
    :class:`~repro.service.errors.JobError` (a batch-level failure).

    A *cache* from :meth:`~repro.service.cache.ResultCache.load` journals
    each result as it completes; running the same file again against it
    serves every journaled job as a hit (the estimators are
    deterministic, so the values are the ones a recomputation gives).

    The pools are built here and shut down when the batch ends: jobs fan
    out over *workers* threads, and Monte-Carlo chunks shard over the
    same threads or, with *use_processes*, over a **process** pool of
    *workers* (CPU parallelism past the GIL).  Each chunk returns its
    work counts, which the planner records in this process, and
    worker-side spans are piggybacked back and adopted, so the report's
    metrics and the trace are complete either way.  Job fan-out stays on
    threads (runner state does not pickle, and sharded jobs must not
    queue behind fanned-out ones).  *retries* bounds the attempts of
    each chunk whose worker died (see
    :meth:`~repro.service.pool.WorkerPool.map_retrying`).

    :data:`~repro.service.metrics.METRICS` is zeroed first, so the
    report's ``metrics`` count **this batch only**; a quarantined cache
    file shows in the report's ``cache`` stats instead.
    """
    METRICS.reset()
    with open(path, "r", encoding="utf-8") as handle:
        records = parse_jsonl_lenient(handle.read())
    jobs = [job for _, job, error in records if error is None]
    parse_errors = sum(1 for _, _, error in records if error is not None)
    if records and not jobs:
        raise JobError(
            f"no parseable jobs in {path} ({parse_errors} bad line"
            f"{'s' if parse_errors != 1 else ''})",
            kind="parse",
            details={"path": path, "bad_lines": parse_errors},
        )

    shard_pool = (
        WorkerPool(workers=workers, use_processes=True, retries=retries)
        if use_processes
        else None
    )
    pool = WorkerPool(workers=workers, retries=retries)
    try:
        report = BatchRunner(
            pool, cache=cache, budget=budget, shard_pool=shard_pool
        ).run(jobs)
    finally:
        pool.shutdown()
        if shard_pool is not None:
            shard_pool.shutdown()

    if parse_errors:
        # Interleave the bad-line entries back at their line positions.
        merged: List[dict] = []
        job_entries = iter(report["results"])
        for lineno, _, error in records:
            if error is None:
                merged.append(next(job_entries))
            else:
                merged.append(_parse_error_entry(lineno, error))
        report["results"] = merged
        report["jobs"] = len(records)
        report["failed"] += parse_errors
    report["parse_errors"] = parse_errors
    return report


def format_report(report: dict, indent: int = 2) -> str:
    """A batch report as JSON text: the header fields indented, and each
    entry of ``results`` on one compact line.

    An indented dump runs the pure-Python encoder; a compact one runs the
    C encoder, which writes the per-job lines of a large report many
    times faster.  The text decodes to the same value either way.
    """
    pad = " " * indent
    fields = []
    for key, value in report.items():
        if key == "results" and value:
            lines = ",\n".join(
                pad * 2 + json.dumps(entry, default=str) for entry in value
            )
            text = f"[\n{lines}\n{pad}]"
        else:
            text = json.dumps(value, indent=indent, default=str)
            text = text.replace("\n", "\n" + pad)
        fields.append(f"{pad}{json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(fields) + "\n}"
