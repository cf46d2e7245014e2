"""The batch-evaluation service layer.

A parallel runtime over the measure/advisor/RPQ entry points:

- :mod:`repro.service.jobs` — typed job requests, validated when built,
  each with one content address (:func:`~repro.service.jobs.job_key`;
  a measure job's is its planner problem's key);
- :mod:`repro.service.cache` — the content-addressed LRU result cache
  (the runtime's only result cache);
- :mod:`repro.service.pool` — a worker pool that shards Monte-Carlo RIC
  estimation into mergeable chunks and fans out independent jobs;
- :mod:`repro.service.budget` — per-job limits (wall clock, exact-sweep
  size) that the planner's fallback chain runs under, and the structured
  :class:`~repro.service.budget.BudgetExceeded` error;
- :mod:`repro.service.metrics` — the counters/timers registry the core
  engines record into;
- :mod:`repro.service.runner` — JSONL batch execution
  (``python -m repro batch jobs.jsonl``);
- :mod:`repro.service.errors` — the structured error taxonomy (parse /
  validation / budget / worker_crash / cache_corrupt / internal);
- :mod:`repro.service.retry` — deterministic exponential backoff with a
  per-kind retryability table;
- :mod:`repro.service.checkpoint` — atomic JSONL checkpointing and
  ``--resume`` support;
- :mod:`repro.service.faults` — the deterministic fault-injection
  harness (``REPRO_FAULTS`` / ``--inject-fault``);
- :mod:`repro.service.validate` — shared bounds validation for CLI
  options and service invariants;
- :mod:`repro.service.trace` — the thread-safe span tracer
  (``--trace-out``, Chrome/Perfetto export, cross-process adoption);
- :mod:`repro.service.hist` — fixed-bucket log2 latency histograms
  (p50/p95/p99 behind ``METRICS.observe``);
- :mod:`repro.service.export` — trace/report exporters
  (``--trace-out``, ``metrics-report``).

Submodules are re-exported lazily (PEP 562): the low-level engines import
``repro.service.metrics`` directly, and an eager import of the runner here
would cycle back through the advisor into those same engines.
"""

from __future__ import annotations

_EXPORTS = {
    "Metrics": "repro.service.metrics",
    "METRICS": "repro.service.metrics",
    "AdviseJob": "repro.service.jobs",
    "MeasureJob": "repro.service.jobs",
    "RPQJob": "repro.service.jobs",
    "job_from_dict": "repro.service.jobs",
    "job_key": "repro.service.jobs",
    "ResultCache": "repro.service.cache",
    "WorkerPool": "repro.service.pool",
    "ric_montecarlo_parallel": "repro.service.pool",
    "Budget": "repro.service.budget",
    "BudgetExceeded": "repro.service.budget",
    "BatchRunner": "repro.service.runner",
    "run_batch": "repro.service.runner",
    "JobError": "repro.service.errors",
    "ParseError": "repro.service.errors",
    "ValidationError": "repro.service.errors",
    "WorkerCrashError": "repro.service.errors",
    "CacheCorruptError": "repro.service.errors",
    "KINDS": "repro.service.errors",
    "classify": "repro.service.errors",
    "from_exception": "repro.service.errors",
    "RetryPolicy": "repro.service.retry",
    "retry_call": "repro.service.retry",
    "Checkpoint": "repro.service.checkpoint",
    "checkpoint_entry": "repro.service.checkpoint",
    "FaultInjector": "repro.service.faults",
    "FaultSpec": "repro.service.faults",
    "FAULTS": "repro.service.faults",
    "InjectedFault": "repro.service.faults",
    "fault_injection": "repro.service.faults",
    "parse_fault_specs": "repro.service.faults",
    "validate_batch_options": "repro.service.validate",
    "Tracer": "repro.service.trace",
    "Span": "repro.service.trace",
    "TRACER": "repro.service.trace",
    "tracing": "repro.service.trace",
    "Histogram": "repro.service.hist",
    "chrome_trace": "repro.service.export",
    "render_report": "repro.service.export",
    "save_trace": "repro.service.export",
    "validate_chrome_trace": "repro.service.export",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)
