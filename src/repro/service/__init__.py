"""The batch-evaluation service layer.

A parallel runtime over the measure/advisor/RPQ entry points.  Import
from the submodules:

- :mod:`repro.service.jobs` — typed job requests, validated when built,
  each with one content address;
- :mod:`repro.service.cache` — the content-addressed LRU result cache,
  journaled to its file so a killed batch resumes when rerun;
- :mod:`repro.service.pool` — the worker pool: sharded Monte-Carlo RIC,
  job fan-out, and the rerun of chunks a dead worker lost;
- :mod:`repro.service.budget` — per-job limits and
  :class:`~repro.service.budget.BudgetExceeded`;
- :mod:`repro.service.runner` — JSONL batch execution
  (``python -m repro batch jobs.jsonl``);
- :mod:`repro.service.errors` — the structured error taxonomy;
- :mod:`repro.service.validate` — shared bounds validation;
- :mod:`repro.service.metrics`, :mod:`repro.service.trace`,
  :mod:`repro.service.export` — counters, spans, and their exporters.

Nothing is imported here: the low-level engines import
``repro.service.metrics`` directly, and an eager import of the runner
would cycle back through the advisor into those same engines.
"""
