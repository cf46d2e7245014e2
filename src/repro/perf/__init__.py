"""The performance observatory: benchmark baselines, regression gating,
profiling hooks, and observed-cost calibration of the planner.

Four pieces close the loop from measurement to planning:

- :mod:`repro.perf.records` — the typed benchmark result store: a
  schema-versioned JSON document with *numeric* cells, an environment
  fingerprint, and per-benchmark timing distributions (median-of-k with
  MAD), written by ``pytest benchmarks/ --json BENCH_<date>.json``;
- :mod:`repro.perf.check` — the baseline + regression checker behind
  ``python -m repro perf check`` (noise-aware thresholds, exit codes
  0/1/2 matching the batch runner) and the multi-snapshot trend table
  behind ``perf report``;
- :mod:`repro.perf.profiler` — a stdlib-only periodic stack sampler
  (``--profile`` on ``python -m repro batch`` and the benchmark
  session) that aggregates top-of-stack frames per active span name and
  exports collapsed stacks for flamegraph tools;
- :mod:`repro.perf.calibrate` — fits the
  :class:`~repro.engine.cost.CostModel`'s per-engine constants to
  observed ``engine_run`` latencies recorded by the tracer, writing a
  ``cost_calibration.json`` the planner optionally loads.
"""
