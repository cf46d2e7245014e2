"""Profiling hooks and observed-cost calibration of the planner.

The benchmark of record is ``perfbench/`` (declared in
``BENCHMARK.json``); this package holds the two tools that explain and
model what it measures:

- :mod:`repro.perf.profiler` — a stdlib-only periodic stack sampler
  (``--profile`` on ``python -m repro batch``) that aggregates
  top-of-stack frames per active span name and exports collapsed stacks
  for flamegraph tools;
- :mod:`repro.perf.calibrate` — fits the
  :class:`~repro.engine.cost.CostModel`'s per-engine constants to
  observed ``engine_run`` latencies recorded by the tracer, writing a
  ``cost_calibration.json`` the planner optionally loads
  (``python -m repro perf calibrate``).
"""
