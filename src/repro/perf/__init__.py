"""Observed-cost calibration of the planner.

The benchmark of record is ``perfbench/`` (declared in
``BENCHMARK.json``); this package holds the tool that models what it
measures: :mod:`repro.perf.calibrate` fits the
:class:`~repro.engine.cost.CostModel`'s per-engine constants to observed
``engine_run`` latencies recorded by the tracer, writing a
``cost_calibration.json`` the planner optionally loads
(``python -m repro perf calibrate``).  Why a run was slow is in its
counts: every kernel span and the batch report carry the worlds, oracle
calls, pruning checks and prune hits it cost.
"""
