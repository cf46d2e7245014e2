"""Observed-cost calibration of the engines.

The benchmark of record is ``perfbench/`` (declared in
``BENCHMARK.json``); this package holds the tool that models what it
measures: :mod:`repro.perf.calibrate` fits a seconds-per-run intercept
and a seconds-per-count constant per engine to the ``engine_run``
latencies the tracer records
and the kernel counts beneath them, writing ``cost_calibration.json``
(``python -m repro perf calibrate``).  Why a run was slow is in its
counts: every kernel span and the batch report carry the worlds, oracle
calls, pruning checks and prune hits it cost.
"""
