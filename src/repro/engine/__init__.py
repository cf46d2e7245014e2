"""The plan/executor layer over the RIC engines.

One place where engine choice, degradation, and instrumentation live —
callers build a :class:`~repro.engine.problem.Problem`, call
:func:`plan_and_run`, and render the :class:`~repro.engine.planner.Plan`:

>>> from repro.engine import Problem, plan_and_run
>>> from repro.core import PositionedInstance
>>> from repro.dependencies import FD
>>> from repro.relational import Relation, RelationSchema
>>> schema = RelationSchema("R", ("A", "B", "C"))
>>> inst = PositionedInstance.from_relation(
...     Relation(schema, [(1, 2, 3), (4, 2, 3)]), [FD("B", "C")])
>>> problem = Problem.from_instance(inst, inst.position("R", 0, "C"))
>>> result = plan_and_run(problem)
>>> str(result.value), result.engine
('7/8', 'exact')

Modules:

- :mod:`repro.engine.problem` — the canonical, hashable problem IR and
  its content address (:meth:`Problem.canonical_key`);
- :mod:`repro.engine.planner` — the planner/executor with budget
  fallback; it runs each stage through the method table of
  :mod:`repro.core.measure` (``exact``, ``montecarlo``, ``symbolic``,
  ``bruteforce``).

See ``src/repro/engine/README.md`` for how to add an engine.
"""

from repro._lazy import lazy_exports

#: Each public name and the submodule that defines it (imported on first
#: access, so ``import repro.engine.problem`` loads no planner).
_EXPORTS = {
    "ExecutionResult": "planner",
    "PLANNER": "planner",
    "Plan": "planner",
    "PlanStep": "planner",
    "Planner": "planner",
    "Problem": "problem",
    "plan_and_run": "planner",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
