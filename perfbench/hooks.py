"""Counting and timing wrappers for the traced run.

A :class:`Probe` patches named program functions for the duration of one
traced pass and restores them afterwards; untraced runs never install it.
Each name is patched where its caller looks it up (``from x import f``
binds ``f`` in the caller's module, so the caller's binding is the one
replaced).  A target that no longer exists is recorded in
:attr:`Probe.absent` with the reason, and the metrics that depend on it
are reported as absent instead of crashing the run.

Counters are kept per thread and summed when read, so Monte-Carlo chunks
on pool threads never lose an update.  Nested hooked calls are tracked on
a per-thread stack: a hook's *child* time is the time spent in hooked
calls made directly inside it, so ``seconds - child`` is its self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple


class Hook(NamedTuple):
    """One wrapped function: ``target`` is ``"module:attr"`` or
    ``"module:Class.method"``."""

    name: str
    target: str
    #: Record (start, end) of every call (for percentiles and coverage).
    spans: bool = False
    #: ``observe(args, result)`` -> number or None, kept per call.
    observe: Optional[Callable] = None


def _deficit(args, result):
    """Erased cells minus fresh blocks of a ``max_fresh`` answer."""
    if result is None or not args:
        return None
    return args[0].num_erased - result[0]


def _record_count(args, result):
    return len(result)


#: Every hook the traced run installs, with the layer it measures.
HOOKS: Tuple[Hook, ...] = (
    # kernel: world construction, oracle, pruning, pattern search
    Hook("world", "repro.core.worlds:World.__init__"),
    Hook("oracle", "repro.core.worlds:World.satisfies"),
    Hook("prune", "repro.core.worlds:World.certainly_violated"),
    Hook("pattern", "repro.core.symbolic:max_fresh", observe=_deficit),
    # outer loops: one call per world of the sweep / per MC sample
    Hook("ratio_sweep", "repro.core.symbolic:world_limit_ratio", spans=True),
    Hook("ratio_mc", "repro.core.montecarlo:world_limit_ratio", spans=True),
    # batch infrastructure
    Hook("parse", "repro.service.runner:parse_jsonl_lenient", observe=_record_count),
    Hook("job_key", "repro.service.runner:job_key"),
    Hook("cache_load", "repro.service.cache:ResultCache.load"),
    Hook("cache_save", "repro.service.cache:ResultCache.save"),
    Hook("cache_get", "repro.service.cache:ResultCache.get"),
    Hook("cache_put", "repro.service.cache:ResultCache.put"),
    Hook("plan", "repro.engine.planner:Planner.plan"),
    Hook("batch_run", "repro.service.runner:BatchRunner.run"),
    Hook("pool_mc", "repro.service.pool:WorkerPool.ric_montecarlo"),
    Hook("chunk", "repro.service.pool:ric_mc_chunk", spans=True),
    Hook("advise", "repro.service.runner:advise"),
    Hook("rpq_reachable", "repro.service.runner:rpq_reachable"),
    Hook("rpq_eval", "repro.service.runner:rpq_eval"),
)


def _resolve(target: str):
    """``(owner, attribute name, static value)`` of a hook target."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, inspect.getattr_static(owner, attr)


class Probe:
    """Installs :data:`HOOKS` (or *hooks*) and aggregates what they saw."""

    def __init__(self, hooks: Tuple[Hook, ...] = HOOKS):
        self.hooks = hooks
        self.absent: Dict[str, str] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads: List[_ThreadStats] = []
        self._patched: List[tuple] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        """Patch every resolvable hook target; record the others."""
        for hook in self.hooks:
            try:
                owner, attr, static = _resolve(hook.target)
            except (ImportError, AttributeError) as exc:
                self.absent[hook.name] = f"{hook.target} not found ({exc})"
                continue
            if isinstance(static, (classmethod, staticmethod)):
                wrapped = type(static)(self._wrap(hook, static.__func__))
            elif callable(static):
                wrapped = self._wrap(hook, static)
            else:
                self.absent[hook.name] = f"{hook.target} is not callable"
                continue
            setattr(owner, attr, wrapped)
            self._patched.append((owner, attr, static))

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        for owner, attr, static in reversed(self._patched):
            setattr(owner, attr, static)
        self._patched.clear()

    def __enter__(self) -> "Probe":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording ----------------------------------------------------

    def _stats(self) -> _ThreadStats:
        stats = getattr(self._local, "stats", None)
        if stats is None:
            stats = self._local.stats = _ThreadStats()
            with self._lock:
                self._threads.append(stats)
        return stats

    def _wrap(self, hook: Hook, fn):
        name = hook.name
        observe = hook.observe
        keep_spans = hook.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats = self._stats()
            stack = stats.stack
            if stack:
                stats.under[(name, stack[-1][0])] += 1
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                stats.calls[name] += 1
                stats.seconds[name] += elapsed
                stats.child[name] += frame[1]
                if keep_spans:
                    stats.spans[name].append((start, end))
            if result is not None and result is not False:
                stats.hits[name] += 1
            if observe is not None:
                value = observe(args, result)
                if value is not None:
                    stats.values[name].append(value)
            return result

        return wrapper

    # -- reading ------------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far (hooks stay installed)."""
        with self._lock:
            threads = list(self._threads)
        for stats in threads:
            stats.clear()

    def collect(self) -> "Tally":
        """Sum every thread's counters into one :class:`Tally`."""
        tally = Tally()
        with self._lock:
            threads = list(self._threads)
        for stats in threads:
            tally += stats
        return tally


class Tally:
    """Hook counters; tallies of several threads or runs add with ``+=``."""

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        """Zero every counter."""
        self.calls: Counter = Counter()
        self.hits: Counter = Counter()
        self.under: Counter = Counter()
        self.seconds: Dict[str, float] = defaultdict(float)
        self.child: Dict[str, float] = defaultdict(float)
        self.values: Dict[str, list] = defaultdict(list)
        self.spans: Dict[str, list] = defaultdict(list)

    def __iadd__(self, other: "Tally") -> "Tally":
        self.calls.update(other.calls)
        self.hits.update(other.hits)
        self.under.update(other.under)
        for key, value in other.seconds.items():
            self.seconds[key] += value
        for key, value in other.child.items():
            self.child[key] += value
        for key, value in other.values.items():
            self.values[key].extend(value)
        for key, value in other.spans.items():
            self.spans[key].extend(value)
        return self

    def self_seconds(self, name: str) -> float:
        """Time in *name* not covered by hooked calls made inside it."""
        return self.seconds[name] - self.child[name]

    def durations(self, *names: str) -> List[float]:
        """Per-call durations of the span-keeping hooks *names*."""
        return [end - start for name in names for start, end in self.spans[name]]


class _ThreadStats(Tally):
    """One thread's tally plus its stack of open hooked calls, as
    ``[hook name, child seconds]`` frames (only that thread writes it)."""

    def __init__(self):
        super().__init__()
        self.stack: List[list] = []


def covered_seconds(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cover_start = cover_end = None
    for start, end in sorted(intervals):
        if cover_end is None or start > cover_end:
            if cover_end is not None:
                total += cover_end - cover_start
            cover_start, cover_end = start, end
        else:
            cover_end = max(cover_end, end)
    if cover_end is not None:
        total += cover_end - cover_start
    return total
