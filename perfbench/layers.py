"""Per-layer metrics of the traced run.

:func:`layer_metrics` turns what one traced pass recorded — hook tallies,
the ``METRICS`` snapshot and the ``TRACER`` spans — into the flat metric
set ``BENCHMARK.json`` lists under ``per_layer``.  Every workload reports
every metric; a layer the workload never enters reads 0.  A metric whose
hook could not be installed reads :data:`ABSENT` and its reason is listed
separately.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Tuple

from hooks import Tally, covered_seconds

#: Value reported for a metric whose hook target no longer exists.
ABSENT = -1

PROBLEMS = ("w1_fd", "w2_mvd", "w2_jd", "xml_dblp", "w3_fd", "w4_mvd")

#: Kernel counts also reported per problem (``<metric>.<problem>``).
PER_PROBLEM = (
    "worlds.built",
    "oracle.calls",
    "prune.calls",
    "prune.hits",
    "prune.hit_ratio",
    "pattern.leaves",
    "pattern.max_deficit",
)

#: (metric, unit) of every per-layer metric except the per-problem ones.
UNITS: Tuple[Tuple[str, str], ...] = (
    ("main.interp_s", "s"),
    ("main.import_s", "s"),
    ("main.repro_modules", "count"),
    ("main.outside_batch_s", "s"),
    ("jobs.count", "count"),
    ("jobs.parse_s", "s"),
    ("jobs.key_s", "s"),
    ("cache.load_s", "s"),
    ("cache.save_s", "s"),
    ("cache.get_calls", "count"),
    ("cache.get_s", "s"),
    ("cache.put_calls", "count"),
    ("cache.put_s", "s"),
    ("cache.hit_ratio", "ratio"),
    ("cache.bytes_per_entry", "bytes"),
    ("planner.plans", "count"),
    ("planner.plans_per_job", "ratio"),
    ("planner.plan_s", "s"),
    ("planner.cache_hits", "count"),
    ("runner.batch_s", "s"),
    ("runner.job_s_sum", "s"),
    ("pool.mc_calls", "count"),
    ("pool.shards", "count"),
    ("pool.mc_s", "s"),
    ("pool.chunk_s_sum", "s"),
    ("pool.dispatch_s", "s"),
    ("worlds.built", "count"),
    ("worlds.build_s", "s"),
    ("worlds.build_us", "us"),
    ("oracle.calls", "count"),
    ("oracle.s", "s"),
    ("oracle.sat_ratio", "ratio"),
    ("prune.calls", "count"),
    ("prune.s", "s"),
    ("prune.us_per_call", "us"),
    ("prune.hits", "count"),
    ("prune.hit_ratio", "ratio"),
    ("pattern.calls", "count"),
    ("pattern.s", "s"),
    ("pattern.self_s", "s"),
    ("pattern.leaves", "count"),
    ("pattern.max_deficit", "count"),
    ("pattern.mean_deficit", "count"),
    ("sweep.worlds", "count"),
    ("mc.samples", "count"),
    ("world.ratio_s.p50", "s"),
    ("world.ratio_s.p99", "s"),
    ("world.ratio_s.max", "s"),
    ("chase.runs", "count"),
    ("chase.steps", "count"),
    ("chase.s", "s"),
    ("advisor.s", "s"),
    ("rpq.searches", "count"),
    ("rpq.expansions", "count"),
    ("rpq.s", "s"),
    ("ric_s.w1_fd", "s"),
    ("ric_s.w2_mvd", "s"),
    ("ric_s.w2_jd", "s"),
    ("ric_s.xml_dblp", "s"),
    ("mc_sample_s.w3_fd", "s"),
    ("mc_sample_s.w4_mvd", "s"),
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def metric_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = dict(UNITS)
    for metric in PER_PROBLEM:
        for problem in PROBLEMS:
            units[f"{metric}.{problem}"] = units[metric]
    return units


#: Metric-name prefix -> the hooks it is computed from (longest prefix wins).
DEPENDS = {
    "jobs.count": ("parse",),
    "jobs.parse_s": ("parse",),
    "jobs.key_s": ("job_key",),
    "cache.load_s": ("cache_load",),
    "cache.save_s": ("cache_save",),
    "cache.get": ("cache_get",),
    "cache.hit_ratio": ("cache_get",),
    "cache.put": ("cache_put",),
    "planner.plan": ("plan",),
    "runner.batch_s": ("batch_run",),
    "pool.mc_": ("pool_mc",),
    "pool.chunk_s_sum": ("chunk",),
    "pool.dispatch_s": ("pool_mc", "chunk"),
    "worlds.": ("world",),
    "oracle.": ("oracle",),
    "prune.": ("prune",),
    "pattern.": ("pattern",),
    "pattern.leaves": ("pattern", "oracle"),
    "pattern.self_s": ("pattern", "oracle", "prune"),
    "sweep.worlds": ("ratio_sweep",),
    "mc.samples": ("ratio_mc",),
    "world.ratio_s": ("ratio_sweep", "ratio_mc"),
    "advisor.s": ("advise",),
    "rpq.s": ("rpq_reachable", "rpq_eval"),
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def kernel_counts(t: Tally) -> Dict[str, float]:
    """World construction, oracle, pruning and pattern-search metrics."""
    built, oracle, prune = t.calls["world"], t.calls["oracle"], t.calls["prune"]
    deficits = t.values["pattern"]
    return {
        "worlds.built": built,
        "worlds.build_s": t.seconds["world"],
        "worlds.build_us": 1e6 * _ratio(t.seconds["world"], built),
        "oracle.calls": oracle,
        "oracle.s": t.seconds["oracle"],
        "oracle.sat_ratio": _ratio(t.hits["oracle"], oracle),
        "prune.calls": prune,
        "prune.s": t.seconds["prune"],
        "prune.us_per_call": 1e6 * _ratio(t.seconds["prune"], prune),
        "prune.hits": t.hits["prune"],
        "prune.hit_ratio": _ratio(t.hits["prune"], prune),
        "pattern.calls": t.calls["pattern"],
        "pattern.s": t.seconds["pattern"],
        "pattern.self_s": t.self_seconds("pattern"),
        "pattern.leaves": t.under[("oracle", "pattern")],
        "pattern.max_deficit": max(deficits, default=0),
        "pattern.mean_deficit": statistics.fmean(deficits) if deficits else 0.0,
    }


def layer_metrics(
    tallies: Dict[str, Tally],
    counters: Dict[str, int],
    spans: Iterable[dict],
    extra: Dict[str, float],
) -> Dict[str, float]:
    """All per-layer metrics of one traced pass.

    *tallies* maps a problem name (or ``"batch"``) to its hook tally,
    *counters* is ``METRICS.snapshot()["counters"]``, *spans* the drained
    ``TRACER`` spans, and *extra* the metrics measured outside the hooks
    (process start, reference timings, cache file size, ...).
    """
    total = Tally()
    for tally in tallies.values():
        total += tally
    ratio_s = total.durations("ratio_sweep", "ratio_mc")
    chunks = total.spans["chunk"]
    values = {name: 0.0 for name in metric_units()}
    values.update(kernel_counts(total))
    values.update(
        {
            "jobs.count": sum(total.values["parse"]),
            "jobs.parse_s": total.seconds["parse"],
            "jobs.key_s": total.seconds["job_key"],
            "cache.load_s": total.seconds["cache_load"],
            "cache.save_s": total.seconds["cache_save"],
            "cache.get_calls": total.calls["cache_get"],
            "cache.get_s": total.seconds["cache_get"],
            "cache.put_calls": total.calls["cache_put"],
            "cache.put_s": total.seconds["cache_put"],
            "cache.hit_ratio": _ratio(total.hits["cache_get"], total.calls["cache_get"]),
            "planner.plans": total.calls["plan"],
            "planner.plan_s": total.seconds["plan"],
            "planner.cache_hits": counters.get("planner.cache_hits", 0),
            "runner.batch_s": total.seconds["batch_run"],
            "pool.mc_calls": total.calls["pool_mc"],
            "pool.shards": counters.get("pool.mc.shards", 0),
            "pool.mc_s": total.seconds["pool_mc"],
            "pool.chunk_s_sum": total.seconds["chunk"],
            "pool.dispatch_s": total.seconds["pool_mc"] - covered_seconds(chunks),
            "sweep.worlds": total.calls["ratio_sweep"],
            "mc.samples": total.calls["ratio_mc"],
            "world.ratio_s.p50": _quantile(ratio_s, 0.50),
            "world.ratio_s.p99": _quantile(ratio_s, 0.99),
            "world.ratio_s.max": max(ratio_s, default=0.0),
            "chase.runs": counters.get("chase.runs", 0),
            "chase.steps": counters.get("chase.steps", 0),
            "chase.s": sum(s["dur"] for s in spans if s["name"] == "chase.run"),
            "advisor.s": total.seconds["advise"],
            "rpq.searches": counters.get("rpq.searches", 0),
            "rpq.expansions": counters.get("rpq.expansions", 0),
            "rpq.s": total.seconds["rpq_reachable"] + total.seconds["rpq_eval"],
        }
    )
    for problem, tally in tallies.items():
        if problem in PROBLEMS:
            counts = kernel_counts(tally)
            for metric in PER_PROBLEM:
                values[f"{metric}.{problem}"] = counts[metric]
    values.update(extra)
    return values


def absent_metrics(absent_hooks: Dict[str, str]) -> Dict[str, str]:
    """Metric -> reason, for every metric computed from a missing hook."""
    reasons = {}
    for metric in metric_units():
        base = metric
        for problem in PROBLEMS:
            base = base.removesuffix(f".{problem}")
        prefixes = [p for p in DEPENDS if base.startswith(p)]
        if not prefixes:
            continue
        needed = DEPENDS[max(prefixes, key=len)]
        missing = [absent_hooks[h] for h in needed if h in absent_hooks]
        if missing:
            reasons[metric] = "; ".join(missing)
    return reasons
