"""Benchmark of the RIC reproduction: one command per workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` times whole passes with tracing off and prints the
end-to-end metrics; ``--trace 1`` runs one untraced reference pass and
one traced pass and prints the per-layer metrics.  Every run checks the
program's outputs and ends with one JSON line::

    {"correct": true, "attempted": 104, "failed": 0, "metrics": {...}}

Times are scaled to nominal machine speed (see ``workloads.Stopwatch``);
with ``--trace 0`` a line ``{"unscaled": {...}}`` before the result gives
the raw medians.  ``--write-golden`` recomputes ``golden.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Interpreter starts timed per traced run for ``main.*``.
START_REPEATS = 3

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=WORKLOADS, default="sweep")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true", help="set up, then exit (timed by the parent run)"
    )
    parser.add_argument(
        "--write-golden", action="store_true", help="recompute golden.json and exit"
    )
    return parser.parse_args(argv)


def timed_child(watch, argv, log: str):
    """Scaled and raw wall seconds of a ``python3 argv`` child that must succeed."""
    from workloads import run_child

    code, t = watch.time(lambda: run_child(argv, log))
    if code != 0:
        raise RuntimeError(f"{argv} exited {code}; see {log}")
    return t.wall * t.scale, t.wall


def timed_setups(args, workdir: str):
    """Medians (scaled, raw) of fresh processes that only set the workload up."""
    from workloads import Stopwatch

    argv = [os.path.join(HERE, "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    watch = Stopwatch()
    log = os.path.join(workdir, "setup.log")
    times = [timed_child(watch, argv, log) for _ in range(SETUP_REPEATS)]
    return tuple(statistics.median(column) for column in zip(*times))


def measure(workload, seconds: float):
    """Closed-loop passes until the next one would overrun *seconds*."""
    passes = []
    start = perf_counter()
    while True:
        passes.append(workload.run_pass())
        if perf_counter() - start + passes[-1].raw_wall > seconds:
            return passes


def end_to_end(passes, setup_s: float) -> dict:
    from workloads import peak_rss_mb

    walls = [p.wall for p in passes]
    child_rss = [p.child_rss_mb for p in passes if p.child_rss_mb is not None]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "ops_per_s": sum(p.ops for p in passes) / sum(walls),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "peak_rss_mb": statistics.median(child_rss) if child_rss else peak_rss_mb(),
    }


def process_start(workdir: str) -> dict:
    """``main.*``: bare interpreter start, ``repro.__main__`` import cost,
    and how many ``repro`` modules that import loads."""
    from workloads import Stopwatch, child_env

    watch = Stopwatch()
    log = os.path.join(workdir, "start.log")
    bare = [timed_child(watch, ["-c", "pass"], log)[0] for _ in range(START_REPEATS)]
    full = [
        timed_child(watch, ["-c", "import repro.__main__"], log)[0]
        for _ in range(START_REPEATS)
    ]
    count = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.__main__; "
         "print(sum(m == 'repro' or m.startswith('repro.') for m in sys.modules))"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, check=True,
    )
    interp = statistics.median(bare)
    return {
        "main.interp_s": interp,
        "main.import_s": statistics.median(full) - interp,
        "main.repro_modules": int(count.stdout.strip()),
    }


def reference_metrics(workload, ref, traced) -> dict:
    """Per-layer metrics read off the untraced reference pass (timings)
    and the traced pass (batch bookkeeping)."""
    values = {"trace.overhead_frac": traced.wall / ref.wall - 1.0}
    if workload.name == "sweep":
        for name, seconds in ref.seconds.items():
            values[f"ric_s.{name}"] = seconds
    elif workload.name == "mc":
        for problem in workload.problems:
            values[f"mc_sample_s.{problem.name}"] = (
                ref.seconds[problem.name] / problem.samples
            )
    else:
        per_job = sorted(ref.seconds.values())
        values["op_p50_s"] = statistics.median(per_job)
        values["op_p90_s"] = statistics.quantiles(per_job, n=10)[-1]
        results = traced.report["results"]
        planned = sum(
            1
            for e in results
            if e.get("ok") and not e.get("cached")
            and (e["kind"] == "measure"
                 or (e["kind"] == "advise" and (e["value"].get("witness") or {}).get("ric")))
        )
        plans = traced.tallies["batch"].calls["plan"]
        values["planner.plans_per_job"] = plans / planned if planned else 0.0
        values["runner.job_s_sum"] = sum(traced.seconds.values())
        entries = traced.report["cache"]["entries"]
        size = os.path.getsize(workload.cache_path)
        values["cache.bytes_per_entry"] = size / entries if entries else 0.0
    return values


def traced_run(workload, workdir: str):
    """One untraced reference pass and one traced pass: per-layer metrics."""
    from hooks import Probe
    from layers import ABSENT, absent_metrics, layer_metrics
    from repro.service.metrics import METRICS
    from repro.service.trace import TRACER

    batch = workload.name.startswith("batch")
    run = workload.run_in_process if batch else workload.run_pass
    extra = process_start(workdir)
    if batch:
        extra["main.outside_batch_s"] = workload.outside_batch_seconds()
        # batch_main imports modules on first use: pay that before timing.
        run()
    ref = run()
    probe = Probe()
    METRICS.reset()
    TRACER.reset()
    TRACER.enable()
    try:
        with probe:
            traced = run(probe=probe)
    finally:
        TRACER.disable()
    spans = TRACER.drain()
    counters = METRICS.snapshot()["counters"]
    extra.update(reference_metrics(workload, ref, traced))
    values = layer_metrics(traced.tallies, counters, spans, extra)
    absent = absent_metrics(probe.absent)
    for metric in absent:
        values[metric] = ABSENT
    return [ref, traced], values, absent


def write_golden() -> None:
    """Recompute ``golden.json`` from the program at the default seed."""
    import inputs
    from checks import GOLDEN_PATH, digest, recomputed_ok
    from repro.core.montecarlo import ric_montecarlo
    from workloads import Batch

    workdir = os.path.join(WORK, "golden")
    os.makedirs(workdir, exist_ok=True)
    # The exact answers are fixed: ROADMAP W1/W2 and the 8-slot DBLP document.
    golden = {"sweep": {"w1_fd": "7/8", "w2_mvd": "10049/12288",
                        "w2_jd": "10049/12288", "xml_dblp": "1/4"}}
    golden["mc"] = {
        p.name: {
            "samples": p.samples,
            "mean": ric_montecarlo(
                p.instance, p.position, p.samples, seed=inputs.MC_SEED
            ).mean,
        }
        for p in inputs.mc_problems()
    }
    batch = Batch(inputs.DEFAULT_SEED, workdir, warm=False)
    batch.setup()
    report = batch.run_pass().report
    jobs = {job["id"]: job for job in batch.jobs}
    golden["batch"] = {}
    for entry in report["results"]:
        if not (entry["ok"] and recomputed_ok(jobs[entry["id"]], entry["value"])):
            raise RuntimeError(f"job {entry['id']} is wrong; golden not written")
        golden["batch"][entry["id"]] = digest(entry["value"])
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    args = parse_args(argv)
    if args.write_golden:
        write_golden()
        return 0

    import workloads

    workdir = os.path.join(WORK, args.workload)
    if not args.setup_only:
        shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir, exist_ok=True)
    workload = workloads.make(args.workload, args.seed, workdir)
    if workload.pinned:
        workloads.pin_to_one_cpu()
    timed = not (args.setup_only or args.trace)
    setup_s, raw_setup_s = timed_setups(args, workdir) if timed else (0.0, 0.0)
    # After timed set-ups, reuse what the last one wrote (a warm cache).
    workload.setup(reuse=timed)
    if args.setup_only:
        workload.close()
        return 0
    try:
        if args.trace:
            passes, values, absent = traced_run(workload, workdir)
            from layers import metric_units

            units = metric_units()
            if absent:
                print(json.dumps({"absent": absent}, sort_keys=True))
        else:
            passes = measure(workload, args.seconds)
            values = end_to_end(passes, setup_s)
            units = E2E_UNITS
            unscaled = {
                "setup_s": raw_setup_s,
                "wall_s": statistics.median(p.raw_wall for p in passes),
                "passes": len(passes),
            }
            print(json.dumps({"unscaled": unscaled}))
        failed = workload.failures(passes)
    finally:
        workload.close()
    result = {
        "correct": failed == 0,
        "attempted": sum(p.ops for p in passes),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set iteration order varies with the hash seed, and with it the
        # order of the advisor's repair fragments: pin it (for the CLI
        # children too) so outputs and timings repeat across processes.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.exit(main())
