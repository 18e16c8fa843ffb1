#!/usr/bin/env python3
"""Layered end-to-end benchmark of rescheck.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `rescheck` and the probe from the checkout, sets the workload up,
then runs cycles of the solve, check and serve stages (plus one more
set-up pass each; `setup_s` is the median pass) until `--seconds` pass.
`--trace 0` reports the end-to-end metrics, measured with no
instrumentation; `--trace 1` is a separate run that reports the
per-layer metrics from the probe and the CLI's `--metrics-out`
documents. Every run counts each operation against the correctness
gate. The second-to-last stdout line is a `perfbench-record` with the
run's provenance, input fingerprints and sample counts; the last line
is the result object."""

import argparse
import json
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import (  # noqa: E402
    ROOT, Gate, SetupError, TraceCache, build, fingerprint, log, median, nproc, sub_rng,
    target_dir,
)
import harness  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
# Reserved for confirming a claimed gain: never used while tuning a change.
HELD_OUT_SEED = 7919

METRIC_VIEWS = {
    "setup_s, solve_*_s, check_*_s": "CPU: user plus system seconds of the rescheck processes, from wait4",
    "serve_cpu_ms_per_claim": "CPU: the serve daemon's user plus system time over the claims it answered",
    "checker.pdag.wall_s, checker.pdag.jobs1_s, serve.*_ms": "wall clock",
    "rss_*_mb": "RSS: peak resident set of the `rescheck check` process, from wait4",
    "checker.*.accounted_peak_bytes": "accounted: the checker's MemoryMeter peak",
    "checker.*.unaccounted_mb": "RSS minus the empty-check RSS floor minus the accounted peak",
    "checker.rss_floor_mb": "RSS of a check with no learned clauses",
}


def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def cpu_ticks():
    """`(steal, total)` jiffies across all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def provenance(workload):
    def capture(argv):
        try:
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=30)
            return done.stdout.strip() if done.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            return None

    return {
        "workload": workload,
        "why": next(w["why"] for w in declared()["workloads"] if w["name"] == workload),
        "available_parallelism": nproc(),
        "git_commit": capture(["git", "rev-parse", "HEAD"]),
        "rustc": capture(["rustc", "--version"]),
        "build_profile": "release",
        "python": platform.python_version(),
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "metric_views": METRIC_VIEWS,
    }


def run(args):
    spec = workloads.spec_for(args.workload, args.ladder)
    rescheck, probe = build()
    gate = Gate()
    jobs = nproc()
    ctx = workloads.Ctx(rescheck, probe, TraceCache(rescheck, probe), args.seed,
                        args.trace == 1, gate, jobs, args.inject)
    base = target_dir() / "perfbench-work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(base, ignore_errors=True)
    workdir = base / "inputs"
    stages = []
    try:
        ctx.cache.entry(spec["check"])  # fill the cache outside the timed set-up
        start = harness.CHILD_CPU_S
        prepared = workloads.setup(ctx, spec, workdir)
        setup_times = [harness.CHILD_CPU_S - start]
        pool_fps = [fingerprint(probe, e["cnf"], e["rt"], e["learned"], workdir)
                    for e in prepared["unsat"]]
        seeded = workloads.seeded_inputs(ctx, prepared)
        if ctx.traced:
            workloads.setup_empty_trace(ctx, workdir)

        solve = workloads.SolveStage(ctx, prepared, workdir)
        check = workloads.CheckStage(ctx, prepared, workdir)
        serve = workloads.ServeStage(ctx, prepared, workdir, spec["serve_burst_s"],
                                     spec.get("max_jobs", 10 ** 9))
        stages = [solve, check, serve]
        order = sub_rng(args.seed, "cycle-order")
        ticks_before = cpu_ticks()
        start = time.perf_counter()
        cycles = 0
        while cycles < workloads.MIN_CYCLES or time.perf_counter() - start < args.seconds:
            for stage in order.sample(stages, len(stages)):
                stage.round(cycles)
            # One more set-up pass per cycle: `setup_s` is their median.
            again = base / "setup-again"
            pass_start = harness.CHILD_CPU_S
            workloads.setup(ctx, spec, again)
            setup_times.append(harness.CHILD_CPU_S - pass_start)
            shutil.rmtree(again)
            cycles += 1
        ticks_after = cpu_ticks()
        solve, check, serve = (stage.result() for stage in stages)
    finally:
        if stages:
            stages[2].stop()
        shutil.rmtree(base, ignore_errors=True)

    e2e = {"setup_s": median(setup_times), "solve_s": solve["solve_s"],
           "solve_traced_s": solve["solve_traced_s"], "trace_bytes": solve["trace_bytes"]}
    for s in workloads.STRATEGIES:
        e2e[f"check_{s}_s"] = check[f"check_{s}_s"]
        e2e[f"rss_{s}_mb"] = check[f"rss_{s}_mb"]
    e2e["serve_cpu_ms_per_claim"] = serve["serve_cpu_ms_per_claim"]

    record = provenance(args.workload)
    record.update({
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "samples": {"setup_passes": len(setup_times), "cycles": cycles,
                    "serve_jobs": serve["jobs"], "serve_bursts": serve["bursts"],
                    "serve_kinds": serve["kinds"]},
        "fingerprints": {"solve": solve["fingerprints"], "check": check["fingerprint"],
                         "serve": pool_fps},
        "seeded_inputs": seeded,
        "gate_failures": gate.messages,
        # Share of CPU time the hypervisor gave to other guests while the
        # cycles ran: runs with a high share measured a contended host.
        "host_steal_share": (
            (ticks_after[0] - ticks_before[0]) / max(1, ticks_after[1] - ticks_before[1])
            if ticks_before and ticks_after else None),
    })
    if ctx.traced:
        metrics = {**solve["layers"], **check["layers"], **serve["layers"]}
        instrumented = solve["instrumented_s"] + check["instrumented_s"]
        plain = solve["plain_s"] + check["plain_s"]
        metrics["obs.overhead_share"] = instrumented / plain - 1.0
        record["end_to_end_in_traced_run"] = e2e
    else:
        metrics = e2e
    group = "per_layer" if ctx.traced else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared()[group]}
    out = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    print("perfbench-record " + json.dumps(record, sort_keys=True))
    return {"correct": gate.failed == 0, "attempted": gate.attempted, "failed": gate.failed,
            "metrics": out}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ladder", choices=("full", "tiny"), default="full",
                        help="tiny: small instances for the benchmark's own tests")
    parser.add_argument("--inject", choices=("wrong-verdict",),
                        help="test hook: expect the wrong verdict on one claim")
    args = parser.parse_args()
    try:
        result = run(args)
    except SetupError as e:
        log(f"cannot run: {e}")
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
