"""The four workloads and the three stages every workload runs.

Each workload runs the whole user pipeline — solve with and without a
trace, check a trace with every kept strategy, and validate a stream of
claims through `rescheck serve` — on inputs chosen so that one layer
dominates. The run interleaves the stages in cycles. Stages time
the CLI as a user invokes it; in the traced run they also time the
library entry points through the probe and read the metrics document
the CLI already emits (`--metrics-out`)."""

import hashlib
import itertools
import json
import re
import time
from pathlib import Path

from harness import (
    SetupError, fingerprint, gen, instance_name, median, parse_learned, percentile,
    run_timed, sha256_file, sub_rng,
)
from serveclient import BAD_STATUSES, StdinDaemon, closed_loop

STRATEGIES = ("df", "bf", "dfd", "pdag")

WORKLOADS = {
    "solve-trace": {
        "solve": [("longmult", 6), ("pipe", 16, 5), ("pigeonhole", 7)],
        "check": ("longmult", 6),
        "serve_burst_s": 0.8,
    },
    "check-kernel": {
        "solve": [("pipe", 12, 5)],
        "check": ("pipe", 20, 6),
        "serve_burst_s": 0.8,
    },
    "check-wide": {
        "solve": [("pigeonhole", 7)],
        "check": ("pigeonhole", 9),
        "serve_burst_s": 0.8,
    },
    "serve-claims": {
        "solve": [("longmult", 5), ("pigeonhole", 6)],
        "check": ("pigeonhole", 8),
        "serve_burst_s": 1.5,
    },
}

# Instances small enough for the benchmark's own tests.
TINY = {"solve": [("pigeonhole", 6), ("longmult", 4)], "check": ("pigeonhole", 6), "max_jobs": 50}

SERVE_UNSAT_POOL = [
    ("pigeonhole", 5), ("pigeonhole", 6), ("longmult", 3), ("longmult", 4),
    ("barrel", 5, 5), ("parity", 12), ("adder", 8), ("atpg", 6, 2), ("planning", 5, 5),
]
SERVE_SAT_COUNT = 3
# Claims per deck of 75, after the acceptance campaign of `rescheck
# serve` (DESIGN.md §15, crates/serve/tests/campaign.rs): 40 valid UNSAT
# proofs, 20 proof defects (a formula checked against another formula's
# trace; here a satisfiable one, so the defect is certain) and 15 valid
# SAT models, each trace-carrying claim under every kept strategy equally
# often. The campaign's memory-starved and model-defect jobs are left
# out. The campaign has no clausal proofs: splitting its valid UNSAT
# proofs evenly between native traces and LRAT exports is this
# benchmark's choice, so that LRAT ingestion is sampled as often as the
# native trace read.
SERVE_DECK = {"unsat": 20, "lrat": 20, "probe": 20, "sat": 15}
MIN_CYCLES = 5
# A stage's round repeats its unit of work (every instance, or every
# strategy) until this long has passed, so that short units still
# collect enough samples per cycle for a steady median. A check takes
# 50-100 ms on the small check traces and varies more from one process
# to the next than a solve, so the check stage gets the longer rounds.
SOLVE_ROUND_S = 0.6
CHECK_ROUND_S = 1.2
SERVE_MIN_JOBS = 1000  # so that at least ten samples lie beyond p99
SERVE_WARMUP_S = 0.1  # per burst, while the daemon's caches refill after other stages

STATS_RE = re.compile(
    r"(\S+): built (\d+)/(\d+) learned clauses \([\d.]+%\), (\d+) resolutions, peak (\d+) bytes")
CORE_RE = re.compile(r"unsat core: (\d+) of")


def spec_for(workload, ladder):
    spec = dict(WORKLOADS[workload])
    if ladder == "tiny":
        spec.update(TINY)
    return spec


class Ctx:
    """Everything a stage needs: binaries, seed, mode, the gate."""

    def __init__(self, rescheck, probe, cache, seed, traced, gate, jobs, inject):
        self.rescheck = rescheck
        self.probe = probe
        self.cache = cache
        self.seed = seed
        self.traced = traced
        self.gate = gate
        self.jobs = jobs
        self.inject = inject


# ---------------------------------------------------------------- setup


def find_sat(ctx, workdir):
    """SERVE_SAT_COUNT seeded random 3-SAT instances that the solver
    finds satisfiable, with its solve output."""
    rng = sub_rng(ctx.seed, "serve-sat")
    found = []
    while len(found) < SERVE_SAT_COUNT:
        spec = ("random", 60, 210, rng.randrange(1, 1 << 30))
        cnf = gen(ctx.rescheck, spec, workdir)
        done = run_timed([ctx.rescheck, "solve", cnf], workdir)
        if done.code == 10:
            found.append((cnf, done.stdout))
    return found


def parse_model(solve_stdout):
    lits = []
    for line in solve_stdout.splitlines():
        if line.startswith("v "):
            lits.extend(int(tok) for tok in line.split()[1:] if tok != "0")
    return lits


def model_satisfies(cnf_path, model):
    true = set(model)
    clause = []
    for line in Path(cnf_path).read_text().splitlines():
        if not line or line[0] in "cp%":
            continue
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                if not any(l in true for l in clause):
                    return False
                clause = []
            else:
                clause.append(lit)
    return True


class Claim:
    def __init__(self, kind, expect, job):
        self.kind = kind
        self.expect = expect
        self.job = job
        self.frame = None


def setup(ctx, spec, workdir):
    """One set-up pass: generate every instance, validate the cached
    check trace, and prepare the serve claim pool (traced solves, SAT
    models, an LRAT export of every pool instance). Returns the prepared
    inputs."""
    workdir.mkdir(parents=True, exist_ok=True)
    gate = ctx.gate
    solve_set = [gen(ctx.rescheck, s, workdir) for s in spec["solve"]]

    cnf, trace, fp = ctx.cache.entry(spec["check"])
    fresh = gen(ctx.rescheck, spec["check"], workdir)
    gate.check(fresh.read_bytes() == cnf.read_bytes(), f"cached {cnf.name} differs from gen output")
    gate.check(sha256_file(trace)[:16] == fp["trace_sha256"], f"cached {trace.name} digest mismatch")

    unsat = []
    for s in SERVE_UNSAT_POOL:
        pcnf = gen(ctx.rescheck, s, workdir)
        name = instance_name(s)
        done = run_timed([ctx.rescheck, "solve", pcnf, "--trace", f"{name}.rt", "--binary"], workdir)
        gate.check(done.code == 20, f"solve {name} exited {done.code}, expected 20")
        out = run_timed([ctx.rescheck, "export", pcnf, f"{name}.rt", "--out", f"{name}.lrat"], workdir)
        gate.check(out.code == 0, f"export {name} exited {out.code}")
        unsat.append({"cnf": str(pcnf), "rt": str(workdir / f"{name}.rt"),
                      "lrat": str(workdir / f"{name}.lrat"), "learned": parse_learned(done.stderr)})
    sat = []
    for scnf, stdout in find_sat(ctx, workdir):
        model = parse_model(stdout)
        gate.check(model_satisfies(scnf, model), f"solver model for {scnf.name} fails to check")
        sat.append({"cnf": str(scnf), "model": model})
    return {"solve": solve_set, "check": (cnf, trace, fp), "unsat": unsat, "sat": sat}


def claim_deck():
    """One deck of SERVE_DECK claims: `(kind, strategy)` with each kept
    strategy equally often within every trace-carrying kind."""
    deck = []
    for kind, count in SERVE_DECK.items():
        for n in range(count):
            deck.append((kind, None if kind == "sat" else STRATEGIES[n % len(STRATEGIES)]))
    return deck


def claim_stream(ctx, prepared, conn_index):
    """An endless, seeded stream of claims for one connection: decks of
    SERVE_DECK, each shuffled, with a seeded instance per claim."""
    rng = sub_rng(ctx.seed, f"claims-{conn_index}")
    unsat, sat = prepared["unsat"], prepared["sat"]
    deck = claim_deck()
    n = 0
    while True:
        for kind, strategy in rng.sample(deck, len(deck)):
            entry = rng.choice(sat if kind == "sat" else unsat)
            if kind == "sat":
                claim = Claim(kind, "valid", {"cnf_path": entry["cnf"], "model": entry["model"]})
            elif kind == "probe":
                claim = Claim(kind, "proof-defect", {"cnf_path": rng.choice(sat)["cnf"],
                                                     "trace_path": entry["rt"]})
            elif kind == "lrat":
                claim = Claim(kind, "valid", {"cnf_path": entry["cnf"], "trace_path": entry["lrat"],
                                              "proof_format": "lrat"})
            else:
                claim = Claim(kind, "valid", {"cnf_path": entry["cnf"], "trace_path": entry["rt"]})
            if strategy:
                claim.job["strategy"] = strategy
            if ctx.inject == "wrong-verdict" and conn_index == 0 and n == 0:
                # Test hook: expect the opposite of the known answer.
                claim.expect = "proof-defect" if claim.expect == "valid" else "valid"
            claim.job["id"] = f"c{conn_index}-{n}"
            claim.frame = (json.dumps(claim.job) + "\n").encode()
            n += 1
            yield claim


def seeded_inputs(ctx, prepared):
    """What the seed chose: the SAT instances and a digest of the first
    deck of claims on every connection."""
    digest = hashlib.sha256()
    for conn in range(ctx.jobs):
        stream = claim_stream(ctx, prepared, conn)
        for claim in itertools.islice(stream, sum(SERVE_DECK.values())):
            paths = [Path(claim.job[k]).name for k in ("cnf_path", "trace_path") if k in claim.job]
            digest.update(json.dumps([claim.kind, claim.job.get("strategy"), *paths]).encode())
    return {"sat": [Path(e["cnf"]).stem for e in prepared["sat"]],
            "claims_sha256": digest.hexdigest()[:16]}


# ---------------------------------------------------------------- stages
#
# A run interleaves the stages: every cycle runs one round of each, in a
# seeded order, so each metric samples the whole run rather than one
# slice of it. The host's speed drifts over seconds, and a metric
# measured only in a short slice would carry that drift whole.


class Stage:
    round_s = SOLVE_ROUND_S

    def round(self, r):
        """Repeats the stage's unit of work for at least `round_s`."""
        end = time.perf_counter() + self.round_s
        while True:
            self.unit(r)
            if time.perf_counter() >= end:
                return


class SolveStage(Stage):
    """Untraced and traced (`--trace --binary`) solves of every solve-set
    instance, in a seeded order each round."""

    def __init__(self, ctx, prepared, workdir):
        self.ctx, self.workdir = ctx, workdir
        self.rng = sub_rng(ctx.seed, "solve-order")
        self.cnfs = prepared["solve"]
        self.samples = {c.stem: {"plain": [], "traced": [], "metrics": [], "probe": []}
                        for c in self.cnfs}
        self.outputs = {}

    def unit(self, r):
        ctx, rng = self.ctx, self.rng
        for cnf in rng.sample(self.cnfs, len(self.cnfs)):
            name = cnf.stem
            runs = [("plain", []), ("traced", ["--trace", f"{name}.rt", "--binary"])]
            if ctx.traced:
                runs.append(("metrics", ["--trace", f"{name}.m.rt", "--binary",
                                         "--metrics-out", f"{name}.solve.json"]))
            for kind, extra in rng.sample(runs, len(runs)):
                done = run_timed([ctx.rescheck, "solve", cnf, *extra], self.workdir)
                ctx.gate.check(done.code == 20, f"solve {kind} {name} exited {done.code}, expected 20")
                self.samples[name][kind].append(done.cpu_s)
                if kind == "traced":
                    digest = sha256_file(self.workdir / f"{name}.rt")
                    if name in self.outputs:
                        ctx.gate.check(self.outputs[name][0] == digest,
                                       f"solve {name} trace is not deterministic")
                    else:
                        self.outputs[name] = (digest, parse_learned(done.stderr))
            if ctx.traced:
                probe = run_timed([ctx.probe, "solve", cnf, f"{name}.p.rt"], self.workdir)
                if ctx.gate.check(probe.code == 0, f"probe solve {name}: {probe.stderr.strip()}"):
                    fields = json.loads(probe.stdout)
                    ctx.gate.check(fields["unsat"] == 1, f"probe solve {name} did not refute")
                    self.samples[name]["probe"].append(fields)

    def result(self):
        ctx, samples = self.ctx, self.samples
        fps = [fingerprint(ctx.probe, cnf, self.workdir / f"{cnf.stem}.rt",
                           self.outputs[cnf.stem][1], self.workdir) for cnf in self.cnfs]
        result = {
            "fingerprints": fps,
            "solve_s": sum(median(s["plain"]) for s in samples.values()),
            "solve_traced_s": sum(median(s["traced"]) for s in samples.values()),
            "trace_bytes": sum(fp["trace_bytes"] for fp in fps),
        }
        if not ctx.traced:
            return result
        result["instrumented_s"] = sum(median(s["metrics"]) for s in samples.values())
        result["plain_s"] = result["solve_traced_s"]

        def probe_sum(key):
            return sum(median([p[key] for p in s["probe"]]) for s in samples.values())

        events = probe_sum("events")
        result["layers"] = {
            "cnf.parse_s": probe_sum("parse_s"),
            "solver.search_s": probe_sum("search_s"),
            "solver.search_traced_s": probe_sum("search_traced_s"),
            "solver.conflicts": probe_sum("conflicts"),
            "solver.learned": probe_sum("learned"),
            "trace.encode_s": probe_sum("encode_s"),
            "trace.events": events,
            "trace.bytes_per_event": probe_sum("bytes") / events,
        }
        first = self.cnfs[0]
        lrat = [run_timed([ctx.probe, "lrat", first, f"{first.stem}.p.rt"], self.workdir)
                for _ in range(3)]
        if all(ctx.gate.check(p.code == 0, f"probe lrat {first.stem}: {p.stderr.strip()}") for p in lrat):
            fields = [json.loads(p.stdout) for p in lrat]
            ingest_s = median([f["ingest_s"] for f in fields])
            result["layers"].update({
                "interop.export_s": median([f["export_s"] for f in fields]),
                "interop.ingest_s": ingest_s,
                "interop.hints_per_s": fields[0]["hints"] / ingest_s,
            })
        return result


def parse_check(stdout):
    """`(clauses_built, learned, resolutions, accounted_peak, core)` or None."""
    if "VALID UNSAT proof" not in stdout:
        return None
    stats = STATS_RE.search(stdout)
    if not stats:
        return None
    core = CORE_RE.search(stdout)
    return (int(stats.group(2)), int(stats.group(3)), int(stats.group(4)), int(stats.group(5)),
            int(core.group(1)) if core else None)


def check_once(ctx, cnf, trace, strategy, jobs, workdir, metrics_out=None):
    argv = [ctx.rescheck, "check", cnf, trace, "--strategy", strategy, "--jobs", str(jobs)]
    if metrics_out:
        argv += ["--metrics-out", metrics_out]
    done = run_timed(argv, workdir)
    parsed = parse_check(done.stdout) if done.code == 0 else None
    ctx.gate.check(parsed is not None, f"check {strategy} --jobs {jobs} on {Path(trace).name}: "
                                       f"exit {done.code}, expected a VALID verdict")
    return done, parsed


def gate_identities(ctx, stats, label):
    """df ≡ dfd on clauses built, resolutions and core size; bf ≡ pdag
    on clauses built and resolutions."""
    df, dfd, bf, pdag = (stats.get(s) for s in ("df", "dfd", "bf", "pdag"))
    if df and dfd:
        ctx.gate.check((df[0], df[2], df[4]) == (dfd[0], dfd[2], dfd[4]),
                       f"{label}: df {df} and dfd {dfd} disagree")
    if bf and pdag:
        ctx.gate.check((bf[0], bf[2]) == (pdag[0], pdag[2]), f"{label}: bf {bf} and pdag {pdag} disagree")


class CheckStage(Stage):
    """Every kept strategy on the check trace, each as its own
    `rescheck check` process, in a seeded order each round."""

    round_s = CHECK_ROUND_S

    def __init__(self, ctx, prepared, workdir):
        self.ctx, self.workdir = ctx, workdir
        self.rng = sub_rng(ctx.seed, "check-order")
        self.cnf, self.trace, self.fp = prepared["check"]
        self.cpu = {s: [] for s in STRATEGIES}
        self.pdag_wall = []  # pdag's gain is in wall time: it spreads the work over cores
        self.rss = {s: [] for s in STRATEGIES}
        self.docs = {s: [] for s in STRATEGIES}
        self.instrumented = {s: [] for s in STRATEGIES}
        self.jobs1 = []
        self.last = {}

    def unit(self, r):
        ctx = self.ctx
        order = list(STRATEGIES) + (["pdag-jobs1"] if ctx.traced else [])
        stats = {}
        for s in self.rng.sample(order, len(order)):
            if s == "pdag-jobs1":
                done, self.last["jobs1"] = check_once(ctx, self.cnf, self.trace, "pdag", 1, self.workdir)
                self.jobs1.append(done.wall_s)
                continue
            done, stats[s] = check_once(ctx, self.cnf, self.trace, s, ctx.jobs, self.workdir)
            self.cpu[s].append(done.cpu_s)
            if s == "pdag":
                self.pdag_wall.append(done.wall_s)
            self.rss[s].append(done.rss_mb)
            if ctx.traced:
                out = f"check-{s}.json"
                again, _ = check_once(ctx, self.cnf, self.trace, s, ctx.jobs, self.workdir, out)
                self.instrumented[s].append(again.cpu_s)
                self.docs[s].append(json.loads((self.workdir / out).read_text()))
        gate_identities(ctx, stats, f"round {r}")
        self.last.update(stats)

    def result(self):
        ctx, last = self.ctx, self.last
        if not ctx.traced:
            # Gate only, untimed: the parallel DAG checker must report the
            # same work at one worker as at every worker.
            last["jobs1"] = check_once(ctx, self.cnf, self.trace, "pdag", 1, self.workdir)[1]
        if last.get("jobs1") and last.get("pdag"):
            ctx.gate.check(last["jobs1"][:3] == last["pdag"][:3],
                           f"pdag --jobs 1 {last['jobs1']} differs from --jobs {ctx.jobs} {last['pdag']}")
        result = {"fingerprint": self.fp}
        for s in STRATEGIES:
            result[f"check_{s}_s"] = median(self.cpu[s])
            result[f"rss_{s}_mb"] = median(self.rss[s])
        if ctx.traced:
            result["instrumented_s"] = sum(median(self.instrumented[s]) for s in STRATEGIES)
            result["plain_s"] = sum(result[f"check_{s}_s"] for s in STRATEGIES)
            result["layers"] = check_layers(ctx, self.trace, self.workdir, result, self.docs,
                                            median(self.pdag_wall), self.jobs1)
        return result


def check_layers(ctx, trace, workdir, result, docs, pdag_wall_s, jobs1):
    layers = {}
    floor = [run_timed([ctx.rescheck, "check", "e.cnf", "e.rt"], workdir) for _ in range(3)]
    ctx.gate.check(all(f.code == 0 for f in floor), "empty check did not verify")
    floor_mb = median([f.rss_mb for f in floor])
    layers["checker.rss_floor_mb"] = floor_mb
    for s in STRATEGIES:
        ds = docs[s]

        def phase(name):
            return median([d["phases"].get(name, 0.0) for d in ds])

        stats = ds[-1]["check"]
        gauges = ds[-1]["gauges"]
        layers[f"checker.{s}.pass1_s"] = phase("check:pass1")
        layers[f"checker.{s}.resolve_s"] = phase("check:resolve")
        layers[f"checker.{s}.final_s"] = phase("final-phase")
        layers[f"checker.{s}.clauses_built"] = stats["clauses_built"]
        layers[f"checker.{s}.resolutions"] = stats["resolutions"]
        layers[f"checker.{s}.built_share"] = stats["clauses_built"] / max(1, stats["learned_in_trace"])
        peak = gauges.get("check.peak_memory_bytes", 0.0)
        layers[f"checker.{s}.accounted_peak_bytes"] = peak
        layers[f"checker.{s}.unaccounted_mb"] = result[f"rss_{s}_mb"] - floor_mb - peak / (1 << 20)
        if s == "pdag":
            layers["checker.pdag.dag_build_s"] = phase("check:dag-build")
            hists = ds[-1]["histograms"]
            per_worker = hists.get("check.executor.resolved_per_worker", {})
            layers["checker.pdag.steals"] = gauges.get("check.executor.steals", 0.0)
            layers["checker.pdag.queue_high_water"] = hists.get(
                "check.executor.queue_high_water", {}).get("max", 0)
            layers["checker.pdag.worker_imbalance"] = (
                per_worker["max"] / max(1, per_worker["min"]) if per_worker else 1.0)
            layers["checker.pdag.wall_s"] = pdag_wall_s
            layers["checker.pdag.jobs1_s"] = median(jobs1)
            layers["checker.pdag.speedup"] = median(jobs1) / pdag_wall_s
        if s == "dfd":
            layers["checker.dfd.cache_bytes"] = gauges.get("check.dfd.cache_bytes", 0.0)
        if s == "bf":
            resolve_s = layers["checker.bf.resolve_s"]
            layers["checker.kernel.literals_folded"] = gauges.get("check.kernel.literals_folded", 0.0)
            layers["checker.kernel.chains"] = gauges.get("check.kernel.chains", 0.0)
            layers["checker.kernel.literals_per_s"] = (
                layers["checker.kernel.literals_folded"] / resolve_s if resolve_s else 0.0)
    reads = [run_timed([ctx.probe, "read", trace], workdir) for _ in range(3)]
    if all(ctx.gate.check(p.code == 0, f"probe read: {p.stderr.strip()}") for p in reads):
        fields = [json.loads(p.stdout) for p in reads]
        decode_s = median([f["decode_s"] for f in fields])
        layers["trace.open_s"] = median([f["open_s"] for f in fields])
        layers["trace.decode_s"] = decode_s
        layers["trace.decode_events_per_s"] = fields[0]["events"] / decode_s
    return layers


class ServeStage:
    """A closed loop of one caller per core against one `rescheck serve
    --stdin --jobs <cores>` daemon for the whole run, each caller waiting
    for its verdict before sending its next claim. Each round is a burst
    of `burst_s` whose first SERVE_WARMUP_S is not sampled; the whole
    first burst is a warm-up. The client-side figures are taken per
    burst and reported as their median over the bursts, so that a burst
    the host slowed moves them little. The end-to-end figure is the
    daemon's CPU time per claim it answered: the work of its reader,
    queue, workers and writer, which time the hypervisor takes from the
    guest does not inflate."""

    def __init__(self, ctx, prepared, workdir, burst_s, max_jobs):
        self.ctx, self.prepared, self.workdir = ctx, prepared, workdir
        self.burst_s, self.max_jobs = burst_s, max_jobs
        self.bursts = []  # (sampled claims, measured seconds, client latencies in ms)
        self.burst = []
        self.walls, self.waits = [], []
        self.kinds = {}
        self.answered = 0
        self.streams = [claim_stream(ctx, prepared, i) for i in range(ctx.jobs)]
        self.daemon = StdinDaemon(ctx.rescheck, ctx.jobs, workdir)

    def jobs(self):
        return sum(b[0] for b in self.bursts)

    def on_verdict(self, claim, frame, latency_s, sampled):
        status = frame.get("status")
        ok = status == claim.expect and status not in BAD_STATUSES
        self.ctx.gate.check(ok, f"serve {claim.job['id']} ({claim.kind}): status {status!r}, "
                                f"expected {claim.expect!r} {frame.get('error', '')}")
        self.answered += 1
        if sampled:
            self.burst.append(latency_s * 1e3)
            wall_ms = frame.get("wall_seconds", 0.0) * 1e3
            self.walls.append(wall_ms)
            self.waits.append(latency_s * 1e3 - wall_ms)
            self.kinds[claim.kind] = self.kinds.get(claim.kind, 0) + 1

    def round(self, r, seconds=None):
        remaining = self.max_jobs - self.jobs()
        if remaining <= 0:
            return
        sampled = r > 0
        self.burst = []
        counted, measured = closed_loop(self.daemon, self.streams, seconds or self.burst_s,
                                        SERVE_WARMUP_S, remaining, self.on_verdict, sampled)
        if counted:
            self.bursts.append((counted, measured, self.burst))

    def result(self):
        ctx = self.ctx
        while self.jobs() < min(SERVE_MIN_JOBS, self.max_jobs):
            self.round(1, 0.5)
        try:
            metrics = self.daemon.request({"op": "metrics"}) if ctx.traced else None
            summary, cpu_s = self.daemon.shutdown()
        finally:
            self.daemon.stop()
        ctx.gate.check(summary.get("jobs_shed") == 0, f"serve summary {summary}: jobs shed or missing")
        pooled = [ms for _, _, burst in self.bursts for ms in burst]
        result = {
            "jobs": len(pooled),
            "bursts": len(self.bursts),
            "kinds": self.kinds,
            "serve_cpu_ms_per_claim": cpu_s * 1e3 / self.answered,
        }
        if not ctx.traced:
            return result
        counters = metrics.get("counters", {})

        def hit_share(cache):
            hits = counters.get(f"serve.{cache}.hits", 0)
            return hits / max(1, hits + counters.get(f"serve.{cache}.misses", 0))

        result["layers"] = {
            "serve.jobs_per_s": median([n / s for n, s, _ in self.bursts]),
            "serve.p50_ms": median([percentile(b, 50) for _, _, b in self.bursts]),
            "serve.p99_ms": percentile(pooled, 99),
            "serve.job_wall_p50_ms": percentile(self.walls, 50),
            "serve.job_wall_p99_ms": percentile(self.walls, 99),
            "serve.queue_wait_ms": median(self.waits),
            "serve.formula_cache.hit_share": hit_share("formula_cache"),
            "serve.trace_cache.hit_share": hit_share("trace_cache"),
            "serve.jobs_shed": summary.get("jobs_shed", 0),
        }
        return result

    def stop(self):
        self.daemon.stop()


def setup_empty_trace(ctx, workdir):
    """`e.cnf`/`e.rt`: a refutation with no learned clauses, whose check
    gives the RSS floor of a check that does no work."""
    (workdir / "e.cnf").write_text("p cnf 1 2\n1 0\n-1 0\n")
    done = run_timed([ctx.rescheck, "solve", "e.cnf", "--trace", "e.rt", "--binary"], workdir)
    if done.code != 20:
        raise SetupError(f"empty instance solve exited {done.code}")
