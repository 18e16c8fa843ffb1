"""Process plumbing shared by the benchmark: building, timed child
processes, the per-checkout trace cache, and small statistics helpers."""

import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent


class SetupError(Exception):
    """The benchmark cannot run here (missing sources, failed build)."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def target_dir():
    configured = os.environ.get("CARGO_TARGET_DIR")
    path = Path(configured) if configured else Path(".bench_build")
    return path if path.is_absolute() else ROOT / path


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Builds the `rescheck` CLI and the probe; returns their paths."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        raise SetupError(f"{ROOT} holds no rescheck sources (Cargo.toml, crates/)")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for argv in (
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "rescheck", "--bin", "rescheck"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(BENCH_DIR / "probe" / "Cargo.toml")],
    ):
        done = subprocess.run(argv, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise SetupError(f"build failed: {' '.join(argv)}")
    global LAUNCHER
    release = target_dir() / "release"
    LAUNCHER = release / "perfbench-probe"
    return release / "rescheck", LAUNCHER


class Proc:
    """Outcome of one timed child process."""

    def __init__(self, wall_s, cpu_s, code, rss_mb, stdout, stderr):
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.code = code
        self.rss_mb = rss_mb
        self.stdout = stdout
        self.stderr = stderr


# `perfbench-probe run`, once built: times a child and reads its peak
# RSS without counting this interpreter's resident set (see the probe).
LAUNCHER = None
# CPU seconds of every child run through the launcher so far.
CHILD_CPU_S = 0.0


def run_timed(argv, cwd):
    """Runs `argv` to completion; wall time, CPU time, exit code and peak
    RSS of that one process (through the launcher once it is built)."""
    err_path = Path(cwd) / ".stderr"
    argv = [str(a) for a in argv]
    launched = LAUNCHER is not None and argv[0] != str(LAUNCHER)
    if launched:
        argv = [str(LAUNCHER), "run", *argv]
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        done = subprocess.run(argv, cwd=cwd, stdout=subprocess.PIPE, stderr=err,
                              stdin=subprocess.DEVNULL)
        wall = time.perf_counter() - start
    stderr = err_path.read_text(errors="replace")
    out = done.stdout.decode(errors="replace")
    if not launched:
        return Proc(wall, None, done.returncode, None, out, stderr)
    head, _, last = stderr.rstrip("\n").rpartition("\n")
    try:
        measured = json.loads(last)
    except ValueError:
        raise SetupError(f"launcher failed on {argv[2:]}: {stderr.strip()[-300:]}")
    global CHILD_CPU_S
    CHILD_CPU_S += measured["cpu_s"]
    return Proc(measured["wall_s"], measured["cpu_s"], measured["code"], measured["maxrss_kb"] / 1024.0,
                out, head)


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def median(values):
    return statistics.median(values)


def percentile(values, q):
    """Nearest-rank percentile, q in [0, 100]."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), round(q / 100.0 * len(ordered) + 0.5)))
    return ordered[rank - 1]


def sub_rng(seed, label):
    """An independent, reproducible random stream per purpose."""
    return random.Random(f"{seed}:{label}")


class Gate:
    """Counts operations as attempted or failed; keeps the first few
    failure messages for the record."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
            log(f"FAILED: {what}")
        return ok


def instance_name(spec):
    return "_".join(str(part) for part in spec)


def gen(rescheck, spec, directory):
    """`rescheck gen <spec>` into `<directory>/<name>.cnf`."""
    path = Path(directory) / f"{instance_name(spec)}.cnf"
    done = run_timed([rescheck, "gen", *spec], directory)
    if done.code != 0:
        raise SetupError(f"gen {spec} exited {done.code}: {done.stderr.strip()}")
    path.write_text(done.stdout)
    return path


def fingerprint(probe, cnf, trace, learned, cwd):
    """Learned count, event count, bytes and digest of one trace."""
    read = run_timed([probe, "read", trace], cwd)
    if read.code != 0:
        raise SetupError(f"probe read {trace}: {read.stderr.strip()}")
    fields = json.loads(read.stdout)
    return {
        "instance": Path(cnf).stem,
        "learned": learned,
        "events": int(fields["events"]),
        "trace_bytes": int(fields["bytes"]),
        "trace_sha256": sha256_file(trace)[:16],
    }


def parse_learned(solve_stderr):
    for token in solve_stderr.split():
        if token.startswith("learned="):
            return int(token.split("=", 1)[1])
    return None


class TraceCache:
    """Binary traces of the fixed check instances, solved once per
    checkout and keyed by the digest of the `rescheck` binary, so a
    rebuilt program never reads a stale trace."""

    def __init__(self, rescheck, probe):
        self.rescheck = rescheck
        self.probe = probe
        self.dir = target_dir() / "perfbench-cache" / sha256_file(rescheck)[:16]

    def entry(self, spec):
        """`(cnf, trace, fingerprint)`, solving on a miss."""
        name = instance_name(spec)
        cnf, trace, meta = (self.dir / f"{name}{ext}" for ext in (".cnf", ".rt", ".json"))
        if not meta.is_file():
            self.dir.mkdir(parents=True, exist_ok=True)
            tmp = self.dir / f"tmp-{os.getpid()}"
            tmp.mkdir(exist_ok=True)
            try:
                log(f"solving {name} once for the trace cache")
                fresh = gen(self.rescheck, spec, tmp)
                done = run_timed([self.rescheck, "solve", fresh, "--trace", f"{name}.rt", "--binary"], tmp)
                if done.code != 20:
                    raise SetupError(f"solve {name} exited {done.code}, expected 20 (UNSAT)")
                fp = fingerprint(self.probe, fresh, tmp / f"{name}.rt", parse_learned(done.stderr), tmp)
                os.replace(fresh, cnf)
                os.replace(tmp / f"{name}.rt", trace)
                meta.write_text(json.dumps(fp))
            finally:
                shutil.rmtree(tmp, ignore_errors=True)
        return cnf, trace, json.loads(meta.read_text())
