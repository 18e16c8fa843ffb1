"""Closed-loop clients for `rescheck serve`: a fixed number of callers,
each sending its next claim only after the verdict for its previous one
arrived.

`StdinDaemon` drives the default front end (`serve --stdin`): every
caller shares the daemon's stdin and verdicts are routed back by job id."""

import json
import os
import select
import subprocess
import threading
import time

from harness import log

BAD_STATUSES = ("busy", "timeout", "internal-error")


class StdinDaemon:
    def __init__(self, rescheck, workers, cwd):
        argv = [str(rescheck), "serve", "--stdin", "--jobs", str(workers),
                "--queue-depth", str(64 * workers)]
        self.proc = subprocess.Popen(argv, cwd=cwd,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL)

    def send(self, frame):
        self.proc.stdin.write(frame)
        self.proc.stdin.flush()

    def request(self, frame):
        """One control frame while no job is in flight; returns its reply."""
        self.send((json.dumps(frame) + "\n").encode())
        return json.loads(self.proc.stdout.readline())

    def shutdown(self):
        """Closes stdin and waits for the daemon to exit; returns its
        summary frame and the CPU seconds (user plus system, all
        threads) it used over its life."""
        self.proc.stdin.close()
        deadline = threading.Timer(60, self.proc.kill)
        deadline.start()
        try:
            out = self.proc.stdout.read()
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            deadline.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        if self.proc.returncode != 0:
            log(f"serve exited {self.proc.returncode}")
        lines = [l for l in out.decode().splitlines() if l.strip()]
        return (json.loads(lines[-1]) if lines else {}), usage.ru_utime + usage.ru_stime

    def stop(self):
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.communicate()


def closed_loop(daemon, streams, seconds, warmup_s, max_jobs, on_verdict, sampled):
    """One burst: each caller (one per claim stream) keeps one claim in
    flight until `seconds` pass or `max_jobs` claims were sampled, then
    the callers drain. Claims sent in the first `warmup_s`, while the
    daemon's caches refill after other work, are not sampled.
    `on_verdict(claim, frame, latency_s, sampled)` sees every verdict.
    Returns `(sampled verdicts, seconds from the end of the warm-up to
    the last verdict)`."""
    out = daemon.proc.stdout.fileno()
    in_flight = {}  # job id -> (caller, claim, sent_at, sampled)
    start = time.perf_counter()
    measure_from = start + warmup_s
    deadline = start + seconds
    counted = 0

    def send(caller):
        nonlocal counted
        claim = next(streams[caller])
        now = time.perf_counter()
        in_sample = sampled and now >= measure_from
        counted += in_sample
        in_flight[claim.job["id"]] = (caller, claim, now, in_sample)
        daemon.send(claim.frame)

    for caller in range(len(streams)):
        send(caller)
    now = start
    pending = b""
    while in_flight:
        if not select.select([out], [], [], 60)[0]:
            raise RuntimeError("serve stopped answering")
        chunk = os.read(out, 1 << 16)
        if not chunk:
            raise RuntimeError("serve closed its output")
        *lines, pending = (pending + chunk).split(b"\n")
        for line in lines:
            now = time.perf_counter()
            frame = json.loads(line)
            caller, claim, sent_at, in_sample = in_flight.pop(frame.get("id"))
            on_verdict(claim, frame, now - sent_at, in_sample)
            if now < deadline and counted < max_jobs:
                send(caller)
    return counted, now - measure_from
