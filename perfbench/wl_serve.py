"""``serve_open``: an open-loop load against a ``repro serve`` daemon child.

One generator process (this one) holds two connections: one submits,
one polls job states.  Each run drains a few closed bursts of distinct
jobs (the saturated capacity) and then offers three fixed rates below
that knee, timing every request from its *due* time, so a late generator
shows up as latency rather than hiding it.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from perfbench.common import (
    ROOT,
    SRC,
    Tally,
    fingerprint,
    fresh_dir,
    log,
    quantile,
    ref_loop,
)

#: Offered rates (jobs/s) and each phase's share of ``--seconds``.
#: A burst of distinct jobs drains at ~140 jobs/s with two workers on a
#: 2-CPU host, so all three sit below the knee.  The mid and high phases
#: are long enough (7 s each at 20 s) for their p95 to average over the
#: host's second-scale speed swings.
RATES: Tuple[Tuple[str, float, float], ...] = (
    ("low", 15.0, 0.1),
    ("mid", 40.0, 0.35),
    ("hi", 60.0, 0.35),
)
#: A rate passes when its p95 stays under this limit with no backlog.
LATENCY_LIMIT_S = 0.5
BURST_JOBS = {"full": 40, "tiny": 6}
BURSTS = 8
WARMUP_JOBS = 4
DUPLICATE_FRACTION = 0.3
#: Far above any job's duration (tens of milliseconds), so the deadline
#: never decides a verdict.
JOB_TIMEOUT_S = 120.0
DRAIN_TIMEOUT_S = 60.0


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def tiny_scenario(index: int, seed: int) -> Dict[str, Any]:
    """One tiny seeded sparse job (n 40-80, 2 ranks, ~10 ms of compute).

    Slow simulated hosts keep the asynchronous run short (~80 iterations)
    and accurate; on fast ones it spins ~700 iterations on stale data.
    """
    rng = random.Random(seed * 1_000_003 + index)
    return {
        "problem": "sparse_linear",
        "problem_params": {"n": rng.randrange(40, 81), "dominance": 0.5},
        "environment": "pm2",
        "cluster": "local_cluster",
        "cluster_params": {"speed_scale": 0.01},
        "n_ranks": 2,
        "seed": seed * 1_000_003 + index,
    }


class Daemon:
    """A ``repro serve`` child on a fresh state dir."""

    def __init__(self, workers: int, trace_out: Optional[Path] = None) -> None:
        self.workers = workers
        self.trace_out = trace_out
        self.port = _free_port()
        self.state_dir = fresh_dir(f"serve-state-{self.port}")
        self.proc: Optional[subprocess.Popen] = None

    def start(self) -> None:
        from repro.serve.daemon import wait_for_daemon

        cmd = [sys.executable, str(ROOT / "perfbench" / "serve_child.py")]
        if self.trace_out is not None:
            cmd += ["--trace-out", str(self.trace_out)]
        cmd += ["--", "--port", str(self.port), "--state-dir", str(self.state_dir),
                "--workers", str(self.workers), "--job-timeout", str(JOB_TIMEOUT_S)]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        self._log = (self.state_dir / "daemon.log").open("w")
        self.proc = subprocess.Popen(cmd, stdout=self._log, stderr=subprocess.STDOUT,
                                     env=env, cwd=str(ROOT))
        if not wait_for_daemon("127.0.0.1", self.port, timeout=60.0):
            self.stop()
            raise RuntimeError(f"daemon did not come up on port {self.port}")

    def stop(self) -> None:
        from repro.serve import ServeClient

        if self.proc is None:
            return
        try:
            if self.proc.poll() is None:
                with ServeClient(port=self.port, timeout=10.0) as client:
                    client.shutdown()
                self.proc.wait(timeout=30.0)
        except Exception:  # noqa: BLE001 - fall back to a hard stop
            self.proc.kill()
            self.proc.wait(timeout=30.0)
        finally:
            self._log.close()
            self.proc = None
            shutil.rmtree(self.state_dir, ignore_errors=True)


class Tracker(threading.Thread):
    """The polling connection: stamps the instant each job turns terminal."""

    def __init__(self, port: int) -> None:
        super().__init__(name="perfbench-tracker", daemon=True)
        from repro.serve import ServeClient

        self.client = ServeClient(port=port, timeout=30.0)
        self.pending: Dict[str, None] = {}
        self.done: Dict[str, Tuple[float, str]] = {}
        self.lock = threading.Lock()
        self.halt = threading.Event()
        self.error: Optional[BaseException] = None

    def watch(self, job_id: str) -> None:
        with self.lock:
            if job_id not in self.done:
                self.pending[job_id] = None

    def outstanding(self) -> int:
        with self.lock:
            return len(self.pending)

    def run(self) -> None:
        from repro.serve import TERMINAL_STATES

        try:
            while not self.halt.is_set():
                with self.lock:
                    ids = list(self.pending)
                for job_id in ids:
                    state = self.client.status(job_id)["state"]
                    if state in TERMINAL_STATES:
                        now = time.perf_counter()
                        with self.lock:
                            self.pending.pop(job_id, None)
                            self.done[job_id] = (now, state)
                time.sleep(0.002)
        except BaseException as exc:  # noqa: BLE001 - surfaced by wait_all
            self.error = exc
        finally:
            self.client.close()

    def wait_all(self) -> None:
        deadline = time.monotonic() + DRAIN_TIMEOUT_S
        while self.outstanding():
            if self.error is not None:
                raise RuntimeError(f"tracker failed: {self.error}")
            if time.monotonic() > deadline:
                raise RuntimeError(f"{self.outstanding()} job(s) never finished")
            time.sleep(0.002)


def build_phase(seed: int, start: int, count: int, rng: random.Random) -> List[Dict[str, Any]]:
    """``count`` submissions over fresh scenarios, ~30% exact duplicates."""
    n_unique = max(1, count - int(count * DUPLICATE_FRACTION))
    unique = [tiny_scenario(start + i, seed) for i in range(n_unique)]
    subs = list(unique)
    while len(subs) < count:
        subs.append(dict(rng.choice(unique)))
    rng.shuffle(subs)
    return subs


class ServeOpen:
    """The open-loop serve workload."""

    name = "serve_open"

    def __init__(self, seed: int, scale: str = "full") -> None:
        self.seed = seed
        self.scale = scale
        self.tally = Tally()
        self.workers = max(1, min(2, os.cpu_count() or 1))
        self.daemon: Optional[Daemon] = None

    # ------------------------------------------------------------------
    def plan(self, seconds: float) -> None:
        rng = random.Random(self.seed)
        k = BURST_JOBS[self.scale]
        self.bursts = [
            [tiny_scenario(1_000 + b * k + i, self.seed) for i in range(k)]
            for b in range(BURSTS)
        ]
        self.phases = []
        start = 10_000
        for label, rate, share in RATES:
            count = max(4, int(rate * share * seconds))
            self.phases.append((label, rate, build_phase(self.seed, start, count, rng)))
            start += count

    def setup(self, seconds: float) -> None:
        """Plan the load and simulate every distinct job in-process."""
        from repro.api import Scenario, SimulatedBackend

        from perfbench.wl_sim import References

        self.plan(seconds)
        refs = References()
        reference = Tally()
        # Gantt recording changes no counter; skipping it saves time.
        backend = SimulatedBackend(trace=False)
        self.expected: Dict[str, tuple] = {}
        every = [s for b in self.bursts for s in b] + [
            s for _, _, subs in self.phases for s in subs
        ]
        for spec in every:
            scenario = Scenario.from_dict(spec)
            key = scenario.content_hash()
            if key in self.expected:
                continue
            result = backend.run(scenario)
            if not refs.verify(reference, f"reference {key[:12]}", result):
                raise AssertionError(f"reference run failed: {reference.problems}")
            self.expected[key] = fingerprint(result.to_record())

    def launch(self, trace_out: Optional[Path] = None) -> float:
        """Start a daemon and push warm-up jobs through it; returns seconds."""
        from repro.serve import ServeClient

        started = time.perf_counter()
        daemon = Daemon(self.workers, trace_out)
        daemon.start()
        try:
            with ServeClient(port=daemon.port, timeout=30.0) as client:
                acks = [client.submit(tiny_scenario(i, self.seed))
                        for i in range(WARMUP_JOBS)]
                for ack in acks:
                    client.wait(ack["id"], timeout=DRAIN_TIMEOUT_S, poll=0.005)
        except BaseException:
            daemon.stop()
            raise
        self.daemon = daemon
        return time.perf_counter() - started

    def stop(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None

    # ------------------------------------------------------------------
    def _verify(self, client: Any, acks: List[Dict[str, Any]],
                sample: Dict[str, Any], executed: bool) -> None:
        """Every acked submission's record must match its reference."""
        records: Dict[str, Dict[str, Any]] = {}
        for ack in acks:
            job_id = ack["id"]
            if job_id not in records:
                records[job_id] = client.result(job_id)
            frame = records[job_id]
            label = f"job {job_id}"
            record = frame.get("record")
            if frame["state"] != "done" or not record:
                self.tally.check(label, False, f"state {frame['state']}: {frame.get('error')}")
                continue
            got = fingerprint(record)
            if self.tally.take_corruption():
                got = got[:-1] + (got[-1] + 1,)
            want = self.expected.get(record["scenario_hash"])
            self.tally.check(label, got == want, f"counters {got} != reference {want}")
            if executed:
                sample["iterations"] += record["total_iterations"]
                sample["events"] += record["backend_stats"]["events"]
                sample["makespan_us"] += int(round(record["makespan"] * 1e6))

    def burst(self, specs: List[Dict[str, Any]], sample: Dict[str, Any]) -> float:
        """Submit distinct jobs back to back; seconds until the last is done."""
        from repro.serve import ServeClient

        tracker = Tracker(self.daemon.port)
        tracker.start()
        acks = []
        try:
            with ServeClient(port=self.daemon.port, timeout=30.0) as client:
                started = time.perf_counter()
                for spec in specs:
                    ack = client.submit(spec)
                    acks.append(ack)
                    tracker.watch(ack["id"])
                tracker.wait_all()
                drain = max(tracker.done[a["id"]][0] for a in acks) - started
                self._verify(client, acks, sample, executed=True)
        finally:
            tracker.halt.set()
            tracker.join(timeout=10.0)
        sample["jobs"] += len(specs)
        return drain

    def offer(self, rate: float, specs: List[Dict[str, Any]]) -> Dict[str, Any]:
        """Submit ``specs`` at a fixed rate; latency counts from each due time."""
        from repro.serve import ServeClient

        tracker = Tracker(self.daemon.port)
        tracker.start()
        acks, dues, late, rtts = [], [], [], []
        born_done: Dict[int, float] = {}
        try:
            with ServeClient(port=self.daemon.port, timeout=30.0) as client:
                t0 = time.perf_counter() + 0.05
                for i, spec in enumerate(specs):
                    due = t0 + i / rate
                    delay = due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    sent = time.perf_counter()
                    ack = client.submit(spec)
                    now = time.perf_counter()
                    late.append(max(0.0, sent - due))
                    rtts.append(now - sent)
                    dues.append(due)
                    acks.append(ack)
                    if ack.get("cached"):
                        born_done[i] = now
                    else:
                        tracker.watch(ack["id"])
                backlog = tracker.outstanding()
                tracker.wait_all()
                latencies = [
                    (born_done[i] if i in born_done else tracker.done[a["id"]][0]) - due
                    for i, (a, due) in enumerate(zip(acks, dues))
                ]
                self._verify(client, acks, {"iterations": 0, "events": 0,
                                            "makespan_us": 0}, executed=False)
        finally:
            tracker.halt.set()
            tracker.join(timeout=10.0)
        return {"rate": rate, "latencies": latencies, "late": late, "rtts": rtts,
                "backlog": backlog}

    # ------------------------------------------------------------------
    def measure(self, sample: Dict[str, Any], with_rates: bool = True) -> None:
        """Bursts (capacity) then, optionally, the three fixed rates."""
        for specs in self.bursts:
            sample["ref_loop"].append(ref_loop())
            part = {"iterations": 0, "events": 0, "makespan_us": 0, "jobs": 0}
            drain = self.burst(specs, part)
            sample["walls"].append(drain)
            sample["iter_rates"].append(part["iterations"] / drain)
            sample["event_rates"].append(part["events"] / drain)
            sample["job_rates"].append(part["jobs"] / drain)
            for key in part:
                sample[key] += part[key]
        if not with_rates:
            return
        sample["rates"] = {}
        for label, rate, specs in self.phases:
            outcome = self.offer(rate, specs)
            lat = outcome["latencies"]
            p95 = quantile(lat, 0.95)
            outcome.update(
                p50=quantile(lat, 0.5), p95=p95, samples=len(lat),
                passed=p95 <= LATENCY_LIMIT_S and outcome["backlog"] <= 2 * self.workers,
            )
            sample["rates"][label] = outcome
            log(f"serve_open rate {label} {rate:g}/s: {len(lat)} samples, "
                f"p50 {outcome['p50']:.4f}s p95 {p95:.4f}s, backlog "
                f"{outcome['backlog']}, late p95 {quantile(outcome['late'], 0.95):.4f}s, "
                f"{'passes' if outcome['passed'] else 'FAILS'} the "
                f"{LATENCY_LIMIT_S:g}s limit")

    def daemon_stats(self) -> Dict[str, Any]:
        from repro.serve import ServeClient

        with ServeClient(port=self.daemon.port, timeout=30.0) as client:
            return client.stats()


def read_daemon_clock(path: Path) -> Dict[str, Any]:
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
