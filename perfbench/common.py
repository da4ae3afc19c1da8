"""Shared plumbing: metric names, checks, timing helpers, result line."""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Mapping

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Working space for state dirs, caches and daemon logs (git-ignored).
WORK = ROOT / ".perfbench-work"


def _metric_table(kind: str) -> Dict[str, str]:
    """name -> unit of one metric list of ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {entry["name"]: entry["unit"] for entry in spec[kind]}


#: End-to-end metrics (``--trace 0``) and per-layer metrics (``--trace 1``).
END_TO_END: Dict[str, str] = _metric_table("end_to_end")
PER_LAYER: Dict[str, str] = _metric_table("per_layer")


def log(message: str) -> None:
    """Progress lines go to stderr; stdout ends with the result line."""
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def quantile(values: Iterable[float], q: float) -> float:
    """Linear-interpolation quantile (``q`` in [0, 1]); 0.0 when empty."""
    data = sorted(values)
    if not data:
        return 0.0
    pos = q * (len(data) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values: Iterable[float]) -> float:
    data = list(values)
    return statistics.median(data) if data else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def ref_loop() -> float:
    """Time a fixed pure-Python plus numpy loop (host drift diagnostic)."""
    import numpy as np

    started = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc += (i * i) % 7
    a = np.arange(40_000, dtype=float)
    for _ in range(40):
        a = np.sqrt(a * a + 1.0)
    elapsed = time.perf_counter() - started
    if acc < 0 or not np.isfinite(a).all():  # keeps the work observable
        raise AssertionError("reference loop produced garbage")
    return elapsed


def fingerprint(record: Mapping[str, Any], with_events: bool = True) -> tuple:
    """The exact counters of one simulated job, makespan in integer µs."""
    stats = record.get("backend_stats") or {}
    counters = (
        int(record["total_iterations"]),
        int(stats.get("messages_sent", 0)),
        int(stats.get("bytes_sent", 0)),
        int(round(float(record["makespan"]) * 1e6)),
    )
    return ((int(stats.get("events", 0)),) + counters) if with_events else counters


class Tally:
    """Per-job verification and the exact-counter gate of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.verified = 0
        self.problems: List[str] = []
        self.fingerprints: Dict[str, tuple] = {}
        self.counter_mismatch = False
        #: Corrupt the next N results before checking (smoke tests only).
        self.corrupt = 0

    def check(self, label: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if ok:
            self.verified += 1
        elif len(self.problems) < 20:
            self.problems.append(f"{label}: {detail}")
        return ok

    def take_corruption(self) -> bool:
        if self.corrupt > 0:
            self.corrupt -= 1
            return True
        return False

    def counters(self, key: str, fp: tuple) -> bool:
        """Record a job's counters; a repeat that differs fails the run."""
        first = self.fingerprints.setdefault(key, fp)
        if first != fp:
            self.counter_mismatch = True
            if len(self.problems) < 20:
                self.problems.append(f"counters changed for {key}: {first} -> {fp}")
            return False
        return True

    @property
    def ok_frac(self) -> float:
        return self.verified / self.attempted if self.attempted else 0.0

    @property
    def correct(self) -> bool:
        return (
            self.attempted > 0
            and self.verified == self.attempted
            and not self.counter_mismatch
        )


def repeat_for(seconds: float, once: Callable[[], None], min_repeats: int = 3) -> None:
    """Run ``once`` until ``seconds`` have passed (at least ``min_repeats``)."""
    started = time.perf_counter()
    count = 0
    while count < min_repeats or time.perf_counter() - started < seconds:
        once()
        count += 1


def new_unit(wall: float = 0.0, **counts: Any) -> Dict[str, Any]:
    """One timed unit of a closed-loop repeat (a job, or a whole sweep)."""
    unit: Dict[str, Any] = {
        "wall": wall, "jobs": 0, "iterations": 0, "events": 0, "makespan_us": 0,
        "posts": 0, "rank_wait_s": 0.0, "exit_stalls": 0, "latencies": [],
    }
    unit.update(counts)
    return unit


def result_line(tally: Tally, metrics: Mapping[str, float], trace: bool) -> str:
    names = PER_LAYER if trace else END_TO_END
    missing = sorted(set(names) - set(metrics))
    if missing:
        raise AssertionError(f"metrics not produced: {missing}")
    payload = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.attempted - tally.verified,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in names.items()
        },
    }
    return json.dumps(payload)


def fresh_dir(name: str) -> Path:
    """A new empty directory under the work dir (removed first if present)."""
    path = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
