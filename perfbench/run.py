"""The repository benchmark: one workload per call, one JSON line out.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sim_tables --seed 1 --seconds 20 --trace 0

``--trace 0`` measures and prints the end-to-end metrics; ``--trace 1``
measures half the time untraced and half with the layer clock installed
and prints the per-layer metrics.  Progress goes to stderr; the last
line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.common import (  # noqa: E402
    PER_LAYER,
    SRC,
    WORK,
    log,
    median,
    new_unit,
    peak_rss_mb,
    quantile,
    ref_loop,
    repeat_for,
    result_line,
)

WORKLOADS = ("sim_tables", "sweep_mega", "serve_open", "real_runtime")
#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 5
SETUP_TIMEOUT_S = 120.0


def make_workload(name: str, seed: int, scale: str) -> Any:
    if name == "sim_tables":
        from perfbench.wl_sim import SimTables

        return SimTables(seed, scale)
    if name == "sweep_mega":
        from perfbench.wl_sim import SweepMega

        return SweepMega(seed, scale)
    if name == "real_runtime":
        from perfbench.wl_runtime import RealRuntime

        return RealRuntime(seed, scale)
    from perfbench.wl_serve import ServeOpen

    return ServeOpen(seed, scale)


def new_sample() -> Dict[str, Any]:
    """Accumulator of the serve workload's bursts."""
    return {"latencies": [], "walls": [], "iterations": 0, "events": 0,
            "makespan_us": 0, "jobs": 0, "posts": 0, "rank_wait_s": 0.0,
            "exit_stalls": 0,
            "iter_rates": [], "event_rates": [], "job_rates": [], "ref_loop": []}


def probe_setup(name: str, seed: int, scale: str) -> float:
    """Median wall time of cold set-ups in fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), name,
             str(seed), scale],
            check=True, cwd=str(ROOT), timeout=SETUP_TIMEOUT_S,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - started)
    return median(times)


# ----------------------------------------------------------------------
# closed-loop workloads
# ----------------------------------------------------------------------
def closed_loop(workload: Any, seconds: float) -> Tuple[List[List[Dict[str, Any]]], List[float]]:
    """Repeat the workload's fixed work for ``seconds``.

    Returns the units of every repeat (each repeat yields the same units
    in the same order) and the reference-loop time taken before each.
    """
    repeats: List[List[Dict[str, Any]]] = []
    ref_times: List[float] = []

    def once() -> None:
        ref_times.append(ref_loop())
        repeats.append(workload.repeat())

    repeat_for(seconds, once, min_repeats=3 if workload.scale == "full" else 1)
    return repeats, ref_times


def best_units(repeats: List[List[Dict[str, Any]]]) -> List[Dict[str, Any]]:
    """Each unit's fastest run over the repeats.

    The speed of a shared host swings by up to 2x, in phases of seconds
    to tens of seconds, because of other load on the machine.  A unit
    does the same work on every repeat, so its fastest run is the one
    least disturbed; a change in the code's own cost moves every run,
    the fastest too.
    """
    return [min(runs, key=lambda unit: unit["wall"]) for runs in zip(*repeats)]


def pooled(units: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum the counters and walls of several units; join their latencies."""
    total = new_unit()
    for unit in units:
        for key in total:
            total[key] = total[key] + unit[key]
    return total


def prepare(workload: Any) -> None:
    """Set up, then run the fixed work once untimed so lazy set-up and
    first-call costs stay out of the measured repeats (its jobs are
    still checked)."""
    workload.setup()
    workload.repeat()


def closed_end_to_end(workload: Any, args: argparse.Namespace) -> Dict[str, float]:
    prepare(workload)
    repeats, ref_times = closed_loop(workload, args.seconds)
    setup_s = probe_setup(workload.name, args.seed, args.scale)
    best = pooled(best_units(repeats))
    lat = best["latencies"]
    p95 = quantile(lat, 0.95)
    stalls = sum(unit["exit_stalls"] for units in repeats for unit in units)
    log(f"{workload.name}: {len(repeats)} repeats of {len(repeats[0])} unit(s); "
        f"p50/p95 over {len(lat)} best job times, slowest {max(lat):.3f}s; "
        f"{stalls} exit stall(s); host ref loop median {median(ref_times):.4f}s")
    return {
        "wall_s": best["wall"],
        "iters_per_s": best["iterations"] / best["wall"],
        "latency_p50_s": quantile(lat, 0.5),
        "latency_p95_s": p95,
        # A closed loop always offers its saturating load.
        "latency_p95_s.hi": p95,
        "capacity_jobs_per_s": best["jobs"] / best["wall"],
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": workload.tally.ok_frac,
    }


def closed_per_layer(workload: Any, args: argparse.Namespace) -> Dict[str, float]:
    from perfbench.layers import CATCH_ALL, IN_PROCESS, LayerClock

    prepare(workload)
    plain, plain_ref = closed_loop(workload, args.seconds / 2)
    clock = LayerClock()
    clock.install(IN_PROCESS)
    try:
        traced, traced_ref = closed_loop(workload, args.seconds / 2)
    finally:
        clock.uninstall()
    snap = clock.snapshot()
    total = pooled([unit for units in traced for unit in units])
    catch_all = sum(t for layer, t in snap["self_s"].items() if layer in CATCH_ALL)
    best_plain, best_traced = pooled(best_units(plain)), pooled(best_units(traced))
    metrics = layer_metrics(snap, total, len(traced))
    metrics.update({
        "sim_events_per_s": best_plain["events"] / best_plain["wall"],
        "obs.trace_overhead": best_traced["wall"] / best_plain["wall"] - 1.0,
        "obs.layer_coverage": (clock.total_self_s() - catch_all) / total["wall"],
        "obs.catch_all_share": catch_all / total["wall"],
        "host.ref_loop_s": median(plain_ref + traced_ref),
    })
    return metrics


def layer_metrics(snap: Dict[str, Any], sample: Dict[str, Any],
                  repeats: int) -> Dict[str, float]:
    """Per-layer figures per repeat, from a clock snapshot and its sample.

    Times and counts are totals over ``repeats`` repeats of the same
    work, divided by ``repeats``: a simulated workload's counts are then
    the same on every run, however many repeats fit in the time.
    """
    self_s, calls, extra, sample = (
        {k: v / repeats for k, v in table.items() if isinstance(v, (int, float))}
        for table in (snap["self_s"], snap["calls"], snap["extra"], sample)
    )
    events = sample["events"]
    engine_s = self_s.get("simgrid.engine", 0.0)
    batch_calls = calls.get("simgrid.batch", 0)
    members = extra.get("simgrid.batch.pending_members", 0.0)
    # The serve layers live in the daemon child; serve_per_layer fills them.
    metrics = {n: 0.0 for n in PER_LAYER if n.startswith(("serve.", "loadgen."))}
    metrics.update({
        "problems.iterate_s": self_s.get("problems.iterate", 0.0)
        + self_s.get("problems.newton", 0.0),
        "problems.iterate_calls": calls.get("problems.iterate", 0),
        "linalg.matvec_s": self_s.get("linalg.matvec", 0.0),
        "linalg.matvec_calls": calls.get("linalg.matvec", 0),
        "linalg.matvec_bytes": extra.get("linalg.matvec_bytes", 0.0),
        "simgrid.engine.events": events,
        "simgrid.engine.self_s": engine_s,
        "simgrid.engine.s_per_event": engine_s / events if events else 0.0,
        "simgrid.comm.messages": calls.get("simgrid.comm", 0),
        "simgrid.comm.bytes": extra.get("simgrid.comm.bytes", 0.0),
        "simgrid.comm.send_s": self_s.get("simgrid.comm", 0.0),
        "core.convergence.updates": calls.get("core.convergence", 0),
        "core.convergence.update_s": self_s.get("core.convergence", 0.0),
        "core.makespan_us": sample["makespan_us"],
        "simgrid.batch.stacked_s": self_s.get("simgrid.batch", 0.0),
        "simgrid.batch.stacked_calls": batch_calls,
        "simgrid.batch.width_mean": (
            extra.get("simgrid.batch.members", 0.0) / batch_calls if batch_calls else 0.0
        ),
        "simgrid.batch.dedup_ratio": (
            extra.get("simgrid.batch.distinct_solves", 0.0) / members if members else 0.0
        ),
        "api.run_s": self_s.get("api.run", 0.0),
        "api.build_s": self_s.get("api.build", 0.0),
        "api.record_s": self_s.get("api.record", 0.0),
        "sweep.state.record_s": self_s.get("sweep.state.record", 0.0),
        "sweep.cache.put_s": self_s.get("sweep.cache.put", 0.0),
        "sweep.overhead_s": self_s.get("sweep.overhead", 0.0),
        "runtime.channels.posts": sample["posts"],
        "runtime.channels.receive_wait_s": self_s.get("runtime.channels.receive", 0.0),
        "runtime.wait_s": sample["rank_wait_s"],
        "runtime.exit_stalls": sample["exit_stalls"],
    })
    return metrics


# ----------------------------------------------------------------------
# serve_open
# ----------------------------------------------------------------------
def serve_end_to_end(workload: Any, args: argparse.Namespace) -> Dict[str, float]:
    workload.setup(args.seconds)
    launches = []
    for i in range(SETUP_PROBES):
        launches.append(workload.launch())
        if i < SETUP_PROBES - 1:
            workload.stop()
    sample = new_sample()
    workload.measure(sample)
    workload.stop()
    rates = sample["rates"]
    log(f"serve_open: bursts drained in {[round(w, 3) for w in sample['walls']]}s")
    return {
        "wall_s": median(sample["walls"]),
        "iters_per_s": median(sample["iter_rates"]),
        "latency_p50_s": rates["mid"]["p50"],
        "latency_p95_s": rates["mid"]["p95"],
        "latency_p95_s.hi": rates["hi"]["p95"],
        "capacity_jobs_per_s": median(sample["job_rates"]),
        "setup_s": median(launches),
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": workload.tally.ok_frac,
    }


def serve_per_layer(workload: Any, args: argparse.Namespace) -> Dict[str, float]:
    from perfbench.common import fresh_dir
    from perfbench.wl_serve import read_daemon_clock

    workload.setup(args.seconds)
    plain = new_sample()
    workload.launch()
    workload.measure(plain, with_rates=False)
    workload.stop()
    trace_path = fresh_dir("serve-trace") / "daemon-clock.json"
    traced = new_sample()
    workload.launch(trace_out=trace_path)
    started = time.perf_counter()
    workload.measure(traced)
    window = time.perf_counter() - started
    stats = workload.daemon_stats()
    workload.stop()
    snap = read_daemon_clock(trace_path)
    shutil.rmtree(trace_path.parent, ignore_errors=True)
    self_s, calls = snap.get("self_s", {}), snap.get("calls", {})
    extra, samples = snap.get("extra", {}), snap.get("samples", {})
    counters = stats.get("counters", {})
    runs = samples.get("serve.workers.run_s", [])
    rates = traced["rates"]
    metrics = layer_metrics({"self_s": {}, "calls": {}, "extra": {}}, traced,
                            len(traced["walls"]))
    metrics.update({
        "sim_events_per_s": median(plain["event_rates"]),
        "serve.queue.wait_p50_s": quantile(samples.get("serve.queue.wait_s", []), 0.5),
        "serve.queue.wait_p95_s": quantile(samples.get("serve.queue.wait_s", []), 0.95),
        "serve.queue.depth_max": extra.get("serve.queue.depth_max", 0.0),
        "serve.workers.dispatch_s": self_s.get("serve.workers.dispatch", 0.0),
        "serve.workers.run_p50_s": quantile(runs, 0.5),
        "serve.workers.utilization": sum(runs) / (workload.workers * window),
        "serve.cache.get_s": self_s.get("serve.cache.get", 0.0),
        "serve.cache.put_s": self_s.get("serve.cache.put", 0.0),
        "serve.cache.hit_ratio": (
            counters.get("cache_hits", 0) / counters["submitted"]
            if counters.get("submitted") else 0.0
        ),
        "serve.journal.append_s": self_s.get("serve.journal.append", 0.0),
        "serve.journal.appends": calls.get("serve.journal.append", 0),
        "serve.protocol.submit_rtt_p50_s": quantile(
            [r for o in rates.values() for r in o["rtts"]], 0.5),
        "loadgen.late_p95_s": quantile([x for o in rates.values() for x in o["late"]], 0.95),
        "obs.trace_overhead": median(traced["walls"]) / median(plain["walls"]) - 1.0,
        # The daemon's layers run in another process; nothing in this
        # one is attributed.
        "obs.layer_coverage": 0.0,
        "obs.catch_all_share": 0.0,
        "host.ref_loop_s": median(plain["ref_loop"] + traced["ref_loop"]),
    })
    return metrics


# ----------------------------------------------------------------------
def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="problem sizes; 'tiny' is for smoke tests")
    parser.add_argument("--corrupt", type=int, default=0,
                        help="corrupt this many results before checking them "
                        "(tests the correctness gate)")
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program is missing ({SRC / 'repro'} not found); "
              "run from a full checkout", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    workload = make_workload(args.workload, args.seed, args.scale)
    workload.tally.corrupt = args.corrupt
    serve = args.workload == "serve_open"
    try:
        if args.trace:
            metrics = (serve_per_layer if serve else closed_per_layer)(workload, args)
        else:
            metrics = (serve_end_to_end if serve else closed_end_to_end)(workload, args)
    except Exception:  # noqa: BLE001 - any failure means no result line
        traceback.print_exc()
        return 1
    finally:
        if serve:
            workload.stop()
    for problem in workload.tally.problems:
        log(f"check failed: {problem}")
    print(result_line(workload.tally, metrics, bool(args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
