"""``real_runtime``: threads and processes on a compute-bound sparse run."""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List

from perfbench.common import Tally, log, new_unit
from perfbench.wl_sim import References

SCALES: Dict[str, Dict[str, Any]] = {
    "full": {"n": 20_000, "n_diagonals": 60, "dominance": 0.85},
    "tiny": {"n": 2_000, "n_diagonals": 10, "dominance": 0.85},
}

#: About 50x the slowest healthy run on a 2-CPU VM (~0.3 s), so a
#: deadline never decides a verdict.  It also bounds the exit stall
#: described below.
RUN_TIMEOUT_S = 15.0
#: A ``ProcessBackend.run`` call that returns this much later than the
#: run's own elapsed time stalled on exit: roughly once per hundred runs a
#: rank process is still blocked reading its inbox pipe after every rank
#: reported (likely a half-written >64 KiB block message from a peer that
#: already exited), and the parent waits for the deadline before reaping
#: it.  Stalls are counted and reported, not hidden.
EXIT_STALL_S = 1.0


def runtime_jobs(seed: int, scale: str = "full") -> List[Any]:
    """(backend name, scenario) pairs: SISC and AIAC on threads and processes."""
    from repro.api import Scenario

    n_ranks = max(1, min(2, os.cpu_count() or 1))
    jobs = []
    for backend in ("threaded", "process"):
        for env in ("sync_mpi", "pm2"):
            scenario = Scenario(
                problem="sparse_linear",
                problem_params=dict(SCALES[scale], seed=seed),
                environment=env, n_ranks=n_ranks, seed=seed,
                name=f"{backend}-{env}",
            )
            jobs.append((backend, scenario))
    return jobs


class RealRuntime:
    """Closed loop over the four (backend, environment) runs."""

    name = "real_runtime"

    def __init__(self, seed: int, scale: str = "full") -> None:
        self.seed = seed
        self.scale = scale
        self.tally = Tally()
        self.refs = References()

    def setup(self) -> None:
        from repro.api import ProcessBackend, ThreadedBackend

        self.backends = {
            "threaded": ThreadedBackend(timeout=RUN_TIMEOUT_S),
            "process": ProcessBackend(timeout=RUN_TIMEOUT_S),
        }
        self.jobs = runtime_jobs(self.seed, self.scale)
        for _backend, scenario in self.jobs:
            self.refs.problem(scenario)

    def repeat(self) -> List[Dict[str, Any]]:
        """Run the four jobs once; one unit per job."""
        units = []
        for backend, scenario in self.jobs:
            started = time.perf_counter()
            result = self.backends[backend].run(scenario)
            elapsed = time.perf_counter() - started
            stalled = elapsed - result.elapsed > EXIT_STALL_S
            if stalled:
                log(f"{scenario.name}: call took {elapsed:.2f}s for a "
                    f"{result.elapsed:.2f}s run (exit stall)")
            computing = sum(p.busy_time for p in result.per_rank.values())
            units.append(new_unit(
                elapsed, jobs=1, latencies=[elapsed],
                iterations=result.total_iterations,
                posts=int(result.backend_stats.get("messages_sent", 0)),
                rank_wait_s=scenario.n_ranks * result.makespan - computing,
                exit_stalls=int(stalled),
            ))
            self.refs.verify(self.tally, scenario.name, result)
        return units
