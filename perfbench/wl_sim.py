"""Closed-loop simulator workloads: ``sim_tables`` and ``sweep_mega``."""

from __future__ import annotations

import random
import shutil
import time
from typing import Any, Dict, List

import numpy as np

from perfbench.common import Tally, fingerprint, fresh_dir, new_unit

#: Acceptance thresholds of the per-job correctness gate, both relative.
#: Sparse runs are compared with the known solution ``x_true``, scaled by
#: its max norm: asynchronous runs detect convergence on possibly stale
#: neighbour data, so small ones stop up to ~1.5% away from it (larger
#: ones well under 0.1%).  Chemical runs must track the sequential
#: reference solver to 1e-3.  A wrong result misses both by far.
SPARSE_TOL = 0.05
CHEMICAL_TOL = 1e-3

ENVIRONMENTS = ("sync_mpi", "pm2", "mpimad", "omniorb")
#: Seed of the sparse matrices of ``sim_tables``.  ``--seed`` only orders
#: the grid: another matrix would change how many iterations the
#: asynchronous runs take, so runs with different seeds would do
#: different amounts of work.
PROBLEM_SEED = 1

#: Problem sizes per scale.  ``tiny`` is for smoke tests.
SCALES: Dict[str, Dict[str, Any]] = {
    "full": {
        "sparse": {"n": 960, "dominance": 0.5},
        "sparse_speed": 0.001,
        "chemical": {"nx": 8, "nz": 12, "t_end": 360.0},
        "sweep_chemical": {"nx": 12, "nz": 12, "t_end": 720.0,
                           "gmres_tol": 1e-12, "newton_tol": 1e-10},
        "sweep_points": 4,
    },
    "tiny": {
        "sparse": {"n": 240, "dominance": 0.5},
        "sparse_speed": 0.00025,
        "chemical": {"nx": 4, "nz": 8, "t_end": 180.0},
        "sweep_chemical": {"nx": 4, "nz": 8, "t_end": 180.0,
                           "gmres_tol": 1e-12, "newton_tol": 1e-10},
        "sweep_points": 2,
    },
}



def clusters(problem: str, sizes: Dict[str, Any]) -> tuple:
    """(cluster, params) pairs of the grid.

    Sparse host speeds are scaled down so that one local iteration costs
    about as much as a message wave.  On faster hosts mpimad's single
    sending thread lets ranks spin on stale data for ~150k iterations,
    and that one scenario would dominate the grid.
    """
    if problem == "sparse_linear":
        speed = sizes["sparse_speed"]
        return (("local_cluster", {"speed_scale": speed}),
                ("ethernet_wan", {"n_sites": 2, "speed_scale": speed}))
    return (("local_cluster", {}),
            ("ethernet_wan", {"n_sites": 2, "speed_scale": 0.1}))


class Job:
    """One verified simulated scenario of a closed-loop workload."""

    def __init__(self, scenario: Any) -> None:
        self.scenario = scenario
        self.key = scenario.content_hash()


class References:
    """Problem instances and reference solutions, built once per run."""

    def __init__(self) -> None:
        self._problems: Dict[str, Any] = {}
        self._chemical: Dict[str, np.ndarray] = {}

    def problem(self, scenario: Any) -> Any:
        key = (scenario.problem, repr(sorted(scenario.problem_params.items())),
               scenario.seed)
        if key not in self._problems:
            self._problems[key] = scenario.build_problem()
        return self._problems[key]

    def error(self, result: Any, factor: float = 1.0) -> float:
        """Solution error of one finished job against its reference."""
        scenario = result.scenario
        problem = self.problem(scenario)
        if scenario.problem == "sparse_linear":
            scale = float(np.max(np.abs(problem.x_true)))
            return float(problem.solution_error(result.solution() * factor)) / scale
        key = repr(sorted(scenario.problem_params.items()))
        if key not in self._chemical:
            self._chemical[key], _ = problem.solve_sequential()
        reference = self._chemical[key]
        nx = problem.config.nx
        assembled = np.concatenate(
            [result.reports[r].solution.reshape(2, -1, nx) for r in sorted(result.reports)],
            axis=1,
        ) * factor
        return float(np.max(np.abs(assembled - reference) / (np.abs(reference) + 1.0)))

    def verify(self, tally: Tally, label: str, result: Any) -> bool:
        """The per-job correctness gate for an in-process result."""
        if not result.converged:
            return tally.check(label, False, "did not converge")
        factor = 1.5 if tally.take_corruption() else 1.0
        tol = SPARSE_TOL if result.scenario.problem == "sparse_linear" else CHEMICAL_TOL
        err = self.error(result, factor)
        return tally.check(label, err <= tol, f"error {err:.3g} > {tol:g}")


def sim_tables_grid(seed: int, scale: str = "full") -> List[Any]:
    """The Tables 2/3 grid: 2 problems x 4 environments x 2 clusters.

    The seed shuffles the order of the jobs; the jobs themselves are
    the same for every seed.
    """
    from repro.api import Scenario

    sizes = SCALES[scale]
    grid = []
    for problem, n_ranks in (("sparse_linear", 8), ("chemical", 4)):
        for cluster, cluster_params in clusters(problem, sizes):
            for env in ENVIRONMENTS:
                if problem == "sparse_linear":
                    params = dict(sizes["sparse"], seed=PROBLEM_SEED)
                else:
                    params = dict(sizes["chemical"])
                grid.append(Scenario(
                    problem=problem, problem_params=params, environment=env,
                    cluster=cluster, cluster_params=dict(cluster_params),
                    n_ranks=n_ranks, seed=PROBLEM_SEED,
                    name=f"{problem}-{env}-{cluster}",
                ))
    random.Random(seed).shuffle(grid)
    return grid


class SimTables:
    """``sim_tables``: the paper's grid through ``SimulatedBackend.run``."""

    name = "sim_tables"

    def __init__(self, seed: int, scale: str = "full") -> None:
        self.seed = seed
        self.scale = scale
        self.tally = Tally()
        self.refs = References()
        self.jobs: List[Job] = []

    def setup(self) -> None:
        from repro.api import SimulatedBackend

        self.backend = SimulatedBackend()
        self.jobs = [Job(s) for s in sim_tables_grid(self.seed, self.scale)]
        for job in self.jobs:
            self.refs.problem(job.scenario)

    def repeat(self) -> List[Dict[str, Any]]:
        """Run the grid once; one unit per job."""
        units = []
        for job in self.jobs:
            started = time.perf_counter()
            result = self.backend.run(job.scenario)
            record = result.to_record()
            elapsed = time.perf_counter() - started
            units.append(new_unit(
                elapsed, jobs=1, latencies=[elapsed],
                iterations=record["total_iterations"],
                events=record["backend_stats"]["events"],
                makespan_us=int(round(record["makespan"] * 1e6)),
            ))
            if self.refs.verify(self.tally, job.scenario.name, result):
                self.tally.counters(job.key, fingerprint(record))
        return units


def sweep_mega_grid(seed: int, scale: str = "full") -> List[Dict[str, Any]]:
    """Tight chemical grid: rtol points, speed_scale points, duplicates.

    The ``rtol`` half has distinct numerical trajectories, so only
    stacking applies; the ``speed_scale`` half shares one trajectory,
    so content dedup collapses it; the exact duplicates coalesce.  The
    seed picks host speeds and the order, which leave the numerical
    work unchanged, so every seed costs the same.
    """
    sizes = SCALES[scale]
    base = dict(sizes["sweep_chemical"])
    rng = random.Random(seed)
    points = sizes["sweep_points"]
    speed = 0.8 + 0.0125 * rng.randrange(8)
    grid: List[Dict[str, Any]] = []

    def point(params: Dict[str, Any], speed_scale: float) -> Dict[str, Any]:
        return {
            "problem": "chemical", "problem_params": params,
            "environment": "sync_mpi", "n_ranks": 4,
            "cluster": "local_cluster",
            "cluster_params": {"speed_scale": speed_scale, "n_hosts": 4},
            "seed": seed,
        }

    for i in range(points):
        grid.append(point(dict(base, rtol=base.get("rtol", 1e-5) * (1.01 + 0.01 * i)), speed))
    for i in range(points):
        grid.append(point(dict(base), speed + 0.0125 * (i + 1)))
    grid.append(dict(grid[0]))
    grid.append(dict(grid[-2]))
    rng.shuffle(grid)
    return grid


class SweepMega:
    """``sweep_mega``: ``run_sweep(placement="mega")`` with fresh state."""

    name = "sweep_mega"

    def __init__(self, seed: int, scale: str = "full") -> None:
        self.seed = seed
        self.scale = scale
        self.tally = Tally()
        self.refs = References()

    def setup(self) -> None:
        """Run every distinct point once in-process: the counter reference."""
        from repro.api import Scenario, SimulatedBackend

        self.grid = sweep_mega_grid(self.seed, self.scale)
        self.expected: Dict[str, tuple] = {}
        backend = SimulatedBackend(trace=False)
        reference = Tally()
        for spec in self.grid:
            scenario = Scenario.from_dict(spec)
            key = scenario.content_hash()
            if key in self.expected:
                continue
            result = backend.run(scenario)
            if not self.refs.verify(reference, f"reference {key[:12]}", result):
                raise AssertionError(f"reference run failed: {reference.problems}")
            self.expected[key] = fingerprint(result.to_record(), with_events=False)

    def repeat(self) -> List[Dict[str, Any]]:
        """One sweep on a fresh state dir: a single unit."""
        from repro.sweep import run_sweep

        state_dir = fresh_dir("sweep-state")
        settled: List[float] = []
        started = time.perf_counter()

        def progress(_event: Dict[str, Any]) -> None:
            settled.append(time.perf_counter() - started)

        try:
            outcome = run_sweep(self.grid, placement="mega", state_dir=state_dir,
                                progress=progress)
            wall = time.perf_counter() - started
        finally:
            shutil.rmtree(state_dir, ignore_errors=True)
        # Every grid point waits for its unit's settlement; coalesced
        # duplicates settle with their twin.
        latencies = settled + [settled[-1] if settled else 0.0] * (
            len(self.grid) - len(settled))
        sweep = new_unit(wall, jobs=len(self.grid), latencies=latencies)
        for record in outcome.records:
            label = f"point {record.get('index')}"
            if "error" in record:
                self.tally.check(label, False, record["error"])
                continue
            sweep["iterations"] += record["total_iterations"]
            sweep["events"] += record["backend_stats"]["events"]
            sweep["makespan_us"] += int(round(record["makespan"] * 1e6))
            got = fingerprint(record, with_events=False)
            if self.tally.take_corruption():
                got = got[:-1] + (got[-1] + 1,)
            want = self.expected.get(record["scenario_hash"])
            if self.tally.check(label, record["converged"] and got == want,
                                f"counters {got} != reference {want}"):
                self.tally.counters(record["scenario_hash"], fingerprint(record))
        return [sweep]
