"""One cold set-up of a closed-loop workload, in a fresh interpreter.

Usage::

    python perfbench/setup_probe.py WORKLOAD SEED SCALE

Imports the library, builds every problem the workload runs and pushes
one warm-up job through the workload's entry point.  The caller times
the whole process; ``run.py`` reports the median of several probes as
``setup_s``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))


def main(workload: str, seed: int, scale: str) -> int:
    from repro.api import Scenario, SimulatedBackend, ThreadedBackend

    if workload == "sim_tables":
        from perfbench.wl_sim import sim_tables_grid

        grid = sim_tables_grid(seed, scale)
        for scenario in grid:
            scenario.build_problem()
        SimulatedBackend().run(min(grid, key=lambda s: (s.problem, s.environment)))
    elif workload == "sweep_mega":
        from repro.sweep import run_sweep

        from perfbench.wl_sim import sweep_mega_grid

        Scenario.from_dict(sweep_mega_grid(seed, scale)[0]).build_problem()
        run_sweep(sweep_mega_grid(seed, "tiny")[:1], placement="mega")
    elif workload == "real_runtime":
        from perfbench.wl_runtime import runtime_jobs

        for _backend, scenario in runtime_jobs(seed, scale):
            scenario.build_problem()
        _backend, warm = runtime_jobs(seed, "tiny")[0]
        ThreadedBackend(timeout=60.0).run(warm)
    else:
        raise SystemExit(f"no set-up probe for {workload!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2]), sys.argv[3]))
