"""Smoke tests of the benchmark at tiny scale.

They check that the emitted metric names and units match BENCHMARK.json,
that the traced run attributes its time to the inner layers, that a
corrupted result lowers ``ok_frac``, and that the benchmark refuses to
report anything when the program is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.common import END_TO_END, PER_LAYER
from perfbench.run import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=170,
    )


def _result(workload: str, trace: int, *extra: str, seed: int = 5,
            seconds: float = 0.1) -> dict:
    proc = _run("--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(trace), "--scale", "tiny", *extra)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_the_workloads():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    setup = next(e for e in spec["end_to_end"] if e["name"] == "setup_s")
    assert setup["bound"] == max(e["bound"] for e in spec["end_to_end"])


def test_end_to_end_run_emits_every_metric_with_its_unit():
    result = _result("sim_tables", 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 16
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == END_TO_END
    assert metrics["ok_frac"]["value"] == 1.0
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", ["sim_tables", "sweep_mega"])
def test_traced_run_attributes_the_wall_time_to_layers(workload):
    metrics = {k: v["value"] for k, v in _result(workload, 1)["metrics"].items()}
    assert set(metrics) == set(PER_LAYER)
    # The inner layers, without the enclosing backend and sweep calls,
    # must account for the traced wall time to within 10%.
    assert 0.9 <= metrics["obs.layer_coverage"] <= 1.05
    assert metrics["obs.layer_coverage"] + metrics["obs.catch_all_share"] <= 1.05
    assert metrics["problems.iterate_calls"] > 0
    assert metrics["simgrid.engine.events"] > 0
    if workload == "sweep_mega":
        assert metrics["simgrid.batch.stacked_calls"] > 0
        assert 0 < metrics["simgrid.batch.dedup_ratio"] < 1
    else:
        assert metrics["linalg.matvec_calls"] > 0


def test_traced_run_refuses_a_target_that_does_not_resolve():
    from perfbench.layers import LayerClock

    clock = LayerClock()
    with pytest.raises(LookupError):
        clock.install([("problems.iterate", "repro.problems.chemical",
                        "ChemicalLocal.no_such_method", None)])


def test_per_layer_counts_do_not_depend_on_the_repeat_count():
    # The seed only orders the sim_tables grid, and counts are per
    # repeat, so a longer run with another seed reports the same counts.
    first, second = (
        {k: v["value"] for k, v in _result("sim_tables", 1, seed=seed,
                                          seconds=seconds)["metrics"].items()}
        for seed, seconds in ((5, 0.1), (6, 1.5))
    )
    for name in ("simgrid.engine.events", "simgrid.comm.messages",
                 "problems.iterate_calls", "core.makespan_us"):
        assert first[name] == second[name], name


@pytest.mark.parametrize("workload", ["sim_tables", "sweep_mega"])
def test_corrupted_result_lowers_ok_frac(workload):
    result = _result(workload, 0, "--corrupt", "2")
    assert result["correct"] is False
    assert result["failed"] == 2
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "sim_tables", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
