"""Checks of the benchmark itself: exact counters, clean environment,
and refusal to run without the program.

    python3 -m pytest perfbench -q

The counter checks run traced repetitions of every workload twice, so
this takes a few minutes.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

#: sweep-pool counts that depend on which pool worker draws which cell
SCHEDULING_DEPENDENT = {
    "frontend.interpret_calls",
    "frontend.decode_calls",
    "frontend.index_builds",
    "frontend.columns_builds",
}


def counts(layers):
    return {
        name: value
        for name, value in layers.items()
        if run.PER_LAYER[name] in ("count", "ratio") and name != "executor.utilization"
    }


def traced(workload, seed=0):
    return run.repetition(workload, seed, time.monotonic(), "--trace")


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = counts(traced(workload)["layers"]), counts(traced(workload)["layers"])
    if workload == "sweep-pool":
        for name in SCHEDULING_DEPENDENT:
            first.pop(name)
            second.pop(name)
    assert first == second
    if workload == "paper-serial":
        assert first["multiscalar.runs"] == 100
        assert first["multiscalar.runs_unique"] == 60
    if workload == "sweep-pool":
        assert first["multiscalar.runs"] == first["multiscalar.runs_unique"] == 230


def test_repro_variables_are_stripped(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "batched")
    monkeypatch.setenv("REPRO_SCHEDULER", "cycle")
    rep = run.repetition("static-oracle", 0, time.monotonic(), "--setup-only")
    assert rep["kernel"] == "event"
    assert rep["setup_s"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    command = json.loads((HERE.parent / "BENCHMARK.json").read_text())["command"]
    done = subprocess.run(
        [sys.executable if part == "python3" else part for part in command]
        + ["--workload", "paper-serial", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path),
        capture_output=True,
        timeout=180,
    )
    assert done.returncode != 0
    assert b'"metrics"' not in done.stdout
