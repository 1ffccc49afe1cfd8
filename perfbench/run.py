"""Benchmark entry point for the repro simulator.

    python3 perfbench/run.py --workload paper-serial --seed 1 --seconds 24 --trace 0

Runs repetitions of one workload, each in a fresh process (``rep.py``),
starting a new one while less than ``--seconds`` have passed, plus
set-up-only repetitions until there are ``SETUP_SAMPLES`` set-up times.
It prints a readable summary and, as its last line, one JSON object:
with ``--trace 0`` the end-to-end metrics as medians over the
repetitions, with ``--trace 1`` the per-layer metrics of one traced
repetition (after one untraced repetition that sets the tracing
overhead).  Every ``REPRO_*`` variable is removed from the environment
of the repetitions, so the defaults users get are what is measured.
The workloads and the metrics with their units come from
``BENCHMARK.json``; see README.md for what they mean.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
#: metric name -> unit
END_TO_END = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
SETUP_SAMPLES = 15
#: a run must finish within 180 s; no repetition may run past this
RUN_LIMIT_S = 170.0


class RepetitionError(Exception):
    pass


def clean_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def repetition(workload, seed, started, *flags) -> dict:
    work = WORK / ("%d-%d" % (os.getpid(), time.monotonic_ns()))
    remaining = RUN_LIMIT_S - (time.monotonic() - started)
    command = [
        sys.executable,
        str(HERE / "rep.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--work", str(work),
        "--spawned", repr(time.monotonic()),
        *flags,
    ]
    # its own process group, so a stuck repetition is stopped together
    # with its pool workers
    process = subprocess.Popen(
        command, env=clean_env(), cwd=str(ROOT), stdout=subprocess.PIPE, preexec_fn=os.setpgrp
    )
    try:
        stdout, _ = process.communicate(timeout=max(1.0, remaining))
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if process.returncode != 0:
        raise RepetitionError("repetition exited with code %d" % process.returncode)
    return json.loads(stdout.decode().strip().splitlines()[-1])


def rep_seed(seed, index) -> int:
    """Each repetition of a run gets its own order, so a run's medians
    average over several orders of the same work."""
    return seed * 1000 + index


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def measure(workload, seed, seconds, started):
    """Full repetitions while time is left, then set-up-only ones."""
    reps = []
    while not reps or time.monotonic() - started < seconds:
        reps.append(repetition(workload, rep_seed(seed, len(reps)), started))
    setups = [rep["setup_s"] for rep in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(
            repetition(workload, rep_seed(seed, len(setups)), started, "--setup-only")["setup_s"]
        )
    samples = {name: [rep[name] for rep in reps] for name in END_TO_END}
    samples["setup_s"] = setups
    return reps, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("no program to measure: %s is missing" % (ROOT / "src" / "repro"), file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    try:
        if args.trace:
            untraced = repetition(args.workload, rep_seed(args.seed, 0), started)
            traced = repetition(args.workload, rep_seed(args.seed, 0), started, "--trace")
            reps = [untraced, traced]
        else:
            reps, samples = measure(args.workload, args.seed, args.seconds, started)
    except subprocess.TimeoutExpired:
        print("benchmark failed: a repetition passed the %.0f s limit" % RUN_LIMIT_S, file=sys.stderr)
        return 1
    except RepetitionError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1

    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    print(
        "# %s seed=%d kernel=%s python=%s nproc=%d"
        % (
            args.workload,
            args.seed,
            reps[0]["kernel"],
            platform.python_version(),
            len(os.sched_getaffinity(0)),
        )
    )
    print("error_rate  %.6f  (%d failed of %d attempted)" % (failed / attempted, failed, attempted))
    metrics = {}
    if args.trace:
        layers = dict(traced["layers"])
        layers["bench.trace_overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        if set(layers) != set(PER_LAYER):
            print(
                "benchmark failed: the traced metrics differ from BENCHMARK.json's: %s"
                % sorted(set(layers) ^ set(PER_LAYER)),
                file=sys.stderr,
            )
            return 1
        for name, value in layers.items():
            unit = PER_LAYER[name]
            shown = "%d" % value if isinstance(value, int) else "%.6f" % value
            print("%-32s %16s %s" % (name, shown, unit))
            metrics[name] = {"value": value, "unit": unit}
        print("# spans: %s" % traced["trace_file"])
    else:
        for name, unit in END_TO_END.items():
            values = samples[name]
            q1, q3 = quartiles(values)
            value = statistics.median(values)
            print(
                "%-12s median %.4f %s  q1 %.4f  q3 %.4f  n=%d"
                % (name, value, unit, q1, q3, len(values))
            )
            metrics[name] = {"value": value, "unit": unit}
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
