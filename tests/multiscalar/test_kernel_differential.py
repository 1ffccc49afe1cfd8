"""Differential A/B harness: the per-cycle reference scan vs batched.

The batched columnar kernel (:mod:`repro.multiscalar.batched`) is the
default and a rewrite of the simulator's hottest code; this harness is
its acceptance gate.  Every cell — randomized programs x all registered
policies x {cycle, batched} — must produce *bit-identical*
``SpeculationStats`` summaries AND bit-identical squash ledgers (every
violation's structured cause, including the policy's predictor-state
explanation, in order).  Checking the ledger catches a whole class of
bugs the end-of-run stats can mask: two kernels can reach the same
cycle count through differently-ordered violations.  Telemetry-on runs
must also agree on the whole metrics snapshot and trace-event stream.

``REGRESSION_CASES`` pins (seed, config, policy) triples aimed at the
trickiest port corners; any cell that ever diverges gets added there so
the exact failure stays in the suite forever.
"""

import pytest

from repro.multiscalar import MultiscalarConfig, MultiscalarSimulator
from repro.multiscalar.explain import SquashLedger
from repro.multiscalar.policies import (
    POLICY_ALIASES,
    POLICY_FACTORIES,
    AlwaysPolicy,
    make_policy,
)
from repro.multiscalar.processor import MultiscalarSimulator as _Sim
from repro.telemetry import make_telemetry
from repro.workloads import get_workload
from repro.workloads.random_gen import RandomProgramConfig, generate_trace

ALL_POLICIES = tuple(POLICY_FACTORIES) + tuple(POLICY_ALIASES)

KERNELS = ("cycle", "batched")

#: Dense cross-task dependences: a small shared region makes most loads
#: hit a recent store from another task, stressing violations, squash,
#: and synchronization on every policy.
DENSE = dict(tasks=24, shared_words=4, loads_per_task=3, stores_per_task=2)

#: (name, seed, generator overrides, config overrides, policy) cells
#: pinned against the trickiest port corners.  The harness runs them
#: first — they are the cheapest early warning.
REGRESSION_CASES = (
    # mid-scan squash: VSYNC's on_store_issued squashes while the issue
    # scan is iterating the pre-squash unissued list
    ("vsync-midscan", 7, dict(DENSE), dict(stages=4), "vsync"),
    # WAIT's commit-wake hint plus a park that fails with registrations
    # already made (the no-rollback corner of parking)
    ("wait-commit-wake", 11, dict(DENSE, tasks=40), dict(stages=8), "wait"),
    # compaction threshold: tasks long enough for the 64-entry dead
    # prefix compaction to trigger under a narrow window
    ("compaction", 3, dict(DENSE, body_ops=24, tasks=12), dict(rs_window=8), "never"),
    # sequencer mispredictions gate dispatch; the batched kernel uses
    # the precomputed correct/mispredict stream
    ("mispredict-stream", 5, dict(DENSE, branch_probability=0.8), dict(stages=8), "sync"),
)


def _trace(seed, **overrides):
    return generate_trace(RandomProgramConfig(seed=seed, **overrides))


def run_kernel(trace, kernel, policy_name, **config_kwargs):
    """One (trace, policy, config) cell on one kernel."""
    config = MultiscalarConfig(kernel=kernel, **config_kwargs)
    ledger = SquashLedger()
    sim = MultiscalarSimulator(
        trace, config, make_policy(policy_name), squash_ledger=ledger
    )
    stats = sim.run()
    return stats.summary(), ledger.causes


def assert_kernels_identical(trace, policy_name, **config_kwargs):
    base_summary, base_causes = run_kernel(trace, "cycle", policy_name, **config_kwargs)
    for kernel in KERNELS[1:]:
        summary, causes = run_kernel(trace, kernel, policy_name, **config_kwargs)
        assert summary == base_summary, "%s/%s stats diverged from cycle:\n%r\nvs\n%r" % (
            kernel,
            policy_name,
            summary,
            base_summary,
        )
        assert causes == base_causes, "%s/%s squash ledger diverged from cycle" % (
            kernel,
            policy_name,
        )
    return base_summary


@pytest.mark.parametrize("case", REGRESSION_CASES, ids=lambda c: c[0])
def test_pinned_regressions(case):
    _name, seed, gen_overrides, config_overrides, policy = case
    trace = _trace(seed, **gen_overrides)
    assert_kernels_identical(trace, policy, **config_overrides)


@pytest.mark.parametrize("policy", ALL_POLICIES)
@pytest.mark.parametrize("seed", (7, 11))  # both seeds produce real violations
def test_every_policy_random_program(policy, seed):
    trace = _trace(seed, **DENSE)
    summary = assert_kernels_identical(trace, policy, stages=4)
    assert summary["tasks_committed"] == trace.count_tasks()


@pytest.mark.parametrize("policy", ("never", "always", "wait", "psync", "sync"))
def test_config_matrix(policy):
    """Shape variations: wide machine, narrow window, modeled i-cache."""
    trace = _trace(4, **DENSE)
    assert_kernels_identical(trace, policy, stages=8, fetch_width=4)
    assert_kernels_identical(trace, policy, stages=4, rs_window=8)
    assert_kernels_identical(trace, policy, stages=4, model_icache=True)


@pytest.mark.parametrize(
    "kernel",
    (
        "micro-recurrence-d2",
        "micro-pointer-chase",
        "micro-multi-producer",
        "micro-late-address",
    ),
)
def test_micro_kernels(kernel):
    """The micro-kernel A/B cells across both kernels."""
    trace = get_workload(kernel).trace(scale="tiny")
    for policy in ("never", "always", "wait", "psync", "sync", "esync", "storeset"):
        assert_kernels_identical(trace, policy, stages=4)


MICRO_KERNELS = (
    "micro-recurrence-d2",
    "micro-pointer-chase",
    "micro-multi-producer",
    "micro-late-address",
)


def run_observed(trace, kernel, policy_name):
    """One telemetry-on cell: (stats summary, metrics snapshot, trace events)."""
    telemetry = make_telemetry()
    sim = MultiscalarSimulator(
        trace,
        MultiscalarConfig(kernel=kernel, stages=4),
        make_policy(policy_name),
        telemetry=telemetry,
    )
    summary = sim.run().summary()
    return summary, telemetry.metrics.to_dict(), telemetry.trace.events


@pytest.mark.parametrize("policy", ALL_POLICIES)
@pytest.mark.parametrize("workload", MICRO_KERNELS)
def test_telemetry_identical_across_kernels(workload, policy):
    """Metrics (load denials and grants, wait-cycle histogram, squash
    depth, MDPT/MDST counters) and every trace event — task spans, load
    stall spans, violation and squash instants — match the reference."""
    trace = get_workload(workload).trace(scale="tiny")
    summary, metrics, events = run_observed(trace, "batched", policy)
    ref_summary, ref_metrics, ref_events = run_observed(trace, "cycle", policy)
    assert summary == ref_summary
    assert metrics == ref_metrics
    assert events == ref_events
    assert any(e.get("cat") == "task" for e in events)


def test_non_oracle_falls_back_to_object_path(monkeypatch):
    """Speculative register models run the per-cycle scan under either
    kernel setting — same results, no crash."""
    trace = _trace(9, **DENSE)
    scans = []
    original = _Sim._issue_phase

    def counting(self, now, latencies):
        scans.append(now)
        return original(self, now, latencies)

    monkeypatch.setattr(_Sim, "_issue_phase", counting)
    config = MultiscalarConfig(kernel="batched", register_speculation="predict")
    got = MultiscalarSimulator(trace, config, AlwaysPolicy()).run().summary()
    assert scans

    ref_config = MultiscalarConfig(kernel="cycle", register_speculation="predict")
    ref = MultiscalarSimulator(trace, ref_config, AlwaysPolicy()).run().summary()
    assert got == ref


def test_telemetry_runs_on_batched_kernel(monkeypatch):
    """Turning telemetry on does not change the code under test: the
    default kernel never enters the per-cycle scan."""

    def refuse(self, now, latencies):
        raise AssertionError("telemetry run fell back to the per-cycle scan")

    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    trace = _trace(9, **DENSE)
    plain = MultiscalarSimulator(trace, MultiscalarConfig(kernel="cycle"), make_policy("sync"))
    expected = plain.run().summary()
    monkeypatch.setattr(_Sim, "_issue_phase", refuse)
    telemetry = make_telemetry()
    sim = MultiscalarSimulator(trace, MultiscalarConfig(), make_policy("sync"), telemetry=telemetry)
    assert sim.config.kernel == "batched"
    assert sim.run().summary() == expected
    assert telemetry.metrics.to_dict()["counters"]


def test_simulation_does_not_import_numpy():
    """No simulation path pulls NumPy in (it costs every pool worker
    ~14 MiB of resident memory)."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    code = (
        "import sys\n"
        "from repro.multiscalar import MultiscalarConfig, MultiscalarSimulator\n"
        "from repro.multiscalar.policies import make_policy\n"
        "from repro.workloads import get_workload\n"
        "trace = get_workload('micro-recurrence-d2').trace(scale='tiny')\n"
        "for kernel in ('batched', 'cycle'):\n"
        "    MultiscalarSimulator(trace, MultiscalarConfig(kernel=kernel),"
        " make_policy('esync')).run()\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
