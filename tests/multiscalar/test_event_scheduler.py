"""Event-driven batched kernel vs the exhaustive per-cycle scan.

The batched kernel's event scheduling (parking denied entries on wake
conditions, skipping provably no-op scans) is a pure performance
optimization: for every (workload, config, policy) cell it must produce
*exactly* the cycle count and statistics of the per-cycle reference
scan.  These tests pin that equivalence over the micro-benchmark
kernels — chosen because
they exercise mis-speculation, squash, synchronization, and
multi-producer dataflow, the paths where a missed wake-up would show
up as a divergent cycle count.
"""

import pytest

from repro.frontend import run_program
from repro.multiscalar import MultiscalarConfig, MultiscalarSimulator
from repro.multiscalar.policies import POLICY_ALIASES, POLICY_FACTORIES, make_policy
from repro.telemetry import make_telemetry
from repro.workloads import get_workload

ALL_POLICIES = tuple(POLICY_FACTORIES) + tuple(POLICY_ALIASES)

#: Micro kernels with distinct dependence signatures (violations,
#: pointer chasing, multiple producers, late store addresses).
KERNELS = (
    "micro-recurrence-d2",
    "micro-pointer-chase",
    "micro-multi-producer",
    "micro-late-address",
)


def run_both(trace, policy_name, **config_kwargs):
    """One cell on both kernels; return (batched, cycle) stats."""
    results = []
    for kernel in ("batched", "cycle"):
        config = MultiscalarConfig(kernel=kernel, **config_kwargs)
        sim = MultiscalarSimulator(trace, config, make_policy(policy_name))
        results.append(sim.run())
    return results


def summaries_equal(batched_stats, cycle_stats):
    return batched_stats.summary() == cycle_stats.summary()


@pytest.mark.parametrize("policy", ALL_POLICIES)
@pytest.mark.parametrize("kernel", KERNELS)
def test_every_policy_matches_cycle_scheduler(kernel, policy):
    trace = get_workload(kernel).trace(scale="tiny")
    batched, cycle = run_both(trace, policy, stages=4)
    assert summaries_equal(batched, cycle), (
        "%s/%s diverged: %r vs %r" % (kernel, policy, batched.summary(), cycle.summary())
    )


@pytest.mark.parametrize("policy", ("never", "always", "sync", "storeset"))
def test_wider_window_matches(policy):
    trace = get_workload("micro-recurrence-d1").trace(scale="tiny")
    batched, cycle = run_both(trace, policy, stages=8, fetch_width=4)
    assert summaries_equal(batched, cycle)


@pytest.mark.parametrize(
    "register_speculation", ("conservative", "always", "predict")
)
def test_non_oracle_register_modes_match(register_speculation):
    # non-oracle register speculation runs the per-cycle scan under
    # either kernel setting
    trace = get_workload("micro-conditional-reg").trace(scale="tiny")
    batched, cycle = run_both(
        trace, "sync", stages=4, register_speculation=register_speculation
    )
    assert summaries_equal(batched, cycle)


def test_icache_model_matches():
    trace = get_workload("micro-independent").trace(scale="tiny")
    batched, cycle = run_both(trace, "esync", stages=4, model_icache=True)
    assert summaries_equal(batched, cycle)


def test_telemetry_observes_identical_cycles():
    trace = get_workload("micro-recurrence-d2").trace(scale="tiny")
    stats = {}
    telemetry_objects = {}
    for kernel in ("batched", "cycle"):
        telemetry = make_telemetry()
        sim = MultiscalarSimulator(
            trace,
            MultiscalarConfig(stages=4, kernel=kernel),
            make_policy("sync"),
            telemetry=telemetry,
        )
        stats[kernel] = sim.run()
        telemetry_objects[kernel] = telemetry
    assert stats["batched"].summary() == stats["cycle"].summary()


def test_shared_index_and_private_index_agree():
    trace = get_workload("micro-multi-producer").trace(scale="tiny")
    config = MultiscalarConfig(stages=4, kernel="batched")
    shared = MultiscalarSimulator(
        trace, config, make_policy("esync"), share_index=True
    ).run()
    private = MultiscalarSimulator(
        trace, config, make_policy("esync"), share_index=False
    ).run()
    assert shared.summary() == private.summary()


def test_scheduler_config_is_validated(monkeypatch):
    """The removed scheduler knob is refused, not silently ignored."""
    with pytest.raises(TypeError):
        MultiscalarConfig(scheduler="event")
    with pytest.raises(ValueError, match="valid kernels: batched, cycle"):
        MultiscalarConfig(kernel="event")
    with pytest.raises(ValueError, match="valid kernels"):
        MultiscalarConfig(kernel="quantum")
    monkeypatch.setenv("REPRO_SCHEDULER", "cycle")
    with pytest.raises(ValueError, match="REPRO_SCHEDULER"):
        MultiscalarConfig()


def test_kernel_default_reads_env(monkeypatch):
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    assert MultiscalarConfig().kernel == "batched"
    monkeypatch.setenv("REPRO_KERNEL", "cycle")
    assert MultiscalarConfig().kernel == "cycle"
    monkeypatch.setenv("REPRO_KERNEL", "batched")
    assert MultiscalarConfig().kernel == "batched"


def test_simulator_reruns_are_deterministic():
    trace = get_workload("micro-path-dependent").trace(scale="tiny")
    config = MultiscalarConfig(stages=4, kernel="batched")
    first = MultiscalarSimulator(trace, config, make_policy("storeset")).run()
    second = MultiscalarSimulator(trace, config, make_policy("storeset")).run()
    assert first.summary() == second.summary()
