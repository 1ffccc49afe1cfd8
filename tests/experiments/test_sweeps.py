"""Tests for the parameter-sweep utilities."""

import pytest

from repro.experiments import sweep
from repro.multiscalar import MultiscalarConfig, MultiscalarSimulator, make_policy
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def small_sweep():
    return sweep(
        ["micro-recurrence-d1"],
        policies=("always", "psync"),
        overrides={"stages": (2, 4), "squash_penalty": (2, 8)},
    )


def test_sweep_covers_full_cross_product(small_sweep):
    # 1 workload x 2 policies x 2 stages x 2 penalties
    assert len(small_sweep.points) == 8


def test_select_by_policy_and_override(small_sweep):
    always4 = small_sweep.select(policy="always", stages=4)
    assert len(always4) == 2
    assert all(p.policy == "always" for p in always4)
    assert all(p.override("stages") == 4 for p in always4)


def test_best_finds_minimum_cycles(small_sweep):
    best = small_sweep.best(policy="always")
    all_always = small_sweep.select(policy="always")
    assert best.cycles == min(p.cycles for p in all_always)


def test_best_raises_on_empty_selection(small_sweep):
    with pytest.raises(KeyError):
        small_sweep.best(policy="nonexistent")


def test_squash_penalty_only_affects_speculative_policies(small_sweep):
    """PSYNC never squashes, so its cycles are penalty-invariant."""
    for stages in (2, 4):
        cycles = {
            p.override("squash_penalty"): p.cycles
            for p in small_sweep.select(policy="psync", stages=stages)
        }
        assert cycles[2] == cycles[8]


def test_higher_penalty_never_helps_blind_speculation(small_sweep):
    for stages in (2, 4):
        cycles = {
            p.override("squash_penalty"): p.cycles
            for p in small_sweep.select(policy="always", stages=stages)
        }
        assert cycles[8] >= cycles[2]


def test_to_table_renders(small_sweep):
    table = small_sweep.to_table("demo sweep")
    assert len(table.rows) == 8
    text = table.to_text()
    assert "stages" in text
    assert "squash_penalty" in text


def test_sweep_overrides_configure_every_field():
    """Single-value overrides stand in for a custom base config: the
    point matches a direct simulation of that configuration."""
    result = sweep(
        ["micro-independent"],
        policies=("always",),
        overrides={"stages": (2,), "rs_window": (8,)},
        scale="tiny",
    )
    (point,) = result.points
    assert point.override("stages") == 2
    assert point.override("rs_window") == 8
    trace = get_workload("micro-independent").trace("tiny")
    config = MultiscalarConfig(stages=2, rs_window=8)
    direct = MultiscalarSimulator(trace, config, make_policy("always")).run()
    assert (point.cycles, point.mis_speculations) == (
        direct.cycles,
        direct.mis_speculations,
    )
