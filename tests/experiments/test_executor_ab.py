"""Determinism A/B contract: direct runner == inline == pool == warm-cache.

Extends the telemetry A/B pattern to the executor: running cells
inline, fanning them out to worker processes, or serving them from the
content-addressed cache must not change one bit of any experiment's
JSON payload.  The one sanctioned difference is the wall-clock
``profile`` (inherently nondeterministic), which every comparison
clears — while every executor path must still carry one.  The
references are computed without the executor: the experiment runners
called directly, and a plain ``MultiscalarSimulator`` loop for sweeps.

Representative experiments: ``table1`` (one experiment cell over all
three suites), ``table3`` (oracle window analysis), and ``table6``
(built from ten Multiscalar simulation cells, so the simulation-cell
path and its table builder are under test).
"""

import json
from dataclasses import replace

from repro.experiments import ALL_EXPERIMENTS, run_all
from repro.experiments.sweeps import SweepPoint, sweep
from repro.multiscalar import MultiscalarConfig, MultiscalarSimulator, make_policy
from repro.workloads import get_workload

EXPERIMENTS = ("table1", "table3", "table6")
SCALE = "tiny"

_serial_reference = None


def canonical(table) -> str:
    payload = table.to_json()
    payload["profile"] = {}
    return json.dumps(payload, sort_keys=True)


def serial_reference():
    """Plain in-process runs, computed once per test session."""
    global _serial_reference
    if _serial_reference is None:
        _serial_reference = {
            key: canonical(ALL_EXPERIMENTS[key](SCALE)) for key in EXPERIMENTS
        }
    return _serial_reference


def assert_profiled(tables):
    """Every executor-made table says where its wall time went."""
    for key in EXPERIMENTS:
        profile = tables[key].profile
        assert profile["experiment:%s" % key]["seconds"] >= 0
    # table1 is one experiment cell: one runner call
    assert tables["table1"].profile["experiment:table1"]["calls"] == 1
    # table6 is built from its ten simulation cells' profiles
    assert tables["table6"].profile["simulate"]["calls"] == 10
    assert tables["table6"].profile["experiment:table6"]["calls"] == 1


def test_parallel_four_jobs_is_bit_identical_to_serial():
    tables, report = run_all(parallel=4, scale=SCALE, experiments=EXPERIMENTS)
    assert not report.failed
    assert report.jobs == 4
    assert {k: canonical(tables[k]) for k in EXPERIMENTS} == serial_reference()
    assert_profiled(tables)


def test_executor_inline_is_bit_identical_to_serial():
    tables, report = run_all(parallel=1, scale=SCALE, experiments=EXPERIMENTS)
    assert not report.failed
    assert {k: canonical(tables[k]) for k in EXPERIMENTS} == serial_reference()
    assert_profiled(tables)


def test_warm_cache_is_bit_identical_to_serial(tmp_path):
    cache = tmp_path / "cache"
    cold_tables, cold = run_all(
        parallel=2, scale=SCALE, experiments=EXPERIMENTS, cache_dir=cache
    )
    assert not cold.failed
    assert cold.counters()["cells_cached"] == 0
    warm_tables, warm = run_all(
        parallel=2, scale=SCALE, experiments=EXPERIMENTS, cache_dir=cache
    )
    assert not warm.failed
    assert warm.counters()["cells_run"] == 0
    assert warm.counters()["cells_cached"] == cold.counters()["cells_run"]
    reference = serial_reference()
    assert {k: canonical(cold_tables[k]) for k in EXPERIMENTS} == reference
    assert {k: canonical(warm_tables[k]) for k in EXPERIMENTS} == reference
    # a cache hit returns the profile measured when the cell was computed
    assert [r.profile for r in warm.results] == [r.profile for r in cold.results]
    assert [r.profile for r in warm.results if r.cell.kind == "sweep"]
    # table6 is rebuilt from its cached cells on every run: only its
    # assemble time and the experiment:table6 roll-up are measured anew
    rebuilt = ("assemble", "experiment:table6")

    def cached_part(tables):
        return {
            k: {
                name: agg for name, agg in tables[k].profile.items()
                if k != "table6" or name not in rebuilt
            }
            for k in EXPERIMENTS
        }

    assert cached_part(warm_tables) == cached_part(cold_tables)
    assert_profiled(warm_tables)


def test_sweep_parallel_is_bit_identical_to_serial():
    workloads = ("sc", "xlisp")
    policies = ("always", "esync")
    stages = (2, 4)
    reference = []
    for name in workloads:
        trace = get_workload(name).trace(SCALE)
        for n in stages:
            config = replace(MultiscalarConfig(), stages=n)
            for policy in policies:
                stats = MultiscalarSimulator(trace, config, make_policy(policy)).run()
                reference.append(
                    SweepPoint(
                        workload=name,
                        policy=policy,
                        overrides=(("stages", n),),
                        cycles=stats.cycles,
                        ipc=stats.ipc,
                        mis_speculations=stats.mis_speculations,
                    )
                )
    grid = dict(policies=policies, overrides={"stages": stages}, scale=SCALE)
    inline = sweep(workloads, **grid)
    parallel = sweep(workloads, jobs=4, **grid)
    assert not inline.failed and not parallel.failed
    assert inline.points == reference
    assert parallel.points == reference
