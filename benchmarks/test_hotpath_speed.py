"""Hot-path speed: trace cache + columnar index + batched kernel.

Legs over figure 5's exact cell grid (the SPECint92 suite x stage
counts x NEVER/ALWAYS/WAIT/PSYNC), asserted cycle-identical:

* **legacy** — the pre-hot-path shape recreated in-tree: every
  workload is re-interpreted with ``run_program``, every simulator
  rebuilds its own static index, and the per-cycle reference scan
  (``kernel="cycle"``) drives issue.
* **cold** — first run on a fresh machine: empty trace cache (memory
  and disk), default kernel, shared per-trace index.  Pays one
  interpretation + serialization per workload.
* **warm** — every later run: traces deserialized from the on-disk
  cache, default kernel, shared index.
* **kernel A/B** — the columnar batched kernel
  (``repro.multiscalar.batched``, the default) against the per-cycle
  reference scan, both over fully-hot state: traces and the shared
  index are already decoded in memory, so the ratio compares issue
  loops, not deserialization.  Three legs: the stateless grid above
  (``batched_speedup``) and the paper's mechanism policies SYNC
  (``sync_speedup``) and ESYNC (``esync_speedup``) on the same
  workload x stage grid.  Each reference pass runs before its batched
  pass.

The in-tree legacy leg *understates* what the seed actually cost:
the seed's scan also chased ``TraceEntry`` attribute chains and
rebuilt its pending lists every cycle, code that no longer exists.
``hotpath_baseline.json`` therefore carries ``seed_factor`` — the
measured ratio between ``repro experiment figure5 --jobs 1`` at the
seed commit and this file's legacy leg, taken on the same machine —
and the headline speedups are reported against the seed-equivalent
time ``legacy_seconds * seed_factor``.  Wall-clock ratios between two
pure-Python single-thread runs transfer across machines far better
than absolute seconds do, which is what makes the frozen factor a
sound reference.

The floors (warm >= 3x seed, cold >= 1.5x seed, every kernel leg >=
1.3x the reference scan) are acceptance bars; the committed baseline
also turns them into a regression gate — a change may not lose more
than ``tolerance`` against the recorded speedups.
"""

import json
import time
from pathlib import Path

from repro.frontend import run_program
from repro.frontend import trace_cache as tc
from repro.frontend.trace_cache import TraceCache, clear_memory_cache
from repro.multiscalar import MultiscalarConfig, MultiscalarSimulator, make_policy
from repro.workloads import get_workload, suite

#: Figure 5's cell grid: the speedup must hold on the real experiment,
#: not on a flattering subset.
WORKLOADS = tuple(w.name for w in suite("specint92"))
STAGE_COUNTS = (4, 8)
POLICIES = ("never", "always", "wait", "psync")
SCALE = "test"

#: Kernel A/B legs: leg name -> policies timed on the figure-5 grid.
KERNEL_LEGS = (
    ("batched", POLICIES),
    ("sync", ("sync",)),
    ("esync", ("esync",)),
)

BASELINE_PATH = Path(__file__).resolve().parent / "hotpath_baseline.json"


def _simulate(trace, share_index, kernel=None, policies=POLICIES):
    """Total cycles over the stage x policy grid; ``kernel=None`` runs
    the default kernel."""
    total_cycles = 0
    for stages in STAGE_COUNTS:
        config_kwargs = {"stages": stages}
        if kernel is not None:
            config_kwargs["kernel"] = kernel
        for policy_name in policies:
            sim = MultiscalarSimulator(
                trace,
                MultiscalarConfig(**config_kwargs),
                make_policy(policy_name),
                share_index=share_index,
            )
            total_cycles += sim.run().cycles
    return total_cycles


def _leg_legacy():
    """Fresh interpretation, per-simulator index, per-cycle scan."""
    total = 0
    for name in WORKLOADS:
        trace = run_program(get_workload(name).program(scale=SCALE))
        total += _simulate(trace, share_index=False, kernel="cycle")
    return total


def _leg_cached(cache_root, kernel=None, policies=POLICIES):
    """Trace cache + shared columnar index on the given kernel."""
    cache = TraceCache(cache_root)
    total = 0
    for name in WORKLOADS:
        trace = cache.get_or_run(get_workload(name).program(scale=SCALE))
        total += _simulate(trace, share_index=True, kernel=kernel, policies=policies)
    return total


def test_hotpath_speedups(benchmark, bench_record, tmp_path):
    saved_memory = dict(tc._MEMORY)
    timings = {}
    cycles = {}

    def run_legs():
        start = time.perf_counter()
        cycles["legacy"] = _leg_legacy()
        timings["legacy"] = time.perf_counter() - start

        clear_memory_cache()
        start = time.perf_counter()
        cycles["cold"] = _leg_cached(tmp_path / "traces")
        timings["cold"] = time.perf_counter() - start

        clear_memory_cache()  # drop memory, keep the warm disk layer
        start = time.perf_counter()
        cycles["warm"] = _leg_cached(tmp_path / "traces")
        timings["warm"] = time.perf_counter() - start

        # kernel A/B over fully-hot state: the memory cache and shared
        # index survive from the warm leg, so every pass below times
        # the issue loop alone, nothing else
        for leg, policies in KERNEL_LEGS:
            for kernel in ("cycle", "batched"):
                start = time.perf_counter()
                cycles[(leg, kernel)] = _leg_cached(
                    tmp_path / "traces", kernel=kernel, policies=policies
                )
                timings[(leg, kernel)] = time.perf_counter() - start
        return timings

    try:
        benchmark.pedantic(run_legs, rounds=1, iterations=1)
    finally:
        tc._MEMORY.clear()
        tc._MEMORY.update(saved_memory)

    # the optimized paths must be invisible in the simulated numbers
    assert (
        cycles["legacy"]
        == cycles["cold"]
        == cycles["warm"]
        == cycles[("batched", "cycle")]
        == cycles[("batched", "batched")]
    )
    for leg, _ in KERNEL_LEGS:
        assert cycles[(leg, "cycle")] == cycles[(leg, "batched")], leg

    baseline = json.loads(BASELINE_PATH.read_text())
    tolerance = baseline["tolerance"]
    seed_factor = baseline["seed_factor"]

    seed_equivalent = timings["legacy"] * seed_factor
    speedups = {
        "warm": seed_equivalent / timings["warm"],
        "cold": seed_equivalent / timings["cold"],
    }
    floors = {
        "warm": max(3.0, baseline["warm_speedup"] / tolerance),
        "cold": max(1.5, baseline["cold_speedup"] / tolerance),
    }
    for leg, _ in KERNEL_LEGS:
        speedups[leg] = timings[(leg, "cycle")] / timings[(leg, "batched")]
        floors[leg] = max(1.3, baseline["%s_speedup" % leg] / tolerance)

    hotpath = {
        "legacy_seconds": round(timings["legacy"], 3),
        "seed_equivalent_seconds": round(seed_equivalent, 3),
        "cold_seconds": round(timings["cold"], 3),
        "warm_seconds": round(timings["warm"], 3),
        "total_cycles": cycles["legacy"],
    }
    for leg, _ in KERNEL_LEGS:
        for kernel in ("cycle", "batched"):
            hotpath["%s_%s_seconds" % (leg, kernel)] = round(timings[(leg, kernel)], 3)
    for leg in speedups:
        hotpath["%s_speedup" % leg] = round(speedups[leg], 2)
        hotpath["%s_floor" % leg] = round(floors[leg], 2)
    bench_record(
        sum(timings.values()),
        cached=False,
        hotpath=hotpath,
    )
    print()
    print(
        "hot path: legacy %.2fs (seed-equivalent %.2fs), "
        "cold %.2fs (%.2fx), warm %.2fs (%.2fx)"
        % (
            timings["legacy"],
            seed_equivalent,
            timings["cold"],
            speedups["cold"],
            timings["warm"],
            speedups["warm"],
        )
    )
    for leg, _ in KERNEL_LEGS:
        print(
            "kernel A/B %s: hot cycle %.2fs vs batched %.2fs (%.2fx)"
            % (leg, timings[(leg, "cycle")], timings[(leg, "batched")], speedups[leg])
        )

    for leg in speedups:
        assert speedups[leg] >= floors[leg], "%s leg regressed: %.2fx < %.2fx floor" % (
            leg,
            speedups[leg],
            floors[leg],
        )
