"""One repetition of a benchmark workload, in a fresh process.

``run.py`` starts this script once per repetition, so every repetition
pays process start, imports and set-up, and starts with empty
in-process caches.  It prints one JSON object on its last line::

    python3 perfbench/rep.py --workload paper-serial --seed 1 \\
        --work .perfbench-work/x --spawned <time.monotonic() at spawn> \\
        [--setup-only] [--trace] [--record]

``--setup-only`` stops before the timed phase; ``--trace`` wraps every
layer (see ``tracer.py``) and adds per-layer metrics; ``--record``
first writes the outputs' digests to ``reference.json`` (run it only on
a commit whose outputs are known good).

The program is driven only through ``repro.experiments.run_all`` and
``repro.experiments.sweep`` with their defaults: no kernel, scheduler or
executor knob is set here.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

SUITES = ("specint92", "specint95", "specfp95")
PAPER_SERIAL = ("figure5", "figure6", "table9")
STATIC_ORACLE = (
    "table1",
    "table3",
    "table4",
    "table5",
    "staticdep",
    "staticdep-symbolic",
    "spectaint",
)
SWEEP_POLICIES = ("never", "always", "sync", "esync", "psync")
SWEEP_STAGES = (4, 8)


def digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def cpu_seconds() -> float:
    """CPU time of this process and of its reaped children (pool workers)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


def setup(workload, seed, results):
    """Build the workload's inputs and put caches in its stated state.

    The seed only permutes the order of experiments or sweep cells.
    """
    rng = random.Random(seed)
    if workload == "sweep-pool":
        from repro.workloads import suite

        names = [w.name for name in SUITES for w in suite(name)]
        return {
            "workloads": shuffled(rng, names),
            "policies": shuffled(rng, SWEEP_POLICIES),
            "stages": shuffled(rng, SWEEP_STAGES),
        }
    if workload == "paper-serial":
        from repro.frontend import configure_trace_cache
        from repro.frontend.trace_cache import clear_memory_cache
        from repro.workloads import suite

        # interpret SPECint92 into the disk trace cache the executor
        # uses beside its result cache, then forget the decoded traces
        configure_trace_cache(results / "traces")
        for w in suite("specint92"):
            w.trace("test")
        clear_memory_cache()
        return {"experiments": shuffled(rng, PAPER_SERIAL)}
    return {"experiments": shuffled(rng, STATIC_ORACLE)}


def timed_phase(workload, state, results):
    """Run the workload; return (its result, cells run, cells failed)."""
    from repro.experiments import run_all, sweep

    if workload == "sweep-pool":
        result = sweep(
            state["workloads"],
            policies=state["policies"],
            overrides={"stages": state["stages"]},
            scale="tiny",
            jobs=len(os.sched_getaffinity(0)),
            cache_dir=str(results),
        )
        return result, len(result.report.results), len(result.report.failed)
    tables, report = run_all(
        parallel=1,
        scale="test",
        experiments=state["experiments"],
        cache_dir=str(results),
    )
    return tables, len(report.results), len(report.failed)


def output_digests(workload, result) -> dict:
    """Order-independent digests of the outputs: one per table (its
    JSON with the wall-clock profile cleared), one for the sweep's
    point set."""
    if workload == "sweep-pool":
        points = sorted(
            json.dumps(dataclasses.asdict(p), sort_keys=True) for p in result.points
        )
        return {"points": digest(points)}
    digests = {}
    for key, table in result.items():
        payload = table.to_json()
        payload["profile"] = {}
        digests[key] = digest(payload)
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import repro.experiments  # noqa: F401  (the public API under test)
    from repro.multiscalar.config import active_kernel

    tracer = None
    if args.trace:
        from tracer import Tracer

        spans = args.work / "spans"
        spans.mkdir(parents=True)
        tracer = Tracer("%s-seed%d" % (args.workload, args.seed), spans)
        tracer.install()

    results = args.work / "results"
    state = setup(args.workload, args.seed, results)
    start = time.monotonic()
    out = {"setup_s": start - args.spawned, "kernel": active_kernel()}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    before = cpu_seconds()
    wall_start = time.perf_counter()
    result, cells, failed_cells = timed_phase(args.workload, state, results)
    wall_s = time.perf_counter() - wall_start
    cpu_s = cpu_seconds() - before
    # the pool has shut down, so every worker has written its spans
    states = [tracer.state()] + tracer.worker_states() if tracer is not None else []
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    largest_worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    digests = output_digests(args.workload, result)
    if args.record:
        reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        reference[args.workload] = digests
        REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    expected = json.loads(REFERENCE.read_text())[args.workload]
    mismatches = sorted(
        name for name in set(expected) | set(digests) if expected.get(name) != digests.get(name)
    )
    for name in mismatches:
        print("output %s differs from its reference digest" % name, file=sys.stderr)

    out.update(
        {
            "wall_s": wall_s,
            "cpu_s": cpu_s,
            # the largest peak of any single process: this one or a
            # reaped pool worker
            "peak_rss_mb": max(own, largest_worker) / 1024.0,
            "attempted": cells + len(expected),
            "failed": failed_cells + len(mismatches),
        }
    )
    if tracer is not None:
        from tracer import layer_metrics

        out["layers"] = layer_metrics(states)
        spans = [span for state in states for span in state["spans"]]
        trace_file = args.work.parent / ("trace-%s-seed%d.json" % (args.workload, args.seed))
        trace_file.write_text(
            json.dumps({"run_id": tracer.run_id, "spans": spans, "layers": out["layers"]})
        )
        out["trace_file"] = str(trace_file)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
