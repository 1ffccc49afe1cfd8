"""Every trace once, and a cheaper ``TraceIndex``, on the static experiments.

The claim under test: ``run_all`` of Tables 1 and 3-5, ``staticdep``,
``staticdep-symbolic`` and ``spectaint`` interprets each program once
(35 distinct programs) and builds one index per trace (17 traces), with
cold in-memory trace memos.  Spies on ``interpreter.run_program`` and
``TraceIndex.__init__`` count the work, a deterministic counter beside
the wall time; the tables equal the direct runner calls (profile
cleared).  The eager index build over the SPECint92 traces is timed
against the plain per-entry reference build of
``tests/frontend/test_static_index.py``, in interleaved rounds.

The record lands in BENCH_results.json under ``"trace_dedup"`` and is
gated by ``repro bench-report`` (interpret calls == distinct programs,
index builds == distinct traces, tables must match).
"""

import gc
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

import pytest
from conftest import BENCH_SCALE

from repro.experiments import ALL_EXPERIMENTS, run_all, tables
from repro.frontend import interpreter, trace_cache
from repro.frontend.static_index import TraceIndex
from repro.frontend.trace_cache import TraceCache, program_fingerprint
from repro.workloads import suite

EXPERIMENTS = (
    "table1",
    "table3",
    "table4",
    "table5",
    "staticdep",
    "staticdep-symbolic",
    "spectaint",
)
ROUNDS = 5
_REFERENCE = Path(__file__).resolve().parent.parent / "tests/frontend/test_static_index.py"


def reference_build():
    spec = importlib.util.spec_from_file_location("static_index_reference", _REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.reference


def canonical(table) -> str:
    payload = table.to_json()
    payload["profile"] = {}
    return json.dumps(payload, sort_keys=True)


def replace_everywhere(monkeypatch, original, wrapper):
    """Point every ``repro`` module's reference to *original* at *wrapper*."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, wrapper)


def build_seconds(build, traces) -> float:
    gc.collect()
    start = time.perf_counter()
    for trace in traces:
        build(trace)
    return time.perf_counter() - start


def test_trace_dedup(benchmark, bench_record, monkeypatch):
    monkeypatch.setattr(trace_cache, "_MEMORY", {})
    monkeypatch.setattr(trace_cache, "_GLOBAL", TraceCache(None))
    monkeypatch.setattr(tables, "_trace_cache", {})
    fingerprints = []
    indexed = []
    run_program = interpreter.run_program
    build_index = TraceIndex.__init__

    def counted_run(program, max_instructions=5_000_000):
        fingerprints.append(program_fingerprint(program, max_instructions))
        return run_program(program, max_instructions=max_instructions)

    def counted_index(self, trace):
        indexed.append(trace)
        build_index(self, trace)

    with pytest.MonkeyPatch.context() as spies:
        replace_everywhere(spies, run_program, counted_run)
        spies.setattr(TraceIndex, "__init__", counted_index)
        start = time.perf_counter()
        result, report = benchmark.pedantic(
            run_all,
            kwargs=dict(parallel=1, scale=BENCH_SCALE, experiments=EXPERIMENTS),
            rounds=1,
            iterations=1,
        )
        seconds = time.perf_counter() - start

    assert not report.failed
    calls, programs = len(fingerprints), len(set(fingerprints))
    builds, traces = len(indexed), len({id(trace) for trace in indexed})
    tables_match = all(
        canonical(result[key]) == canonical(ALL_EXPERIMENTS[key](BENCH_SCALE))
        for key in EXPERIMENTS
    )

    reference = reference_build()
    specint = [workload.trace(BENCH_SCALE) for workload in suite("specint92")]
    new_s, ref_s = [], []
    for _ in range(ROUNDS):
        new_s.append(build_seconds(TraceIndex, specint))
        ref_s.append(build_seconds(reference, specint))
    index_s = statistics.median(new_s)
    reference_s = statistics.median(ref_s)
    print()
    print(
        "interpret %d calls / %d programs, index %d builds / %d traces; "
        "eager build %.3f s vs reference %.3f s over %d SPECint92 traces"
        % (calls, programs, builds, traces, index_s, reference_s, len(specint))
    )

    assert (calls, programs, builds, traces) == (35, 35, 17, 17)
    assert tables_match

    bench_record(
        seconds,
        trace_dedup={
            "experiments": list(EXPERIMENTS),
            "interpret_calls": calls,
            "distinct_programs": programs,
            "index_builds": builds,
            "distinct_traces": traces,
            "index_build_s": round(index_s, 4),
            "reference_build_s": round(reference_s, 4),
            "tables_match": tables_match,
        },
    )
