"""Every trace once: the static experiments interpret and index each
program a single time.

The trace-driven experiments (Tables 1 and 3-5, the static dependence
analysis and the speculative-leak check) read one dynamic trace and one
dependence oracle per program.  Over ``run_all`` of those experiments
with cold in-memory caches, spies on ``interpreter.run_program`` and
``TraceIndex.__init__`` count the work: interpretations must equal the
distinct program fingerprints, and index builds the distinct traces.
"""

import sys

import pytest

from repro.experiments import run_all, tables
from repro.frontend import interpreter, trace_cache
from repro.frontend.static_index import TraceIndex
from repro.frontend.trace_cache import TraceCache, program_fingerprint

SCALE = "tiny"
STATIC = (
    "table1",
    "table3",
    "table4",
    "table5",
    "staticdep",
    "staticdep-symbolic",
    "spectaint",
)


def replace_everywhere(monkeypatch, original, wrapper):
    """Point every ``repro`` module's reference to *original* at *wrapper*."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, wrapper)


@pytest.fixture
def cold_trace_memos(monkeypatch):
    """Empty, memory-only trace memos for the test, restored after."""
    monkeypatch.setattr(trace_cache, "_MEMORY", {})
    monkeypatch.setattr(trace_cache, "_GLOBAL", TraceCache(None))
    monkeypatch.setattr(tables, "_trace_cache", {})


def test_static_experiments_interpret_and_index_each_trace_once(
    monkeypatch, cold_trace_memos
):
    fingerprints = []
    indexed = []
    run_program = interpreter.run_program
    build_index = TraceIndex.__init__

    def counted_run(program, max_instructions=5_000_000):
        fingerprints.append(program_fingerprint(program, max_instructions))
        return run_program(program, max_instructions=max_instructions)

    def counted_index(self, trace):
        indexed.append(trace)  # kept alive, so ids stay distinct
        build_index(self, trace)

    replace_everywhere(monkeypatch, run_program, counted_run)
    monkeypatch.setattr(TraceIndex, "__init__", counted_index)
    result, report = run_all(parallel=1, scale=SCALE, experiments=STATIC)
    assert not report.failed
    assert set(result) == set(STATIC)

    assert fingerprints, "the spy saw no interpretation"
    assert len(fingerprints) == len(set(fingerprints))
    assert indexed, "the spy saw no index build"
    assert len(indexed) == len({id(trace) for trace in indexed})
    # 23 suite programs (Table 1), the micro kernels and the three leak
    # programs are interpreted; Table 1 counts without an index
    assert (len(fingerprints), len(indexed)) == (35, 17)
