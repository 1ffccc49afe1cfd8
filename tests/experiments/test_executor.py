"""Unit tests for the cell executor: specs, cache, assembly, telemetry."""

import json

import pytest

from repro.experiments.executor import (
    Cell,
    Executor,
    ResultCache,
    assemble_experiments,
    experiment_cells,
    source_fingerprint,
)
from repro.telemetry import MetricRegistry, TraceEventSink


def ok_cell(spec):
    """Echo evaluator used by the inline-execution tests."""
    return {"name": spec["name"], "params": spec["params"]}


def make_cells(n):
    return [Cell.make("test", "cell%d" % i, index=i) for i in range(n)]


# -- Cell specs and keys ---------------------------------------------------


def test_cell_params_are_order_insensitive():
    a = Cell.make("experiment", "table3", scale="tiny", suites=["a"])
    b = Cell.make("experiment", "table3", suites=["a"], scale="tiny")
    assert a == b
    assert a.key() == b.key()


def test_cell_key_is_stable_hex():
    key = Cell.make("experiment", "table3", scale="tiny").key()
    assert len(key) == 64
    int(key, 16)  # hex


def test_source_fingerprint_covers_version_and_sources():
    fp = source_fingerprint()
    assert len(fp) == 64
    assert source_fingerprint() == fp  # cached, stable within a process


def test_cell_key_changes_with_fingerprint():
    cell = Cell.make("experiment", "table3", scale="tiny")
    assert cell.key(fingerprint="aaa") != cell.key(fingerprint="bbb")


# -- ResultCache -----------------------------------------------------------


def test_cache_roundtrip_and_len(tmp_path):
    cache = ResultCache(tmp_path / "c")
    cell = Cell.make("test", "x", v=1)
    key = cell.key()
    assert cache.get(key) is None
    assert key not in cache
    cache.put(key, cell, {"rows": [1, 2]})
    assert key in cache
    assert len(cache) == 1
    record = cache.get(key)
    assert record["payload"] == {"rows": [1, 2]}
    assert record["cell"] == cell.spec()


def test_cache_rejects_corrupt_records(tmp_path):
    cache = ResultCache(tmp_path)
    cell = Cell.make("test", "x")
    key = cell.key()
    cache.put(key, cell, {"a": 1})
    cache.path(key).write_text("{not json")
    assert cache.get(key) is None  # corrupt -> miss, not crash
    cache.path(key).write_text(json.dumps({"key": "wrong", "payload": {}}))
    assert cache.get(key) is None  # key mismatch -> miss


# -- Executor basics -------------------------------------------------------


def test_inline_run_preserves_input_order():
    cells = make_cells(5)
    report = Executor(jobs=1, run_cell=ok_cell).run(cells)
    assert [r.cell for r in report.results] == cells
    assert all(r.ok and r.attempts == 1 and not r.cached for r in report.results)
    assert report.counters()["cells_run"] == 5


def test_pool_run_matches_inline(tmp_path):
    cells = make_cells(6)
    inline = Executor(jobs=1, run_cell=ok_cell).run(cells)
    pooled = Executor(jobs=2, run_cell=ok_cell).run(cells)
    assert [r.payload for r in pooled.results] == [r.payload for r in inline.results]


def test_cache_serves_second_run(tmp_path):
    cells = make_cells(3)
    cache = tmp_path / "cache"
    first = Executor(jobs=1, cache=cache, run_cell=ok_cell).run(cells)
    second = Executor(jobs=1, cache=cache, run_cell=ok_cell).run(cells)
    assert first.counters()["cells_cached"] == 0
    assert second.counters()["cells_cached"] == 3
    assert second.counters()["cells_run"] == 0
    assert [r.payload for r in second.results] == [r.payload for r in first.results]


def test_executor_publishes_metrics_and_trace():
    metrics = MetricRegistry()
    trace = TraceEventSink()
    Executor(jobs=1, run_cell=ok_cell, metrics=metrics, trace=trace).run(make_cells(2))
    catalogue = metrics.to_dict()
    assert catalogue["counters"]["executor.cells_total"] == 2
    assert catalogue["counters"]["executor.cells_run"] == 2
    assert catalogue["counters"]["executor.cells_failed"] == 0
    assert catalogue["gauges"]["executor.jobs"] == 1
    assert catalogue["gauges"]["executor.wall_seconds"] >= 0
    spans = [e for e in trace.events if e["ph"] == "X" and e["cat"] == "cell"]
    assert len(spans) == 2
    names = {
        e["args"]["name"] for e in trace.events
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    assert names == {"worker 0"}


# -- experiment planning and assembly --------------------------------------


def test_experiment_cells_dedupe_sim_cells():
    """Simulation experiments plan their (workload, stages, policy)
    cells; a cell two experiments read is planned once; every other
    experiment (table1 included: no per-suite split) is one cell."""
    from repro.experiments import SIM_EXPERIMENTS

    cells = experiment_cells(["table1", "figure6", "table9", "table3"], scale="tiny")
    assert len(cells) == len(set(cells))
    experiments = [c for c in cells if c.kind == "experiment"]
    assert [c.name for c in experiments] == ["table1", "table3"]
    assert all(c.param("suites") is None for c in experiments)
    sims = [c for c in cells if c.kind == "sweep"]
    figure6 = SIM_EXPERIMENTS["figure6"].cells("tiny")
    table9 = SIM_EXPERIMENTS["table9"].cells("tiny")
    assert (len(figure6), len(table9)) == (40, 20)
    # table9's ALWAYS/ESYNC cells at 4 and 8 stages are all figure6's
    assert set(table9) <= set(figure6)
    assert sims == figure6
    assert sims[0].spec()["params"] == [
        ["overrides", [["stages", 4]]],
        ["policy", "always"],
        ["scale", "tiny"],
        ["workload", "compress"],
    ]


def test_sweep_cell_labels_name_their_overrides():
    """Cells that differ only in overrides get distinct labels; the
    name, spec and cache key stay as before."""
    from repro.experiments.sweeps import make_sweep_cell, sweep_cells

    cells = sweep_cells(["sc"], ["esync"], {"stages": [4, 8]}, scale="tiny")
    assert [c.label for c in cells] == [
        "sweep:sc/esync[stages=4]",
        "sweep:sc/esync[stages=8]",
    ]
    assert {c.name for c in cells} == {"sc/esync"}
    tuned = make_sweep_cell(
        "sc", "esync", "tiny", overrides=[("stages", 4)],
        policy_overrides=[("capacity", 16)],
    )
    assert tuned.label == "sweep:sc/esync[stages=4,capacity=16]"
    assert make_sweep_cell("sc", "esync", "tiny").label == "sweep:sc/esync"
    assert Cell.make("experiment", "table1", scale="tiny").label == "experiment:table1"


def boom(spec):
    raise RuntimeError("deliberate failure for %s" % spec["name"])


def test_assemble_tolerates_failed_cells():
    cells = experiment_cells(["table2"], scale="tiny")
    report = Executor(jobs=1, run_cell=boom, retries=0).run(cells)
    tables = assemble_experiments(["table2"], report)
    table = tables["table2"]
    assert table.experiment == "table2"
    assert "FAILED" in table.title
    assert any("FAILED" in note for note in table.notes)
    assert "deliberate failure" in table.rows[0][1]


def test_run_all_rejects_unknown_experiment():
    from repro.experiments import run_all

    with pytest.raises(KeyError):
        run_all(experiments=["no-such-table"])
