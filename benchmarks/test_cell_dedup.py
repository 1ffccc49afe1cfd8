"""Simulation-cell dedup on the paper's figure 5, figure 6 and Table 9.

The claim under test: ``run_all`` runs each distinct ``(workload,
stages, policy)`` simulation once, however many tables read it.  The
three experiments use 100 simulations, 60 of them distinct, so 40% of
the simulator runs are saved; the tables equal the direct runner calls
(profile cleared).  A spy on ``MultiscalarSimulator.run`` counts the
runs, a deterministic work counter beside the wall time.

The record lands in BENCH_results.json under ``"dedup"`` and is gated
by ``repro bench-report`` (savings floor 0.40, runs == distinct cells,
tables must match).
"""

import json
import time

from conftest import BENCH_SCALE

from repro.experiments import ALL_EXPERIMENTS, SIM_EXPERIMENTS, run_all
from repro.experiments.executor import experiment_cells
from repro.multiscalar.processor import MultiscalarSimulator

EXPERIMENTS = ("figure5", "figure6", "table9")


def canonical(table) -> str:
    payload = table.to_json()
    payload["profile"] = {}
    return json.dumps(payload, sort_keys=True)


def test_cell_dedup(benchmark, bench_record, monkeypatch):
    runs = []
    original = MultiscalarSimulator.run

    def counted(self):
        runs.append(1)
        return original(self)

    monkeypatch.setattr(MultiscalarSimulator, "run", counted)
    start = time.perf_counter()
    tables, report = benchmark.pedantic(
        run_all,
        kwargs=dict(parallel=1, scale=BENCH_SCALE, experiments=EXPERIMENTS),
        rounds=1,
        iterations=1,
    )
    seconds = time.perf_counter() - start
    counted_runs = len(runs)
    monkeypatch.setattr(MultiscalarSimulator, "run", original)

    assert not report.failed
    uses = sum(len(SIM_EXPERIMENTS[key].cells(BENCH_SCALE)) for key in EXPERIMENTS)
    distinct = len(experiment_cells(EXPERIMENTS, BENCH_SCALE))
    tables_match = all(
        canonical(tables[key]) == canonical(ALL_EXPERIMENTS[key](BENCH_SCALE))
        for key in EXPERIMENTS
    )
    assert (uses, distinct, counted_runs) == (100, 60, 60)
    assert tables_match

    bench_record(
        seconds,
        dedup={
            "experiments": list(EXPERIMENTS),
            "uses": uses,
            "distinct": distinct,
            "runs": counted_runs,
            "savings": round(1.0 - counted_runs / uses, 4),
            "tables_match": tables_match,
        },
    )
