"""Simulation cells are the executor's unit of work.

``run_all`` plans the ``(workload, stages, policy)`` cells every
requested simulation experiment reads and runs each distinct one once:
figures 5 and 6 and Table 9 use 100 simulations, of which 60 are
distinct.  A spy on ``MultiscalarSimulator.run`` counts the runs.  The
tables built from the shared cells must equal the direct runner calls
(profile cleared), inline and on the process pool.
"""

import json
from collections import Counter

import pytest

from repro.experiments import ALL_EXPERIMENTS, SIM_EXPERIMENTS, run_all
from repro.experiments.executor import experiment_cells
from repro.multiscalar.processor import MultiscalarSimulator

SCALE = "tiny"
PAPER = ("figure5", "figure6", "table9")
CONVERTED = (
    "figure5",
    "figure6",
    "figure7",
    "table6",
    "table8",
    "table9",
    "window-scaling",
)


def canonical(table) -> str:
    payload = table.to_json()
    payload["profile"] = {}
    return json.dumps(payload, sort_keys=True)


@pytest.fixture(scope="module")
def direct():
    return {key: canonical(ALL_EXPERIMENTS[key](SCALE)) for key in CONVERTED}


def test_converted_experiments_are_simulation_experiments():
    assert set(SIM_EXPERIMENTS) == set(CONVERTED)


def test_run_all_simulates_each_distinct_cell_once(monkeypatch, direct):
    runs = Counter()
    original = MultiscalarSimulator.run

    def spy(self):
        runs[(self.trace.program.name, self.config.stages, self.policy.name)] += 1
        return original(self)

    monkeypatch.setattr(MultiscalarSimulator, "run", spy)
    tables, report = run_all(parallel=1, scale=SCALE, experiments=PAPER)
    assert not report.failed
    uses = sum(len(SIM_EXPERIMENTS[key].cells(SCALE)) for key in PAPER)
    assert uses == 100
    assert len(experiment_cells(PAPER, SCALE)) == len(report.results) == 60
    assert sum(runs.values()) == 60
    assert set(runs.values()) == {1}
    assert {key: canonical(tables[key]) for key in PAPER} == {
        key: direct[key] for key in PAPER
    }


@pytest.mark.parametrize("parallel", (1, 2))
def test_converted_tables_match_direct_runners(parallel, direct):
    tables, report = run_all(parallel=parallel, scale=SCALE, experiments=CONVERTED)
    assert not report.failed
    assert {key: canonical(tables[key]) for key in CONVERTED} == direct
    for key in CONVERTED:
        profile = tables[key].profile
        assert profile["experiment:%s" % key]["calls"] == 1
        assert profile["simulate"]["calls"] == len(set(SIM_EXPERIMENTS[key].cells(SCALE)))
        assert "assemble" in profile
