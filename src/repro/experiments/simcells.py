"""Experiments made of simulation cells.

Most of the paper's figures and tables read one kind of result: a
Multiscalar simulation of one workload at one stage count under one
policy.  Several of them read the same simulations — figures 5 and 6
and Table 9 all simulate ALWAYS on the SPECint92 traces at 4 and 8
stages.  Such an experiment is written as two halves:

* ``cells(scale, **kwargs)`` — the ``sweep`` cells it reads, one per
  ``(workload, stages, policy)`` (:func:`sim_cell`);
* ``build(sims, **kwargs)`` — its table, made from those cells'
  results through a :class:`SimRuns` lookup.

:func:`~repro.experiments.run_all` takes the union of every requested
experiment's cells, runs each distinct one once through the executor,
and then calls each builder.  Calling a :class:`SimExperiment`
directly runs its own cells inline through the same cell evaluator,
so both paths compute every table value from the same integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List

from repro.core.stats import PredictionBreakdown
from repro.experiments.executor import Cell, _split_profile, default_run_cell
from repro.experiments.results import ExperimentTable
from repro.experiments.sweeps import make_sweep_cell
from repro.workloads import suite


def sim_cell(workload, stages, policy, scale) -> Cell:
    """The cell of one simulation: *workload* on a default-configured
    Multiscalar with *stages* stages, under *policy*."""
    return make_sweep_cell(workload, policy, scale, overrides=[("stages", stages)])


def suite_names(suite_name) -> List[str]:
    """The workload names of a suite, sorted (the tables' column order)."""
    return sorted(workload.name for workload in suite(suite_name))


def sim_grid(suite_name, scale, stage_counts, policies) -> List[Cell]:
    """One cell per (stages, workload of *suite_name*, policy)."""
    return [
        sim_cell(name, stages, policy, scale)
        for stages in stage_counts
        for name in suite_names(suite_name)
        for policy in policies
    ]


@dataclass(frozen=True)
class SimResult:
    """What the tables read from one simulation cell's payload."""

    cycles: int
    ipc: float
    mis_speculations: int
    committed_loads: int
    breakdown: PredictionBreakdown

    @classmethod
    def from_payload(cls, payload: dict) -> "SimResult":
        return cls(
            cycles=payload["cycles"],
            ipc=payload["ipc"],
            mis_speculations=payload["mis_speculations"],
            committed_loads=payload["committed_loads"],
            breakdown=PredictionBreakdown(**payload["breakdown"]),
        )

    @property
    def mis_speculations_per_committed_load(self) -> float:
        """The paper's Table 9 metric, as ``SpeculationStats`` has it."""
        if not self.committed_loads:
            return 0.0
        return self.mis_speculations / self.committed_loads


class SimRuns:
    """Finished simulation payloads, looked up by (workload, stages, policy)."""

    def __init__(self, payloads: Dict[Cell, dict], scale):
        self.payloads = payloads
        self.scale = scale

    def __call__(self, workload, stages, policy) -> SimResult:
        cell = sim_cell(workload, stages, policy, self.scale)
        return SimResult.from_payload(self.payloads[cell])


def run_sim_cells(cells: Iterable[Cell]) -> Dict[Cell, dict]:
    """Run each distinct cell once, inline; cell -> payload."""
    payloads: Dict[Cell, dict] = {}
    for cell in cells:
        if cell not in payloads:
            payloads[cell], _ = _split_profile(default_run_cell(cell.spec()))
    return payloads


class SimExperiment:
    """A runner ``(scale, **kwargs) -> ExperimentTable`` made of
    simulation cells: ``cells`` lists them, ``build`` makes the table.

    Calling it runs the cells inline and builds the table;
    ``run_all`` plans the cells and calls ``build`` itself.
    """

    def __init__(
        self,
        cells: Callable[..., List[Cell]],
        build: Callable[..., ExperimentTable],
    ):
        self.cells = cells
        self.build = build
        self.__name__ = build.__name__
        self.__doc__ = build.__doc__

    def __call__(self, scale="test", **kwargs) -> ExperimentTable:
        sims = SimRuns(run_sim_cells(self.cells(scale, **kwargs)), scale)
        return self.build(sims, **kwargs)


def sim_experiment(cells: Callable[..., List[Cell]]):
    """Decorator: the table builder below reads the simulations *cells*
    lists; the decorated name is the :class:`SimExperiment` runner."""

    def decorate(build: Callable[..., ExperimentTable]) -> SimExperiment:
        return SimExperiment(cells, build)

    return decorate
