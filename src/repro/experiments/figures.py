"""Runners for the paper's figures (5, 6, 7).

The figures report percent speedups between speculation policies on
Multiscalar configurations.  Each runner is a
:class:`~repro.experiments.simcells.SimExperiment`: the simulation
cells it reads, and a builder that makes the figure from them.  As
with the tables, absolute numbers differ from the paper (synthetic
workloads), but the orderings the paper argues from are reproduced —
see each docstring.
"""

from __future__ import annotations

from repro.core.stats import speedup
from repro.experiments.results import ExperimentTable
from repro.experiments.simcells import sim_cell, sim_experiment, sim_grid, suite_names
from repro.experiments.tables import SPECINT92


def _figure5_cells(scale, stage_counts=(4, 8)):
    return sim_grid(SPECINT92, scale, stage_counts, ("never", "always", "wait", "psync"))


@sim_experiment(_figure5_cells)
def figure5_policy_speedups(sims, stage_counts=(4, 8)):
    """Figure 5: ALWAYS / WAIT / PSYNC speedups relative to NEVER.

    Paper shape: blind speculation (ALWAYS) significantly outperforms
    no speculation; PSYNC always at least matches ALWAYS and the gap
    grows with the window (8 vs 4 stages); selective WAIT loses to
    blind speculation for compress and sc.
    """
    table = ExperimentTable(
        "figure5",
        "policy speedups (%) over NEVER, plus NEVER IPC",
        ["stages", "benchmark", "never_ipc", "ALWAYS", "WAIT", "PSYNC"],
    )
    for stages in stage_counts:
        for name in suite_names(SPECINT92):
            base = sims(name, stages, "never")
            row = [stages, name, round(base.ipc, 2)]
            for policy_name in ("always", "wait", "psync"):
                row.append(round(speedup(base, sims(name, stages, policy_name)), 1))
            table.add_row(*row)
    return table


def _figure6_cells(scale, stage_counts=(4, 8)):
    return sim_grid(SPECINT92, scale, stage_counts, ("always", "sync", "esync", "psync"))


@sim_experiment(_figure6_cells)
def figure6_mechanism_speedups(sims, stage_counts=(4, 8)):
    """Figure 6: SYNC / ESYNC / PSYNC speedups relative to ALWAYS
    (SPECint92).

    Paper shape: ESYNC never loses to SYNC and approaches PSYNC; SYNC
    underperforms on compress, whose dependences are path dependent
    (false dependence predictions).
    """
    table = ExperimentTable(
        "figure6",
        "mechanism speedups (%) over blind speculation (ALWAYS)",
        ["stages", "benchmark", "always_ipc", "SYNC", "ESYNC", "PSYNC"],
    )
    for stages in stage_counts:
        for name in suite_names(SPECINT92):
            base = sims(name, stages, "always")
            row = [stages, name, round(base.ipc, 2)]
            for policy_name in ("sync", "esync", "psync"):
                row.append(round(speedup(base, sims(name, stages, policy_name)), 1))
            table.add_row(*row)
    return table


def _window_scaling_cells(scale, stage_counts=(2, 4, 8, 16)):
    return sim_grid(SPECINT92, scale, stage_counts, ("always", "psync"))


@sim_experiment(_window_scaling_cells)
def extension_window_scaling(sims, stage_counts=(2, 4, 8, 16)):
    """Extension: the paper's central claim swept further.

    Section 2 argues that as dynamically scheduled processors establish
    wider windows, the net loss of blind speculation grows.  The paper
    demonstrates 4 vs 8 stages; this extension sweeps 2..16 and reports
    the PSYNC-over-ALWAYS gap per window size (it should widen
    monotonically on speculation-sensitive workloads).
    """
    names = suite_names(SPECINT92)
    table = ExperimentTable(
        "extension-window-scaling",
        "PSYNC speedup (%) over ALWAYS as the window grows",
        ["stages"] + names + ["mean"],
    )
    for stages in stage_counts:
        row = [stages]
        gaps = []
        for name in names:
            base = sims(name, stages, "always")
            gap = round(speedup(base, sims(name, stages, "psync")), 1)
            row.append(gap)
            gaps.append(gap)
        row.append(round(sum(gaps) / len(gaps), 1))
        table.add_row(*row)
    return table


def _figure7_cells(scale, stages=8, suites=("specint95", "specfp95")):
    return [
        sim_cell(name, stages, policy, scale)
        for suite_name in suites
        for name in suite_names(suite_name)
        for policy in ("always", "esync", "psync")
    ]


@sim_experiment(_figure7_cells)
def figure7_spec95_speedups(sims, stages=8, suites=("specint95", "specfp95")):
    """Figure 7: ESYNC and PSYNC speedups over ALWAYS for the SPEC95
    suites on an 8-stage Multiscalar, plus the ESYNC IPC.

    Paper shape: appreciable gains for most SPECint95 programs with
    ESYNC close to ideal for m88ksim/compress/li; streaming FP codes
    (swim, mgrid, turb3d) gain nothing; su2cor and fpppp fall well
    short of the ideal because their dependence working sets exceed
    the prediction structures.
    """
    table = ExperimentTable(
        "figure7",
        "%d-stage Multiscalar, SPEC95: speedups (%%) over ALWAYS" % stages,
        ["benchmark", "suite", "esync_ipc", "ESYNC", "PSYNC"],
    )
    for suite_name in suites:
        for name in suite_names(suite_name):
            base = sims(name, stages, "always")
            esync = sims(name, stages, "esync")
            psync = sims(name, stages, "psync")
            table.add_row(
                name,
                suite_name,
                round(esync.ipc, 2),
                round(speedup(base, esync), 1),
                round(speedup(base, psync), 1),
            )
    return table
