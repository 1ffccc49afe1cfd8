"""Pool crash containment: a worker process that dies hard (``os._exit``)
fails its own cell and leaves the run standing — the executor returns a
report with one result per cell instead of hanging or raising.

Every cell is its own unit of work on the pool; retries, timeouts and
garbage payloads are covered by ``test_executor_faults.py``.
"""

import os

from repro.experiments.executor import FAILED, OK, Cell, Executor


def hard_exit_marked(spec):
    """Kill the worker process outright for cells marked crash=True
    (top-level: must be picklable for the pool)."""
    params = dict(spec["params"])
    if params.get("crash"):
        os._exit(13)
    return {"name": spec["name"]}


def test_hard_worker_death_fails_the_group_not_the_run():
    cells = [
        Cell.make("sweep", "alpha/%s" % policy, workload="alpha", policy=policy)
        for policy in ("always", "never")
    ]
    cells.append(Cell.make("sweep", "alpha/crash", workload="alpha", crash=True))
    report = Executor(jobs=2, run_cell=hard_exit_marked, retries=0).run(cells)
    assert [r.cell for r in report.results] == cells
    crashed = report.results[-1]
    assert crashed.status == FAILED
    assert "worker crashed" in crashed.error
    # a sibling either finished before the crash or was in flight on
    # the broken pool; it never hangs and never raises out of run()
    for result in report.results[:-1]:
        assert result.status == OK or "worker crashed" in result.error
