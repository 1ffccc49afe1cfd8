"""The executor's two execution loops: placement follows ``jobs``.

``jobs=1`` runs :func:`~repro.experiments.backends.run_inline`,
``jobs>1`` :func:`~repro.experiments.backends.run_pool`.  Both must give
bit-identical payloads in input order; pool crash containment is covered
by ``test_executor_batch.py`` and ``test_executor_faults.py``.
"""

import json

from repro.experiments import backends
from repro.experiments.executor import Cell, Executor


def payload_cell(spec):
    """Deterministic pure function of the spec (top-level: picklable)."""
    return {"name": spec["name"]}


def grid_cells(n=4):
    return [
        Cell.make("sweep", "w%d/p" % i, workload="w%d" % i, policy="p")
        for i in range(n)
    ]


def payloads(report):
    return [json.dumps(r.payload, sort_keys=True) for r in report.results]


def test_executor_default_backend_follows_jobs(monkeypatch):
    calls = []
    for name in ("run_inline", "run_pool"):
        real = getattr(backends, name)

        def spy(executor, plan, cells, keys, _name=name, _real=real):
            calls.append(_name)
            return _real(executor, plan, cells, keys)

        monkeypatch.setattr(backends, name, spy)
    cells = [Cell.make("sweep", "w%d/p" % i, workload="w%d" % i) for i in range(2)]
    prewarmed = []
    for jobs in (1, 2):
        Executor(
            jobs=jobs, run_cell=payload_cell, prewarm=lambda j=jobs: prewarmed.append(j)
        ).run(cells)
    assert calls == ["run_inline", "run_pool"]
    # only the forking pool path warms shared state in the parent
    assert prewarmed == [2]


def test_inline_local_and_queue_dir_payloads_identical():
    # the queue-dir loop is gone; inline and local pool must still agree
    cells = grid_cells()
    inline = Executor(jobs=1, run_cell=payload_cell).run(cells)
    local = Executor(jobs=2, run_cell=payload_cell).run(cells)
    assert payloads(inline) == payloads(local)
    assert [r.cell.name for r in local.results] == [c.name for c in cells]
