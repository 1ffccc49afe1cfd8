"""The executor's two execution loops.

The :class:`~repro.experiments.executor.Executor` owns everything that
does not depend on where cells run — cache scan, content-addressed
keys, retry budget, result validation, progress events, telemetry —
and picks one of two loops by ``jobs`` alone:

* :func:`run_inline` — ``jobs == 1``: in this process, one cell at a
  time, in plan order.
* :func:`run_pool` — ``jobs > 1``: a fork ``ProcessPoolExecutor``
  fan-out with batch groups, solo retries and crash containment.

Both report outcomes through ``executor._deliver``, so the determinism
contract (inline ≡ pool, bit-identical payloads) holds by
construction: the loops schedule, they never touch payloads.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Dict, List, Tuple

from repro.experiments.executor import (
    OK,
    _batch_worker,
    _pool_context,
    _validated,
    _worker,
)


def run_inline(executor, plan, cells, keys) -> int:
    """Run every cell in this process, in plan order; return the
    number of retries performed."""
    # batch grouping only reorders execution (group members run
    # back-to-back over the per-process trace memo); per-cell
    # seeding keeps payloads identical in any order
    retried = 0
    for group in plan:
        for index in group:
            attempts = 0
            while True:
                attempts += 1
                outcome = _validated(
                    _worker(
                        executor.run_cell,
                        cells[index].spec(),
                        keys[index],
                        executor.timeout,
                    )
                )
                if outcome["status"] == OK or not executor._attempts_left(attempts):
                    break
                retried += 1
            if outcome["status"] != OK and len(group) > 1:
                executor._note_group_failure(index)
            executor._deliver(index, outcome, attempts)
    return retried


def run_pool(executor, plan, cells, keys) -> int:
    """Fan groups out to a local fork ``ProcessPoolExecutor``; return
    the number of retries performed."""
    retried = 0
    with ProcessPoolExecutor(
        max_workers=min(executor.jobs, len(plan)), mp_context=_pool_context()
    ) as pool:
        inflight: Dict[object, Tuple[List[int], int]] = {}

        def submit(indices, attempts):
            if len(indices) == 1:
                future = pool.submit(
                    _worker,
                    executor.run_cell,
                    cells[indices[0]].spec(),
                    keys[indices[0]],
                    executor.timeout,
                )
            else:
                future = pool.submit(
                    _batch_worker,
                    executor.run_cell,
                    [cells[i].spec() for i in indices],
                    [keys[i] for i in indices],
                    executor.timeout,
                )
            inflight[future] = (indices, attempts)

        for group in plan:
            submit(group, 1)
        while inflight:
            # ``wait`` is looked up in this module's globals so that
            # perfbench's tracer can wrap it (its executor.wait layer)
            done, _ = wait(list(inflight), return_when=FIRST_COMPLETED)
            for future in done:
                indices, attempts = inflight.pop(future)
                try:
                    raw = future.result()
                    outcomes = raw if isinstance(raw, list) else [raw]
                    if len(outcomes) != len(indices):
                        raise RuntimeError(
                            "batch returned %d outcomes for %d cells"
                            % (len(outcomes), len(indices))
                        )
                except Exception as exc:
                    # a worker that died hard (BrokenProcessPool, ...)
                    crash = {
                        "pid": None,
                        "started": time.time(),
                        "finished": time.time(),
                        "status": "failed",
                        "payload": None,
                        "error": "worker crashed: %s: %s" % (type(exc).__name__, exc),
                    }
                    outcomes = [dict(crash) for _ in indices]
                for index, outcome in zip(indices, outcomes):
                    outcome = _validated(outcome)
                    if outcome["status"] != OK and len(indices) > 1:
                        # a cell that failed inside a group runs solo
                        # from now on — including on a future --resume
                        executor._note_group_failure(index)
                    if outcome["status"] != OK and executor._attempts_left(attempts):
                        retried += 1
                        try:
                            # retries run solo: a group-wide failure
                            # (dead worker) must not respawn the group
                            submit([index], attempts + 1)
                            continue
                        except Exception:
                            pass  # pool unusable; record the failure
                    executor._deliver(index, outcome, attempts)
    return retried
