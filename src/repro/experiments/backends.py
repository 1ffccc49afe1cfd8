"""The executor's two execution loops.

The :class:`~repro.experiments.executor.Executor` owns everything that
does not depend on where cells run — cache scan, content-addressed
keys, retry budget, result validation, progress events, telemetry —
and picks one of two loops by ``jobs`` alone:

* :func:`run_inline` — ``jobs == 1``: in this process, one cell at a
  time, in input order.
* :func:`run_pool` — ``jobs > 1``: a fork ``ProcessPoolExecutor``
  fan-out, one future per cell, with crash containment (a worker that
  dies takes only its own cell down).

Both report outcomes through ``executor._deliver``, so the determinism
contract (inline ≡ pool, bit-identical payloads) holds by
construction: the loops schedule, they never touch payloads.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Dict, Tuple

from repro.experiments.executor import OK, _pool_context, _validated, _worker


def run_inline(executor, pending, cells, keys) -> int:
    """Run the *pending* cells in this process, in order; return the
    number of retries performed."""
    retried = 0
    for index in pending:
        attempts = 0
        while True:
            attempts += 1
            outcome = _validated(
                _worker(
                    executor.run_cell, cells[index].spec(), keys[index], executor.timeout
                )
            )
            if outcome["status"] == OK or not executor._attempts_left(attempts):
                break
            retried += 1
        executor._deliver(index, outcome, attempts)
    return retried


def run_pool(executor, pending, cells, keys) -> int:
    """Fan the *pending* cells out to a local fork
    ``ProcessPoolExecutor``; return the number of retries performed."""
    retried = 0
    with ProcessPoolExecutor(
        max_workers=min(executor.jobs, len(pending)), mp_context=_pool_context()
    ) as pool:
        inflight: Dict[object, Tuple[int, int]] = {}

        def submit(index, attempts):
            future = pool.submit(
                _worker, executor.run_cell, cells[index].spec(), keys[index], executor.timeout
            )
            inflight[future] = (index, attempts)

        for index in pending:
            submit(index, 1)
        while inflight:
            # ``wait`` is looked up in this module's globals so that
            # perfbench's tracer can wrap it (its executor.wait layer)
            done, _ = wait(list(inflight), return_when=FIRST_COMPLETED)
            for future in done:
                index, attempts = inflight.pop(future)
                try:
                    outcome = _validated(future.result())
                except Exception as exc:
                    # a worker that died hard (BrokenProcessPool, ...)
                    outcome = {
                        "pid": None,
                        "started": time.time(),
                        "finished": time.time(),
                        "status": "failed",
                        "payload": None,
                        "profile": {},
                        "error": "worker crashed: %s: %s" % (type(exc).__name__, exc),
                    }
                if outcome["status"] != OK and executor._attempts_left(attempts):
                    retried += 1
                    try:
                        submit(index, attempts + 1)
                        continue
                    except Exception:
                        pass  # pool unusable; record the failure
                executor._deliver(index, outcome, attempts)
    return retried
