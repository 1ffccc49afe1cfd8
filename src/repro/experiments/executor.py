"""Parallel experiment execution: process pool, result cache, fault tolerance.

The full table/figure set of the paper is embarrassingly parallel
across ``(workload x config x policy)`` simulations — exactly the
fan-out shape of the Prophet and FSPN evaluation harnesses this
reproduction cites.  This module is the substrate the experiment and
sweep front-ends run on:

* :class:`Cell` — one unit of work, described entirely by
  JSON-serializable data so it can cross a process boundary and be
  hashed into a cache key.  Two cells are equal exactly when their
  cache keys are, so a run can drop duplicate cells by equality;
* :class:`ResultCache` — a content-addressed on-disk cache.  The key is
  the SHA-256 of the canonical cell spec plus a fingerprint of the
  package version and the workload sources, so editing a kernel or
  bumping the version invalidates exactly the affected results.  Every
  finished cell is written immediately (atomic rename), which makes the
  cache double as the checkpoint for ``--resume``: re-invoking a killed
  run loads the finished cells and computes only the rest;
* :class:`Executor` — the one way experiments and sweeps run: cells
  execute inline (``jobs=1``) or on a ``ProcessPoolExecutor``, with
  explicit per-cell RNG seeding (derived
  from the cache key, so results are independent of execution order and
  worker assignment), a per-cell wall-clock timeout enforced inside the
  worker, bounded retries, and graceful degradation — a crashing,
  hanging, or garbage-returning worker marks its cell FAILED in the
  report instead of killing the run;
* planning and assembly — :func:`experiment_cells` turns experiment
  ids into the run's cell list: one ``sweep`` cell per distinct
  ``(workload, config, policy)`` simulation the simulation experiments
  read (see :mod:`repro.experiments.simcells`), one ``experiment`` cell
  for each other experiment.  :func:`assemble_experiments` builds
  :class:`~repro.experiments.results.ExperimentTable` objects from the
  results, tolerating FAILED cells (a placeholder table carries the
  error).

Determinism contract: inline, pool, and warm-cache runs produce
bit-identical cell payloads.  Wall time is inherently nondeterministic,
so it never enters a payload: a cell's wall-clock ``profile`` travels
beside the payload in the worker outcome, is stored next to it in the
cache record (outside the key), and is re-attached by
:func:`assemble_experiments` — a cache hit returns the profile measured
when the cell was computed.  The contract is asserted by
``tests/experiments/test_executor_ab.py``.

Telemetry: pass ``metrics=``/``trace=`` sinks to publish
``executor.cells_total/run/cached/retried/failed`` counters, the
``executor.wall_seconds`` gauge, and one Chrome-trace track per worker
process with a span per executed cell.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import tempfile
import time
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.experiments.results import ExperimentTable
from repro.telemetry import NULL_METRICS, NULL_TRACE

#: cell statuses
OK = "ok"
FAILED = "failed"


class CellError(Exception):
    """A cell could not be executed (bad spec, unknown kind)."""


class CellTimeout(CellError):
    """A cell exceeded its wall-clock budget (raised inside the worker)."""


def canonical_json(payload) -> str:
    """Deterministic JSON: sorted keys, no whitespace."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@lru_cache(maxsize=1)
def source_fingerprint() -> str:
    """SHA-256 over the package version, the workload sources, and the
    binary trace-cache format version.

    Part of every cache key: editing a synthetic kernel, bumping the
    package version, or changing the trace encoding (whose cached
    traces feed every simulation) changes the fingerprint and
    invalidates every cached result that could depend on it.
    """
    import repro
    import repro.workloads as workloads
    from repro.frontend.trace_cache import TRACE_FORMAT_VERSION

    digest = hashlib.sha256()
    digest.update(repro.__version__.encode())
    digest.update(b":trace-format:%d:" % TRACE_FORMAT_VERSION)
    root = Path(workloads.__file__).resolve().parent
    for path in sorted(root.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


@dataclass(frozen=True, eq=False)
class Cell:
    """One unit of work: a kind, a name, and JSON-able parameters.

    ``params`` is a sorted tuple of (key, value) pairs so that two
    cells built from the same keyword arguments — in any order — are
    equal and hash to the same cache key.  Equality and hashing go
    through the canonical spec, so two cells are equal exactly when
    their cache keys are (and cells with list-valued parameters can be
    set members and dict keys).
    """

    kind: str
    name: str
    params: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def make(cls, kind, name, /, **params) -> "Cell":
        # kind/name are positional-only so params named "kind"/"name"
        # (found by the hypothesis suite) cannot collide with them
        return cls(kind, name, tuple(sorted(params.items())))

    def param(self, key, default=None):
        return dict(self.params).get(key, default)

    def spec(self) -> dict:
        """The JSON-serializable description workers execute from."""
        return {
            "kind": self.kind,
            "name": self.name,
            "params": [[k, v] for k, v in self.params],
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cell):
            return NotImplemented
        return canonical_json(self.spec()) == canonical_json(other.spec())

    def __hash__(self) -> int:
        return hash(canonical_json(self.spec()))

    def key(self, fingerprint: Optional[str] = None) -> str:
        """Content-addressed cache key for this cell."""
        if fingerprint is None:
            fingerprint = source_fingerprint()
        payload = {"spec": self.spec(), "fingerprint": fingerprint}
        return hashlib.sha256(canonical_json(payload).encode()).hexdigest()

    @property
    def label(self) -> str:
        """A readable, per-run unique name: ``kind:name``, plus a sweep
        cell's config and policy overrides (``sweep:sc/esync[stages=4]``)."""
        label = "%s:%s" % (self.kind, self.name)
        if self.kind == "sweep":
            settings = list(self.param("overrides", [])) + list(
                self.param("policy_overrides", [])
            )
            if settings:
                label += "[%s]" % ",".join("%s=%s" % (k, v) for k, v in settings)
        return label


class ResultCache:
    """Content-addressed on-disk results, one JSON file per cell.

    Layout: ``<root>/<key[:2]>/<key>.json`` holding ``{"key", "cell",
    "payload", "profile"}``; the wall-clock ``profile`` is informational
    and never part of the key.  Writes are atomic (temp file + rename)
    so a killed run never leaves a truncated record; corrupt or
    mismatched records read as misses.
    """

    def __init__(self, root):
        self.root = Path(root)

    def path(self, key) -> Path:
        return self.root / key[:2] / (key + ".json")

    def get(self, key) -> Optional[dict]:
        try:
            with open(self.path(key)) as fh:
                record = json.load(fh)
        except (OSError, ValueError):
            return None
        if not isinstance(record, dict) or record.get("key") != key:
            return None
        if not isinstance(record.get("payload"), dict):
            return None
        if not isinstance(record.get("profile"), dict):
            record["profile"] = {}  # records written before profiles were kept
        return record

    def put(self, key, cell: Cell, payload: dict, profile: Optional[dict] = None) -> None:
        path = self.path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        record = {
            "key": key,
            "cell": cell.spec(),
            "payload": payload,
            "profile": profile or {},
        }
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(record, fh, indent=2)
                fh.write("\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __contains__(self, key) -> bool:
        return self.path(key).exists()

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))


@dataclass
class CellResult:
    """Outcome of one cell: OK with a payload, or FAILED with an error.

    ``profile`` is the cell's wall-clock breakdown (scope name ->
    ``{"calls", "seconds"}``), kept out of the deterministic payload.
    """

    cell: Cell
    status: str
    payload: Optional[dict] = None
    profile: dict = field(default_factory=dict)
    error: Optional[str] = None
    attempts: int = 0
    cached: bool = False
    seconds: float = 0.0
    started: float = 0.0
    worker: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.status == OK


@dataclass
class RunReport:
    """Everything one :meth:`Executor.run` produced, plus counters."""

    results: List[CellResult] = field(default_factory=list)
    jobs: int = 1
    wall_seconds: float = 0.0
    retried: int = 0

    @property
    def failed(self) -> List[CellResult]:
        return [r for r in self.results if not r.ok]

    @property
    def cached(self) -> List[CellResult]:
        return [r for r in self.results if r.cached]

    @property
    def ran(self) -> List[CellResult]:
        return [r for r in self.results if not r.cached]

    def counters(self) -> dict:
        """The executor's own telemetry as one JSON-able object."""
        return {
            "cells_total": len(self.results),
            "cells_run": len(self.ran),
            "cells_cached": len(self.cached),
            "cells_failed": len(self.failed),
            "cells_retried": self.retried,
            "jobs": self.jobs,
            "wall_seconds": round(self.wall_seconds, 6),
        }


# -- cell execution (runs inside workers) ---------------------------------

def _run_sweep_cell(params: dict) -> dict:
    """One (workload, config, policy) simulation.

    The payload holds the integers every reader needs (sweep points,
    and the figures' and tables' builders): cycles, IPC,
    mis-speculations, committed loads, and the prediction breakdown.
    Its ``profile`` (trace-gen and simulate wall time) is moved out of
    the payload by :func:`_worker`.
    """
    from dataclasses import replace

    from repro.experiments.tables import load_trace
    from repro.multiscalar import MultiscalarConfig, MultiscalarSimulator, make_policy
    from repro.telemetry import PROFILER

    mark = PROFILER.mark()
    trace = load_trace(params["workload"], params["scale"])
    overrides = [(k, v) for k, v in params.get("overrides", [])]
    policy_overrides = [(k, v) for k, v in params.get("policy_overrides", [])]
    config = replace(MultiscalarConfig(), **dict(overrides))
    policy = make_policy(params["policy"], **dict(policy_overrides))
    sim = MultiscalarSimulator(trace, config, policy)
    with PROFILER.scope("simulate"):
        stats = sim.run()
    breakdown = stats.breakdown
    payload = {
        "workload": params["workload"],
        "policy": params["policy"],
        "overrides": [[k, v] for k, v in overrides],
        "cycles": stats.cycles,
        "ipc": stats.ipc,
        "mis_speculations": stats.mis_speculations,
        "committed_loads": stats.committed_loads,
        "breakdown": {
            "nn": breakdown.nn,
            "ny": breakdown.ny,
            "yn": breakdown.yn,
            "yy": breakdown.yy,
        },
    }
    if policy_overrides:
        payload["policy_overrides"] = [[k, v] for k, v in policy_overrides]
    payload["profile"] = PROFILER.summary(since=mark)
    return payload


def default_run_cell(spec: dict) -> dict:
    """Execute one cell spec and return its JSON payload.

    ``experiment`` cells run an :data:`~repro.experiments.ALL_EXPERIMENTS`
    runner and return ``ExperimentTable.to_json()``; ``sweep`` cells run
    one (workload, config, policy) simulation.  Both payloads include
    their wall-clock ``profile``, which :func:`_split_profile` moves out.
    """
    kind = spec["kind"]
    params = {k: v for k, v in spec.get("params", [])}
    if kind == "experiment":
        from repro.experiments import ALL_EXPERIMENTS

        return ALL_EXPERIMENTS[spec["name"]](**params).to_json()
    if kind == "sweep":
        return _run_sweep_cell(params)
    raise CellError("unknown cell kind %r" % (kind,))


def _seeded_call(run_cell, spec, key, timeout):
    """Run a cell with explicit RNG seeding and a wall-clock budget.

    The seed derives from the cache key, so it is a pure function of
    the cell spec — never of scheduling order or worker identity.  The
    timeout uses ``ITIMER_REAL`` delivered to the (single-task) worker
    process; on platforms without setitimer the budget is unenforced.
    """
    random.seed(int(key[:16], 16))
    use_timer = bool(timeout) and hasattr(signal, "setitimer")
    if use_timer:
        def _expired(signum, frame):
            raise CellTimeout("cell exceeded %.6gs budget" % timeout)

        previous = signal.signal(signal.SIGALRM, _expired)
        signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return run_cell(spec)
    finally:
        if use_timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def _split_profile(payload):
    """``(payload, profile)``: a payload's wall-clock ``profile`` moved
    out of it.  Wall time is nondeterministic, so the payload loses the
    key and stays bit-identical across runs."""
    if isinstance(payload, dict) and isinstance(payload.get("profile"), dict):
        payload = dict(payload)
        return payload, payload.pop("profile")
    return payload, {}


def _worker(run_cell, spec, key, timeout) -> dict:
    """Top-level (picklable) worker: never propagates cell failures."""
    started = time.time()
    profile: dict = {}
    try:
        payload, profile = _split_profile(_seeded_call(run_cell, spec, key, timeout))
        status, error = OK, None
    except Exception as exc:
        payload, status = None, FAILED
        error = "%s: %s" % (type(exc).__name__, exc)
    return {
        "pid": os.getpid(),
        "started": started,
        "finished": time.time(),
        "status": status,
        "payload": payload,
        "profile": profile,
        "error": error,
    }


def _validated(outcome: dict) -> dict:
    """Reject garbage worker returns: the payload must be a
    JSON-serializable dict, else the cell degrades to FAILED."""
    if outcome["status"] != OK:
        return outcome
    payload = outcome["payload"]
    if not isinstance(payload, dict):
        return dict(
            outcome,
            status=FAILED,
            payload=None,
            error="garbage payload: expected dict, got %s" % type(payload).__name__,
        )
    try:
        canonical_json(payload)
    except (TypeError, ValueError) as exc:
        return dict(
            outcome,
            status=FAILED,
            payload=None,
            error="garbage payload: not JSON-serializable (%s)" % exc,
        )
    return outcome


# -- the executor ----------------------------------------------------------

def _pool_context():
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        # fork shares the parent's warmed trace caches copy-on-write
        return multiprocessing.get_context("fork")
    return None


class Executor:
    """Fan cells out to worker processes, with cache, retry, timeout.

    Args:
        jobs: worker processes; 1 runs inline in this process.
        cache: a :class:`ResultCache`, a directory path, or None.
        timeout: per-cell wall-clock budget in seconds (None = none).
        retries: how many times a FAILED cell is re-attempted.
        run_cell: cell evaluator (``spec dict -> payload dict``); the
            default dispatches on cell kind.  Injectable for tests.  A
            ``profile`` dict in a payload is wall-clock data: the worker
            moves it beside the payload (``CellResult.profile``).
        metrics: a telemetry :class:`MetricRegistry` (default: null sink).
        trace: a telemetry :class:`TraceEventSink` (default: null sink).
        prewarm: optional callable run once in the parent before the
            pool forks — e.g. trace-cache warming that every worker
            then inherits copy-on-write.
        progress: optional callback receiving live progress events
            (``start`` / ``cell`` / ``done`` dicts, see
            :mod:`repro.experiments.progress`) as cells complete; the
            default None skips all progress accounting.

    Placement follows ``jobs`` alone: ``jobs=1`` runs the inline loop,
    ``jobs>1`` the fork process pool (both in
    :mod:`repro.experiments.backends`).  The loops only schedule;
    caching, retries, validation, and payloads are shared, so both
    are bit-identical.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache=None,
        timeout: Optional[float] = None,
        retries: int = 1,
        run_cell: Optional[Callable[[dict], dict]] = None,
        metrics=None,
        trace=None,
        prewarm: Optional[Callable[[], None]] = None,
        progress: Optional[Callable[[dict], None]] = None,
    ):
        self.jobs = max(1, int(jobs or 1))
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache = cache
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.run_cell = run_cell or default_run_cell
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.trace = trace if trace is not None else NULL_TRACE
        self.prewarm = prewarm
        self.progress = progress
        self._tracker = None
        self._warm_workloads: set = set()
        self._cells: List[Cell] = []
        self._keys: List[str] = []
        self._results: List[Optional[CellResult]] = []

    def run(self, cells: Iterable[Cell]) -> RunReport:
        """Execute *cells*, returning results in input order."""
        start = time.time()
        cells = list(cells)
        if self.cache is not None and "REPRO_TRACE_CACHE" not in os.environ:
            # co-locate the on-disk trace cache with the result cache so
            # repeated runs (and forked workers, which inherit the
            # configured global) skip re-interpreting workloads; an
            # explicit REPRO_TRACE_CACHE setting wins
            from repro.frontend.trace_cache import configure_trace_cache

            configure_trace_cache(self.cache.root / "traces")
        fingerprint = source_fingerprint()
        keys = [cell.key(fingerprint) for cell in cells]
        results: List[Optional[CellResult]] = [None] * len(cells)

        pending: List[int] = []
        for index, (cell, key) in enumerate(zip(cells, keys)):
            record = self.cache.get(key) if self.cache is not None else None
            if record is not None:
                results[index] = CellResult(
                    cell,
                    OK,
                    payload=record["payload"],
                    profile=record["profile"],
                    cached=True,
                )
            else:
                pending.append(index)

        if self.progress is not None:
            from repro.experiments.progress import ProgressTracker

            # the first execution per workload pays trace generation
            # (cold); the rest reuse the cached trace (warm) — tell the
            # tracker the cold population so its blended ETA can weight
            # the remaining warm/cold mix instead of chasing one EWMA
            self._warm_workloads = {
                self._cell_workload(cells[i])
                for i in range(len(cells))
                if results[i] is not None
            } - {None}
            cold_total = len(
                {self._cell_workload(cells[i]) for i in pending}
                - self._warm_workloads
                - {None}
            )
            self._tracker = ProgressTracker(
                total=len(cells),
                cached=len(cells) - len(pending),
                jobs=self.jobs,
                cold_total=cold_total,
            )
            self.progress(self._tracker.start_event())

        retried = 0
        if pending:
            from repro.experiments.backends import run_inline, run_pool

            execute = run_inline if self.jobs == 1 else run_pool
            if self.prewarm is not None and execute is run_pool:
                # warm shared state (trace caches) in the parent so
                # forked workers inherit it copy-on-write
                self.prewarm()
            self._cells, self._keys, self._results = cells, keys, results
            try:
                retried = execute(self, pending, cells, keys)
            finally:
                self._cells, self._keys, self._results = [], [], []

        report = RunReport(
            results=[r for r in results if r is not None],
            jobs=self.jobs,
            wall_seconds=time.time() - start,
            retried=retried,
        )
        if self._tracker is not None:
            self.progress(self._tracker.done_event(report.wall_seconds))
            self._tracker = None
        self._publish(report, start)
        return report

    # -- execution strategies ---------------------------------------------

    def _attempts_left(self, attempts) -> bool:
        return attempts <= self.retries

    @staticmethod
    def _cell_workload(cell: Cell):
        return cell.param("workload")

    def _cell_progress(self, result: CellResult) -> None:
        if self._tracker is not None:
            workload = self._cell_workload(result.cell)
            warm = workload in self._warm_workloads if workload is not None else None
            if workload is not None:
                self._warm_workloads.add(workload)
            self.progress(
                self._tracker.cell_event(
                    result.cell.label,
                    ok=result.ok,
                    seconds=result.seconds,
                    attempts=result.attempts,
                    retried=result.attempts - 1,
                    warm=warm,
                )
            )

    def _deliver(self, index: int, outcome: dict, attempts: int) -> CellResult:
        """Record one cell's final outcome (the loops' result channel).

        Validation, the immediate cache write (the checkpoint for
        ``--resume``), and the progress event all live here so neither
        execution loop can skip them.
        """
        outcome = _validated(outcome)
        result = self._to_result(self._cells[index], outcome, attempts)
        self._results[index] = result
        if self.cache is not None and result.ok:
            self.cache.put(
                self._keys[index], self._cells[index], result.payload, result.profile
            )
        self._cell_progress(result)
        return result

    @staticmethod
    def _to_result(cell, outcome, attempts) -> CellResult:
        return CellResult(
            cell=cell,
            status=outcome["status"],
            payload=outcome["payload"],
            profile=outcome["profile"],
            error=outcome["error"],
            attempts=attempts,
            seconds=max(0.0, outcome["finished"] - outcome["started"]),
            started=outcome["started"],
            worker=outcome.get("pid"),
        )

    # -- telemetry ---------------------------------------------------------

    def _publish(self, report: RunReport, start: float) -> None:
        counters = report.counters()
        metrics = self.metrics
        for name in ("cells_total", "cells_run", "cells_cached", "cells_failed", "cells_retried"):
            metrics.counter("executor.%s" % name).inc(counters[name])
        metrics.gauge("executor.jobs").set(report.jobs)
        metrics.gauge("executor.wall_seconds").set(counters["wall_seconds"])

        if not self.trace.enabled:
            return
        tids: Dict[object, int] = {}
        for result in report.results:
            if result.cached:
                self.trace.instant(
                    "cached %s" % result.cell.label, ts=0, tid=0, cat="cache"
                )
                continue
            worker = result.worker
            if worker not in tids:
                tids[worker] = len(tids)
                self.trace.thread_name(tids[worker], "worker %d" % tids[worker])
            self.trace.complete(
                result.cell.label,
                ts=max(0.0, (result.started - start) * 1e6),
                dur=max(1.0, result.seconds * 1e6),
                tid=tids[worker],
                cat="cell",
                args={
                    "status": result.status,
                    "attempts": result.attempts,
                    "error": result.error,
                },
            )


# -- experiment-level planning and assembly -------------------------------


def experiment_cells(keys: Sequence[str], scale="test") -> List[Cell]:
    """The cell list of a run over experiment ids *keys*.

    A simulation experiment (:data:`~repro.experiments.SIM_EXPERIMENTS`)
    contributes the ``sweep`` cells it reads; every other experiment is
    one ``experiment`` cell.  Duplicates are dropped (cell equality is
    cache-key equality), so a simulation several experiments read runs
    once; the list keeps first-use order.
    """
    from repro.experiments import SIM_EXPERIMENTS

    cells: List[Cell] = []
    for key in keys:
        if key in SIM_EXPERIMENTS:
            cells.extend(SIM_EXPERIMENTS[key].cells(scale))
        else:
            cells.append(Cell.make("experiment", key, scale=scale))
    return list(dict.fromkeys(cells))


def merge_profiles(profiles: Iterable[dict]) -> dict:
    """Sum wall-clock profiles per scope (``calls`` and ``seconds``)."""
    merged: Dict[str, dict] = {}
    for profile in profiles:
        for name, agg in profile.items():
            acc = merged.setdefault(name, {"calls": 0, "seconds": 0.0})
            acc["calls"] += agg["calls"]
            acc["seconds"] = round(acc["seconds"] + agg["seconds"], 6)
    return merged


def failed_table(experiment: str, failures: Sequence[CellResult]) -> ExperimentTable:
    """Placeholder table for an experiment with FAILED cells."""
    table = ExperimentTable(
        experiment,
        "(FAILED — %d cell(s) did not complete)" % len(failures),
        ["cell", "error"],
    )
    for result in failures:
        table.add_row(result.cell.label, result.error or "unknown error")
    table.notes.append("FAILED: results incomplete; see the executor report")
    return table


def _simulated_table(key, experiment, results: Sequence[CellResult], scale) -> ExperimentTable:
    """Build a simulation experiment's table from its cells' results.

    The profile sums the cells' trace-gen/simulate scopes, adds the
    builder's time as ``assemble``, and rolls both up into
    ``experiment:<key>``.  A cell several experiments read counts in
    each of their profiles.
    """
    from repro.experiments.simcells import SimRuns

    started = time.perf_counter()
    table = experiment.build(SimRuns({r.cell: r.payload for r in results}, scale))
    assembled = round(time.perf_counter() - started, 6)
    profile = merge_profiles(r.profile for r in results)
    simulated = sum(agg["seconds"] for agg in profile.values())
    profile["experiment:%s" % key] = {
        "calls": 1,
        "seconds": round(simulated + assembled, 6),
    }
    profile["assemble"] = {"calls": 1, "seconds": assembled}
    table.profile = profile
    return table


def assemble_experiments(
    keys: Sequence[str], report: RunReport, scale="test"
) -> Dict[str, ExperimentTable]:
    """Cell results -> one table per experiment id, in *keys* order.

    A simulation experiment's table is built from the results of the
    cells :func:`experiment_cells` planned for it at *scale*; any other
    experiment's table is the payload of its ``experiment`` cell (found
    by name), with the cell's wall-clock profile attached.  An
    experiment with a FAILED (or missing) cell degrades to a
    placeholder table carrying the errors — the rest of the run is
    unaffected.
    """
    from repro.experiments import SIM_EXPERIMENTS

    by_cell = {result.cell: result for result in report.results}
    by_name = {r.cell.name: r for r in report.results if r.cell.kind == "experiment"}
    tables = {}
    for key in keys:
        experiment = SIM_EXPERIMENTS.get(key)
        if experiment is None:
            results = [by_name[key]] if key in by_name else []
            expected = 1
        else:
            cells = list(dict.fromkeys(experiment.cells(scale)))
            results = [by_cell[cell] for cell in cells if cell in by_cell]
            expected = len(cells)
        failures = [r for r in results if not r.ok]
        if failures or len(results) < expected:
            tables[key] = failed_table(key, failures)
        elif experiment is not None:
            tables[key] = _simulated_table(key, experiment, results, scale)
        else:
            table = ExperimentTable.from_json(results[0].payload)
            table.profile = dict(results[0].profile)
            tables[key] = table
    return tables
