"""Layer tracer for the traced benchmark run.

The tracer wraps the public functions and methods of each layer of the
``repro`` package from the outside (the program is not edited) and
records, per layer, self time and call counts.  Coarse layers also keep
one span per call -- ``(id, name, start, end, parent, run id, pid)`` --
in memory; the hot per-event layers (policy hooks, MDPT/MDST
operations) keep only their aggregates, because one record per call
would cost more than the call.

Executor pool workers are forked after the wrappers are installed, so
they inherit them.  Each worker resets its copy of the tracer right
after the fork, writes its spans and aggregates to ``worker-<pid>.json``
when it exits, and the parent merges those files: the frontend and
kernel numbers of a pooled run are measured in the workers.

A layer's self time is its duration minus the time of the traced layers
it called.  A call into the layer that is already running (``super()``
chains, one hook calling another) is part of the outer call.

Two layers only contain others: the experiment runners and
``Executor.run`` (outside its pool waits).  Their self time is work the
trace does not break down, so it counts as unattributed, together with
each process's wall time outside every layer.
"""

from __future__ import annotations

import functools
import itertools
import json
import multiprocessing.util
import os
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

#: policy hooks the simulator calls (SpeculationPolicy's interface)
POLICY_HOOKS = (
    "bind",
    "may_issue_load",
    "deny_hints",
    "wake_load",
    "on_store_issued",
    "on_store_executed",
    "on_violation",
    "absolves_violation",
    "on_squash",
    "explain_violation",
    "on_task_dispatched",
    "on_task_committed",
    "publish_telemetry",
)

#: the paper's policies, each reported with its own kernel time
PAPER_POLICIES = ("never", "always", "wait", "psync", "sync", "esync")

#: layers whose self time is untraced work inside them
CONTAINERS = ("experiments.runner", "executor.run")


class Tracer:
    """Spans and per-layer aggregates of one process."""

    def __init__(self, run_id, out_dir):
        self.run_id = run_id
        self.out_dir = Path(out_dir)
        self.root_parent = None
        self._fingerprints = {}
        # frames: [layer, start, seconds of traced children, span id];
        # the wrappers hold this list, so it is only ever cleared in place
        self.stack = []
        self._reset()
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _reset(self):
        self.pid = os.getpid()
        self.started = time.perf_counter()
        self._ids = itertools.count()
        self.spans = []
        del self.stack[:]
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.runs = []
        self.reports = []

    def _after_fork(self):
        # runs in a new pool worker, after multiprocessing has cleared
        # the finalizers it inherited: start empty and flush at exit
        self.root_parent = self.current_span()
        self._reset()
        multiprocessing.util.Finalize(self, self.write_worker, exitpriority=100)

    def current_span(self):
        for frame in reversed(self.stack):
            if frame[3] is not None:
                return frame[3]
        return self.root_parent

    def write_worker(self):
        path = self.out_dir / ("worker-%d.json" % self.pid)
        path.write_text(json.dumps(self.state()))

    def state(self) -> dict:
        return {
            "pid": self.pid,
            "wall_s": time.perf_counter() - self.started,
            "spans": self.spans,
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "runs": self.runs,
            "reports": self.reports,
        }

    def worker_states(self):
        return [
            json.loads(path.read_text())
            for path in sorted(self.out_dir.glob("worker-*.json"))
        ]

    # -- wrappers ------------------------------------------------------

    def timed(self, fn, layer, span=True, before=None, after=None):
        """Wrap *fn* as a call into *layer*.

        ``before(args, kwargs)`` runs ahead of the call and its result
        is handed to ``after(context, result, seconds, self_seconds)``.
        """
        perf = time.perf_counter
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            context = before(args, kwargs) if before is not None else None
            span_id = parent = None
            if span:
                parent = self.current_span()
                span_id = "%d:%d" % (self.pid, next(self._ids))
            frame = [layer, perf(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                seconds = end - frame[1]
                own = seconds - frame[2]
                self.self_s[layer] += own
                self.calls[layer] += 1
                if stack:
                    stack[-1][2] += seconds
                if span:
                    self.spans.append(
                        (span_id, layer, frame[1], end, parent, self.run_id, self.pid)
                    )
            if after is not None:
                after(context, result, seconds, own)
            return result

        return wrapper

    def counted(self, fn, name, depth):
        """Wrap *fn* to count calls only; *depth* is shared by every
        override of one method so a ``super()`` call counts once."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not depth[0]:
                self.calls[name] += 1
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapper

    # -- installation --------------------------------------------------

    def install(self):
        """Wrap the public entry points of every layer.

        Modules imported later copy the wrappers from the modules
        patched here; copies made earlier are replaced in place.
        """
        from repro import experiments
        from repro.core.mdpt import MDPT
        from repro.core.mdst import MDST
        from repro.experiments import backends, executor, sweeps, tables
        from repro.frontend import interpreter, trace_cache
        from repro.frontend.columns import TraceColumns
        from repro.frontend.static_index import TraceIndex
        from repro.multiscalar.policies import SpeculationPolicy
        from repro.multiscalar.processor import MultiscalarSimulator
        from repro.oracle import ddc, window_model
        from repro.staticdep import analysis
        from repro.staticdep import spectaint as staticdep_spectaint
        from repro.workloads.base import Workload

        functions = [
            (interpreter.run_program, "frontend.interpret"),
            (trace_cache.deserialize_trace, "frontend.decode"),
            (trace_cache.serialize_trace, "frontend.encode"),
            (window_model.analyze_window, "oracle.window"),
            (window_model.analyze_windows, "oracle.window"),
            (ddc.simulate_ddc, "oracle.ddc"),
            (ddc.simulate_ddc_sizes, "oracle.ddc"),
            (analysis.analyze_program, "staticdep.analyze"),
            (analysis.analyze_program_symbolic, "staticdep.analyze"),
            (staticdep_spectaint.analyze_spec_leaks, "staticdep.analyze"),
            (tables.warm_traces, "executor.prewarm"),
            (backends.wait, "executor.wait"),
            (executor.assemble_experiments, "experiments.assemble"),
            (sweeps.point_from_payload, "experiments.assemble"),
        ]
        for fn, layer in functions:
            _replace_everywhere(fn, self.timed(fn, layer))

        methods = [
            (TraceIndex, "__init__", "frontend.index", {}),
            (TraceColumns, "__init__", "frontend.columns", {}),
            (Workload, "program", "workloads.program", {}),
            (executor.ResultCache, "put", "executor.cache_put", {}),
            (executor.ResultCache, "get", "executor.cache_get", {}),
            (
                MultiscalarSimulator,
                "run",
                "multiscalar.run",
                {"before": self._run_key, "after": self._record_run},
            ),
            (
                executor.Executor,
                "run",
                "executor.run",
                {"after": self._record_report},
            ),
        ]
        for cls, attr, layer, hooks in methods:
            setattr(cls, attr, self.timed(getattr(cls, attr), layer, **hooks))

        for key, runner in list(experiments.ALL_EXPERIMENTS.items()):
            experiments.ALL_EXPERIMENTS[key] = self.timed(runner, "experiments.runner")

        for cls in _subclasses(SpeculationPolicy):
            for hook in POLICY_HOOKS:
                if hook in vars(cls):
                    setattr(cls, hook, self.timed(vars(cls)[hook], "policy", span=False))

        counters = [
            ((MDPT,), ("lookup_load", "lookup_store"), "core.mdpt_lookups"),
            (_subclasses(MDST), ("allocate",), "core.mdst_allocs"),
            (_subclasses(MDST), ("signal",), "core.mdst_signals"),
        ]
        for classes, attrs, name in counters:
            depth = [0]
            for cls in classes:
                for attr in attrs:
                    if attr in vars(cls):
                        setattr(cls, attr, self.counted(vars(cls)[attr], name, depth))

    # -- per-run records -----------------------------------------------

    def _run_key(self, args, kwargs):
        """(trace content, config, policy parameters) of a simulator
        run, taken before ``run`` binds and mutates the policy."""
        from repro.frontend.trace_cache import program_fingerprint

        sim = args[0]
        policy = sim.policy
        params = sorted(
            (k, repr(v))
            for k, v in vars(policy).items()
            if not k.startswith("_") and k not in ("sim", "engine")
        )
        trace = sim.trace
        program = trace.program
        # keep the program alive so its id is not reused
        if id(program) not in self._fingerprints:
            self._fingerprints[id(program)] = (program, program_fingerprint(program))
        content = (self._fingerprints[id(program)][1], len(trace))
        key = repr((content, repr(sim.config), type(policy).__qualname__, params))
        return key, str(policy.name).lower(), len(trace)

    def _record_run(self, context, stats, seconds, own):
        key, policy, entries = context
        breakdown = stats.breakdown
        self.runs.append(
            {
                "key": key,
                "policy": policy,
                "entries": entries,
                "seconds": seconds,
                "self_s": own,
                "cycles": stats.cycles,
                "committed": stats.committed_instructions,
                "squashed": stats.squashed_instructions,
                "mis_speculations": stats.mis_speculations,
                "yy": breakdown.yy,
                "yn": breakdown.yn,
            }
        )

    def _record_report(self, context, report, seconds, own):
        self.reports.append(
            {
                "jobs": report.jobs,
                "wall_s": report.wall_seconds,
                "cells": len(report.results),
                "failed": len(report.failed),
                "cell_s": [r.seconds for r in report.results if not r.cached],
            }
        )


def _subclasses(cls):
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


def _replace_everywhere(original, wrapper):
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _quantile(values, q):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(states) -> dict:
    """Per-layer metrics from the merged states of every process."""
    self_s = defaultdict(float)
    calls = defaultdict(int)
    runs, reports = [], []
    unattributed = 0.0
    for state in states:
        unattributed += state["wall_s"] - sum(
            seconds for layer, seconds in state["self_s"].items() if layer not in CONTAINERS
        )
        for layer, seconds in state["self_s"].items():
            self_s[layer] += seconds
        for name, count in state["calls"].items():
            calls[name] += count
        runs.extend(state["runs"])
        reports.extend(state["reports"])

    out = {
        "frontend.interpret_s": self_s["frontend.interpret"],
        "frontend.interpret_calls": calls["frontend.interpret"],
        "frontend.decode_s": self_s["frontend.decode"],
        "frontend.decode_calls": calls["frontend.decode"],
        "frontend.encode_s": self_s["frontend.encode"],
        "frontend.index_s": self_s["frontend.index"],
        "frontend.index_builds": calls["frontend.index"],
        "frontend.columns_s": self_s["frontend.columns"],
        "frontend.columns_builds": calls["frontend.columns"],
        "workloads.program_s": self_s["workloads.program"],
        "multiscalar.run_s": self_s["multiscalar.run"],
    }
    for policy in PAPER_POLICIES:
        out["multiscalar.run_s." + policy] = sum(
            run["self_s"] for run in runs if run["policy"] == policy
        )
    entries = sum(run["entries"] for run in runs)
    committed = sum(run["committed"] for run in runs)
    squashed = sum(run["squashed"] for run in runs)
    yy = sum(run["yy"] for run in runs)
    yn = sum(run["yn"] for run in runs)
    cell_s = [s for report in reports for s in report["cell_s"]]
    capacity = sum(report["wall_s"] * report["jobs"] for report in reports)
    out.update(
        {
            "multiscalar.us_per_entry": (
                1e6 * sum(run["seconds"] for run in runs) / entries if entries else 0.0
            ),
            "multiscalar.runs": len(runs),
            "multiscalar.runs_unique": len({run["key"] for run in runs}),
            "multiscalar.sim_cycles": sum(run["cycles"] for run in runs),
            "multiscalar.committed": committed,
            "multiscalar.squashed": squashed,
            "multiscalar.useful_ratio": (
                committed / (committed + squashed) if committed + squashed else 0.0
            ),
            "multiscalar.mis_speculations": sum(run["mis_speculations"] for run in runs),
            "policy.calls": calls["policy"],
            "policy.s": self_s["policy"],
            "core.mdpt_lookups": calls["core.mdpt_lookups"],
            "core.mdst_allocs": calls["core.mdst_allocs"],
            "core.mdst_signals": calls["core.mdst_signals"],
            "core.sync_useful_ratio": yy / (yy + yn) if yy + yn else 0.0,
            "oracle.window_s": self_s["oracle.window"],
            "oracle.ddc_s": self_s["oracle.ddc"],
            "staticdep.analyze_s": self_s["staticdep.analyze"],
            "executor.run_s": self_s["executor.run"],
            "executor.wait_s": self_s["executor.wait"],
            "executor.cells": sum(report["cells"] for report in reports),
            "executor.cells_failed": sum(report["failed"] for report in reports),
            "executor.cell_p50_s": statistics.median(cell_s) if cell_s else 0.0,
            "executor.cell_p95_s": _quantile(cell_s, 0.95),
            "executor.utilization": sum(cell_s) / capacity if capacity else 0.0,
            "executor.cache_put_s": self_s["executor.cache_put"],
            "executor.cache_get_s": self_s["executor.cache_get"],
            "executor.prewarm_s": self_s["executor.prewarm"],
            "experiments.assemble_s": self_s["experiments.assemble"],
            "bench.unattributed_s": unattributed,
        }
    )
    return out
