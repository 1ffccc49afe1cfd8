"""Zero-dependency instrumentation: metrics, trace events, profiling.

The subsystem has three legs, each with a disabled null default so that
instrumented code pays (almost) nothing when telemetry is off:

* :class:`MetricRegistry` — named counters, gauges, bucketed
  histograms, and time series the MDPT/MDST/engine/simulator publish
  into (``NULL_METRICS`` when off);
* :class:`TraceEventSink` — Chrome trace-event JSON collection, one
  track per Multiscalar stage (``NULL_TRACE`` when off);
* :class:`Profiler` / :class:`ProfileScope` — wall-clock scopes around
  the experiment pipeline's phases (always on; negligible cost).

:class:`Telemetry` bundles a registry and a sink; the simulator takes
one via its ``telemetry=`` parameter and defaults to
:data:`NULL_TELEMETRY`.  The contract — telemetry on or off, simulated
results are bit-identical — is asserted by ``tests/telemetry/test_ab.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.telemetry.ledger import (
    DEFAULT_LEDGER,
    RunLedger,
    diff_records,
    make_record,
    resolve_ledger_path,
)
from repro.telemetry.profiler import PROFILER, Profiler, ProfileRecord, ProfileScope
from repro.telemetry.prometheus import to_prometheus
from repro.telemetry.registry import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    NullMetricRegistry,
    TimeSeries,
)
from repro.telemetry.trace_events import (
    NULL_TRACE,
    NullTraceSink,
    TraceEventSink,
    merged_trace,
)


@dataclass
class Telemetry:
    """One run's worth of instrumentation sinks."""

    metrics: MetricRegistry = field(default_factory=MetricRegistry)
    trace: TraceEventSink = field(default_factory=TraceEventSink)

    @property
    def enabled(self) -> bool:
        return self.metrics.enabled or self.trace.enabled


#: The default: both sinks disabled, hot paths skip instrumentation.
NULL_TELEMETRY = Telemetry(metrics=NULL_METRICS, trace=NULL_TRACE)


def make_telemetry(metrics=True, trace=True, pid=0) -> Telemetry:
    """A telemetry bundle with the requested legs enabled."""
    return Telemetry(
        metrics=MetricRegistry() if metrics else NULL_METRICS,
        trace=TraceEventSink(pid=pid) if trace else NULL_TRACE,
    )


__all__ = [
    "Counter",
    "DEFAULT_LEDGER",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "RunLedger",
    "diff_records",
    "make_record",
    "resolve_ledger_path",
    "to_prometheus",
    "NULL_METRICS",
    "NULL_TELEMETRY",
    "NULL_TRACE",
    "NullMetricRegistry",
    "NullTraceSink",
    "PROFILER",
    "ProfileRecord",
    "ProfileScope",
    "Profiler",
    "Telemetry",
    "TimeSeries",
    "TraceEventSink",
    "make_telemetry",
    "merged_trace",
]
