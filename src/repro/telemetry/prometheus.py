"""Prometheus text-format export.

The exporter renders a :class:`~repro.telemetry.registry.MetricRegistry`
snapshot in the Prometheus text exposition format (version 0.0.4), the
lingua franca every scraper and most dashboards speak:

* counters become ``repro_<name>_total`` with ``# TYPE ... counter``;
* numeric gauges become ``repro_<name>``; string-valued gauges (e.g.
  ``policy.name``) become info-style gauges
  ``repro_<name>_info{value="..."} 1``;
* power-of-two histograms become native Prometheus histograms with
  cumulative ``le`` buckets, the overflow bucket folded into
  ``le="+Inf"``, plus ``_sum`` and ``_count``;
* time series export their last sample as ``repro_<name>_last`` with a
  ``repro_<name>_samples`` companion (a scrape is a point in time; the
  full trajectory stays in the JSON snapshot).

Metric names are sanitized to ``[a-zA-Z_][a-zA-Z0-9_]*`` (dots become
underscores) and prefixed ``repro_``.  ``repro metrics-export`` is the
CLI front-end: it prints the text for a ``--metrics`` snapshot file.
"""

from __future__ import annotations

import re
from typing import List

_INVALID = re.compile(r"[^a-zA-Z0-9_]")


def metric_name(name: str) -> str:
    """``engine.loads_parked`` -> ``repro_engine_loads_parked``."""
    sanitized = _INVALID.sub("_", name)
    if not sanitized or not (sanitized[0].isalpha() or sanitized[0] == "_"):
        sanitized = "_" + sanitized
    return "repro_" + sanitized


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _number(value) -> str:
    # Prometheus wants plain decimal floats or integers; bools are ints
    if isinstance(value, bool):
        return "1" if value else "0"
    return repr(value) if isinstance(value, float) else str(value)


def to_prometheus(snapshot) -> str:
    """Render a registry (or its ``to_dict()`` snapshot) as Prometheus
    text exposition format."""
    if hasattr(snapshot, "to_dict"):
        snapshot = snapshot.to_dict()
    lines: List[str] = []

    for name, value in snapshot.get("counters", {}).items():
        base = metric_name(name) + "_total"
        lines.append("# TYPE %s counter" % base)
        lines.append("%s %s" % (base, _number(value)))

    for name, value in snapshot.get("gauges", {}).items():
        if value is None:
            continue
        if isinstance(value, (int, float)):
            base = metric_name(name)
            lines.append("# TYPE %s gauge" % base)
            lines.append("%s %s" % (base, _number(value)))
        else:
            base = metric_name(name) + "_info"
            lines.append("# TYPE %s gauge" % base)
            lines.append('%s{value="%s"} 1' % (base, _escape_label(str(value))))

    for name, hist in snapshot.get("histograms", {}).items():
        base = metric_name(name)
        lines.append("# TYPE %s histogram" % base)
        cumulative = 0
        for bucket in hist.get("buckets", []):
            cumulative += bucket["count"]
            lines.append('%s_bucket{le="%s"} %d' % (base, bucket["le"], cumulative))
        lines.append('%s_bucket{le="+Inf"} %d' % (base, hist["count"]))
        lines.append("%s_sum %s" % (base, _number(hist["sum"])))
        lines.append("%s_count %d" % (base, hist["count"]))

    for name, samples in snapshot.get("series", {}).items():
        base = metric_name(name)
        lines.append("# TYPE %s_samples gauge" % base)
        lines.append("%s_samples %d" % (base, len(samples)))
        if samples:
            lines.append("# TYPE %s_last gauge" % base)
            lines.append("%s_last %s" % (base, _number(samples[-1][1])))

    return "\n".join(lines) + "\n"
