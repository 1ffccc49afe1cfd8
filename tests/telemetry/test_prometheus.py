"""Tests for the Prometheus text-format exporter."""

import json
import re

from repro.telemetry import MetricRegistry
from repro.telemetry.prometheus import metric_name, to_prometheus

#: one sample line of the 0.0.4 exposition format:
#: name, optional {labels}, a space, a plain decimal value
_SAMPLE = re.compile(
    r"^[a-zA-Z_][a-zA-Z0-9_]*(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\"\})? "
    r"-?[0-9]+(\.[0-9]+([eE][+-]?[0-9]+)?)?$"
)


def parse_exposition(text):
    """Validate every line of the exposition text; return sample lines."""
    samples = []
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            assert len(parts) == 4
            assert parts[3] in ("counter", "gauge", "histogram")
            continue
        assert _SAMPLE.match(line), "unparsable sample line: %r" % line
        samples.append(line)
    return samples


def loaded_registry():
    reg = MetricRegistry()
    reg.counter("engine.loads_parked").inc(3)
    reg.gauge("executor.jobs").set(4)
    reg.gauge("policy.name").set("esync")
    h = reg.histogram("task.size")
    for v in (1, 2, 3, 100):
        h.observe(v)
    reg.series("rob.occupancy").sample(0, 1)
    reg.series("rob.occupancy").sample(5, 9)
    return reg


def test_metric_name_sanitization():
    assert metric_name("engine.loads_parked") == "repro_engine_loads_parked"
    assert metric_name("a-b c") == "repro_a_b_c"
    assert metric_name("0weird") == "repro__0weird"


def test_counters_become_total_counters():
    text = to_prometheus(loaded_registry())
    assert "# TYPE repro_engine_loads_parked_total counter" in text
    assert "repro_engine_loads_parked_total 3" in text


def test_numeric_and_string_gauges():
    text = to_prometheus(loaded_registry())
    assert "repro_executor_jobs 4" in text
    assert 'repro_policy_name_info{value="esync"} 1' in text


def test_none_gauges_are_skipped():
    reg = MetricRegistry()
    reg.gauge("g")  # never set
    assert "repro_g" not in to_prometheus(reg)


def test_histogram_buckets_are_cumulative():
    text = to_prometheus(loaded_registry())
    lines = [ln for ln in text.splitlines() if ln.startswith("repro_task_size")]
    buckets = [ln for ln in lines if "_bucket" in ln]
    counts = [int(ln.split(" ")[1]) for ln in buckets]
    assert counts == sorted(counts)  # cumulative is monotone
    assert buckets[-1].startswith('repro_task_size_bucket{le="+Inf"} ')
    assert buckets[-1].endswith(" 4")
    assert "repro_task_size_count 4" in text
    assert "repro_task_size_sum 106" in text


def test_histogram_overflow_folds_into_inf():
    reg = MetricRegistry()
    h = reg.histogram("h", max_exponent=2)
    h.observe(1)
    h.observe(10**9)  # overflow bucket
    text = to_prometheus(reg)
    assert 'repro_h_bucket{le="+Inf"} 2' in text
    assert "repro_h_count 2" in text


def test_series_export_last_sample_and_count():
    text = to_prometheus(loaded_registry())
    assert "repro_rob_occupancy_samples 2" in text
    assert "repro_rob_occupancy_last 9" in text


def test_exposition_format_parses():
    samples = parse_exposition(to_prometheus(loaded_registry()))
    assert len(samples) >= 8


def test_accepts_snapshot_dict_and_registry():
    reg = loaded_registry()
    assert to_prometheus(reg) == to_prometheus(reg.to_dict())


def test_snapshot_survives_json_roundtrip():
    reg = loaded_registry()
    snapshot = json.loads(json.dumps(reg.to_dict()))
    assert to_prometheus(snapshot) == to_prometheus(reg)
