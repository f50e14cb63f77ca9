"""Exporter edge cases: escaping, empty inputs, bucket cumulativity.

``repro.obs.export`` is the boundary where in-process telemetry turns
into text another tool parses — Prometheus scrapers, chrome://tracing,
``jq``. The failure mode is silent: a mis-escaped label or a
non-cumulative bucket doesn't crash the exporter, it produces output
the downstream consumer misreads. These tests pin the exact byte
behaviour.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.export import (
    render_span_tree,
    spans_to_jsonl,
    to_chrome_trace,
    to_jsonl,
    to_prometheus,
    trace_events_to_jsonl,
)
from repro.obs.metrics import MetricsRegistry


@pytest.fixture()
def registry():
    return MetricsRegistry()


class TestPrometheusEscaping:
    def test_quotes_and_backslashes(self, registry):
        registry.counter("q_total", labelnames=("v",)).labels(
            'say "hi" \\ bye'
        ).inc()
        text = to_prometheus(registry)
        assert 'q_total{v="say \\"hi\\" \\\\ bye"} 1' in text

    def test_newlines_become_literal_escapes(self, registry):
        registry.counter("nl_total", labelnames=("v",)).labels(
            "line1\nline2"
        ).inc()
        text = to_prometheus(registry)
        assert 'nl_total{v="line1\\nline2"} 1' in text
        # The exposition format is line-oriented: no label value may
        # inject a raw newline into the body.
        body = [
            line for line in text.splitlines()
            if not line.startswith("#")
        ]
        assert all(line.endswith(" 1") for line in body if line)

    def test_backslash_escaped_before_quote(self, registry):
        # If quote-escaping ran first, the escape backslash would
        # itself get doubled: \" -> \\" (a backslash, then a bare
        # quote that ends the value early).
        registry.counter("ord_total", labelnames=("v",)).labels(
            '\\"'
        ).inc()
        text = to_prometheus(registry)
        assert 'ord_total{v="\\\\\\""} 1' in text

    def test_help_text_with_newline(self, registry):
        registry.counter("h_total", "first\nsecond").inc()
        text = to_prometheus(registry)
        assert "# HELP h_total first\\nsecond" in text


class TestEmptyInputs:
    def test_empty_registry_prometheus(self, registry):
        assert to_prometheus(registry) == ""
        assert to_prometheus(registry.snapshot()) == ""

    def test_empty_registry_jsonl(self, registry):
        assert to_jsonl(registry) == ""

    def test_family_with_no_children(self, registry):
        registry.counter("lonely_total", labelnames=("k",))
        # A registered family with no label children still renders its
        # header (type is knowable) but no samples.
        text = to_prometheus(registry)
        assert "lonely_total{" not in text

    def test_empty_span_exporters(self):
        assert render_span_tree([]) == "(no spans)"
        assert spans_to_jsonl([]) == ""
        doc = to_chrome_trace([])
        assert doc["traceEvents"] == []

    def test_empty_trace_events_jsonl_has_trailer(self):
        text = trace_events_to_jsonl([])
        trailer = json.loads(text.strip())
        assert trailer["kind"] == "trace_jsonl"
        assert trailer["records"] == 0


class TestHistogramCumulativity:
    def test_buckets_are_cumulative(self, registry):
        hist = registry.histogram(
            "lat_seconds", buckets=(0.1, 1.0, 10.0)
        ).labels()
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            hist.observe(value)
        record = json.loads(to_jsonl(registry))
        counts = [count for _bound, count in record["buckets"]]
        bounds = [bound for bound, _count in record["buckets"]]
        assert bounds == [0.1, 1.0, 10.0, None]
        assert counts == [1, 3, 4, 5]  # each bucket includes the last
        assert counts == sorted(counts)
        assert counts[-1] == record["count"]
        assert record["sum"] == pytest.approx(56.05)

    def test_prometheus_bucket_lines_cumulative(self, registry):
        hist = registry.histogram(
            "lat_seconds", buckets=(1.0, 2.0)
        ).labels()
        hist.observe(0.5)
        hist.observe(1.5)
        text = to_prometheus(registry)
        assert 'lat_seconds_bucket{le="1"} 1' in text
        assert 'lat_seconds_bucket{le="2"} 2' in text
        assert 'lat_seconds_bucket{le="+Inf"} 2' in text
        assert "lat_seconds_count 2" in text

    def test_cumulativity_survives_merge(self, registry):
        bounds = (1.0, 2.0)
        registry.histogram(
            "m_seconds", buckets=bounds
        ).labels().observe(0.5)
        other = MetricsRegistry()
        other.histogram(
            "m_seconds", buckets=bounds
        ).labels().observe(1.5)
        registry.merge(other.snapshot())
        registry.merge(other.snapshot())  # merging twice doubles
        record = json.loads(to_jsonl(registry))
        counts = [count for _bound, count in record["buckets"]]
        assert counts == [1, 3, 3]
        assert counts == sorted(counts)
        assert record["count"] == 3
