"""Observability: metrics registry, spans, packet tracing, phase timing.

The measurement platform measuring itself. See DESIGN.md §"Observability"
for how the dataplane, rate limiters, prober, and campaign layers
report here, and ``python -m repro stats`` for the operator view.

``export`` and ``status`` write through
:mod:`repro.probing.artifacts`, but import it only when they write,
so loading this package never loads the simulator.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    get_registry,
)
from repro.obs.spans import (
    DEFAULT_SPAN_CAPACITY,
    MAX_SPAN_EVENTS,
    Span,
    SpanTracer,
    TRACER,
    get_tracer,
)
from repro.obs.journal import (
    DEFAULT_JOURNAL_CAPACITY,
    JOURNAL_PROGRESS_EVERY,
    FlightRecorder,
)
from repro.obs.timing import timed
from repro.obs.trace import DEFAULT_TRACE_CAPACITY, PacketTracer, TraceEvent
from repro.obs.export import (
    load_trace_jsonl,
    render_span_tree,
    spans_to_jsonl,
    to_chrome_trace,
    to_jsonl,
    to_prometheus,
    trace_events_to_jsonl,
    write_chrome_trace,
    write_jsonl,
    write_spans_jsonl,
    write_trace_jsonl,
)
from repro.obs.status import (
    CampaignStatusWriter,
    STATUS_VERSION,
    load_status,
    render_status,
    sum_counter,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "get_registry",
    "Span",
    "SpanTracer",
    "TRACER",
    "get_tracer",
    "DEFAULT_SPAN_CAPACITY",
    "MAX_SPAN_EVENTS",
    "FlightRecorder",
    "DEFAULT_JOURNAL_CAPACITY",
    "JOURNAL_PROGRESS_EVERY",
    "PacketTracer",
    "TraceEvent",
    "DEFAULT_TRACE_CAPACITY",
    "timed",
    "to_jsonl",
    "to_prometheus",
    "write_jsonl",
    "spans_to_jsonl",
    "write_spans_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
    "render_span_tree",
    "trace_events_to_jsonl",
    "write_trace_jsonl",
    "load_trace_jsonl",
    "CampaignStatusWriter",
    "STATUS_VERSION",
    "load_status",
    "render_status",
    "sum_counter",
]
