"""Deterministic observability plane for the serving stack.

Three pieces, each usable on its own:

``obs.metrics``
    A typed, thread-safe registry of counters, gauges and **log-bucket
    histograms with fixed boundaries**.  Fixed boundaries mean per-worker
    histograms merge *exactly* at the router (element-wise count addition)
    instead of approximately.  :mod:`repro.perfstats` delegates to this
    registry, so every legacy ``perfstats.increment`` call is already a
    typed counter here.

``obs.trace``
    Per-request spans (submit → queue wait → worker recv (fleet) →
    featurize → infer → deliver) with trace ids derived from
    ``(plan fingerprint, request seq)``, so a replayed chaos schedule
    produces the *same span structure* run over run.  Span context rides
    the fleet's batch and result messages; the router assembles fleet-wide
    traces hang-safely because span data only travels on messages that
    already flow (results, stats payloads).

``obs.export``
    JSONL span export, Chrome trace-event (Perfetto-loadable) timelines,
    per-stage latency attribution (queue/featurize/infer/deliver share of
    p50/p95/p99) and SLO burn tracking against the availability/latency
    floors the chaos benches assert.

Tracing is strictly passive: spans record timings and annotations, never
values, so every bit-identity contract (served value == direct
``predict_runtimes``) holds with tracing enabled.  With tracing disabled
the request handles carry ``trace = None`` and the serving path does no
observability work at all.
"""

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    DEFAULT_LATENCY_BOUNDARIES_MS,
)
from .trace import (Span, TraceContext, Tracer, span_structure,
                    trace_id_for)
from .export import (
    chrome_trace_events,
    latency_attribution,
    slo_report,
    write_chrome_trace,
    write_spans_jsonl,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "DEFAULT_LATENCY_BOUNDARIES_MS",
    "Span",
    "TraceContext",
    "Tracer",
    "span_structure",
    "trace_id_for",
    "chrome_trace_events",
    "latency_attribution",
    "slo_report",
    "write_chrome_trace",
    "write_spans_jsonl",
]
