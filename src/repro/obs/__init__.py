"""Pipeline-wide observability: spans, metrics, events, sinks, a ledger.

The pieces work together:

* :mod:`repro.obs.trace` — hierarchical spans around every pipeline
  stage (parse → elaborate → flatten → schedule → lower → optimize →
  codegen, plus both interpreters and the native harness);
* :mod:`repro.obs.metrics` — named counters/gauges/histograms the
  optimizer, scheduler, interpreters and native harness publish into;
* :mod:`repro.obs.bus` — the telemetry bus: structured point-in-time
  :class:`~repro.obs.bus.Event` records plus the
  :class:`~repro.obs.bus.TelemetrySink` fan-out seam;
* :mod:`repro.obs.sinks` — concrete sinks: JSONL event log, Chrome
  trace, OpenMetrics text exposition (served by the serve daemon's
  ``GET /metrics``);
* :mod:`repro.obs.export` — text-tree, JSON and Chrome trace-event
  renderings of a collected span forest;
* :mod:`repro.obs.ledger` — the persistent content-addressed run ledger
  behind ``python -m repro history`` / ``compare``;
* :mod:`repro.obs.reqctx` — per-request contextvars scoping: the serve
  daemon activates a :class:`~repro.obs.reqctx.RequestContext` per HTTP
  request so spans, metric deltas and events stay attributable under
  concurrency, with W3C ``traceparent`` propagation end-to-end.

Spans and metrics are off by default and near-free when disabled; turn
them on with ``REPRO_TRACE=1``, :func:`repro.obs.trace.enable`, the
:func:`repro.obs.trace.tracing` context manager, or the ``profile``
subcommand.  Events always flow (a ``native.stall`` must not vanish
because nobody asked for a profile).  See ``docs/OBSERVABILITY.md``.
"""

from repro.obs import bus, export, ledger, metrics, reqctx, sinks, trace
from repro.obs.bus import (Event, TelemetryBus, TelemetrySink, emit_event,
                           get_bus)
from repro.obs.export import (format_tree, to_chrome_trace, to_json,
                              write_chrome_trace)
from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               counter, gauge, histogram, publish_counters,
                               registry)
from repro.obs.reqctx import (RequestContext, make_traceparent,
                              parse_traceparent)
from repro.obs.sinks import (ChromeTraceSink, JsonlAccessLog, JsonlEventSink,
                             OpenMetricsSink, span_tree, to_openmetrics)
from repro.obs.trace import (Span, Tracer, current_span, disable, enable,
                             get_trace, get_tracer, is_enabled, span,
                             traced, tracing)

__all__ = [
    "ChromeTraceSink", "Counter", "Event", "Gauge", "Histogram",
    "JsonlAccessLog", "JsonlEventSink", "MetricsRegistry",
    "OpenMetricsSink", "RequestContext", "Span", "TelemetryBus",
    "TelemetrySink", "Tracer", "bus", "counter", "current_span", "disable",
    "emit_event", "enable", "export", "format_tree", "gauge", "get_bus",
    "get_trace", "get_tracer", "histogram", "is_enabled", "ledger",
    "make_traceparent", "metrics", "parse_traceparent", "publish_counters",
    "registry", "reqctx", "sinks", "span", "span_tree", "to_chrome_trace",
    "to_json", "to_openmetrics", "trace", "traced", "tracing",
    "write_chrome_trace",
]
