"""Pipeline-wide observability: spans, metrics, sinks, a ledger.

The pieces work together:

* :mod:`repro.obs.trace` — hierarchical spans around every pipeline
  stage (parse → elaborate → flatten → schedule → lower → optimize →
  codegen, plus both interpreters and the native harness);
* :mod:`repro.obs.metrics` — named counters/gauges/histograms the
  optimizer, scheduler, interpreters and native harness publish into;
* :mod:`repro.obs.sinks` — the append-only JSONL writer behind the
  serve access log and the CLI's ``--event-log``, and the OpenMetrics
  text exposition (served by the serve daemon's ``GET /metrics``);
* :mod:`repro.obs.export` — text-tree, JSON and Chrome trace-event
  renderings of a collected span forest;
* :mod:`repro.obs.ledger` — the persistent content-addressed run ledger
  behind ``python -m repro history`` / ``compare``;
* :mod:`repro.obs.reqctx` — per-request contextvars scoping: the serve
  daemon activates a :class:`~repro.obs.reqctx.RequestContext` per HTTP
  request so spans stay attributable under concurrency, with W3C
  ``traceparent`` propagation end-to-end.  The request's root span is
  its one record: access log and flight recorder are both projected
  from it.

Spans and metrics are off by default and near-free when disabled; turn
them on with ``REPRO_TRACE=1``, :func:`repro.obs.trace.enable`, the
:func:`repro.obs.trace.tracing` context manager, or the ``profile``
subcommand.  See ``docs/OBSERVABILITY.md``.
"""

from repro.obs import export, ledger, metrics, reqctx, sinks, trace
from repro.obs.export import (format_tree, to_chrome_trace, to_json,
                              write_chrome_trace)
from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               counter, gauge, histogram, publish_counters,
                               registry)
from repro.obs.reqctx import (RequestContext, make_traceparent,
                              parse_traceparent)
from repro.obs.sinks import JsonlAppender, to_openmetrics
from repro.obs.trace import (Span, Tracer, current_span, disable, enable,
                             get_trace, get_tracer, is_enabled, span,
                             traced, tracing)

__all__ = [
    "Counter", "Gauge", "Histogram", "JsonlAppender", "MetricsRegistry",
    "RequestContext", "Span", "Tracer", "counter", "current_span",
    "disable", "enable", "export", "format_tree", "gauge", "get_trace",
    "get_tracer", "histogram", "is_enabled", "ledger", "make_traceparent",
    "metrics", "parse_traceparent", "publish_counters", "registry",
    "reqctx", "sinks", "span", "to_chrome_trace", "to_json",
    "to_openmetrics", "trace", "traced", "tracing", "write_chrome_trace",
]
