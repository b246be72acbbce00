"""Concrete telemetry sinks: JSONL event log, Chrome trace, OpenMetrics.

Every sink implements the :class:`repro.obs.bus.TelemetrySink`
interface; attach them with ``bus.get_bus().add_sink(...)`` (the CLI's
``--event-log`` flag does exactly that).

* :class:`JsonlEventSink` — appends one JSON object per line: every
  published event (``{"type": "event", ...}``), every closed span
  (``{"type": "span", ...}``, flat — nesting is recoverable from the
  Chrome trace or the span forest) and a final metrics snapshot
  (``{"type": "metrics", ...}``) at flush.  The durable, greppable,
  diffable form of what PR 1's in-process tracer kept only in memory.
* :class:`ChromeTraceSink` — the existing Chrome trace-event exporter
  (:mod:`repro.obs.export`) ported onto the sink interface: buffers the
  last metrics snapshot and serializes the collected span forest at
  close.
* :class:`OpenMetricsSink` / :func:`to_openmetrics` — the metrics
  registry rendered as Prometheus/OpenMetrics text exposition
  (``repro_``-prefixed families; counters as ``_total``, histograms as
  summaries with ``quantile`` labels, terminated by ``# EOF``); the
  serve daemon's ``GET /metrics`` serves it.
* :class:`JsonlAccessLog` — the serve daemon's structured request log:
  one JSON object per request, flushed per line so ``repro tail
  --follow`` and CI greps see entries the moment they land.
"""

from __future__ import annotations

import json
import re
import threading
from pathlib import Path

from repro.obs import metrics as obs_metrics
from repro.obs.bus import Event, TelemetrySink, _jsonable

OPENMETRICS_CONTENT_TYPE = \
    "application/openmetrics-text; version=1.0.0; charset=utf-8"


def span_record(span) -> dict:
    """A flat JSON-serializable record of one closed span."""
    out: dict[str, object] = {
        "name": span.name,
        "wall_start": span.wall_start,
        "start_ns": span.start_ns,
        "duration_ns": span.duration_ns if span.duration_ns is not None
        else 0,
        "thread": span.thread_id,
        "children": len(span.children),
    }
    if span.attrs:
        out["attrs"] = {key: _jsonable(value)
                        for key, value in span.attrs.items()}
    return out


def span_tree(span) -> dict:
    """A nested JSON-serializable record of a span and its descendants
    (what ``GET /debug/trace/<request-id>`` returns)."""
    record = span_record(span)
    record["children"] = [span_tree(child) for child in span.children]
    return record


class JsonlEventSink(TelemetrySink):
    """Append-only JSONL log of events, closed spans and metric snapshots."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._file = None

    def _write(self, payload: dict) -> None:
        with self._lock:
            if self._file is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._file = self.path.open("a", encoding="utf-8")
            self._file.write(json.dumps(payload, sort_keys=True) + "\n")

    def on_event(self, event: Event) -> None:
        self._write({"type": "event", **event.to_dict()})

    def on_span(self, span) -> None:
        self._write({"type": "span", **span_record(span)})

    def on_metrics(self, snapshot: dict) -> None:
        self._write({"type": "metrics", "metrics": snapshot})

    def flush(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.flush()

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None


class JsonlAccessLog:
    """Append-only JSONL request log for the serve daemon.

    Unlike :class:`JsonlEventSink` (buffered until flush), every record
    is flushed as it is written: tailers (``repro tail --follow``) and
    CI greps must see a request the moment it completes, and the daemon
    may be killed without a clean shutdown.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._file = None

    def write(self, record: dict) -> None:
        line = json.dumps(record, sort_keys=True) + "\n"
        with self._lock:
            if self._file is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._file = self.path.open("a", encoding="utf-8")
            self._file.write(line)
            self._file.flush()

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None


class ChromeTraceSink(TelemetrySink):
    """Writes the collected span forest as Chrome trace-event JSON at close."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._snapshot: dict | None = None

    def on_metrics(self, snapshot: dict) -> None:
        self._snapshot = snapshot

    def close(self) -> None:
        from repro.obs import export, trace
        export.write_chrome_trace(trace.get_trace(), self.path,
                                  metrics=self._snapshot)


# -- OpenMetrics text exposition ----------------------------------------------

def _metric_name(name: str) -> str:
    return "repro_" + re.sub(r"[^a-zA-Z0-9_:]", "_", name)


def _fmt(value: float) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


# OpenMetrics escaping: HELP text escapes backslash and newline; label
# values additionally escape the double quote.
_ESCAPE_HELP = str.maketrans({"\\": "\\\\", "\n": "\\n"})
_ESCAPE_LABEL = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n"})


def _escape_help(text: str) -> str:
    return text.translate(_ESCAPE_HELP)


def _escape_label(value: object) -> str:
    return str(value).translate(_ESCAPE_LABEL)


def _labelset(labels, extra=()) -> str:
    """``{k="v",...}`` with escaped values, or ``""`` when unlabeled."""
    pairs = [*labels, *extra]
    if not pairs:
        return ""
    inner = ",".join(f'{key}="{_escape_label(value)}"'
                     for key, value in pairs)
    return "{" + inner + "}"


def _unit_of(family: str) -> str | None:
    for unit in ("seconds", "bytes"):
        if family.endswith("_" + unit):
            return unit
    return None


def to_openmetrics(registry: "obs_metrics.MetricsRegistry | None" = None
                   ) -> str:
    """Render the metrics registry as OpenMetrics text exposition.

    Counters become ``<name>_total`` counter families, gauges gauge
    families, histograms summary families (``quantile`` labels for
    p50/p90/p99 plus ``_count``/``_sum``).  Metric names are the
    registry's dotted names with ``repro_`` prefixed and every
    non-``[a-zA-Z0-9_:]`` character mapped to ``_``.  Instruments
    sharing a name but differing in labels render as one family with
    one sample line per label set; label values and HELP text are
    escaped per the OpenMetrics spec, and families measuring seconds or
    bytes get a ``# UNIT`` line.  The exposition is terminated by the
    mandatory ``# EOF`` line.
    """
    if registry is None:
        registry = obs_metrics.registry()
    lines: list[str] = []
    seen: set[str] = set()
    for instrument in registry.instruments().values():
        family = _metric_name(instrument.name)
        if family not in seen:
            seen.add(family)
            kind = {obs_metrics.Counter: "counter",
                    obs_metrics.Gauge: "gauge",
                    obs_metrics.Histogram: "summary"}[type(instrument)]
            lines.append(f"# TYPE {family} {kind}")
            unit = _unit_of(family)
            if unit is not None:
                lines.append(f"# UNIT {family} {unit}")
            lines.append(
                f"# HELP {family} {_escape_help(instrument.name)}")
        labels = _labelset(instrument.labels)
        if isinstance(instrument, obs_metrics.Counter):
            lines.append(
                f"{family}_total{labels} {_fmt(instrument.value)}")
        elif isinstance(instrument, obs_metrics.Gauge):
            lines.append(f"{family}{labels} {_fmt(instrument.value)}")
        elif isinstance(instrument, obs_metrics.Histogram):
            for q in (0.5, 0.9, 0.99):
                value = instrument.percentile(q * 100)
                qlabels = _labelset(instrument.labels,
                                    (("quantile", q),))
                lines.append(f"{family}{qlabels} {_fmt(value)}")
            lines.append(
                f"{family}_count{labels} {_fmt(instrument.count)}")
            lines.append(
                f"{family}_sum{labels} {_fmt(instrument.total)}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


class OpenMetricsSink(TelemetrySink):
    """Writes the OpenMetrics exposition to a file at every flush."""

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def flush(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(to_openmetrics())

    def close(self) -> None:
        self.flush()
