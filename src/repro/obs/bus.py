"""The telemetry bus: structured events and pluggable sinks.

The bus is the seam between the *producers* of telemetry (spans from
:mod:`repro.obs.trace`, metrics from :mod:`repro.obs.metrics`, and the
structured :class:`Event` records this module introduces) and its
*consumers* — :class:`TelemetrySink` implementations that stream it
somewhere durable (:mod:`repro.obs.sinks`: a JSONL event log).

Three kinds of telemetry flow through:

* **Events** — discrete, point-in-time facts (``native.stall``,
  ``compile.done``).  Forwarded to every attached sink, independent of
  whether span tracing is enabled — an event like a watchdog stall must
  not vanish just because nobody asked for a profile.
* **Spans** — forwarded to sinks as they *close* (streamed, not
  buffered), via a hook the bus installs into :mod:`repro.obs.trace`
  while at least one sink is attached.  With no sinks the hook is
  ``None`` and span exit pays nothing extra.
* **Metric snapshots** — pushed at :meth:`TelemetryBus.flush` time so
  a file sink can persist a final registry snapshot.

Sinks must tolerate being called from any thread; the bus serializes
fan-out under one lock.

While a :class:`repro.obs.reqctx.RequestContext` is active, every
emitted event is stamped with that request's ``request_id``/``trace_id``
attributes.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.obs import reqctx, trace


@dataclass
class Event:
    """One structured, point-in-time telemetry record."""

    name: str
    wall_time: float = 0.0      # time.time() at publish (display only)
    monotonic_ns: int = 0       # time.monotonic_ns() at publish
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out: dict[str, object] = {
            "name": self.name,
            "wall_time": self.wall_time,
            "monotonic_ns": self.monotonic_ns,
        }
        if self.attrs:
            out["attrs"] = {key: _jsonable(value)
                            for key, value in self.attrs.items()}
        return out


def _jsonable(value: object) -> object:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


class TelemetrySink:
    """Base class for telemetry consumers; every callback is optional.

    ``on_event`` receives each published :class:`Event`, ``on_span``
    each *closed* :class:`repro.obs.trace.Span`, and ``on_metrics`` a
    registry snapshot at flush time.  ``flush``/``close`` bracket the
    sink's lifetime; ``close`` implies a final flush.
    """

    def on_event(self, event: Event) -> None:
        pass

    def on_span(self, span) -> None:
        pass

    def on_metrics(self, snapshot: dict) -> None:
        pass

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class TelemetryBus:
    """Fans telemetry out to attached sinks; thread-safe."""

    def __init__(self):
        self._lock = threading.Lock()
        self._sinks: list[TelemetrySink] = []

    # -- sink lifecycle -------------------------------------------------------

    def add_sink(self, sink: TelemetrySink) -> TelemetrySink:
        with self._lock:
            self._sinks.append(sink)
            trace.set_span_hook(self._span_closed)
        return sink

    def remove_sink(self, sink: TelemetrySink) -> None:
        with self._lock:
            if sink in self._sinks:
                self._sinks.remove(sink)
            if not self._sinks:
                trace.set_span_hook(None)

    def sinks(self) -> list[TelemetrySink]:
        with self._lock:
            return list(self._sinks)

    # -- telemetry fan-out ----------------------------------------------------

    def emit(self, name: str, /, **attrs: object) -> Event:
        """Publish an event to every attached sink."""
        ctx = reqctx.current()
        if ctx is not None:
            attrs.setdefault("request_id", ctx.request_id)
            attrs.setdefault("trace_id", ctx.trace_id)
        event = Event(name=name, wall_time=time.time(),
                      monotonic_ns=time.monotonic_ns(), attrs=attrs)
        for sink in self.sinks():
            sink.on_event(event)
        return event

    def _span_closed(self, span) -> None:
        with self._lock:
            sinks = list(self._sinks)
        for sink in sinks:
            sink.on_span(span)

    def flush(self, metrics_snapshot: dict | None = None) -> None:
        """Push a metrics snapshot (when given) and flush every sink."""
        for sink in self.sinks():
            if metrics_snapshot is not None:
                sink.on_metrics(metrics_snapshot)
            sink.flush()


_BUS = TelemetryBus()


def get_bus() -> TelemetryBus:
    """The process-global telemetry bus."""
    return _BUS


def emit_event(name: str, /, **attrs: object) -> Event:
    """Publish one event on the global bus (see :meth:`TelemetryBus.emit`)."""
    return _BUS.emit(name, **attrs)
