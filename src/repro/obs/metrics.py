"""Named metrics the pipeline publishes into: counters, gauges, histograms.

The registry is a process-global, thread-safe map from metric name to
instrument.  Producers across the stack publish through the module-level
helpers — the optimizer records per-pass op deltas and fixpoint round
counts, the scheduler records repetition-vector and schedule sizes, the
interpreters record steady-state :class:`repro.interp.counters.Counters`
snapshots — and consumers (the ``profile`` CLI subcommand, exporters,
benchmarks) read them back via :func:`registry`.

Recording follows the same switch as :mod:`repro.obs.trace`: while
tracing is disabled, :func:`counter` / :func:`gauge` / :func:`histogram`
return a shared no-op instrument, so instrumentation sites stay
near-free on hot paths.

Naming convention: dot-separated, lowest-frequency prefix first —
``opt.constant_folding.ops``, ``schedule.steady_firings``,
``interp.laminar.steady.total_ops``.

Instruments may carry **labels** (``histogram("serve.request.seconds",
route="/run", status="200")``): each distinct label set is its own
instrument, rendered as OpenMetrics label pairs by
:func:`repro.obs.sinks.to_openmetrics`.  Keep label values low-cardinality
(routes, statuses, backend names — never keys, ids or paths); every new
value mints a time series that lives for the life of the process.

Unlike tracing, recording is **not** context-local: the helpers always
publish into the process-global registry, so a serve request's counters
and histograms land in the process-wide aggregates ``/metrics`` scrapes.
"""

from __future__ import annotations

import math
import threading

from repro.obs import trace

Labels = tuple[tuple[str, str], ...]


def _label_items(labels: dict | None) -> Labels:
    """Canonical (sorted, stringified) form of a label mapping."""
    if not labels:
        return ()
    return tuple(sorted((str(key), str(value))
                        for key, value in labels.items()))


def _display_name(name: str, labels: Labels) -> str:
    """``name`` or ``name{k="v",...}`` — how a labeled metric is shown
    in :meth:`MetricsRegistry.as_dict`, ledger snapshots and reports."""
    if not labels:
        return name
    inner = ",".join(f'{key}="{value}"' for key, value in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Labels = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A last-value-wins measurement."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Labels = ()):
        self.name = name
        self.labels = labels
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of ``samples``; 0.0
    when there are none.  p99 of 10 samples is their max, not an
    interpolation."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = math.ceil(q / 100.0 * len(ordered)) - 1
    return ordered[max(0, min(len(ordered) - 1, rank))]


class Histogram:
    """Running count/sum/min/max/percentile summary of observed values.

    Percentiles come from a bounded, deterministic sample reservoir:
    every ``_stride``-th observation is kept, and when the reservoir
    exceeds :data:`Histogram.MAX_SAMPLES` it is decimated (every second
    sample dropped, stride doubled).  The same observation sequence
    always yields the same percentile estimates.
    """

    MAX_SAMPLES = 512

    __slots__ = ("name", "labels", "count", "total", "min", "max",
                 "_samples", "_stride")

    def __init__(self, name: str, labels: Labels = ()):
        self.name = name
        self.labels = labels
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._samples: list[float] = []
        self._stride = 1

    def observe(self, value: float) -> None:
        if self.count % self._stride == 0:
            self._samples.append(value)
            if len(self._samples) > self.MAX_SAMPLES:
                self._samples = self._samples[::2]
                self._stride *= 2
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile (``q`` in [0, 100]).

        While every observation is still in the reservoir (``n`` below
        :data:`MAX_SAMPLES`, stride 1) this is the *exact* nearest-rank
        percentile — p99 of 10 samples is the max, not an interpolated
        reservoir artifact.  After decimation it degrades to the same
        nearest-rank rule over the deterministic sample reservoir.
        """
        return percentile(self._samples, q)

    def summary(self) -> dict[str, float]:
        out = {"count": self.count, "total": self.total,
               "mean": self.mean, "min": self.min or 0.0,
               "max": self.max or 0.0}
        if self.count:
            out["p50"] = self.percentile(50)
            out["p90"] = self.percentile(90)
            out["p99"] = self.percentile(99)
        return out


class _NullInstrument:
    """Shared do-nothing instrument returned while recording is off."""

    __slots__ = ()
    name = "<metrics disabled>"
    labels: Labels = ()
    value = 0

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Thread-safe (name, labels) → instrument map, get-or-create.

    A *family* (all instruments sharing a name, across label sets) has a
    single type — asking for ``counter("x")`` after ``gauge("x", ...)``
    raises ``TypeError`` regardless of labels.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, Labels],
                            Counter | Gauge | Histogram] = {}
        self._family_types: dict[str, type] = {}

    def _get(self, name: str, cls, labels: dict | None = None):
        key = (name, _label_items(labels))
        metric = self._metrics.get(key)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(key)
                if metric is None:
                    existing = self._family_types.get(name)
                    if existing is not None and existing is not cls:
                        raise TypeError(
                            f"metric {name!r} already registered as "
                            f"{existing.__name__}, requested {cls.__name__}")
                    self._family_types[name] = cls
                    metric = self._metrics[key] = cls(name, key[1])
        if not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, requested {cls.__name__}")
        return metric

    def counter(self, name: str, /, **labels: object) -> Counter:
        return self._get(name, Counter, labels)

    def gauge(self, name: str, /, **labels: object) -> Gauge:
        return self._get(name, Gauge, labels)

    def histogram(self, name: str, /, **labels: object) -> Histogram:
        return self._get(name, Histogram, labels)

    def _sorted(self) -> list[Counter | Gauge | Histogram]:
        with self._lock:
            return [self._metrics[key] for key in sorted(self._metrics)]

    def instruments(self) -> dict[str, Counter | Gauge | Histogram]:
        """Display name → instrument snapshot (sorted), for exporters."""
        return {_display_name(metric.name, metric.labels): metric
                for metric in self._sorted()}

    def as_dict(self) -> dict[str, object]:
        """Snapshot of every metric, sorted by name then label set.

        Counters and gauges map to their value, histograms to their
        summary dict — directly JSON-serializable.
        """
        out: dict[str, object] = {}
        for metric in self._sorted():
            value = metric.summary() if isinstance(metric, Histogram) \
                else metric.value
            out[_display_name(metric.name, metric.labels)] = value
        return out

    def reset(self) -> None:
        with self._lock:
            self._metrics = {}
            self._family_types = {}


_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-global registry (always readable, even when disabled)."""
    return _REGISTRY


def counter(name: str, /, **labels: object) -> Counter | _NullInstrument:
    if not trace.is_enabled():
        return NULL_INSTRUMENT
    return _REGISTRY.counter(name, **labels)


def gauge(name: str, /, **labels: object) -> Gauge | _NullInstrument:
    if not trace.is_enabled():
        return NULL_INSTRUMENT
    return _REGISTRY.gauge(name, **labels)


def histogram(name: str, /, **labels: object) -> Histogram | _NullInstrument:
    if not trace.is_enabled():
        return NULL_INSTRUMENT
    return _REGISTRY.histogram(name, **labels)


def publish_counters(prefix: str, counters) -> None:
    """Publish an interpreter ``Counters`` snapshot as gauges.

    ``counters`` is anything with ``as_dict()`` (or a plain mapping);
    derived totals (``total_ops``, ``memory_accesses``) are published
    alongside the raw fields when available.
    """
    if not trace.is_enabled():
        return
    mapping = counters.as_dict() if hasattr(counters, "as_dict") \
        else dict(counters)
    for key, value in mapping.items():
        _REGISTRY.gauge(f"{prefix}.{key}").set(value)
    if hasattr(counters, "total_ops"):
        _REGISTRY.gauge(f"{prefix}.total_ops").set(counters.total_ops)
    if hasattr(counters, "memory_accesses"):
        _REGISTRY.gauge(f"{prefix}.memory_accesses").set(
            counters.memory_accesses)
