"""Hierarchical span tracing for the compilation/execution pipeline.

A *span* is a named, timed region of work.  Spans nest: entering a span
while another is open makes it a child, so one traced run yields a tree
mirroring the pipeline (compile → parse/elaborate/flatten/schedule,
lower → optimize → per-pass rounds, run.fifo / run.laminar, native
compile+run).  Each span records wall-clock start time (display only),
a monotonic start/duration (``time.monotonic_ns`` — wall-clock deltas
can go negative under NTP slew, integer nanoseconds cannot), the owning
thread, and free-form attributes.

Tracing is **off by default** and designed for near-zero overhead when
disabled: :func:`span` then returns a shared no-op singleton, so the cost
of an instrumentation site is one global check plus a ``with`` on a
no-op object — no allocation, no locking, no timing calls.  Enable it
with the ``REPRO_TRACE`` environment variable (any value other than
``0``/``false``/``off``) or programmatically via :func:`enable` /
:func:`tracing`.

The tracer is thread-safe: every thread keeps its own span stack, and
spans opened on a thread with no enclosing span become additional roots.
Exporters for the collected tree live in :mod:`repro.obs.export`; a
closed-span hook (:func:`set_span_hook`) lets the CLI's ``--event-log``
write each span out as it closes.

Tracing is also **context-local**: while a
:class:`repro.obs.reqctx.RequestContext` is active (the serve daemon
activates one per HTTP request), :func:`span` and friends route to that
request's private :class:`Tracer` — whose every span is stamped with the
request/trace ids — instead of the ambient process-global one.  With no
context active, behaviour is exactly as before.
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
import time

from repro.obs import reqctx


class Span:
    """One timed region of the pipeline.  Use via ``with trace.span(...)``."""

    __slots__ = ("name", "attrs", "wall_start", "start_ns", "duration_ns",
                 "children", "thread_id", "_tracer")

    def __init__(self, name: str, attrs: dict, tracer: "Tracer"):
        self.name = name
        self.attrs = attrs
        self.wall_start = 0.0        # time.time() at __enter__ (display only)
        self.start_ns = 0            # time.monotonic_ns() at __enter__
        self.duration_ns: int | None = None
        self.children: list[Span] = []
        self.thread_id = 0
        self._tracer = tracer

    @property
    def start(self) -> float:
        """Monotonic start in seconds (derived from ``start_ns``)."""
        return self.start_ns / 1e9

    @property
    def duration(self) -> float | None:
        """Duration in seconds (derived from ``duration_ns``)."""
        if self.duration_ns is None:
            return None
        return self.duration_ns / 1e9

    def annotate(self, **attrs: object) -> None:
        """Attach additional attributes to this span."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self.thread_id = threading.get_ident()
        self._tracer._push(self)
        self.wall_start = time.time()
        self.start_ns = time.monotonic_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration_ns = time.monotonic_ns() - self.start_ns
        self._tracer._pop(self)
        hook = _span_hook
        if hook is not None:
            hook(self)
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        took = "open" if self.duration is None else f"{self.duration:.6f}s"
        return f"<Span {self.name} {took} children={len(self.children)}>"


class _NullSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()
    name = "<tracing disabled>"
    attrs: dict = {}
    children: list = []
    start_ns = 0
    duration_ns = 0
    start = 0.0
    duration = 0.0

    def annotate(self, **attrs: object) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects a forest of spans; thread-safe.

    ``stamp`` attributes (if given) are merged into every span opened on
    this tracer — request-scoped tracers use it to mark each span with
    the owning request/trace ids.
    """

    def __init__(self, stamp: dict | None = None):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.stamp = dict(stamp) if stamp else None
        self.roots: list[Span] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, /, **attrs: object) -> Span:
        """A new span; it attaches to the tree when entered."""
        if self.stamp:
            attrs = {**self.stamp, **attrs}
        return Span(name, attrs, self)

    def _push(self, span: Span) -> None:
        stack = self._stack()
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self.roots.append(span)
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        # Defensive: tolerate out-of-order exits instead of corrupting
        # the stack (e.g. a span closed twice).
        while stack:
            if stack.pop() is span:
                break

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def reset(self) -> None:
        with self._lock:
            self.roots = []
        self._local = threading.local()


def _env_enabled() -> bool:
    return os.environ.get("REPRO_TRACE", "").lower() not in \
        ("", "0", "false", "off")


_TRACER = Tracer()
_enabled = _env_enabled()

# Installed by the CLI's --event-log for the command's lifetime: called
# with every closed span so it is written out as it closes.
_span_hook = None


def set_span_hook(hook) -> None:
    """Install (or clear, with ``None``) the closed-span callback."""
    global _span_hook
    _span_hook = hook


def is_enabled() -> bool:
    """Whether spans and metrics are being recorded."""
    return _enabled


def enable(reset: bool = True) -> None:
    """Turn tracing (and metric recording) on.

    ``reset`` clears previously collected spans and metrics so the next
    :func:`get_trace` reflects only work done after this call.
    """
    global _enabled
    if reset:
        _reset_all()
    _enabled = True


def disable() -> None:
    """Turn tracing off; already-collected spans stay readable."""
    global _enabled
    _enabled = False


def _reset_all() -> None:
    _TRACER.reset()
    from repro.obs import metrics as _metrics
    _metrics.registry().reset()


def reset() -> None:
    """Drop all collected spans and metrics without changing
    enablement (an installed span hook stays installed)."""
    _reset_all()


def _active_tracer() -> Tracer:
    """The request-scoped tracer when a context is active, else ambient."""
    ctx = reqctx.current()
    if ctx is not None:
        return ctx.tracer
    return _TRACER


def get_tracer() -> Tracer:
    return _active_tracer()


def get_trace() -> list[Span]:
    """The collected root spans (a forest, usually a single tree)."""
    return list(_active_tracer().roots)


def span(name: str, /, **attrs: object) -> Span | _NullSpan:
    """Open a span: ``with trace.span("lower", stream=name) as sp: ...``

    When tracing is disabled this returns a shared no-op singleton, so
    instrumentation sites cost almost nothing.
    """
    if not _enabled:
        return NULL_SPAN
    return _active_tracer().span(name, **attrs)


def current_span() -> Span | _NullSpan:
    """The innermost open span on this thread (no-op span if none)."""
    if not _enabled:
        return NULL_SPAN
    return _active_tracer().current() or NULL_SPAN


def traced(name=None, **attrs):
    """Decorator form: trace every call of the wrapped function.

    Usable bare (``@traced``) or with a custom span name and attributes
    (``@traced("schedule.build", kind="sdf")``).
    """
    if callable(name):  # bare @traced
        return traced(None)(name)

    def decorate(fn):
        label = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not _enabled:
                return fn(*args, **kwargs)
            with _active_tracer().span(label, **attrs):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


@contextlib.contextmanager
def tracing(reset: bool = True):
    """Temporarily enable tracing; yields the tracer, restores on exit."""
    previous = _enabled
    enable(reset=reset)
    try:
        yield _TRACER
    finally:
        if not previous:
            disable()
