"""Per-request observability context: contextvars-scoped tracing.

One process-global tracer is fine for a CLI invocation — one command,
one pipeline, one span tree.  A serving process is different: the
daemon handles many requests concurrently and their span trees would
interleave into an unattributable soup.  This module gives each request
its own island:

* a :class:`RequestContext` holds the request's trace identity and an
  isolated :class:`repro.obs.trace.Tracer` whose every span is stamped
  with the request and trace ids.  The daemon opens one
  ``serve.request`` root span on it, and that span is the request's
  one record: :func:`note` annotates it with access-log facts (backend,
  cache hit, dedup, degraded, error, ...), and the daemon projects it
  into the access log and the flight recorder.  Metrics always go to
  the process-wide registry;
* the context travels via a :mod:`contextvars` variable, so it follows
  the request through nested calls without threading a parameter through
  every layer — and the **ambient default is preserved**: with no
  context active, :func:`repro.obs.trace.span` behaves exactly as
  before (CLI runs and tests are untouched);
* trace identity follows the W3C Trace Context ``traceparent`` header
  (``00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>``):
  :func:`parse_traceparent` / :func:`make_traceparent` are the only
  encoder/decoder in the tree, shared by :class:`repro.serve.ServeClient`
  (injects) and the daemon (extracts), so one trace id joins
  client → daemon → cache → build → run.

Threads do **not** inherit contextvars automatically — a worker thread
that should trace into the current request must be started with
``contextvars.copy_context().run``.
"""

from __future__ import annotations

import contextlib
import contextvars
import re
import uuid

TRACEPARENT_RE = re.compile(
    r"^([0-9a-f]{2})-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$")

_ZERO_TRACE = "0" * 32
_ZERO_SPAN = "0" * 16


def mint_trace_id() -> str:
    """A fresh 32-hex-char W3C trace id."""
    return uuid.uuid4().hex


def mint_span_id() -> str:
    """A fresh 16-hex-char W3C parent/span id (doubles as a request id)."""
    return uuid.uuid4().hex[:16]


def parse_traceparent(header: object) -> tuple[str, str, str] | None:
    """``(trace_id, parent_id, flags)`` from a ``traceparent`` header.

    Returns ``None`` for anything invalid — wrong shape, uppercase hex,
    the reserved ``ff`` version, or all-zero ids — so callers fall back
    to minting a fresh trace instead of propagating garbage.
    """
    if not isinstance(header, str):
        return None
    match = TRACEPARENT_RE.match(header.strip())
    if match is None:
        return None
    version, trace_id, parent_id, flags = match.groups()
    if version == "ff" or trace_id == _ZERO_TRACE \
            or parent_id == _ZERO_SPAN:
        return None
    return trace_id, parent_id, flags


def make_traceparent(trace_id: str | None = None,
                     span_id: str | None = None,
                     flags: str = "01") -> str:
    """Render a ``traceparent`` header (fresh ids unless given)."""
    return (f"00-{trace_id or mint_trace_id()}-"
            f"{span_id or mint_span_id()}-{flags}")


class RequestContext:
    """One request's trace identity plus its isolated tracer.

    ``request_id`` is the daemon's own 16-hex span id for the request —
    it becomes the ``parent-id`` of the outgoing :attr:`traceparent` and
    the key of ``GET /debug/trace/<request-id>``.  ``trace_id`` is
    either continued from a valid incoming ``traceparent`` or freshly
    minted, so the request's spans and its access record carry the id
    the *client* can correlate on.
    """

    __slots__ = ("request_id", "trace_id", "parent_id", "flags",
                 "traceparent_in", "tracer")

    def __init__(self, *, traceparent: str | None = None,
                 request_id: str | None = None):
        from repro.obs.trace import Tracer

        parsed = parse_traceparent(traceparent) if traceparent else None
        if parsed is not None:
            self.trace_id, self.parent_id, self.flags = parsed
            self.traceparent_in: str | None = traceparent
        else:
            self.trace_id = mint_trace_id()
            self.parent_id = None
            self.flags = "01"
            self.traceparent_in = None
        self.request_id = request_id or mint_span_id()
        self.tracer = Tracer(stamp={"request_id": self.request_id,
                                    "trace_id": self.trace_id})

    @property
    def traceparent(self) -> str:
        """The outgoing header continuing this request's trace."""
        return make_traceparent(self.trace_id, self.request_id, self.flags)


_CONTEXT: contextvars.ContextVar[RequestContext | None] = \
    contextvars.ContextVar("repro_request_context", default=None)


def current() -> RequestContext | None:
    """The active request context, or ``None`` (ambient mode)."""
    return _CONTEXT.get()


def note(**facts: object) -> None:
    """Annotate the active context's root span with access-log facts
    (a no-op without a context or before its root span opens)."""
    ctx = _CONTEXT.get()
    if ctx is not None and ctx.tracer.roots:
        ctx.tracer.roots[0].annotate(**facts)


@contextlib.contextmanager
def activate(ctx: RequestContext):
    """Make ``ctx`` the active context for the duration of the block."""
    token = _CONTEXT.set(ctx)
    try:
        yield ctx
    finally:
        _CONTEXT.reset(token)
