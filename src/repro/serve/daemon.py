"""The compile-once, serve-forever daemon: ``python -m repro serve``.

A small threaded HTTP API (TCP or Unix domain socket) over the
persistent artifact cache (:mod:`repro.cache`):

* ``POST /compile`` — ensure a native artifact exists for a spec
  (``{"source": ...}`` or ``{"benchmark": "filterbank"}``, optional
  ``backend``/``pipeline``/``no_opt``/``no_elim``/``limits``/
  ``deadline_ms``; a field neither endpoint reads is a 400); returns
  the cache key and whether it was a hit.
* ``POST /run`` — execute a spec (same fields plus ``iterations`` and
  ``route``: ``"native"`` runs the cached prebuilt binary, ``"interp"``
  the laminar interpreter, ``"auto"`` — the default — degrades from
  native to interpreter when the toolchain is missing); returns the
  checksum, output count and timing.  Appends a ``serve`` record to the
  run ledger.  Every execution runs in a :mod:`repro.serve.pool`
  worker process, never in the daemon.
* ``GET /metrics`` — the PR 6 OpenMetrics exposition (cache hit/miss/
  evict counters included, plus the labeled
  ``repro_serve_request_seconds{route,status,backend}`` histogram and
  ``repro_serve_inflight{route}`` gauge); ``GET /healthz`` (uptime,
  in-flight count, cache entries/bytes, ledger reachability);
  ``GET /cache/stats``.
* ``GET /debug/requests`` — the flight recorder: the last
  :data:`FLIGHT_RECORDER_SIZE` completed requests, each with its access
  record and span tree;
  ``GET /debug/trace/<request-id>`` — one request's record + span tree.

Every request runs under its own
:class:`repro.obs.reqctx.RequestContext`, whose tracer stamps every span
with a per-request id, and opens one ``serve.request`` root span on it.
That span is the request's one record: the handlers annotate it
(:func:`repro.obs.reqctx.note`), and :func:`access_record` projects it,
plus the context's ids, into the access record.  That record is the
access-log line (one flushed JSONL line, see ``repro tail``), the
flight recorder's ``record``, and the source of the serve ledger
record's ids; an error response's record names the error ``kind``.
The flight recorder keeps the root span itself and serializes it only
when ``/debug/*`` is read.  Metrics go straight to the process-wide
registry.  A valid W3C ``traceparent`` header is honoured — its trace
id flows through every span, the ledger record and the access log, and
the response carries ``X-Request-Id`` plus the outgoing
``traceparent``.

Concurrent compilations of the *same* cache key are deduplicated: one
request builds, the rest wait and read the published entry
(``serve.inflight.coalesced`` counts the waiters, and each waiter's
request is marked ``dedup`` in the access log).  Distinct keys build
concurrently.

Admission control: the server's default :class:`ResourceLimits` (from
``--limits``/``REPRO_LIMITS``) merged with the request's own ``limits``
spec is installed thread-locally around every compile, and a request
asking for more than ``max_iterations`` is rejected outright.  The PR 5
exit-code taxonomy maps onto the error model::

    HTTP 400  {"kind": "usage",              "exit_code": 2}  (also a
              malformed or negative ``Content-Length``)
    HTTP 422  {"kind": "compile-error",      "exit_code": 1}
    HTTP 429  {"kind": "resource-exhausted", "exit_code": 3}
    HTTP 503  {"kind": "native-<stage>",     "exit_code": 4}
    HTTP 503  {"kind": "draining",           "exit_code": 4}
    HTTP 500  {"kind": "internal",           "exit_code": 1}

See ``docs/SERVING.md`` for the full API reference.
"""

from __future__ import annotations

import collections
import json
import os
import socketserver
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro.api import CompiledStream
from repro.backend import runner
from repro.cache import (ArtifactCache, BACKENDS, build_native, native_key)
from repro.faults import (ResourceExhausted, ResourceLimits, use_limits)
from repro.frontend.errors import CompileError
from repro.knobs import ledger_fields
from repro.obs import ledger as obs_ledger
from repro.obs import metrics as obs_metrics
from repro.obs import reqctx
from repro.obs import trace as obs_trace
from repro.obs.export import span_to_dict
from repro.obs.sinks import (JsonlAppender, OPENMETRICS_CONTENT_TYPE,
                             to_openmetrics)
from repro.serve import pool as pool_mod
from repro.serve.admission import (AdmissionQueue, CircuitBreaker,
                                   CircuitOpenError, ShedRequest)
from repro.serve.pool import WorkerPool
from repro.suite import BENCHMARKS

DEFAULT_PORT = 9465
DEFAULT_MAX_ITERATIONS = 1_000_000
DEFAULT_DRAIN_TIMEOUT = 30.0

# Where ``python -m repro serve`` writes its access log unless told
# otherwise (library users pass ``access_log=`` explicitly).
DEFAULT_ACCESS_LOG = Path(".repro") / "serve-access.jsonl"
ACCESS_LOG_ENV = "REPRO_ACCESS_LOG"

# How many completed requests the in-memory flight recorder keeps
# (records + root spans, served by GET /debug/requests).
FLIGHT_RECORDER_SIZE = 128

_KNOWN_ROUTES = ("/healthz", "/metrics", "/cache/stats", "/compile",
                 "/run", "/debug/requests", "/debug/trace")


def _route_label(path: str) -> str:
    """A bounded-cardinality route label for one request path."""
    if path == "/":
        return "/healthz"
    if path.startswith("/debug/trace/"):
        return "/debug/trace"
    if path in _KNOWN_ROUTES:
        return path
    return "other"


class ApiError(Exception):
    """A request-level failure with an HTTP status and exit-code tag."""

    def __init__(self, status: int, kind: str, exit_code: int,
                 message: str, retry_after: float | None = None):
        super().__init__(message)
        self.status = status
        self.kind = kind
        self.exit_code = exit_code
        self.retry_after = retry_after

    def payload(self) -> dict:
        payload = {"error": str(self), "kind": self.kind,
                   "exit_code": self.exit_code}
        if self.retry_after is not None:
            payload["retry_after"] = round(self.retry_after, 3)
        return payload


def _usage(message: str) -> ApiError:
    return ApiError(400, "usage", 2, message)


# Every request field /compile or /run reads; any other is a 400, so a
# client sending a field the daemon dropped is told, not ignored.
SPEC_FIELDS = frozenset(pool_mod.SPEC_FIELDS) | {
    "backend", "limits", "deadline_ms", "iterations", "route"}


class ServeServer:
    """The daemon: request parsing, dedup, admission, cache, ledger."""

    def __init__(self, *, host: str = "127.0.0.1", port: int = 0,
                 socket_path: "str | Path | None" = None,
                 cache: ArtifactCache | None = None,
                 limits: ResourceLimits | None = None,
                 max_iterations: int = DEFAULT_MAX_ITERATIONS,
                 ledger: bool = True,
                 access_log: "str | Path | None" = None,
                 workers: int = pool_mod.DEFAULT_WORKERS,
                 job_timeout: float = pool_mod.DEFAULT_JOB_TIMEOUT,
                 admission: AdmissionQueue | None = None,
                 breaker: CircuitBreaker | None = None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.cache = cache if cache is not None else ArtifactCache()
        # /metrics serves the metrics registry; instruments are gated on
        # tracing, so a serving process keeps it enabled — from before
        # the scrub, whose counters it serves too.
        self._trace_was_enabled = obs_trace.is_enabled()
        if not self._trace_was_enabled:
            obs_trace.enable(reset=False)
        # A crash mid-publish leaves stage dirs behind; quarantine them
        # before serving so lookups never see partial entries.
        try:
            self.cache.scrub()
        except OSError:
            pass
        self.limits = limits
        self.max_iterations = max_iterations
        self.ledger = ledger
        # Every execution runs in a pool worker; workers spawn lazily on
        # the first job.
        self.pool = WorkerPool(workers, job_timeout=job_timeout)
        self.admission = admission if admission is not None \
            else AdmissionQueue()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self._draining = False
        self._stopped = False
        self.started_at = time.time()
        self.access_log = JsonlAppender(access_log) \
            if access_log else None
        # (access record, root span) pairs, oldest first.
        self._recorder: collections.deque = collections.deque(
            maxlen=FLIGHT_RECORDER_SIZE)
        self._recorder_lock = threading.Lock()
        self._inflight_routes: dict[str, int] = {}
        self._inflight_routes_lock = threading.Lock()
        self._streams = pool_mod.StreamMemo()
        self._inflight: dict[str, threading.Event] = {}
        self._flight_lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self.socket_path: str | None = None
        if socket_path is not None:
            self.socket_path = str(socket_path)
            path = Path(self.socket_path)
            if path.exists():
                path.unlink()
            self._server = _UnixServer(self.socket_path, _Handler)
        else:
            self._server = _TcpServer((host, port), _Handler)
        self._server.owner = self

    # -- lifecycle ------------------------------------------------------------

    @property
    def host(self) -> str | None:
        if self.socket_path is not None:
            return None
        return self._server.server_address[0]

    @property
    def port(self) -> int | None:
        if self.socket_path is not None:
            return None
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        if self.socket_path is not None:
            return f"unix:{self.socket_path}"
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServeServer":
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name="repro-serve", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        if self._thread is not None:
            self._server.shutdown()
            self._thread.join(timeout=5)
            self._thread = None
        self._server.server_close()
        if self.socket_path is not None:
            try:
                Path(self.socket_path).unlink()
            except OSError:
                pass
        self.pool.close()
        if not self._trace_was_enabled:
            obs_trace.disable()
        if self.access_log is not None:
            self.access_log.close()

    def drain(self, timeout: float = DEFAULT_DRAIN_TIMEOUT) -> bool:
        """Graceful shutdown: stop accepting, finish in-flight, flush.

        Closes the listener first (new connects are refused), waits up
        to ``timeout`` seconds for in-flight requests to complete, then
        tears everything down via :meth:`stop` — which flushes and
        closes the access log, kills the worker pool, and unlinks the
        Unix socket.  Returns ``True`` when every in-flight request
        finished inside the deadline (the caller's exit code hinges on
        this).
        """
        self._draining = True
        if self._thread is not None:
            self._server.shutdown()
            self._thread.join(timeout=5)
            self._thread = None
        # shutdown() only stops the accept loop; close the listening
        # socket too so new connects fail fast during the drain.
        self._server.server_close()
        deadline = time.monotonic() + timeout
        while self.inflight() > 0 and time.monotonic() < deadline:
            time.sleep(0.02)
        drained = self.inflight() == 0
        self.stop()
        return drained

    @property
    def draining(self) -> bool:
        return self._draining

    # -- request plumbing -----------------------------------------------------

    def handle(self, method: str, path: str, body: bytes | None,
               headers: dict | None = None
               ) -> tuple[int, str, bytes, dict]:
        """Serve one request under its own :class:`RequestContext`.

        ``body`` is ``None`` when the request's ``Content-Length`` was
        malformed; that request is answered 400 like any usage error.
        Returns ``(status, content-type, body, extra response headers)``
        — the extra headers carry ``X-Request-Id`` and the outgoing
        ``traceparent``.  On completion the labeled latency histogram
        observes the request, and its access record lands in the flight
        recorder and the access log (if configured).
        """
        lowered = {key.lower(): value
                   for key, value in (headers or {}).items()}
        ctx = reqctx.RequestContext(traceparent=lowered.get("traceparent"))
        route = _route_label(path)
        self._inflight_add(route, 1)
        try:
            # Opened on the request's tracer directly, so the record
            # exists even while process-wide tracing is off.
            with reqctx.activate(ctx), ctx.tracer.span(
                    "serve.request", method=method, path=path,
                    route=route) as root:
                status, content_type, payload, resp_headers = \
                    self._dispatch_request(method, path, body)
                root.annotate(status=status, bytes_out=len(payload))
        finally:
            self._inflight_add(route, -1)
        self._finish_request(ctx, root)
        extra = dict(resp_headers)
        extra.update({"X-Request-Id": ctx.request_id,
                      "Traceparent": ctx.traceparent})
        return status, content_type, payload, extra

    def _dispatch_request(self, method: str, path: str,
                          body: bytes | None) -> tuple[int, str, bytes, dict]:
        """Route one request to its endpoint; never raises."""
        obs_metrics.counter("serve.requests").inc()
        try:
            if body is None:
                raise _usage("Content-Length must be a non-negative "
                             "integer")
            if method == "GET" and path in ("/healthz", "/"):
                return self._json(200, self._healthz())
            if method == "GET" and path == "/metrics":
                text = to_openmetrics().encode("utf-8")
                return 200, OPENMETRICS_CONTENT_TYPE, text, {}
            if method == "GET" and path == "/cache/stats":
                return self._json(200, self.cache.stats())
            if method == "GET" and path == "/debug/requests":
                return self._json(200, {"requests": [
                    _recorder_entry(*entry) for entry in self._recent()]})
            if method == "GET" and path.startswith("/debug/trace/"):
                needle = path[len("/debug/trace/"):]
                return self._json(200, self._trace_of(needle))
            if method == "POST" and path == "/compile":
                return self._json(200, self._compile(_parse_body(body)))
            if method == "POST" and path == "/run":
                return self._json(200, self._run(_parse_body(body)))
            raise ApiError(404, "usage", 2,
                           f"no such endpoint: {method} {path}")
        except ApiError as error:
            return self._error(error)
        except ShedRequest as error:
            obs_metrics.counter("serve.admission.rejected").inc()
            return self._error(
                ApiError(429, "shed", 3, str(error),
                         retry_after=error.retry_after))
        except CircuitOpenError as error:
            return self._error(
                ApiError(503, "circuit-open", 4, str(error),
                         retry_after=error.retry_after))
        except ResourceExhausted as error:
            obs_metrics.counter("serve.admission.rejected").inc()
            return self._error(
                ApiError(429, "resource-exhausted", 3, error.message),
                resource=error.resource, limit=error.limit,
                actual=error.actual, where=error.where)
        except CompileError as error:
            return self._error(
                ApiError(422, "compile-error", 1, error.format()))
        except runner.NativeToolchainError as error:
            return self._error(
                ApiError(503, f"native-{error.stage}", 4, str(error)))
        except pool_mod.PoolExhausted as error:
            return self._error(
                ApiError(503, "worker-crashed", 4, str(error)))
        except pool_mod.WorkerError as error:
            # The pool is closed: the daemon is stopping.
            return self._error(ApiError(503, "draining", 4, str(error)))
        except Exception as error:  # noqa: BLE001 - the API boundary
            obs_metrics.counter("serve.errors").inc()
            return self._error(
                ApiError(500, "internal", 1,
                         f"{type(error).__name__}: {error}"))

    def _inflight_add(self, route: str, delta: int) -> None:
        # The gauge lives directly on the global registry: in-flight
        # counts are a process-wide fact, not a per-request delta.
        with self._inflight_routes_lock:
            value = max(0, self._inflight_routes.get(route, 0) + delta)
            self._inflight_routes[route] = value
        obs_metrics.registry().gauge("serve.inflight",
                                     route=route).set(value)

    def inflight(self) -> int:
        """Requests currently being handled (all routes)."""
        with self._inflight_routes_lock:
            return sum(self._inflight_routes.values())

    def _finish_request(self, ctx: reqctx.RequestContext,
                        root: obs_trace.Span) -> None:
        record = access_record(ctx)
        obs_metrics.registry().histogram(
            "serve.request.seconds", route=record["route"],
            status=str(record["status"]),
            backend=record["backend"]).observe(root.duration)
        with self._recorder_lock:
            self._recorder.append((record, root))
        if self.access_log is not None:
            try:
                self.access_log.write(record)
            except OSError:
                pass  # a full disk must not fail the request

    # -- introspection endpoints ----------------------------------------------

    def _healthz(self) -> dict:
        entries, cache_bytes = self.cache.size()
        ledger_path = obs_ledger.ledger_dir()
        return {
            "status": "draining" if self._draining else "ok",
            "uptime_seconds": time.time() - self.started_at,
            "inflight": self.inflight(),
            "requests_total":
                obs_metrics.registry().counter("serve.requests").value,
            "cache_root": str(self.cache.root),
            "cache": {"entries": entries, "bytes": cache_bytes},
            "ledger": {"enabled": self.ledger, "dir": str(ledger_path),
                       "reachable": _ledger_reachable(ledger_path)},
            "pool": self.pool.stats(),
            "admission": self.admission.stats(),
            "breaker": self.breaker.stats(),
        }

    def _recent(self) -> list[tuple[dict, obs_trace.Span]]:
        """Flight-recorder contents, most recent request first."""
        with self._recorder_lock:
            entries = list(self._recorder)
        entries.reverse()
        return entries

    def _trace_of(self, needle: str) -> dict:
        """One recorded request by request-id (prefix) or trace-id."""
        if not needle:
            raise _usage("empty request id")
        for record, root in self._recent():
            if record["request_id"].startswith(needle) \
                    or record["trace_id"] == needle:
                return _recorder_entry(record, root)
        raise ApiError(404, "usage", 2,
                       f"no recorded request matches {needle!r} "
                       f"(the flight recorder keeps the last "
                       f"{FLIGHT_RECORDER_SIZE})")

    def _json(self, status: int, payload: dict,
              headers: dict | None = None) -> tuple[int, str, bytes, dict]:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        return status, "application/json", body, dict(headers or {})

    def _error(self, error: ApiError, **detail: object
               ) -> tuple[int, str, bytes, dict]:
        """The error response, with ``detail`` merged into its payload;
        the access record names the error ``kind``."""
        if error.status >= 500:
            obs_metrics.counter("serve.errors").inc()
        reqctx.note(error=error.kind)
        headers = {}
        if error.retry_after is not None:
            # RFC 9110 allows only integer seconds; never hint zero.
            headers["Retry-After"] = str(max(1, int(error.retry_after
                                                    + 0.999)))
        return self._json(error.status, {**error.payload(), **detail},
                          headers)

    # -- endpoints ------------------------------------------------------------

    def _compile(self, request: dict) -> dict:
        parsed = self._parse_common(request)
        started = time.monotonic()
        with self.admission.admit(parsed["deadline"]), \
                self._admission(parsed):
            stream, stream_cached = self._streams.get(parsed)
            entry, hit, key = self._ensure_entry(stream, parsed)
        reqctx.note(backend=parsed["backend"], cache_hit=hit,
                    stream=stream.name)
        return {
            "key": key,
            "cache_hit": hit,
            "stream": stream.name,
            "stream_cached": stream_cached,
            "backend": parsed["backend"],
            "components": entry.components,
            "build_seconds": entry.meta.get("build_seconds"),
            "wall_seconds": time.monotonic() - started,
        }

    def _run(self, request: dict) -> dict:
        parsed = self._parse_common(request)
        iterations = request.get("iterations", 10)
        if not isinstance(iterations, int) or iterations <= 0:
            raise _usage(f"iterations must be a positive integer, "
                         f"got {iterations!r}")
        if iterations > self.max_iterations:
            raise ApiError(
                429, "resource-exhausted", 3,
                f"iterations ({iterations}) exceeds the server's "
                f"admission cap ({self.max_iterations})")
        route = request.get("route", "auto")
        if route not in ("auto", "native", "interp"):
            raise _usage(f"route must be auto|native|interp, got {route!r}")
        started = time.monotonic()
        degraded = False
        with self.admission.admit(parsed["deadline"]), \
                self._admission(parsed):
            stream, stream_cached = self._streams.get(parsed)
            hit = None
            key = None
            if route in ("auto", "native"):
                try:
                    entry, hit, key = self._ensure_entry(stream, parsed)
                except (runner.NativeCompileError,
                        CircuitOpenError) as error:
                    if route == "native":
                        raise
                    from repro.faults import degrade
                    degrade.record_fallback("serve /run", str(error))
                    degraded = True
                else:
                    result = self._execute("native", iterations, parsed,
                                           binary=str(entry.binary))
            if route == "interp" or degraded:
                # The worker re-derives the stream from the raw spec
                # fields, memoized per worker.
                result = self._execute("interp", iterations, parsed,
                                       **{name: request.get(name) for name
                                          in pool_mod.SPEC_FIELDS})
        result.update(stream=stream.name, iterations=iterations,
                      cache_hit=hit, key=key, degraded=degraded,
                      stream_cached=stream_cached,
                      backend=parsed["backend"],
                      wall_seconds=time.monotonic() - started)
        obs_metrics.counter(f"serve.run.{result['route']}").inc()
        reqctx.note(backend=parsed["backend"], cache_hit=hit,
                    degraded=degraded, run_route=result["route"],
                    stream=stream.name)
        self._ledger_note(stream, parsed, result)
        return result

    # -- shared request machinery ---------------------------------------------

    def _parse_common(self, request: dict) -> dict:
        if not isinstance(request, dict):
            raise _usage("request body must be a JSON object")
        unknown = sorted(set(request) - SPEC_FIELDS)
        if unknown:
            raise _usage(f"unknown spec field(s) {', '.join(unknown)}; "
                         f"known: {', '.join(sorted(SPEC_FIELDS))}")
        source = request.get("source")
        benchmark = request.get("benchmark")
        if (source is None) == (benchmark is None):
            raise _usage("exactly one of 'source' or 'benchmark' required")
        if benchmark is not None and benchmark not in BENCHMARKS:
            known = ", ".join(sorted(BENCHMARKS))
            raise _usage(f"unknown benchmark {benchmark!r}; known: {known}")
        backend = request.get("backend", "laminar-c")
        if backend not in BACKENDS:
            raise _usage(f"unknown backend {backend!r}; expected one of "
                         f"{', '.join(BACKENDS)}")
        try:
            lowering, opt = pool_mod.spec_options(request)
        except ValueError as error:
            raise _usage(str(error)) from None
        pipeline, knob_flags = ledger_fields(request)
        limits = None
        if request.get("limits"):
            try:
                limits = ResourceLimits.parse(request["limits"])
            except ValueError as error:
                raise _usage(str(error)) from None
        deadline = request.get("deadline_ms")
        if deadline is not None:
            if not isinstance(deadline, (int, float)) \
                    or isinstance(deadline, bool) or deadline <= 0:
                raise _usage("'deadline_ms' must be a positive number")
            deadline = deadline / 1e3
        return {"source": source, "benchmark": benchmark,
                "backend": backend, "opt": opt, "lowering": lowering,
                "limits": limits, "deadline": deadline,
                "pipeline": pipeline, "knob_flags": knob_flags}

    def _effective_limits(self, parsed: dict) -> ResourceLimits:
        effective = self.limits or ResourceLimits()
        if parsed["limits"] is not None:
            effective = effective.merged(parsed["limits"])
        return effective

    def _admission(self, parsed: dict):
        """Thread-local per-request resource limits, if any apply."""
        return use_limits(self._effective_limits(parsed))

    # -- pool-backed execution ------------------------------------------------

    def _execute(self, route: str, iterations: int, parsed: dict,
                 **fields) -> dict:
        """Run one ``native`` (``binary=``) or ``interp`` (the raw spec
        fields) job in a pool worker."""
        reply = self._pool_call({
            "kind": route, "iterations": iterations,
            "limits": self._effective_limits(parsed).spec(), **fields})
        return {"checksum": reply["checksum"],
                "outputs": reply["outputs"],
                "seconds": reply["seconds"], "route": route}

    def _pool_call(self, job: dict) -> dict:
        """Submit one job; job-level errors become the daemon's own
        exception taxonomy so status mapping and auto-route degradation
        see the same exceptions a direct call would raise.
        (:class:`~repro.serve.pool.WorkerError` — the worker died twice,
        or the pool is closed — propagates and maps to a 503.)
        """
        reply = self.pool.submit(job)
        if reply.get("ok"):
            return reply
        kind = reply.get("kind")
        message = str(reply.get("error") or "worker error")
        if kind == "resource-exhausted":
            raise ResourceExhausted(
                str(reply.get("resource") or "resource"),
                float(reply.get("limit") or 0),
                float(reply.get("actual") or 0),
                where=str(reply.get("where") or ""))
        if kind == "native":
            stage_cls = {"compile": runner.NativeCompileError,
                         "run": runner.NativeRunError,
                         "protocol": runner.NativeProtocolError,
                         "stall": runner.NativeStallError}
            cls = stage_cls.get(str(reply.get("stage")),
                                runner.NativeToolchainError)
            raise cls(message)
        if kind == "compile-error":
            raise ApiError(422, "compile-error", 1, message)
        raise ApiError(500, "internal", 1, message)

    def _ensure_entry(self, stream: CompiledStream, parsed: dict):
        """Cache lookup with single-flight build on miss.

        Exactly one request compiles a given key at a time; the others
        block on its completion and then read the published entry.
        """
        key, components = native_key(stream, backend=parsed["backend"],
                                     lowering=parsed["lowering"],
                                     opt=parsed["opt"])
        entry = self.cache.lookup(key)
        if entry is not None:
            return entry, True, key
        self.breaker.check(key)
        while True:
            with self._flight_lock:
                event = self._inflight.get(key)
                if event is None:
                    event = threading.Event()
                    self._inflight[key] = event
                    break
            obs_metrics.counter("serve.inflight.coalesced").inc()
            reqctx.note(dedup=True)
            event.wait()
            entry = self.cache.lookup(key)
            if entry is not None:
                return entry, True, key
            # The builder failed; loop to elect a new one.
        try:
            try:
                entry = build_native(stream, key, components,
                                     backend=parsed["backend"],
                                     lowering=parsed["lowering"],
                                     opt=parsed["opt"], cache=self.cache)
            except Exception as error:
                self.breaker.failure(key, str(error))
                raise
            self.breaker.success(key)
            return entry, False, key
        finally:
            with self._flight_lock:
                self._inflight.pop(key, None)
            event.set()

    def _ledger_note(self, stream: CompiledStream, parsed: dict,
                     result: dict) -> None:
        """Best-effort ledger record for one served run."""
        if not self.ledger:
            return
        # The root span is still open here: only the record's ids are
        # final, and they are all the ledger takes from it.
        record = access_record(reqctx.current())
        body = obs_ledger.make_body(
            "serve", stream.name, spec_hash=stream.source_hash,
            backend=parsed["backend"] if result["route"] == "native"
            else "interp",
            pipeline=parsed["pipeline"],
            iterations=result["iterations"],
            flags={**parsed["knob_flags"], "route": result["route"],
                   "cache_hit": bool(result.get("cache_hit")),
                   "degraded": result["degraded"]},
            checksum=result["checksum"], seconds=result["seconds"],
            metrics={"outputs": result["outputs"],
                     "wall_seconds": result["wall_seconds"]},
            request_id=record["request_id"], trace_id=record["trace_id"])
        try:
            obs_ledger.append(body)
        except OSError:
            pass


def access_record(ctx: reqctx.RequestContext) -> dict:
    """Project a request's ``serve.request`` root span, plus the
    context's ids, into its access record: the one record the access
    log, the flight recorder and the serve ledger all read."""
    root = ctx.tracer.roots[0]
    facts = root.attrs
    return {
        "type": "access",
        "wall_time": root.wall_start,
        "request_id": ctx.request_id,
        "trace_id": ctx.trace_id,
        "traceparent": ctx.traceparent,
        "traceparent_in": ctx.traceparent_in,
        "method": facts["method"],
        "path": facts["path"],
        "route": facts["route"],
        "status": facts.get("status"),
        "backend": str(facts.get("backend", "-")),
        "cache_hit": facts.get("cache_hit"),
        "dedup": bool(facts.get("dedup", False)),
        "degraded": bool(facts.get("degraded", False)),
        "error": facts.get("error"),
        "run_route": facts.get("run_route"),
        "stream": facts.get("stream"),
        "duration_ms": (root.duration_ns or 0) / 1e6,
        "bytes_out": facts.get("bytes_out"),
    }


def _recorder_entry(record: dict, root: obs_trace.Span) -> dict:
    """A flight-recorder entry as ``/debug/*`` serves it; the span tree
    is serialized here, on read, with start times relative to the
    request's start."""
    return {"record": record, "spans": [span_to_dict(root, root.start)]}


def _ledger_reachable(path: Path) -> bool:
    """Whether a ledger append would plausibly succeed: the directory
    (or its nearest existing ancestor) is writable.  No side effects —
    this runs on every ``/healthz`` probe."""
    probe = path
    while not probe.exists():
        parent = probe.parent
        if parent == probe:
            break
        probe = parent
    return os.access(probe, os.W_OK | os.X_OK)


def _parse_body(body: bytes) -> dict:
    try:
        parsed = json.loads(body.decode("utf-8") or "{}")
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise _usage(f"request body is not valid JSON: {error}") from None
    if not isinstance(parsed, dict):
        raise _usage("request body must be a JSON object")
    return parsed


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    def _dispatch(self, method: str) -> None:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        body = None  # malformed: handle() answers 400
        if length >= 0:
            body = self.rfile.read(length) if length else b""
        path = self.path.split("?", 1)[0]
        status, content_type, payload, extra = self.server.owner.handle(
            method, path, body, dict(self.headers))
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        for name, value in extra.items():
            self.send_header(name, value)
        if body is None:
            # The unread body's extent is unknown: end the connection.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self):  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self):  # noqa: N802 - http.server API
        self._dispatch("POST")

    def log_message(self, format, *args):  # noqa: A002 - http.server API
        pass  # the structured access log replaces stderr chatter


class _TcpServer(ThreadingHTTPServer):
    daemon_threads = True
    # The socketserver default backlog (5) drops simultaneous connects
    # under concurrent load; AF_UNIX surfaces that as EAGAIN rather
    # than retrying like TCP does.
    request_queue_size = 128
    owner: ServeServer


class _UnixServer(socketserver.ThreadingUnixStreamServer):
    daemon_threads = True
    request_queue_size = 128
    owner: ServeServer

    def get_request(self):
        # AF_UNIX peers have no (host, port); BaseHTTPRequestHandler
        # indexes client_address, so hand it a synthetic one.
        request, _address = super().get_request()
        return request, ("unix-socket", 0)
