"""Admission control for the serve daemon: shed early, fail fast.

Two independent guards sit in front of the expensive endpoints
(``POST /compile`` and ``POST /run``):

* :class:`AdmissionQueue` — a bounded concurrency gate with a bounded
  wait queue and **deadline-aware load shedding**.  It keeps an EWMA of
  recent service times; when the estimated queue delay already exceeds
  a request's deadline (or the queue itself is full), the request is
  rejected *immediately* with a 429 and a ``Retry-After`` hint instead
  of being accepted into a wait it cannot win.  Shedding at the door
  keeps latency bounded for the requests that are admitted — the
  textbook alternative (queue everything) converts overload into
  timeouts for *every* caller.

* :class:`CircuitBreaker` — a per-cache-key breaker over native builds.
  Repeated build failures for one key open its circuit: further
  requests fail fast with the cached error (503, ``Retry-After``)
  instead of burning a compiler subprocess on a spec that just failed
  N times.  After a cooldown one **half-open probe** is admitted; its
  success closes the circuit, its failure re-opens it for another
  cooldown.  Keys are independent — one poisoned spec cannot starve
  the rest of the service.

Both guards raise exceptions carrying ``retry_after`` so the daemon can
emit honest ``Retry-After`` headers (see ``docs/ROBUSTNESS.md``).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator

from repro.obs import metrics as obs_metrics

__all__ = ["AdmissionQueue", "CircuitBreaker", "CircuitOpenError",
           "ShedRequest"]

DEFAULT_CAPACITY = 8
DEFAULT_QUEUE_LIMIT = 64
DEFAULT_DEADLINE = 60.0
# EWMA smoothing for the service-time estimate: ~86% of the weight sits
# on the last 10 observations.
_EWMA_ALPHA = 0.2
# Until the first completion there is nothing to estimate from; assume
# a modest service time so cold-start estimates are not zero.
_INITIAL_SERVICE_SECONDS = 0.05

DEFAULT_BREAKER_THRESHOLD = 3
DEFAULT_BREAKER_COOLDOWN = 5.0


class ShedRequest(Exception):
    """The admission queue refused the request; retry after a delay."""

    def __init__(self, message: str, retry_after: float):
        super().__init__(message)
        self.retry_after = max(0.0, retry_after)


class CircuitOpenError(Exception):
    """The key's circuit is open; the cached build error fails fast."""

    def __init__(self, key: str, cached_error: str, retry_after: float,
                 failures: int):
        super().__init__(
            f"circuit open for {key[:16]}… after {failures} consecutive "
            f"build failures; last error: {cached_error}")
        self.key = key
        self.cached_error = cached_error
        self.retry_after = max(0.0, retry_after)
        self.failures = failures


class AdmissionQueue:
    """Bounded concurrency + bounded queue + deadline-aware shedding."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 queue_limit: int = DEFAULT_QUEUE_LIMIT,
                 default_deadline: float = DEFAULT_DEADLINE):
        self.capacity = max(1, capacity)
        self.queue_limit = max(0, queue_limit)
        self.default_deadline = default_deadline
        self._active = 0
        self._waiting = 0
        self._ewma = _INITIAL_SERVICE_SECONDS
        self._lock = threading.Lock()
        self._slot_free = threading.Condition(self._lock)
        self.shed_total = 0

    # -- estimates ------------------------------------------------------------

    def service_estimate(self) -> float:
        """The EWMA of recent service times, in seconds."""
        with self._lock:
            return self._ewma

    def _estimated_wait(self) -> float:
        """Expected queue delay for a request arriving *now* (locked).

        With ``capacity`` slots draining one request every ``ewma``
        seconds each, a request behind ``waiting`` others (plus the
        currently-running batch) waits roughly its queue position's
        worth of drain rounds.
        """
        backlog = self._waiting + max(0, self._active - self.capacity + 1)
        return backlog * self._ewma / self.capacity

    # -- admission ------------------------------------------------------------

    @contextmanager
    def admit(self, deadline: float | None = None) -> Iterator[None]:
        """Hold one execution slot; shed instead of waiting hopelessly.

        ``deadline`` is the caller's patience in seconds (the request's
        ``deadline_ms`` field); :class:`ShedRequest` is raised when the
        queue is full, the estimated wait already exceeds the deadline,
        or the deadline expires while queued.
        """
        patience = self.default_deadline if deadline is None else deadline
        started = time.monotonic()
        with self._slot_free:
            if self._active >= self.capacity:
                wait = self._estimated_wait()
                if self._waiting >= self.queue_limit:
                    self._shed("queue-full", wait)
                if wait > patience:
                    self._shed("deadline", wait)
                self._waiting += 1
                try:
                    while self._active >= self.capacity:
                        remaining = patience - (time.monotonic() - started)
                        if remaining <= 0:
                            self._shed("deadline-expired",
                                       self._estimated_wait())
                        self._slot_free.wait(timeout=min(remaining, 0.5))
                finally:
                    self._waiting -= 1
            self._active += 1
        try:
            yield
        finally:
            elapsed = time.monotonic() - started
            with self._slot_free:
                self._active -= 1
                self._ewma += _EWMA_ALPHA * (elapsed - self._ewma)
                self._slot_free.notify()

    def _shed(self, reason: str, estimated_wait: float) -> None:
        self.shed_total += 1
        obs_metrics.counter("serve.shed", reason=reason).inc()
        raise ShedRequest(
            f"overloaded ({reason}): {self._active} running, "
            f"{self._waiting} queued, estimated wait "
            f"{estimated_wait:.2f}s", retry_after=max(estimated_wait,
                                                      self._ewma))

    def stats(self) -> dict:
        with self._lock:
            return {"capacity": self.capacity,
                    "queue_limit": self.queue_limit,
                    "active": self._active, "waiting": self._waiting,
                    "service_estimate_seconds": round(self._ewma, 6),
                    "shed_total": self.shed_total}


class _Circuit:
    __slots__ = ("failures", "opened_at", "probing", "last_error")

    def __init__(self):
        self.failures = 0
        self.opened_at: float | None = None
        self.probing = False
        self.last_error = ""


class CircuitBreaker:
    """Per-key closed → open → half-open breaker over native builds."""

    def __init__(self, threshold: int = DEFAULT_BREAKER_THRESHOLD,
                 cooldown: float = DEFAULT_BREAKER_COOLDOWN):
        self.threshold = max(1, threshold)
        self.cooldown = cooldown
        self._circuits: dict[str, _Circuit] = {}
        self._lock = threading.Lock()

    def check(self, key: str) -> None:
        """Gate one build attempt; raises :class:`CircuitOpenError`.

        While open and cooling, every caller fails fast with the cached
        error.  Once the cooldown elapses, exactly one caller is let
        through as the half-open probe (the others keep failing fast
        until the probe reports back via :meth:`success` /
        :meth:`failure`).
        """
        with self._lock:
            circuit = self._circuits.get(key)
            if circuit is None or circuit.opened_at is None:
                return
            elapsed = time.monotonic() - circuit.opened_at
            if elapsed >= self.cooldown and not circuit.probing:
                circuit.probing = True
                obs_metrics.counter("serve.breaker.probe").inc()
                return
            obs_metrics.counter("serve.breaker.fastfail").inc()
            raise CircuitOpenError(
                key, circuit.last_error,
                retry_after=max(self.cooldown - elapsed, 0.05),
                failures=circuit.failures)

    def success(self, key: str) -> None:
        """A build for ``key`` succeeded: close and forget its circuit."""
        with self._lock:
            circuit = self._circuits.pop(key, None)
            if circuit is not None and circuit.opened_at is not None:
                obs_metrics.counter("serve.breaker.close").inc()

    def failure(self, key: str, error: str) -> None:
        """A build for ``key`` failed: count it, maybe (re)open."""
        with self._lock:
            circuit = self._circuits.setdefault(key, _Circuit())
            circuit.failures += 1
            circuit.last_error = error[:500]
            was_open = circuit.opened_at is not None
            if circuit.failures >= self.threshold or was_open:
                circuit.opened_at = time.monotonic()
                circuit.probing = False
                if not was_open:
                    obs_metrics.counter("serve.breaker.open").inc()

    def state(self, key: str) -> str:
        """``closed`` / ``open`` / ``half-open`` (diagnostics only)."""
        with self._lock:
            circuit = self._circuits.get(key)
            if circuit is None or circuit.opened_at is None:
                return "closed"
            if circuit.probing:
                return "half-open"
            if time.monotonic() - circuit.opened_at >= self.cooldown:
                return "half-open"
            return "open"

    def stats(self) -> dict:
        with self._lock:
            open_keys = sum(1 for c in self._circuits.values()
                            if c.opened_at is not None)
            return {"tracked_keys": len(self._circuits),
                    "open": open_keys, "threshold": self.threshold,
                    "cooldown_seconds": self.cooldown}
