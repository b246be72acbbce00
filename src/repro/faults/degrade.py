"""Graceful native→interpreter degradation.

A missing or broken C toolchain must never take down an evaluation, a
profiling run or a fuzz campaign — the laminar interpreter computes the
same outputs, just without native timings.  :func:`native_or_fallback`
attempts the native route and, on a *toolchain* failure
(:class:`~repro.backend.runner.NativeCompileError`), records a
``native.fallback`` counter and span in :mod:`repro.obs` and returns a
degraded :class:`NativeAttempt` instead of raising.

Failures of the generated *binary* (:class:`NativeRunError`, including
protocol violations) propagate: a crashing or lying binary is a finding
about the generated code, not an environment problem to paper over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.backend.runner import (NativeCompileError, NativeRun,
                                  compile_and_run)
from repro.obs import metrics as obs_metrics
from repro.obs import trace

__all__ = ["NativeAttempt", "native_or_fallback", "record_fallback"]


@dataclass
class NativeAttempt:
    """Outcome of one native attempt; ``degraded`` means fallback taken."""

    run: NativeRun | None
    degraded: bool = False
    reason: str | None = None


def record_fallback(where: str, reason: str) -> None:
    """Publish one native→interpreter fallback into the obs registry."""
    obs_metrics.counter("native.fallback").inc()
    with trace.span("native.fallback", where=where,
                    reason=reason.splitlines()[0][:200]):
        pass


def native_or_fallback(code: str, iterations: int, *,
                       print_outputs: bool = False, name: str = "prog",
                       where: str = "native",
                       log: Callable[[str], None] | None = None
                       ) -> NativeAttempt:
    """Run ``code`` natively, degrading to a no-result on toolchain loss."""
    try:
        run = compile_and_run(code, iterations,
                              print_outputs=print_outputs, name=name)
    except NativeCompileError as error:
        reason = str(error)
        record_fallback(where, reason)
        if log is not None:
            log(f"notice: native toolchain unavailable "
                f"({reason.splitlines()[0]}); degraded to interpreter "
                "results")
        return NativeAttempt(run=None, degraded=True, reason=reason)
    return NativeAttempt(run=run)
