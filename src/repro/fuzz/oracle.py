"""The differential oracle: one program, every execution route.

Routes (in order):

1. **fifo-interp** — the FIFO baseline interpreter (the reference).
2. **laminar-interp** — LaminarIR lowering, optimizer off.
3. **laminar-opt** — LaminarIR lowering, full optimizer.
4. **fifo-c** / **laminar-c** — both native backends, compiled and run
   when a C compiler is on PATH (``native=True``).

Outputs are compared token-by-token and bit-exactly (floats by their
IEEE-754 pattern, so an identical NaN cannot raise a false alarm), and
the paper's headline counter invariant is asserted: the optimized
LaminarIR route must not perform more data communication
(``token_transfers``) than the FIFO baseline.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.api import compile_source
from repro.backend.runner import (NativeCompileError, NativeToolchainError,
                                  compile_and_run, find_compiler)
from repro.faults import degrade
from repro.faults.limits import ResourceExhausted
from repro.frontend.errors import CompileError
from repro.lir import LoweringOptions
from repro.obs import trace
from repro.opt import OptOptions

__all__ = ["Divergence", "OracleReport", "run_source"]

# Programs whose steady schedule explodes (unlucky rate combinations)
# are skipped rather than fuzzed slowly.
MAX_STEADY_FIRINGS = 600


@dataclass
class Divergence:
    """One disagreement between execution routes."""

    kind: str      # compile-error | route-error | output-mismatch |
                   # counter-invariant | native-error
    route: str
    detail: str

    def signature(self) -> tuple[str, str, str]:
        """Stable identity for delta debugging: two programs diverge
        "the same way" when their signatures match."""
        head = self.detail.split(":", 1)[0] if self.kind in (
            "compile-error", "route-error", "native-error") else ""
        return (self.kind, self.route, head)

    def __str__(self) -> str:
        return f"[{self.kind}] route={self.route}: {self.detail}"


@dataclass
class OracleReport:
    divergence: Divergence | None
    skipped: str | None = None
    output_count: int = 0
    # Set when the native routes were requested but fell back to the
    # interpreter verdict because the toolchain failed (not the program).
    degraded: str | None = None

    @property
    def ok(self) -> bool:
        return self.divergence is None


def _token(value: object) -> tuple:
    """Bit-exact comparison key for one output token."""
    if isinstance(value, bool):
        return ("i", int(value))
    if isinstance(value, int):
        return ("i", value)
    return ("f", struct.pack("<d", float(value)))


def _diff(reference: list, candidate: list, route: str,
          coerce: bool = False) -> Divergence | None:
    """``coerce`` is for the native text protocol: ``%.17g`` prints a
    whole double as ``0``, which the runner parses back as an int, so a
    parsed int is lifted to the reference token's float type (lossless —
    ``%.17g`` round-trips doubles exactly)."""
    if len(reference) != len(candidate):
        return Divergence(
            kind="output-mismatch", route=route,
            detail=f"output count {len(candidate)} != reference "
                   f"{len(reference)}")
    for index, (ref, got) in enumerate(zip(reference, candidate)):
        if coerce and isinstance(ref, float) and isinstance(got, int):
            got = float(got)
        if _token(ref) != _token(got):
            return Divergence(
                kind="output-mismatch", route=route,
                detail=f"token {index}: {got!r} != reference {ref!r}")
    return None


def run_source(source: str, iterations: int = 4,
               native: bool = False,
               max_steady_firings: int = MAX_STEADY_FIRINGS
               ) -> OracleReport:
    """Run ``source`` through every route and report the first divergence.

    ``native=True`` additionally builds and runs both C backends (skipped
    silently when no compiler is found).
    """
    with trace.span("fuzz.oracle", iterations=iterations) as span:
        try:
            stream = compile_source(source, "<fuzz>")
        except ResourceExhausted as error:
            # A guardrail fired: policy, not a compiler bug — skip the
            # program like an oversized schedule rather than flag it.
            span.annotate(outcome="resource-exhausted")
            return OracleReport(None, skipped=f"resource exhausted: "
                                              f"{error.message}")
        except CompileError as error:
            span.annotate(outcome="compile-error")
            return OracleReport(Divergence(
                kind="compile-error", route="compile",
                detail=f"{type(error).__name__}: {error}"))
        if len(stream.schedule.steady) > max_steady_firings:
            span.annotate(outcome="skipped")
            return OracleReport(
                None, skipped=f"steady schedule too large "
                              f"({len(stream.schedule.steady)} firings)")

        def _attempt(runner):
            """(result, error-string); runtime faults are data, not
            divergences — only *disagreement* between routes is."""
            try:
                return runner(), None
            except ResourceExhausted:
                # Guardrails fire during lowering too (op/time budgets):
                # let the skip handler below classify the whole program.
                raise
            except (CompileError, ValueError) as error:
                return None, f"{type(error).__name__}: {error}"

        try:
            return _run_routes(stream, iterations, native, span, _attempt)
        except ResourceExhausted as error:
            span.annotate(outcome="resource-exhausted")
            return OracleReport(None, skipped=f"resource exhausted: "
                                              f"{error.message}")


def _run_routes(stream, iterations: int, native: bool, span,
                _attempt) -> OracleReport:
        fifo, fifo_error = _attempt(lambda: stream.run_fifo(iterations))
        routes = (
            ("laminar-interp",
             lambda: stream.run_laminar(iterations, LoweringOptions(),
                                        OptOptions(pipeline=()))),
            ("laminar-opt",
             lambda: stream.run_laminar(iterations, LoweringOptions(),
                                        OptOptions())),
        )
        laminar_opt = None
        for name, runner in routes:
            result, error = _attempt(runner)
            if fifo_error is not None or error is not None:
                if error != fifo_error:
                    divergence = Divergence(
                        kind="route-error", route=name,
                        detail=f"{error or 'ran cleanly'}; reference "
                               f"fifo-interp: "
                               f"{fifo_error or 'ran cleanly'}")
                    span.annotate(outcome=divergence.kind)
                    return OracleReport(divergence)
                continue
            divergence = _diff(fifo.outputs, result.outputs, name)
            if divergence is not None:
                span.annotate(outcome=divergence.kind)
                return OracleReport(divergence)
            if name == "laminar-opt":
                laminar_opt = result
        if fifo_error is not None:
            # Every route faulted identically; that is agreement, but the
            # counter invariant and the native exit protocol don't apply.
            span.annotate(outcome="ok-error")
            return OracleReport(None)

        # Counter invariant: LaminarIR eliminates splitter/joiner traffic,
        # it never adds any.
        assert laminar_opt is not None
        if (laminar_opt.steady_counters.token_transfers
                > fifo.steady_counters.token_transfers):
            divergence = Divergence(
                kind="counter-invariant", route="laminar-opt",
                detail="steady data communication "
                       f"{laminar_opt.steady_counters.token_transfers} > "
                       f"FIFO {fifo.steady_counters.token_transfers}")
            span.annotate(outcome=divergence.kind)
            return OracleReport(divergence)

        degraded: str | None = None
        if native and find_compiler() is not None:
            reference = [int(v) if isinstance(v, bool) else v
                         for v in fifo.outputs]
            for name, code in (("fifo-c", stream.fifo_c()),
                               ("laminar-c", stream.laminar_c())):
                try:
                    run = compile_and_run(code, iterations,
                                          print_outputs=True, name="fuzz")
                except NativeCompileError as error:
                    # A broken toolchain is an environment fault, not a
                    # finding: degrade to the interpreter-only verdict
                    # (already reached above) and skip the native routes.
                    degrade.record_fallback(f"fuzz.oracle[{name}]",
                                            str(error))
                    degraded = f"{name}: {type(error).__name__}: {error}"
                    span.annotate(degraded=name)
                    break
                except NativeToolchainError as error:
                    # The *binary* misbehaved (crash, timeout, protocol
                    # violation): that is a finding about the generated
                    # code, reported as a divergence.
                    divergence = Divergence(
                        kind="native-error", route=name,
                        detail=f"{type(error).__name__}: {error}")
                    span.annotate(outcome=divergence.kind)
                    return OracleReport(divergence)
                divergence = _diff(reference, run.outputs, name,
                                   coerce=True)
                if divergence is not None:
                    span.annotate(outcome=divergence.kind)
                    return OracleReport(divergence)

        span.annotate(outcome="ok", outputs=len(fifo.outputs))
        return OracleReport(None, output_count=len(fifo.outputs),
                            degraded=degraded)
