"""The differential oracle: one program, every execution route.

Routes (in order):

1. **fifo-interp** — the FIFO baseline interpreter (the reference).
2. **laminar-interp** — LaminarIR lowering fully unrolled (no loop
   regions), optimizer off.
3. **laminar-opt** — LaminarIR lowering, full optimizer.
4. **fifo-c** / **laminar-c** — both native backends, compiled and run
   when a C compiler is on PATH (``native=True``), each built three
   ways: at the default flags, at ``-O0`` (routes ``*-O0``) and with
   AddressSanitizer and UndefinedBehaviorSanitizer (routes
   ``*-sanitize``), where a sanitizer report is a ``native-error``.

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
from repro.backend.runner import (DEFAULT_CFLAGS, O0_CFLAGS, SANITIZE_CFLAGS,
                                  NativeCompileError, NativeRunError,
                                  NativeToolchainError, compile_and_run,
                                  find_compiler)
from repro.faults import degrade
from repro.faults.limits import ResourceExhausted
from repro.frontend.errors import CompileError
from repro.frontend.values import OPERATOR_FAULTS
from repro.lir import LoweringOptions
from repro.obs import trace
from repro.opt import OptOptions

__all__ = ["Divergence", "OracleReport", "run_source"]

# Programs whose steady schedule explodes (unlucky rate combinations)
# are skipped rather than fuzzed slowly.
MAX_STEADY_FIRINGS = 600

# How a native run that stopped at a runtime error (the C runtime's
# exit 4, as an interpreter fault) is reported.
_RUNTIME_ERROR_EXIT = "native run failed (exit 4)"

# Every native route's builds, by route-name suffix: each one's outputs
# are diffed against the FIFO interpreter's.
NATIVE_BUILDS = (("", DEFAULT_CFLAGS), ("-O0", O0_CFLAGS),
                 ("-sanitize", SANITIZE_CFLAGS))


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


def _same_fault(error: str | None, reference: str | None) -> bool:
    """Whether two routes faulted alike: with the same message, or each
    in an operator (which of several a route meets first is not fixed,
    see ``OPERATOR_FAULTS``)."""
    if error == reference:
        return True
    return error is not None and reference is not None \
        and error.startswith(OPERATOR_FAULTS) \
        and reference.startswith(OPERATOR_FAULTS)


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
            divergences — only *disagreement* between routes is.  A
            fault is its message: a constant fold that finds it while
            compiling reports the fault an interpreter meets running."""
            try:
                return runner(), None
            except ResourceExhausted:
                # Guardrails fire during lowering too (op/time budgets):
                # let the skip handler below classify the whole program.
                raise
            except CompileError as error:
                return None, error.message
            except ValueError as error:
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
             lambda: stream.run_laminar(iterations,
                                        LoweringOptions(regions=False),
                                        OptOptions(pipeline=()))),
            ("laminar-opt",
             lambda: stream.run_laminar(iterations, LoweringOptions(),
                                        OptOptions())),
        )
        laminar_opt = None
        for name, runner in routes:
            result, error = _attempt(runner)
            if fifo_error is not None or error is not None:
                if not _same_fault(error, fifo_error):
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
        # Counter invariant: LaminarIR eliminates splitter/joiner traffic,
        # it never adds any.  (It does not apply when every route faulted
        # identically, which is agreement.)
        if fifo_error is None and (
                laminar_opt.steady_counters.token_transfers  # type: ignore
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
            reference = None if fifo_error is not None else [
                int(v) if isinstance(v, bool) else v for v in fifo.outputs]
            codes = [("fifo-c", stream.fifo_c())]
            laminar_code, error = _attempt(stream.laminar_c)
            if laminar_code is not None:
                codes.append(("laminar-c", laminar_code))
            elif fifo_error is None or not _same_fault(error, fifo_error):
                divergence = Divergence(
                    kind="route-error", route="laminar-c",
                    detail=f"{error}; reference fifo-interp: "
                           f"{fifo_error or 'ran cleanly'}")
                span.annotate(outcome=divergence.kind)
                return OracleReport(divergence)
            # else compiling found the interpreters' fault.
            builds = [(backend + suffix, code, cflags)
                      for backend, code in codes
                      for suffix, cflags in NATIVE_BUILDS]
            for name, code, cflags in builds:
                try:
                    run = compile_and_run(code, iterations,
                                          print_outputs=True, name="fuzz",
                                          cflags=cflags)
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
                    # The *binary* misbehaved (crash, sanitizer report,
                    # timeout, protocol violation): that is a finding
                    # about the generated code, reported as a divergence.
                    # When the interpreters faulted, the binary must
                    # report a runtime error (exit 4) instead.
                    if reference is None and isinstance(
                            error, NativeRunError) \
                            and str(error).startswith(_RUNTIME_ERROR_EXIT):
                        continue
                    divergence = Divergence(
                        kind="native-error", route=name,
                        detail=f"{type(error).__name__}: {error}")
                    span.annotate(outcome=divergence.kind)
                    return OracleReport(divergence)
                if reference is None:
                    divergence = Divergence(
                        kind="route-error", route=name,
                        detail=f"ran cleanly; reference fifo-interp: "
                               f"{fifo_error}")
                    span.annotate(outcome=divergence.kind)
                    return OracleReport(divergence)
                divergence = _diff(reference, run.outputs, name,
                                   coerce=True)
                if divergence is not None:
                    span.annotate(outcome=divergence.kind)
                    return OracleReport(divergence)

        if fifo_error is not None:
            span.annotate(outcome="ok-error")
            return OracleReport(None, degraded=degraded)
        span.annotate(outcome="ok", outputs=len(fifo.outputs))
        return OracleReport(None, output_count=len(fifo.outputs),
                            degraded=degraded)
