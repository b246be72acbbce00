"""High-level facade: the API a downstream user of the library sees.

Typical use::

    from repro import compile_source

    stream = compile_source(open("fm_radio.str").read())
    result = stream.run_laminar(iterations=100)
    baseline = stream.run_fifo(iterations=100)
    assert result.outputs == baseline.outputs

``CompiledStream`` bundles the whole pipeline — parse → elaborate →
flatten → schedule — and exposes lowering, optimization, both
interpreters, both C backends and the analytic metrics.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.backend.common import checksum_outputs
from repro.faults import limits as faults_limits
from repro.backend.fifo_c import generate_fifo_c
from repro.backend.laminar_c import generate_laminar_c
from repro.frontend import parse_and_check
from repro.frontend.ast_nodes import Program as AstProgram
from repro.frontend.intrinsics import XorShift32
from repro.graph import FlatGraph, StreamNode, elaborate, flatten, \
    graph_stats
from repro.interp import FifoInterpreter, LaminarInterpreter, RunResult
from repro.lir import (LoweringOptions, Program, collector_paused, lower,
                       verify)
from repro.lir.ops import fresh_temp_ids
from repro.machine.metrics import CommunicationReport, communication_report
from repro.obs import metrics as obs_metrics
from repro.obs import trace
from repro.opt import OptOptions, OptStats, optimize
from repro.scheduling import Schedule, build_schedule


def _options_key(options: "LoweringOptions | OptOptions") -> tuple:
    """A hashable cache key: the options' field values.  Every field is
    flat, and ``OptOptions`` holds its pass list canonical, so equal
    settings give equal keys however they were spelled."""
    return tuple(getattr(options, f.name)
                 for f in dataclasses.fields(options))


def options_fingerprint(lowering: "LoweringOptions | None" = None,
                        opt: "OptOptions | None" = None) -> str:
    """Deterministic text form of the options key.

    This is the persistent artifact cache's options component (see
    :mod:`repro.cache`): the key of the in-process
    ``CompiledStream.lower`` memo, rendered via ``repr`` of plain tuples
    so equal options always produce equal strings.
    """
    return repr((_options_key(lowering if lowering is not None
                              else LoweringOptions()),
                 _options_key(opt if opt is not None else OptOptions())))


@dataclass
class LoweredResult:
    """A lowered + optimized LaminarIR program with its pass statistics."""

    program: Program
    opt_stats: OptStats


@dataclass
class CompiledStream:
    """A fully scheduled stream program, ready to run or lower."""

    source: str
    ast: AstProgram
    root: StreamNode
    graph: FlatGraph
    schedule: Schedule
    _lowered_cache: dict = field(default_factory=dict, repr=False)

    @property
    def name(self) -> str:
        return self.graph.name

    @property
    def source_hash(self) -> str:
        """sha256 of the source text — the ledger's ``spec_hash``."""
        return hashlib.sha256(self.source.encode("utf-8")).hexdigest()

    # -- structure ---------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Structural statistics (Table 1)."""
        out = graph_stats(self.graph)
        out["steady_firings"] = len(self.schedule.steady)
        out["init_firings"] = len(self.schedule.init)
        return out

    def communication(self) -> CommunicationReport:
        """Analytic data-communication volumes (experiment E2)."""
        return communication_report(self.schedule)

    # -- lowering ------------------------------------------------------------------

    def lower(self, lowering: LoweringOptions | None = None,
              opt: OptOptions | None = None) -> LoweredResult:
        """Lower to LaminarIR and optimize.  Results are cached per options.

        ``opt`` configures the pass manager: ``OptOptions.pipeline``
        is the pass list and ``max_rounds`` caps the
        fixpoint (see ``docs/OPTIMIZER.md``); the returned
        :class:`LoweredResult` carries the per-pass ``OptStats``.
        """
        opt = opt if opt is not None else OptOptions()
        key = (_options_key(lowering if lowering is not None
                            else LoweringOptions()),
               _options_key(opt))
        cached = self._lowered_cache.get(key)
        if cached is not None:
            return cached
        # Temps are numbered per lowering, so the emitted code does not
        # depend on what this process (or thread) compiled before.
        with faults_limits.compile_budget(), fresh_temp_ids(), \
                collector_paused(), trace.span("lower", stream=self.name):
            with trace.span("lower.lir"):
                # Firings no emitted code reads are left out only when
                # the optimizer's dead-code pre-prune would delete them.
                program = lower(self.schedule, self.source, lowering,
                                demand=opt.prunes_dead_code())
            stats = optimize(program, opt)
            with trace.span("verify"):
                verify(program)  # cheap invariant check after each pipeline
        result = LoweredResult(program=program, opt_stats=stats)
        self._lowered_cache[key] = result
        return result

    # -- execution -------------------------------------------------------------------

    def run_fifo(self, iterations: int,
                 seed: int = XorShift32.DEFAULT_SEED) -> RunResult:
        """Run the FIFO baseline interpreter (the StreamIt stand-in)."""
        with trace.span("run.fifo", stream=self.name,
                        iterations=iterations) as span:
            result = FifoInterpreter(self.schedule, self.source,
                                     rng_seed=seed).run(iterations)
            span.annotate(outputs=len(result.outputs))
        return result

    def run_laminar(self, iterations: int,
                    lowering: LoweringOptions | None = None,
                    opt: OptOptions | None = None,
                    seed: int = XorShift32.DEFAULT_SEED) -> RunResult:
        """Lower (cached), optimize and execute the LaminarIR program.

        ``iterations`` counts *schedule* iterations so results stay
        comparable with :meth:`run_fifo` even when
        ``lowering.steady_multiplier`` packs several schedule iterations
        into one LaminarIR body.
        """
        multiplier = (lowering or LoweringOptions()).steady_multiplier
        if iterations % multiplier:
            raise ValueError(
                f"iterations ({iterations}) must be a multiple of "
                f"steady_multiplier ({multiplier})")
        lowered = self.lower(lowering, opt)
        with trace.span("run.laminar", stream=self.name,
                        iterations=iterations) as span:
            result = LaminarInterpreter(lowered.program, rng_seed=seed).run(
                iterations // multiplier)
            span.annotate(outputs=len(result.outputs))
        return result

    # -- native code ---------------------------------------------------------------

    def fifo_c(self) -> str:
        """The baseline C program (run-time FIFO queues)."""
        with trace.span("codegen.fifo_c", stream=self.name):
            return generate_fifo_c(self.schedule, self.source)

    def laminar_c(self, lowering: LoweringOptions | None = None,
                  opt: OptOptions | None = None) -> str:
        """The LaminarIR C program (compile-time queues)."""
        with collector_paused():
            lowered = self.lower(lowering, opt)
            with trace.span("codegen.laminar_c", stream=self.name):
                return generate_laminar_c(lowered.program)


def compile_source(source: str,
                   filename: str = "<string>") -> CompiledStream:
    """Run the full frontend pipeline on ``source``.

    The whole invocation runs under one ``compile_seconds`` wall-clock
    budget when the ambient :class:`repro.faults.ResourceLimits` sets
    one (see ``docs/ROBUSTNESS.md``).
    """
    with faults_limits.compile_budget(), \
            trace.span("compile", file=filename) as span:
        with trace.span("parse"):
            ast = parse_and_check(source, filename)
        faults_limits.check_deadline("elaborate")
        with trace.span("elaborate"):
            root = elaborate(ast)
        faults_limits.check_deadline("flatten")
        with trace.span("flatten"):
            graph = flatten(root)
        # build_schedule opens its own "schedule" span with sub-stages.
        schedule = build_schedule(graph)
        stream = CompiledStream(source=source, ast=ast, root=root,
                                graph=graph, schedule=schedule)
        span.annotate(stream=stream.name, spec_hash=stream.source_hash,
                      filters=len(graph.vertices))
    obs_metrics.gauge("compile.source_bytes").set(len(source))
    return stream


def compile_file(path: str | Path) -> CompiledStream:
    path = Path(path)
    return compile_source(path.read_text(), str(path))


@dataclass
class EquivalenceReport:
    """Outcome of running both routes and comparing outputs (E8)."""

    matches: bool
    output_count: int
    fifo: RunResult
    laminar: RunResult
    checksum: int


def check_equivalence(stream: CompiledStream, iterations: int = 10,
                      lowering: LoweringOptions | None = None,
                      opt: OptOptions | None = None) -> EquivalenceReport:
    """Run both interpreters and compare their output streams exactly."""
    with trace.span("equivalence", stream=stream.name,
                    iterations=iterations) as span:
        fifo = stream.run_fifo(iterations)
        laminar = stream.run_laminar(iterations, lowering, opt)
        matches = fifo.outputs == laminar.outputs
        span.annotate(matches=matches)
    return EquivalenceReport(matches=matches,
                             output_count=len(fifo.outputs),
                             fifo=fifo, laminar=laminar,
                             checksum=checksum_outputs(fifo.outputs))
