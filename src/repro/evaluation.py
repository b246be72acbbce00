"""Per-benchmark evaluation records — the numbers behind every table/figure.

``evaluate_benchmark`` runs both interpreter routes on one suite benchmark
and packages the paper's metrics: data communication (E2), modeled
per-platform speedup (E3), memory accesses (E4), modeled energy (E5),
plus structural stats (Table 1).  The experiment drivers under
``benchmarks/`` format these records into the paper-style rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api import CompiledStream
from repro.interp.counters import Counters, RunResult
from repro.lir import LoweringOptions
from repro.machine.metrics import CommunicationReport
from repro.machine.platforms import CostModel, PLATFORMS, estimate_spills
from repro.obs import trace
from repro.opt import OptOptions, OptStats
from repro.suite import load_benchmark


@dataclass
class BenchmarkEvaluation:
    name: str
    stats: dict[str, int]
    comm: CommunicationReport
    iterations: int
    fifo: RunResult
    laminar: RunResult
    outputs_match: bool
    spills: dict[str, int] = field(default_factory=dict)
    # Optimizer statistics of the lowered program (per-pass counts,
    # fixpoint rounds, optimize wall time) — the report command's table.
    opt_stats: OptStats | None = None
    # Measured native wall-clock seconds (``evaluate_stream(native=True)``)
    # or ``None`` when native was off or the toolchain failed; in the
    # latter case ``degraded`` is set and ``degraded_reason`` says why
    # (see docs/ROBUSTNESS.md).
    native_seconds: float | None = None
    degraded: bool = False
    degraded_reason: str | None = None

    # -- derived metrics ------------------------------------------------------

    @property
    def fifo_counters(self) -> Counters:
        return self.fifo.steady_counters

    @property
    def laminar_counters(self) -> Counters:
        return self.laminar.steady_counters

    @property
    def memory_reduction(self) -> float:
        """Fraction of baseline loads+stores eliminated (experiment E4)."""
        baseline = self.fifo_counters.memory_accesses
        if baseline == 0:
            return 0.0
        return 1.0 - self.laminar_counters.memory_accesses / baseline

    def memory_accesses_modeled(self, model: CostModel,
                                laminar: bool) -> float:
        """Loads+stores including modeled spill traffic (per steady run)."""
        counters = self.laminar_counters if laminar else self.fifo_counters
        spills = self.spills.get(model.name, 0) * self.iterations \
            if laminar else 0
        return counters.memory_accesses + 2 * spills

    def memory_reduction_modeled(self, model: CostModel) -> float:
        """E4's headline number: reduction after charging register spills."""
        baseline = self.memory_accesses_modeled(model, laminar=False)
        if baseline == 0:
            return 0.0
        return 1.0 - self.memory_accesses_modeled(model,
                                                  laminar=True) / baseline

    def cycles(self, model: CostModel, laminar: bool) -> float:
        counters = self.laminar_counters if laminar else self.fifo_counters
        spills = self.spills.get(model.name, 0) * self.iterations \
            if laminar else 0
        return model.cycles(counters, spills)

    def speedup(self, model: CostModel) -> float:
        """Modeled speedup of LaminarIR over the FIFO baseline (E3)."""
        laminar_cycles = self.cycles(model, laminar=True)
        if laminar_cycles == 0:
            return float("inf")
        return self.cycles(model, laminar=False) / laminar_cycles

    def energy(self, model: CostModel, laminar: bool) -> float:
        counters = self.laminar_counters if laminar else self.fifo_counters
        spills = self.spills.get(model.name, 0) * self.iterations \
            if laminar else 0
        return model.energy_pj(counters, spills)

    def energy_saving(self, model: CostModel) -> float:
        """Fraction of baseline energy saved (experiment E5)."""
        baseline = self.energy(model, laminar=False)
        if baseline == 0:
            return 0.0
        return 1.0 - self.energy(model, laminar=True) / baseline


def evaluate_stream(name: str, stream: CompiledStream, iterations: int = 8,
                    lowering: LoweringOptions | None = None,
                    opt: OptOptions | None = None,
                    native: bool = False) -> BenchmarkEvaluation:
    """Evaluate an already-compiled stream program.

    ``native=True`` additionally builds and times the LaminarIR C backend;
    when the toolchain fails the record degrades gracefully to
    interpreter-only results (``degraded``/``degraded_reason`` set,
    ``native_seconds`` left ``None``) instead of raising.
    """
    with trace.span("evaluate", benchmark=name, iterations=iterations):
        fifo = stream.run_fifo(iterations)
        laminar = stream.run_laminar(iterations, lowering, opt)
        lowered = stream.lower(lowering, opt)
        with trace.span("evaluate.spills"):
            spills = {model.name: estimate_spills(lowered.program, model)
                      for model in PLATFORMS.values()}
        evaluation = BenchmarkEvaluation(
            name=name, stats=stream.stats(), comm=stream.communication(),
            iterations=iterations, fifo=fifo, laminar=laminar,
            outputs_match=fifo.outputs == laminar.outputs, spills=spills,
            opt_stats=lowered.opt_stats)
        if native:
            from repro.faults import degrade
            attempt = degrade.native_or_fallback(
                stream.laminar_c(lowering, opt), iterations,
                name=name, where=f"evaluate[{name}]")
            if attempt.degraded:
                evaluation.degraded = True
                evaluation.degraded_reason = attempt.reason
            elif attempt.run is not None:
                evaluation.native_seconds = attempt.run.seconds
        return evaluation


def evaluate_benchmark(name: str, iterations: int = 8,
                       lowering: LoweringOptions | None = None,
                       opt: OptOptions | None = None,
                       static_input: bool = False) -> BenchmarkEvaluation:
    """Load one suite benchmark and evaluate it."""
    stream = load_benchmark(name, static_input=static_input)
    return evaluate_stream(name, stream, iterations, lowering, opt)


def geometric_mean(values: list[float]) -> float:
    if not values:
        return 0.0
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


def format_table(headers: list[str], rows: list[list[str]],
                 title: str = "") -> str:
    """Render an aligned plain-text table for the experiment drivers."""
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
