"""The pass manager, the optimization pipeline and its statistics.

``optimize`` builds a :class:`PassManager` and runs the configured
pipeline.  The default order matches the classic sequence::

    copy-prop → promote (mem2reg/SROA)
    → {carries, const-fold, CSE, DCE}* → pressure scheduling

Counted loop regions are formed before any of it, by the lowering
(``LoweringOptions.regions``); the pipeline lists only passes.

The bracketed group repeats until a round changes nothing.  Each pass in
it is one linear sweep over the program (see ``repro.opt.passes``) that
resolves its own cascades — the carries pass included, which resolves
a whole chain of invariant carries in one call — so the group
typically converges in one to three rounds.  Every pass is
idempotent, so a pass is skipped when no pass has changed the program
since it last ran.  ``OptOptions.pipeline`` is the pass list (the
CLI's ``--opt-pipeline``): the E7 ablations drop entries from it.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

from repro.faults import limits as faults_limits
from repro.faults import plan as fault_plan
from repro.lir.ops import LoopRegion
from repro.lir.program import Program
from repro.obs import metrics as obs_metrics
from repro.obs import trace
from repro.opt.carries import carries
from repro.opt.passes import (common_subexpression_elimination,
                              constant_folding, copy_propagation,
                              dead_code_elimination)
from repro.opt.promote import promote_state
from repro.opt.schedule_ops import schedule_for_pressure

_FIXPOINT_ROUNDS = 64

# Canonical pass names plus the short aliases --opt-pipeline accepts.
_PASS_ALIASES = {
    "cp": "copy_propagation",
    "copy_propagation": "copy_propagation",
    "promote": "promote_state",
    "promote_state": "promote_state",
    "fold": "constant_folding",
    "constant_folding": "constant_folding",
    "carry": "carries",
    "carries": "carries",
    "cse": "common_subexpression_elimination",
    "common_subexpression_elimination": "common_subexpression_elimination",
    "dce": "dead_code_elimination",
    "dead_code_elimination": "dead_code_elimination",
    "schedule": "schedule_for_pressure",
    "schedule_for_pressure": "schedule_for_pressure",
}

# Passes that may participate in a fixpoint group (contiguous runs of
# these in the pipeline iterate together until quiescent).
_GROUP_PASSES = {
    "constant_folding": constant_folding,
    "carries": carries,
    "common_subexpression_elimination": common_subexpression_elimination,
    "dead_code_elimination": dead_code_elimination,
}


def parse_pipeline(spec: str) -> tuple[str, ...]:
    """Parse a ``--opt-pipeline`` spec like ``cp,promote,fold,cse,dce``.

    Returns canonical pass names; raises ``ValueError`` on an unknown
    pass so the CLI can reject it up front.
    """
    names = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        canonical = _PASS_ALIASES.get(token)
        if canonical is None:
            known = ", ".join(sorted(set(_PASS_ALIASES)))
            raise ValueError(
                f"unknown optimizer pass {token!r}; known passes: {known}")
        names.append(canonical)
    return tuple(names)


def as_pipeline(value: object) -> tuple[str, ...]:
    """Canonical pass names from a spec string or an iterable of names.

    Raises ``ValueError`` on an unknown pass and ``TypeError`` on a
    value that is neither.
    """
    if isinstance(value, str):
        return parse_pipeline(value)
    try:
        spec = ",".join(value)  # type: ignore[arg-type]
    except TypeError:
        raise TypeError(
            "OptOptions.pipeline must be a string or an "
            f"iterable of pass names, got {value!r}") from None
    return parse_pipeline(spec)


# The classic order.
DEFAULT_PIPELINE = (
    "copy_propagation", "promote_state", "carries", "constant_folding",
    "common_subexpression_elimination", "dead_code_elimination",
    "schedule_for_pressure")


@dataclass
class OptOptions:
    """The pass list and the fixpoint round cap: all that configures the
    optimizer.  ``OptOptions(pipeline=())`` runs no pass."""

    # Pass ordering: canonical names or aliases, as a spec string or an
    # iterable; stored as canonical names.
    pipeline: tuple[str, ...] = DEFAULT_PIPELINE
    # Fixpoint round cap; None means the module default (_FIXPOINT_ROUNDS).
    max_rounds: int | None = None

    def __setattr__(self, name: str, value: object) -> None:
        # Every pipeline assignment path — the constructor included —
        # coerces to a canonical tuple[str, ...] and validates pass names
        # up front, so API users get the same error the CLI's
        # --opt-pipeline type raises, and equal pass lists compare (and
        # key caches) equal however they are spelled.
        if name == "pipeline":
            value = as_pipeline(value)
        super().__setattr__(name, value)

    def round_cap(self) -> int:
        """The fixpoint round cap in effect."""
        return _FIXPOINT_ROUNDS if self.max_rounds is None \
            else self.max_rounds

    def prunes_dead_code(self) -> bool:
        """Whether the pipeline begins with the dense dead-code pre-prune.

        Demand-driven lowering omits exactly code that pass deletes, so
        the lowering is demand-driven only when this holds.
        """
        return "dead_code_elimination" in self.pipeline \
            and self.round_cap() > 0


@dataclass
class PassStat:
    """Per-pass totals across the whole pipeline run."""

    name: str
    runs: int = 0
    changes: int = 0


@dataclass
class OptStats:
    ops_before: dict[str, int] = field(default_factory=dict)
    ops_after: dict[str, int] = field(default_factory=dict)
    # Loop regions the program arrived with: the lowering forms them.
    regions_rerolled: int = 0
    # Fixpoint diagnostics: number of rounds actually run, and whether a
    # round with zero changes was reached within the round cap
    # (``False`` means the pipeline gave up while still making progress).
    fixpoint_rounds: int = 0
    converged: bool = True
    # Per-pass totals in first-run order (the report table).
    pass_stats: list[PassStat] = field(default_factory=list)
    # Always 0: the optimizer builds no analysis.  Kept only because
    # perfbench/layers.py reads it.
    analysis_rebuilds: int = 0
    optimize_seconds: float = 0.0

    @property
    def steady_reduction(self) -> float:
        before = self.ops_before.get("steady", 0)
        if before == 0:
            return 0.0
        return 1.0 - self.ops_after.get("steady", 0) / before


def _section_sizes(program: Program) -> dict[str, int]:
    return {title: len(ops) for title, ops in program.sections()}


class PassManager:
    """Runs a pass pipeline and records per-pass statistics.

    Contiguous fixpoint-capable passes run as a group, round after
    round, until a round changes nothing; every pass is a plain
    ``Program -> int`` sweep, so there is no analysis to keep valid
    between passes.  Each pass run gets an ``opt.<pass>`` span and an
    ``opt.<pass>.ops`` counter.
    """

    def __init__(self, program: Program, options: OptOptions):
        self.program = program
        self.options = options
        self.stats = OptStats(
            ops_before=_section_sizes(program),
            regions_rerolled=sum(op.__class__ is LoopRegion
                                 for _title, ops in program.sections()
                                 for op in ops))
        self._pass_stats: dict[str, PassStat] = {}
        # Changes made by every pass so far, and that count as of each
        # fixpoint step's last run: every step is idempotent, so a step
        # is skipped when nothing has changed since it last ran.
        # (Scheduling only reorders, which no step's result depends on.)
        self._changes = 0
        self._ran_at: dict[str, int] = {}

    # -- bookkeeping ---------------------------------------------------------

    def _record(self, name: str, delta: int) -> None:
        stat = self._pass_stats.get(name)
        if stat is None:
            stat = self._pass_stats[name] = PassStat(name)
        stat.runs += 1
        stat.changes += delta
        self._changes += delta

    def _run_pass(self, name: str, fn,
                  round_index: int | None = None) -> int:
        attrs = {} if round_index is None else {"round": round_index}
        with trace.span(f"opt.{name}", **attrs) as span:
            delta = fn(self.program)
            span.annotate(ops=delta)
        obs_metrics.counter(f"opt.{name}.ops").inc(delta)
        self._record(name, delta)
        return delta

    def _run_step(self, step: str, round_index: int | None = None) -> int:
        if self._ran_at.get(step) == self._changes:
            return 0
        changed = self._run_pass(step, _GROUP_PASSES[step], round_index)
        self._ran_at[step] = self._changes
        return changed

    # -- steps ---------------------------------------------------------------

    def _step_copy_propagation(self) -> None:
        self._run_pass("copy_propagation", copy_propagation)

    def _step_promote_state(self) -> None:
        with trace.span("opt.promote_state") as span:
            promoted = promote_state(self.program)
            span.annotate(slots=promoted)
        obs_metrics.counter("opt.promote_state.slots").inc(promoted)
        self._record("promote_state", promoted)

    def _step_schedule(self) -> None:
        with trace.span("opt.schedule_for_pressure"):
            schedule_for_pressure(self.program)
        self._record("schedule_for_pressure", 0)

    _STEPS = {
        "copy_propagation": _step_copy_propagation,
        "promote_state": _step_promote_state,
        "schedule_for_pressure": _step_schedule,
    }

    # -- driver --------------------------------------------------------------

    def _run_fixpoint(self, steps: list[str]) -> None:
        """Iterate a group of passes until a round is quiet."""
        converged = False
        if "dead_code_elimination" in steps \
                and steps[0] != "dead_code_elimination" \
                and self.options.round_cap() > 0:
            # Prune dead ops before the first folding and CSE sweeps:
            # promotion leaves dead loads and stores behind, and folding
            # or keying them first is wasted work.
            self._run_step("dead_code_elimination")
        for round_index in range(self.options.round_cap()):
            faults_limits.check_deadline("optimizer fixpoint round")
            self.stats.fixpoint_rounds += 1
            changed = 0
            for step in steps:
                changed += self._run_step(step, round_index)
            if changed == 0:
                converged = True
                break
        if not converged:
            self.stats.converged = False

    def run(self) -> OptStats:
        started = time.perf_counter()
        faults_limits.check_deadline("optimizer pipeline")
        pipeline = self.options.pipeline
        if self.options.prunes_dead_code():
            # Drop transitively dead ops before any pass walks (promote)
            # or keys (fold/CSE) them.  Unreferenced dataflow
            # (decimators that pop tokens nobody reads) can dwarf the
            # live program.
            self._run_step("dead_code_elimination")
        position = 0
        saw_fixpoint_group = False
        while position < len(pipeline):
            step = pipeline[position]
            if step in _GROUP_PASSES:
                group = [step]
                position += 1
                while position < len(pipeline) \
                        and pipeline[position] in _GROUP_PASSES:
                    group.append(pipeline[position])
                    position += 1
                self._run_fixpoint(group)
                saw_fixpoint_group = True
            else:
                self._STEPS[step](self)
                position += 1
        if not saw_fixpoint_group:
            # Preserve the seed pipeline's accounting: the round loop
            # always ran, so an all-disabled pipeline reports one
            # (vacuously convergent) round — or zero non-convergent
            # rounds when the cap itself is zero.
            self._run_fixpoint([])
        self.stats.pass_stats = list(self._pass_stats.values())
        self.stats.ops_after = _section_sizes(self.program)
        self.stats.optimize_seconds = time.perf_counter() - started
        return self.stats


def optimize(program: Program,
             options: OptOptions | None = None) -> OptStats:
    """Optimize ``program`` in place and return pass statistics."""
    options = options or OptOptions()
    with trace.span("optimize", program=program.name) as span:
        manager = PassManager(program, options)
        stats = manager.run()
        if fault_plan.current_plan().should_fire("opt-nonconverge"):
            # Injected seam: simulate giving up before a fixpoint so the
            # whole non-convergence reporting path (warning, metric, CLI
            # notice) is exercisable deterministically.
            stats.converged = False
        obs_metrics.gauge("opt.fixpoint_rounds").set(stats.fixpoint_rounds)
        if not stats.converged:
            obs_metrics.counter("opt.nonconvergent").inc()
            warnings.warn(
                f"optimizer did not reach a fixpoint on {program.name!r} "
                f"within {options.round_cap()} rounds; results are valid "
                "but possibly under-optimized", RuntimeWarning,
                stacklevel=2)
        span.annotate(rounds=stats.fixpoint_rounds,
                      converged=stats.converged,
                      steady_before=stats.ops_before.get("steady", 0),
                      steady_after=stats.ops_after.get("steady", 0))
        obs_metrics.gauge("opt.steady_ops_before").set(
            stats.ops_before.get("steady", 0))
        obs_metrics.gauge("opt.steady_ops_after").set(
            stats.ops_after.get("steady", 0))
    return stats
