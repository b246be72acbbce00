"""The pass manager, the optimization pipeline and its statistics.

``optimize`` builds a :class:`PassManager` and runs the configured
pipeline.  The default order matches the classic sequence::

    copy-prop → promote (mem2reg/SROA) → re-roll (counted loop regions)
    → {const-fold, carries, CSE, DCE}* → pressure scheduling

but the bracketed fixpoint group no longer rescans the whole program
each round: the passes share a :class:`repro.lir.analysis.ProgramIndex`
and sparse worklists (see ``repro.opt.passes``), so after the first
round each pass only visits ops something actually changed.  The group
converges when a round drains every worklist without a change.

The manager tracks which passes preserve the def-use index and which
invalidate it: state promotion and pressure scheduling restructure the
section lists, so the index is rebuilt (and the worklists reseeded)
before the next index-consuming pass.  ``OptOptions.pipeline`` accepts a
custom pass ordering (the CLI's ``--opt-pipeline``); each switch can
still be disabled individually for the E7 ablation benchmarks.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

from repro.faults import limits as faults_limits
from repro.faults import plan as fault_plan
from repro.lir.analysis import ProgramIndex
from repro.lir.program import Program
from repro.lir.verify import verify_index
from repro.obs import metrics as obs_metrics
from repro.obs import trace
from repro.opt.carries import remove_dead_carries, specialize_carries
from repro.opt.passes import (FixpointState, eliminate_common_subexpressions,
                              eliminate_dead_code, eliminate_dead_code_dense,
                              fold_constants, propagate_copies,
                              propagate_copies_dense)
from repro.opt.promote import PromoteOptions, promote_state
from repro.opt.reroll import reroll_steady
from repro.opt.schedule_ops import schedule_for_pressure

_FIXPOINT_ROUNDS = 64

# Canonical pass names plus the short aliases --opt-pipeline accepts.
_PASS_ALIASES = {
    "cp": "copy_propagation",
    "copy_propagation": "copy_propagation",
    "promote": "promote_state",
    "promote_state": "promote_state",
    "reroll": "reroll_steady",
    "reroll_steady": "reroll_steady",
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

# Steps that may participate in a fixpoint group: contiguous runs of
# these in the pipeline iterate together until quiescent.
_FIXPOINT_STEPS = frozenset((
    "constant_folding", "carries", "common_subexpression_elimination",
    "dead_code_elimination"))

# Which OptStats aggregate each pass feeds (kept for backward compat
# with the seed pipeline's reporting).
_AGGREGATE_FIELD = {
    "copy_propagation": "moves_propagated",
    "promote_state": "slots_promoted",
    "reroll_steady": "regions_rerolled",
    "constant_folding": "ops_folded",
    "specialize_constant_carries": "carries_specialized",
    "eliminate_dead_carries": "carries_specialized",
    "common_subexpression_elimination": "ops_deduplicated",
    "dead_code_elimination": "ops_removed_dead",
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


@dataclass
class OptOptions:
    copy_propagation: bool = True
    promote_state: bool = True
    # Re-roll repeated firing runs in the unrolled steady section into
    # counted LoopRegions (see repro.opt.reroll); ``reroll_min_repeat``
    # is the smallest repeat count worth collapsing.
    reroll: bool = True
    reroll_min_repeat: int = 4
    constant_folding: bool = True
    carry_specialization: bool = True
    cse: bool = True
    dce: bool = True
    schedule_pressure: bool = True
    promote: PromoteOptions = field(default_factory=PromoteOptions)
    # Fixpoint round cap; None means the module default (_FIXPOINT_ROUNDS).
    max_rounds: int | None = None
    # Explicit pass ordering (canonical names or aliases).  None derives
    # the classic order from the boolean switches above; when set, the
    # switches are ignored and exactly these passes run.
    pipeline: tuple[str, ...] | None = None
    # Check the incremental def-use index against a from-scratch rebuild
    # after every pass (slow; for tests and pass development).
    verify_analyses: bool = False

    def __setattr__(self, name: str, value: object) -> None:
        # Every pipeline assignment path — the constructor included —
        # coerces to a canonical tuple[str, ...] and validates pass names
        # up front, so API users get the same error the CLI's
        # --opt-pipeline type raises instead of a late TypeError deep in
        # the lowering cache.
        if name == "pipeline" and value is not None:
            if isinstance(value, str):
                value = parse_pipeline(value)
            else:
                try:
                    spec = ",".join(value)  # type: ignore[arg-type]
                except TypeError:
                    raise TypeError(
                        "OptOptions.pipeline must be a string or an "
                        f"iterable of pass names, got {value!r}") from None
                value = parse_pipeline(spec)
        super().__setattr__(name, value)

    @classmethod
    def none(cls) -> "OptOptions":
        return cls(copy_propagation=False, promote_state=False,
                   reroll=False, constant_folding=False,
                   carry_specialization=False, cse=False, dce=False,
                   schedule_pressure=False)

    def round_cap(self) -> int:
        """The fixpoint round cap in effect."""
        return _FIXPOINT_ROUNDS if self.max_rounds is None \
            else self.max_rounds

    def prunes_dead_code(self) -> bool:
        """Whether the pipeline begins with the dense dead-code pre-prune.

        Demand-driven lowering omits exactly code that pass deletes, so
        ``CompiledStream.lower`` asks this before lowering that way.
        """
        return "dead_code_elimination" in self.resolved_pipeline() \
            and self.round_cap() > 0

    def resolved_pipeline(self) -> tuple[str, ...]:
        if self.pipeline is not None:
            resolved = []
            for name in self.pipeline:
                canonical = _PASS_ALIASES.get(name)
                if canonical is None:
                    raise ValueError(f"unknown optimizer pass {name!r}")
                resolved.append(canonical)
            return tuple(resolved)
        steps = []
        if self.copy_propagation:
            steps.append("copy_propagation")
        if self.promote_state:
            steps.append("promote_state")
        if self.reroll:
            steps.append("reroll_steady")
        if self.constant_folding:
            steps.append("constant_folding")
        if self.carry_specialization:
            steps.append("carries")
        if self.cse:
            steps.append("common_subexpression_elimination")
        if self.dce:
            steps.append("dead_code_elimination")
        if self.schedule_pressure:
            steps.append("schedule_for_pressure")
        return tuple(steps)


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
    moves_propagated: int = 0
    slots_promoted: int = 0
    regions_rerolled: int = 0
    ops_folded: int = 0
    carries_specialized: int = 0
    ops_deduplicated: int = 0
    ops_removed_dead: int = 0
    # Fixpoint diagnostics: number of rounds actually run, and whether a
    # round with zero changes was reached within the round cap
    # (``False`` means the pipeline gave up while still making progress).
    fixpoint_rounds: int = 0
    converged: bool = True
    # Per-pass totals in first-run order (the report table).
    pass_stats: list[PassStat] = field(default_factory=list)
    # How often the def-use index was (re)built, and the optimize wall
    # time (drives bench_compile_cost's speedup-vs-seed column).
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
    """Runs a pass pipeline over a shared, incrementally-updated index.

    Responsibilities: build the :class:`ProgramIndex` lazily (first pass
    that needs it), rebuild it after passes that restructure the section
    lists (promotion, scheduling), drive contiguous fixpoint-capable
    passes to quiescence via their sparse worklists, and record per-pass
    statistics, spans and metrics.
    """

    def __init__(self, program: Program, options: OptOptions):
        self.program = program
        self.options = options
        self.stats = OptStats(ops_before=_section_sizes(program))
        self.index: ProgramIndex | None = None
        self.state: FixpointState | None = None
        self._pass_stats: dict[str, PassStat] = {}

    # -- analysis lifecycle --------------------------------------------------

    def _ensure_state(self) -> FixpointState:
        if self.state is None:
            with trace.span("opt.analysis.build"):
                self.index = ProgramIndex(self.program)
                self.state = FixpointState(self.program, self.index)
            self.stats.analysis_rebuilds += 1
            obs_metrics.counter("opt.analysis.rebuilds").inc()
        return self.state

    def _invalidate(self) -> None:
        """Forget the index after a pass restructured the sections."""
        if self.index is not None:
            self.index.compact()
        self.index = None
        self.state = None

    # -- bookkeeping ---------------------------------------------------------

    def _record(self, name: str, delta: int) -> None:
        stat = self._pass_stats.get(name)
        if stat is None:
            stat = self._pass_stats[name] = PassStat(name)
        stat.runs += 1
        stat.changes += delta
        aggregate = _AGGREGATE_FIELD.get(name)
        if aggregate is not None:
            setattr(self.stats, aggregate,
                    getattr(self.stats, aggregate) + delta)

    def _run_pass(self, name: str, fn, round_index: int | None = None,
                  worklist_size: int | None = None) -> int:
        attrs = {} if round_index is None else {"round": round_index}
        with trace.span(f"opt.{name}", **attrs) as span:
            delta = fn()
            span.annotate(ops=delta)
        obs_metrics.counter(f"opt.{name}.ops").inc(delta)
        if worklist_size is not None:
            obs_metrics.histogram(f"opt.{name}.worklist").observe(
                worklist_size)
        self._record(name, delta)
        if self.options.verify_analyses and self.index is not None:
            verify_index(self.program, self.index)
        return delta

    # -- steps ---------------------------------------------------------------

    def _step_copy_propagation(self,
                               round_index: int | None = None) -> int:
        if self.state is None:
            # No index yet (copy-prop heads the default pipeline, right
            # before promotion invalidates any index): the dense sweep is
            # much cheaper than building a program-wide index for it.
            return self._run_pass(
                "copy_propagation",
                lambda: propagate_copies_dense(self.program))
        state = self.state
        return self._run_pass("copy_propagation",
                              lambda: propagate_copies(state))

    def _step_promote_state(self, round_index: int | None = None) -> int:
        # Promotion walks the raw section lists and rewrites them, so it
        # needs a compacted program and invalidates the index after.
        if self.index is not None:
            self.index.compact()
        with trace.span("opt.promote_state") as span:
            promoted = promote_state(self.program, self.options.promote)
            span.annotate(slots=promoted)
        obs_metrics.counter("opt.promote_state.slots").inc(promoted)
        self._record("promote_state", promoted)
        if promoted:
            self._invalidate()
        if self.options.verify_analyses and self.index is not None:
            verify_index(self.program, self.index)
        return promoted

    def _step_reroll(self, round_index: int | None = None) -> int:
        # Re-rolling rewrites the raw steady list (and adds gather/
        # scatter slots), so like promotion it wants a compacted program
        # and invalidates the index when it fires.
        if self.index is not None:
            self.index.compact()
        with trace.span("opt.reroll_steady") as span:
            regions = reroll_steady(
                self.program, self.options.reroll_min_repeat)
            span.annotate(regions=regions)
        obs_metrics.counter("opt.reroll_steady.regions").inc(regions)
        self._record("reroll_steady", regions)
        if regions:
            self._invalidate()
        if self.options.verify_analyses and self.index is not None:
            verify_index(self.program, self.index)
        return regions

    def _step_constant_folding(self, round_index: int | None = None) -> int:
        state = self._ensure_state()
        if round_index is not None and not state.pending_fold():
            return 0
        return self._run_pass("constant_folding",
                              lambda: fold_constants(state),
                              round_index, worklist_size=len(state.fold))

    def _step_carries(self, round_index: int | None = None) -> int:
        state = self._ensure_state()
        if round_index is not None and not state.carry_dirty:
            return 0
        state.carry_dirty = False
        changed = self._run_pass("specialize_constant_carries",
                                 lambda: specialize_carries(state),
                                 round_index)
        changed += self._run_pass("eliminate_dead_carries",
                                  lambda: remove_dead_carries(state),
                                  round_index)
        return changed

    def _step_cse(self, round_index: int | None = None) -> int:
        state = self._ensure_state()
        if round_index is not None and not state.cse_full \
                and not state.cse_candidates:
            return 0
        return self._run_pass(
            "common_subexpression_elimination",
            lambda: eliminate_common_subexpressions(state), round_index,
            worklist_size=len(state.cse_candidates))

    def _step_dce(self, round_index: int | None = None) -> int:
        state = self._ensure_state()
        if round_index is not None and not state.pending_dce():
            return 0
        return self._run_pass("dead_code_elimination",
                              lambda: eliminate_dead_code(state),
                              round_index, worklist_size=len(state.dce))

    def _step_schedule(self, round_index: int | None = None) -> int:
        # The scheduler reorders the raw section lists: compact first,
        # and renumber (lazily) if any pass still needs op ids after.
        if self.index is not None:
            self.index.compact()
        with trace.span("opt.schedule_for_pressure"):
            schedule_for_pressure(self.program)
        self._record("schedule_for_pressure", 0)
        self._invalidate()
        return 0

    _STEPS = {
        "copy_propagation": _step_copy_propagation,
        "promote_state": _step_promote_state,
        "reroll_steady": _step_reroll,
        "constant_folding": _step_constant_folding,
        "carries": _step_carries,
        "common_subexpression_elimination": _step_cse,
        "dead_code_elimination": _step_dce,
        "schedule_for_pressure": _step_schedule,
    }

    # -- driver --------------------------------------------------------------

    def _run_fixpoint(self, steps: list[str]) -> None:
        """Iterate a group of worklist passes until a round is quiet."""
        converged = False
        if "dead_code_elimination" in steps \
                and steps[0] != "dead_code_elimination" \
                and self.options.round_cap() > 0:
            # Prune transitively dead ops before the first full folding
            # and CSE sweeps.  Unreferenced dataflow (decimators that pop
            # tokens nobody reads) can dwarf the live program; keying and
            # folding it first only to delete it at the end of round 0
            # dominated optimize time on the large-scale benchmarks.
            state = self._ensure_state()
            if state.dce_all:
                self._STEPS["dead_code_elimination"](self, None)
        for round_index in range(self.options.round_cap()):
            faults_limits.check_deadline("optimizer fixpoint round")
            self.stats.fixpoint_rounds += 1
            changed = 0
            for step in steps:
                changed += self._STEPS[step](self, round_index)
            if changed == 0:
                converged = True
                break
        if not converged:
            self.stats.converged = False

    def run(self) -> OptStats:
        started = time.perf_counter()
        faults_limits.check_deadline("optimizer pipeline")
        pipeline = self.options.resolved_pipeline()
        if self.options.prunes_dead_code():
            # Index-free pre-prune: drop transitively dead ops before any
            # pass walks (promote), indexes or keys (fold/CSE) them.
            self._run_pass(
                "dead_code_elimination",
                lambda: eliminate_dead_code_dense(self.program))
        position = 0
        saw_fixpoint_group = False
        while position < len(pipeline):
            step = pipeline[position]
            if step in _FIXPOINT_STEPS:
                group = [step]
                position += 1
                while position < len(pipeline) \
                        and pipeline[position] in _FIXPOINT_STEPS:
                    group.append(pipeline[position])
                    position += 1
                self._run_fixpoint(group)
                saw_fixpoint_group = True
            else:
                self._STEPS[step](self, None)
                position += 1
        if not saw_fixpoint_group:
            # Preserve the seed pipeline's accounting: the round loop
            # always ran, so an all-disabled pipeline reports one
            # (vacuously convergent) round — or zero non-convergent
            # rounds when the cap itself is zero.
            self._run_fixpoint([])
        if self.index is not None:
            self.index.compact()
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
