"""Per-layer timing for the traced run, taken from outside the program.

``install`` replaces the public functions each layer exposes with thin
wrappers that time every call into a :class:`Recorder`.  The wrappers
sit on the names the callers look up at call time: ``repro.api``'s
module globals (the frontend, lowering, optimizer, verifier and both
code generators), ``repro.backend.runner`` (``compile_c``,
``run_binary``) and three methods (``LaminarInterpreter.run``,
``ArtifactCache.lookup``, ``WorkerPool.submit``).  Per-pass optimizer
times come from the ``opt.<pass>`` spans the pass manager already
records once ``repro.obs.trace`` is enabled; pass counts come from the
``OptStats`` that ``optimize`` returns.  Nothing under ``src/`` changes.

The module also holds the host-speed reference (``reference_seconds``)
that every duration the benchmark reports is scaled by.
"""

from __future__ import annotations

import statistics
import threading
import time
from collections import defaultdict

# Span name suffix (after "opt.") -> reported pass name.
_PASS_OF_SPAN = {
    "specialize_constant_carries": "carries",
    "eliminate_dead_carries": "carries",
    "analysis.build": "analysis_build",
}


# The host-speed reference: a fixed pure-Python loop that allocates and
# overwrites small dicts and lists, as the compiler does, and its time
# on a 2-vCPU x86-64 VM while the host was quiet (1.6 times that of an
# arithmetic loop measured at 22.5 ms then).  A shared host's
# slow spells slow allocation-heavy code more than arithmetic: over
# back-to-back compiles, the spread of the compile time was 0.25
# unscaled, 0.16 scaled by an arithmetic loop and 0.11 scaled by this
# one (see README.md).
REFERENCE_LOOP = 60_000
REFERENCE_SECONDS = 0.0359


def reference_seconds(repeats: int = 2) -> float:
    """Median time of the reference loop right now."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        kept = {}
        for i in range(REFERENCE_LOOP):
            kept[i * 7919 % 10_000] = {"id": i, "ops": [i, i + 1],
                                       "name": "t%d" % i}
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def is_time(name: str) -> bool:
    """Whether a metric name denotes a duration (``_s`` or ``_ms``)."""
    return not name.startswith("host.") and any(
        part.endswith(("_s", "_ms")) for part in name.split("."))


class Recorder:
    """Sums per repetition and samples per run.

    ``add`` accumulates and ``sample`` keeps one value per call; both
    stay pending until ``commit`` scales every duration among them to
    the host's reference speed and files them.  Sums go into the
    current repetition (``end_rep`` closes it); samples are kept only
    while ``phase == "run"``.  Nothing is recorded while ``phase ==
    "check"`` (output checks), and repetitions closed while ``phase ==
    "setup"`` are kept apart from the timed ones.  Compile layers also
    feed ``layer_total`` so the workload can report the part of a
    compile's wall time no layer accounts for.
    """

    def __init__(self):
        self.phase = "setup"
        self.program: str | None = None
        self.layer_total = 0.0
        self._reps: dict[str, list[dict]] = {"setup": [], "run": []}
        self._current: dict[str, float] = defaultdict(float)
        self._pending: dict[str, float] = defaultdict(float)
        self._pending_samples: list[tuple[str, float]] = []
        self._samples: dict[str, list[float]] = defaultdict(list)
        self._lock = threading.Lock()
        self.on_program = None  # set by install(): drops collected spans

    def start_program(self, name: str) -> None:
        self.program = name
        self.layer_total = 0.0
        if self.on_program is not None:
            self.on_program()

    def add(self, name: str, value: float, *, per_program: bool = False,
            compile_layer: bool = False) -> None:
        if self.phase == "check":
            return
        with self._lock:
            self._pending[name] += value
            if per_program and self.program is not None:
                self._pending[f"{name}.{self.program}"] += value
            if compile_layer:
                self.layer_total += value

    def sample(self, name: str, value: float) -> None:
        if self.phase == "run":
            with self._lock:
                self._pending_samples.append((name, value))

    def commit(self, factor: float, reference: float | None) -> None:
        """File the pending values, durations multiplied by ``factor``;
        ``reference`` (the loop's measured seconds), if any, is kept as
        the ``host.reference_ms`` sample."""
        with self._lock:
            for name, value in self._pending.items():
                self._current[name] += value * factor if is_time(name) \
                    else value
            if self.phase == "run":
                for name, value in self._pending_samples:
                    self._samples[name].append(
                        value * factor if is_time(name) else value)
                if reference is not None:
                    self._samples["host.reference_ms"].append(
                        reference * 1e3)
            self._pending = defaultdict(float)
            self._pending_samples = []

    def end_rep(self) -> None:
        """Close the repetition; values added since the last commit are
        filed as they are (they must not be durations)."""
        self.commit(1.0, None)
        with self._lock:
            self._reps[self.phase].append(dict(self._current))
            self._current = defaultdict(float)

    def summary(self, phase: str = "run",
                fastest_by: str | None = None) -> dict[str, float]:
        """The repetition with the least ``fastest_by`` (the work is
        deterministic and host noise only adds time; taking one whole
        repetition keeps its layers summing to its total), else the
        median of each name over the repetitions; plus the median of
        each sample list."""
        reps = self._reps[phase]
        if fastest_by is not None and reps:
            out = dict(min(reps, key=lambda rep: rep.get(fastest_by, 0.0)))
        else:
            names = {name for rep in reps for name in rep}
            out = {name: statistics.median(rep.get(name, 0.0)
                                           for rep in reps)
                   for name in names}
        if phase == "run":
            out.update({name: statistics.median(values)
                        for name, values in self._samples.items()
                        if values})
        return out


def _wrap(owner, attr: str, record) -> None:
    """Replace ``owner.attr`` with a timed call that hands the elapsed
    seconds, the arguments and the result to ``record``."""
    original = getattr(owner, attr)

    def timed(*args, **kwargs):
        started = time.perf_counter()
        result = original(*args, **kwargs)
        record(time.perf_counter() - started, args, result)
        return result

    setattr(owner, attr, timed)


def _static_ops(ops) -> int:
    """Emitted op count: a loop region is 1 + its body, counted once."""
    from repro.lir.ops import LoopRegion
    return sum(1 + len(op.body) if isinstance(op, LoopRegion) else 1
               for op in ops)


def _pass_times(rec: Recorder) -> float:
    """Record the ``opt.<pass>`` spans of the optimize call that just
    returned; returns their summed seconds."""
    from repro.obs import trace
    parent = trace.current_span()
    children = parent.children if parent.children \
        else trace.get_trace()
    optimize_span = next((span for span in reversed(children)
                          if span.name == "optimize"), None)
    if optimize_span is None:
        return 0.0
    total = 0.0
    for child in optimize_span.children:
        if not child.name.startswith("opt.") or child.duration is None:
            continue
        suffix = child.name[len("opt."):]
        rec.add(f"opt.{_PASS_OF_SPAN.get(suffix, suffix)}_s",
                child.duration)
        total += child.duration
    return total


def install(rec: Recorder) -> None:
    """Enable the program's tracer and wrap every layer entry point."""
    import repro.api as api
    from repro.backend import runner
    from repro.cache import ArtifactCache
    from repro.interp import LaminarInterpreter
    from repro.obs import trace
    from repro.serve.pool import WorkerPool

    trace.enable()
    rec.on_program = trace.reset

    def layer(name, per_program=False):
        def record(seconds, args, result):
            rec.add(name, seconds, per_program=per_program,
                    compile_layer=True)
        return record

    _wrap(api, "parse_and_check", layer("frontend.parse_s"))
    _wrap(api, "elaborate", layer("graph.elaborate_s"))

    def flatten(seconds, args, graph):
        layer("graph.flatten_s")(seconds, args, graph)
        rec.add("graph.filters", len(graph.vertices))
    _wrap(api, "flatten", flatten)

    def schedule(seconds, args, result):
        layer("scheduling.build_schedule_s")(seconds, args, result)
        rec.add("scheduling.steady_firings", len(result.steady))
    _wrap(api, "build_schedule", schedule)

    def lower(seconds, args, program):
        layer("lir.lower_s", per_program=True)(seconds, args, program)
        rec.add("lir.ops_lowered",
                sum(len(ops) for _, ops in program.sections()))
    _wrap(api, "lower", lower)

    def optimize(seconds, args, stats):
        layer("opt.optimize_s")(seconds, args, stats)
        rec.add("opt.unattributed_s", seconds - _pass_times(rec))
        for stat in stats.pass_stats:
            name = _PASS_OF_SPAN.get(stat.name, stat.name)
            if name != "reroll_steady":  # == opt.regions_rerolled
                rec.add(f"opt.{name}.changes", stat.changes)
        rec.add("opt.fixpoint_rounds", stats.fixpoint_rounds)
        rec.add("opt.analysis_rebuilds", stats.analysis_rebuilds)
        rec.add("opt.regions_rerolled", stats.regions_rerolled)
        program = args[0]
        rec.add("opt.steady_ops_emitted", _static_ops(program.steady))
        rec.add("opt.steady_ops_executed",
                program.steady_op_count_expanded)
    _wrap(api, "optimize", optimize)

    _wrap(api, "verify", layer("lir.verify_s"))
    _wrap(api, "generate_laminar_c", layer("backend.laminar_codegen_s"))
    _wrap(api, "generate_fifo_c", layer("backend.fifo_codegen_s"))
    # The suite workload compiles LaminarIR C in its timed region and
    # FIFO C only in set-up; the workload renames by phase.
    _wrap(runner, "compile_c", layer("backend.cc_s"))

    def run_binary(seconds, args, run):
        rec.sample("backend.run_binary_overhead_ms",
                   (seconds - run.seconds) * 1e3)
    _wrap(runner, "run_binary", run_binary)

    def sampled(name):
        def record(seconds, args, result):
            rec.sample(name, seconds * 1e3)
        return record

    _wrap(LaminarInterpreter, "run", sampled("interp.laminar_run_ms"))
    _wrap(ArtifactCache, "lookup", sampled("cache.lookup_ms"))
    _wrap(WorkerPool, "submit", sampled("serve.pool_submit_ms"))
