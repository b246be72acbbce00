"""Lowering: flat graph + schedule → LaminarIR program.

This implements the paper's central transformation.  Every channel becomes
a **compile-time queue of token names**: executing the schedule symbolically,
a producer's ``push`` appends the pushed *value* to the queue and a
consumer's ``pop``/``peek`` reads the value straight out of it — no buffer,
no pointers, no runtime bookkeeping.  Splitters and joiners reduce to
compile-time routing of names and vanish from the generated code entirely
(unless the E7 ablation disables elimination, in which case each routed
token costs an explicit ``move``).

Tokens still buffered when one steady iteration ends become loop-carried
values (see :mod:`repro.lir.program`).

A firing of a firing template is recorded where it fires, and its
outputs enter the queues as pending values; each section's live
firings are built when it ends, in schedule order (docs/LOWERING.md
§2c).  Lowered *demand-driven* (``lower(..., demand=True)``), a firing
of a pure template is live only if a live firing, per-firing code or a
carry reads it, so the firings that compute only tokens nobody reads
emit nothing.  With loop regions (``LoweringOptions.regions``, on by
default), each run of adjacent live firings of one template becomes one
counted :class:`~repro.lir.ops.LoopRegion` of :data:`REGION_MIN_REPEAT`
trips or more when that pays: the template's loop unit replayed once
per unit of a trip over trip-indexed inputs (docs/LOWERING.md §4b).
Any other firing is replayed.
"""

from __future__ import annotations

import contextlib
import gc
import math
import threading
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from repro.faults import limits as faults_limits
from repro.frontend import ast_nodes as ast
from repro.frontend.errors import LoweringError, SourceLocation
from repro.frontend.types import ArrayType, ScalarType, Type
from repro.graph.nodes import (Channel, FilterVertex, FlatGraph,
                               JoinerVertex, SplitterVertex, Vertex)
from repro.lir import template as firing_template
from repro.lir.ops import (Const, LoadOp, LoopRegion, MoveOp, Op, PrintOp,
                           Provenance, StateSlot, StoreOp, Temp, Value,
                           const_of, recycled_temp_ids, reserve_temp_ids,
                           reserved_temp_ids)
from repro.lir.program import Program
from repro.lir.regions import RegionAssembly, SlotAllocator, value_key
from repro.lir.symexec import (BodyExecutor, DeclCode, Emitter, FieldCell,
                               TokenHooks)
from repro.lir.template import IN, PREV, FiringTemplate, Fold, LoopUnit
from repro.obs import trace
from repro.scheduling.schedule import Firing, Schedule


# The fewest trips worth a loop region: repeats of a firing, or of one
# unit of its unrolled loop.
REGION_MIN_REPEAT = 4


@dataclass
class LoweringOptions:
    """What the lowering builds: ``eliminate_splitjoin`` (off for the
    E7 ablation: each routed token costs a ``move``),
    ``steady_multiplier`` and ``regions`` (off for the fully unrolled
    build: no run of firings becomes a loop region).

    ``steady_multiplier`` unrolls that many steady-state iterations into
    one LaminarIR body (execution scaling): the schedule returns channel
    occupancy to its starting point after each iteration, so concatenating
    k iterations is always valid.  Larger bodies amortize the loop-carried
    rotation and widen the scope of CSE across iterations, at the price of
    code size and register pressure.
    """

    eliminate_splitjoin: bool = True
    steady_multiplier: int = 1
    regions: bool = True

    def __post_init__(self) -> None:
        if self.steady_multiplier < 1:
            raise ValueError("steady_multiplier must be >= 1")


class _Record:
    """A templated firing: what its replay needs (template, inputs, the
    actor and phase its ops are stamped with, and the ``fold`` telling
    what the replay does), the temp ids it reserved when it fired, from
    ``base``, its place among the section's firings (``seq``) and among
    its other ops (``position``), and whether it is ``live``.  Replayed,
    it holds its outputs (the pushes, then the exits) and ops; built
    into a loop region, its outputs alone."""

    __slots__ = ("template", "inputs", "actor", "phase", "fold", "seq",
                 "position", "base", "live", "outputs", "ops")

    def __init__(self, template: FiringTemplate, inputs: list, actor: str,
                 phase: str, fold: Fold, seq: int, position: int,
                 live: bool):
        self.template, self.inputs = template, inputs
        self.actor, self.phase, self.fold = actor, phase, fold
        self.seq, self.position, self.live = seq, position, live
        self.base = reserve_temp_ids(fold.temps)
        self.outputs: list[Value | None] | None = None
        self.ops: list[Op] | None = None


class _Pending:
    """Output ``index`` (a push, or a field's value at exit) of a
    recorded firing; ``id`` is that of the temp its replay computes it
    in, as for a temp, and ``None`` when it computes a constant."""

    __slots__ = ("record", "index", "id")

    def __init__(self, record: _Record, index: int, ident: int | None):
        self.record, self.index, self.id = record, index, ident


def _sanitize(name: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in name)


class _FilterHooks(TokenHooks):
    """Token operations of one filter firing, resolved against the
    compile-time queues."""

    def __init__(self, lowerer: "Lowerer", vertex: FilterVertex,
                 peek_rate: int, emitter: Emitter):
        self.lowerer = lowerer
        self.vertex = vertex
        self.peek_rate = peek_rate
        self.emitter = emitter
        self.in_queue = (lowerer.queue_of(vertex.inputs[0])
                         if vertex.inputs else None)
        self.out_queue = (lowerer.queue_of(vertex.outputs[0])
                          if vertex.outputs else None)
        self.out_ty = (vertex.outputs[0].ty  # type: ignore[union-attr]
                       if vertex.outputs else None)
        self.pops = 0

    def _check_peek(self, offset: int, loc: SourceLocation) -> None:
        if self.in_queue is None:
            raise LoweringError(f"{self.vertex.name}: peek without input",
                                loc, self.lowerer.source)
        if offset < 0:
            raise LoweringError("peek offset must be non-negative", loc,
                                self.lowerer.source)
        if self.pops + offset + 1 > self.peek_rate:
            raise LoweringError(
                f"{self.vertex.name}: peek({offset}) after {self.pops} "
                f"pop(s) exceeds declared peek rate {self.peek_rate}", loc,
                self.lowerer.source)

    def _check_pop(self, loc: SourceLocation) -> None:
        if self.in_queue is None:
            raise LoweringError(f"{self.vertex.name}: pop without input",
                                loc, self.lowerer.source)

    def _coerce_push(self, value: Value, loc: SourceLocation) -> Value:
        if self.out_queue is None:
            raise LoweringError(f"{self.vertex.name}: push without output",
                                loc, self.lowerer.source)
        assert self.out_ty is not None
        return self.emitter.coerce(value, self.out_ty)

    def peek(self, offset: int, loc: SourceLocation) -> Value:
        self._check_peek(offset, loc)
        assert self.in_queue is not None
        if offset >= len(self.in_queue):
            raise LoweringError(
                f"{self.vertex.name}: peek({offset}) underflows the "
                "compile-time queue (scheduler bug)", loc,
                self.lowerer.source)
        value = self.in_queue[offset] = self.lowerer.resolve(
            self.in_queue[offset])
        return value

    def pop(self, loc: SourceLocation) -> Value:
        self._check_pop(loc)
        if not self.in_queue:
            raise LoweringError(
                f"{self.vertex.name}: pop underflows the compile-time "
                "queue (scheduler bug)", loc, self.lowerer.source)
        self.pops += 1
        return self.lowerer.resolve(self.in_queue.popleft())

    def push(self, value: Value, loc: SourceLocation) -> None:
        value = self._coerce_push(value, loc)
        assert self.out_queue is not None
        self.lowerer.note_tokens(self.vertex.name, 1)
        self.out_queue.append(value)


class _RecordingHooks(_FilterHooks):
    """Token operations while recording a firing template: input
    position ``p`` reads as the placeholder ``tokens[p]``, and no queue
    is touched.  The rate checks are those of a real firing; underflow
    is checked against the real queue when the template is replayed."""

    def __init__(self, lowerer: "Lowerer", vertex: FilterVertex,
                 peek_rate: int, emitter: Emitter):
        super().__init__(lowerer, vertex, peek_rate, emitter)
        self.tokens: list[Temp] = []
        self.pushed: list[Value] = []

    def _token(self, position: int) -> Temp:
        ty = self.vertex.inputs[0].ty  # type: ignore[union-attr]
        while len(self.tokens) <= position:
            self.tokens.append(Temp(ty))
        return self.tokens[position]

    def peek(self, offset: int, loc: SourceLocation) -> Value:
        self._check_peek(offset, loc)
        return self._token(self.pops + offset)

    def pop(self, loc: SourceLocation) -> Value:
        self._check_pop(loc)
        self.pops += 1
        return self._token(self.pops - 1)

    def push(self, value: Value, loc: SourceLocation) -> None:
        self.pushed.append(self._coerce_push(value, loc))


class Lowerer:
    def __init__(self, schedule: Schedule, source: str = "",
                 options: LoweringOptions | None = None, *,
                 demand: bool = False):
        self.schedule = schedule
        self.graph: FlatGraph = schedule.graph
        self.source = source
        self.options = options or LoweringOptions()
        # The ambient op cap (docs/ROBUSTNESS.md): the emitter checks it
        # on every op and names the filter whose unroll blew it.
        self.emitter = Emitter(faults_limits.active_limits().max_unrolled_ops)
        self.program = Program(name=self.graph.name)
        self.queues: dict[str, deque[Value]] = {}
        self.executors: dict[FilterVertex, BodyExecutor] = {}
        # True while lowering the steady section: per-vertex token and
        # firing counts only accumulate there (the attribution tables and
        # interpreters report steady-state numbers).
        self._counting = False
        # Firing templates by (vertex, prework): a filter's scalar fields
        # are loaded before its first firing in a section, so each
        # firing finds them all cached.  A body whose recording failed is not recorded again,
        # in any instance of its filter: the failure (a predicated
        # return, a LoweringError) almost always comes from the body
        # itself, and per-firing execution is always correct.
        self._templates: dict[tuple[FilterVertex, bool],
                              FiringTemplate] = {}
        # (id of the filter's declaration, prework); AST nodes are
        # compared by value, so they are keyed by identity.
        self._untemplated: set[tuple[int, bool]] = set()
        # Each declaration's compiled bodies, by id of the declaration.
        self._code: dict[int, DeclCode] = {}
        self.templates_built = 0
        self.firings_replayed = 0
        self.firings_fallback = 0
        # Demand-driven: a firing of a deferrable template is built only
        # if something live reads it.
        self.demand = demand
        self._phase = "setup"
        self._fired: list[_Record] = []  # the section's, in firing order
        self.firings_deferred = 0
        self.firings_dropped = 0
        # Loop regions from runs of one template's firings, of at least
        # this many trips; None forms none.
        self.region_min_repeat = REGION_MIN_REPEAT \
            if self.options.regions else None
        self._slots = SlotAllocator(self.program)
        self.regions_formed = 0

    def queue_of(self, channel: Channel | None) -> deque[Value]:
        assert channel is not None
        return self.queues[channel.name]

    def resolve(self, value: Value | _Pending | None) -> Value | None:
        """The value itself, or a pending one's, forcing its firing."""
        if value.__class__ is not _Pending:
            return value  # type: ignore[return-value]
        record = value.record  # type: ignore[union-attr]
        if record.outputs is None:
            self._force(record)
        return record.outputs[value.index]  # type: ignore

    def note_tokens(self, vertex_name: str, amount: int) -> None:
        if self._counting and amount:
            tokens = self.program.filter_tokens
            tokens[vertex_name] = tokens.get(vertex_name, 0) + amount

    # -- driver ---------------------------------------------------------------

    def lower(self) -> Program:
        for channel in self.graph.channels:
            self.queues[channel.name] = deque(
                const_of(v, channel.ty) for v in channel.initial)

        self.emitter.set_block(self.program.setup)
        for vertex in self.graph.topological_order():
            if isinstance(vertex, FilterVertex):
                self._setup_filter(vertex)
                self._check_deadline(vertex, "setup")
        self._section("init", self.program.init, self.schedule.init)
        self._counting = True
        self._section("steady", self.program.steady, list(
            self.schedule.steady) * self.options.steady_multiplier)
        self._counting = False

        self.program.prints_per_iteration = sum(
            op.trips * sum(isinstance(inner, PrintOp) for inner in op.body)
            if isinstance(op, LoopRegion) else isinstance(op, PrintOp)
            for op in self.program.steady)
        trace.current_span().annotate(
            templates_built=self.templates_built,
            firings_replayed=self.firings_replayed,
            firings_fallback=self.firings_fallback,
            firings_deferred=self.firings_deferred,
            firings_dropped=self.firings_dropped,
            regions=self.regions_formed)
        return self.program

    # -- recorded firings ---------------------------------------------------

    def _section(self, phase: str, block: list[Op],
                 firings: list[Firing]) -> None:
        """Lower one section into ``block``: fire ``firings``, take the
        carries, and build the live firings."""
        for executor in self.executors.values():
            executor.invalidate_field_caches()
        self._phase = phase
        self.emitter.set_phase(phase)
        self.emitter.set_block(block)
        try:
            for firing in firings:
                self._fire(firing)
                self._check_deadline(firing.vertex, phase)
            self._capture(nexts=phase == "steady")
        except Exception:
            # Report the first error in schedule order: the firings
            # recorded earlier whose replay may raise replay first.
            for record in self._fired:
                if record.outputs is None and record.fold.raises:
                    self._force(record)
            raise
        self._end_section()

    @staticmethod
    def _outputs(template: FiringTemplate, inputs: list, result) -> list:
        """A firing's outputs (the pushes, then the exits) over
        ``inputs``; ``result(index, r)`` is output ``index`` when the
        ``r``-th step result computes it."""
        known = len(inputs)
        base = known + len(template.consts)
        return [None if slot is None else inputs[slot] if slot < known
                else template.consts[slot - known] if slot < base
                else result(index, slot - base)
                for index, slot in enumerate(
                    template.pushes + [slot for _, slot in template.exits])]

    def _force(self, record: _Record) -> None:
        """Replay ``record`` into its own ops, and first the firings whose
        pending outputs it reads.  An explicit stack: a long chain of
        pure stages must not hit Python's recursion limit."""
        stack = [record]
        while stack:
            top = stack[-1]
            if top.outputs is not None:
                stack.pop()
                continue
            waiting = [value.record for value in top.inputs
                       if value.__class__ is _Pending
                       and value.record.outputs is None]
            if waiting:
                stack.extend(waiting)
                continue
            stack.pop()
            top.inputs = [self.resolve(value) for value in top.inputs]
            top.ops = []
            with self.emitter.redirected(top.ops, top.actor, "filter",
                                         top.phase), \
                    reserved_temp_ids(top.base, top.fold.temps):
                pushed, exits = top.template.replay(
                    self.emitter, top.inputs, self.source)
            self.firings_replayed += 1
            top.outputs = pushed + exits
            top.live = True

    def _end_section(self) -> None:
        """Build the section's live firings in the order they fired, each
        where it fired among the section's other ops: a run of them as
        one loop region when that pays, any other by replaying it.  The
        rest are dropped.  Nothing reads a value of this section's
        firings later: the carries took the queues' tokens, and the
        field caches are invalidated at the boundary."""
        fired, self._fired = self._fired, []
        block, program = self.emitter.block, self.program
        carried = program.carry_inits + program.carry_nexts
        regions = self.region_min_repeat is not None
        # Walking back, mark live what the carries and live firings read.
        # With regions, note for each temp (or pending value, by the id
        # it will have) the seq of the last firing whose ops read it:
        # past them all for the section's other ops and the carries.
        reads = {getattr(value, "id", None): len(fired) for value in
                 carried + ([value for op in block for value in op.operands()]
                            if regions else [])}
        for value in carried:
            if value.__class__ is _Pending:
                value.record.live = True  # type: ignore[union-attr]
        for record in reversed(fired):
            if record.live:
                for value in record.inputs:
                    if value.__class__ is _Pending:
                        value.record.live = True
                for slot in record.template.reads if regions else ():
                    reads.setdefault(getattr(record.inputs[slot], "id",
                                             None), record.seq)
        live = [record for record in fired if record.live]
        self.firings_dropped += len(fired) - len(live)
        out: list[Op] = []
        scatter_defs: dict[int, Op] = {}  # the regions' scatter loads
        start = first = 0
        while first < len(live):
            # A run: adjacent firings of one template that emit ops.
            head, run, last = live[first], [], first + 1
            for index in range(first, len(live) if head.fold.ops else 0):
                record = live[index]
                if record.fold.ops:
                    if record.template is not head.template \
                            or record.position != head.position:
                        break
                    run.append(record)
                    last = index + 1
            out.extend(block[start:head.position])
            start = head.position
            region = self._collapse(run, live[first:last], reads,
                                    scatter_defs) if run else None
            if region is not None:
                out.extend(region)
                self.regions_formed += 1
                scatter_defs.update((op.result.id, op) for op in region
                                    if op.__class__ is LoadOp)
            else:
                for record in live[first:last]:
                    if record.outputs is None:
                        self._force(record)
                    out.extend(record.ops)  # type: ignore[arg-type]
            first = last
        block[:] = out + block[start:]
        program.carry_inits = [self.resolve(v) for v in program.carry_inits]
        program.carry_nexts = [self.resolve(v) for v in program.carry_nexts]

    # -- loop regions -----------------------------------------------------

    def _collapse(self, run: list[_Record], span: list[_Record],
                  reads: dict[int, int],
                  scatter_defs: dict[int, Op]) -> list[Op] | None:
        """The ops standing for ``run`` — gather stores, the region,
        scatter loads, then the last firing's field stores — or ``None``
        when no region over it pays.  ``span`` adds the live firings
        between the run's, which emit no ops.  Tries, fewest first, each
        divisor of a firing's units per trip, then 2, 4, 8, ... whole
        firings; keeps the first that pays."""
        template = run[0].template
        unit, min_repeat = template.unit, self.region_min_repeat
        if min_repeat is None or unit is None \
                or len(run) * unit.copies < min_repeat:
            return None
        # A region stands for its firings' ops, not for the errors their
        # replays raise or the constants they compute: replay those, and
        # the firings between that emit nothing.
        for record in span:
            if record.outputs is None and (not record.fold.ops
                                           or record.fold.raises
                                           or record.fold.consts):
                self._force(record)
        fresh = [record for record in run if record.outputs is None]
        inputs = []
        for record in run:
            inputs.append([self.resolve(value) for value in record.inputs])
            if record.outputs is None:
                # What its replay would return, with the temps it mints.
                temps: dict[int, Temp] = {}
                record.outputs = self._outputs(
                    template, inputs[-1], lambda index, at, record=record,
                    temps=temps: temps.setdefault(at, Temp(
                        template.result_types[at],
                        id=record.base + record.fold.offsets[at])))
        defined = {ident for record in run
                   for ident in range(record.base,
                                      record.base + record.fold.temps)}
        # The unit (numbered across the run) and result computing each
        # output the run defines.  Those read after the run escape, and
        # so do the values the last firing's field stores store: those
        # stores follow the region.
        copies = unit.copies
        made: dict[int, tuple[int, int]] = {}
        escaping: set[int] = set()
        for index, record in enumerate(run):
            for value, at in zip(record.outputs,  # type: ignore
                                 unit.outputs):
                if at is not None and value.__class__ is Temp \
                        and value.id in defined:
                    made[value.id] = (index * copies + at[0], at[1])
                    if reads.get(value.id, -1) > run[-1].seq:
                        escaping.add(value.id)
        exits = dict(zip(template.pushes + [s for _, s in template.exits],
                         run[-1].outputs))  # type: ignore[arg-type]
        tail: list[Op] = []
        for step in template.steps[len(template.steps) - unit.tail:]:
            value = exits[step[5]]
            if value.__class__ is Temp and value.id in defined:
                escaping.add(value.id)
            tail.append(StoreOp(result=None, prov=(Provenance(
                run[-1].actor, "filter", step[1], run[-1].phase),),
                slot=step[2], index=None, value=value))
        # A unit that reads its previous copy starts a trip only where a
        # firing starts, unless the run is one firing.
        units = len(run) * copies
        sizes = [] if len(run) > 1 and any(
            kind == PREV for column in unit.columns for kind, _ in column) \
            else [size for size in range(1, copies) if copies % size == 0]
        size = copies
        while units % size == 0:
            sizes.append(size)
            size *= 2
        args = (run, inputs, unit, (Provenance(
            run[0].actor, "filter", run[0].fold.line, run[0].phase),),
            sum(record.fold.cost for record in run), escaping, made,
            scatter_defs)
        # The region's temps take the ids of the run's temps it drops.  A
        # size that does not pay keeps the ids its build took, and its
        # ops count against no op cap.
        with recycled_temp_ids(sorted(defined - escaping)):
            for per_trip in sizes:
                if units // per_trip < min_repeat:
                    break
                emitted = self.emitter.emitted
                built = self._build_region(per_trip, *args)
                if built is not None:
                    self.firings_replayed += per_trip
                    return built + tail
                self.emitter.emitted = emitted
        for record in fresh:
            record.outputs = None
        return None

    def _build_region(self, per_trip: int, run: list[_Record],
                      inputs: list[list[Value]], unit: LoopUnit,
                      prov: tuple, length: int, escaping: set[int],
                      made: dict[int, tuple[int, int]],
                      scatter_defs: dict[int, Op]) -> list[Op] | None:
        """A region doing ``per_trip`` units of ``run`` per trip, or
        ``None`` when a column does not fit a loop or the region does
        not pay.  A column's value in a trip is a value from before the
        run, or the unit before's result: within the trip that is an
        operand of the body, across trips a carry."""
        copies = unit.copies
        trips = len(run) * copies // per_trip
        assembly = RegionAssembly(self._slots, trips, prov,
                                  scatter_defs.get)
        body: list[Op] = []
        cost = 0
        results: list[list[Value]] = []
        # The steady section folds its constants instead of gathering
        # them; init runs once and gathers (docs/LOWERING.md §4b).
        gather_consts = self._phase != "steady"
        # (result, initial value key) -> (param, initial value, result)
        carries: dict[tuple, tuple[Temp, Value, int]] = {}
        for j in range(per_trip):
            operands: list[Value] = []
            for column in unit.columns:
                # A value, or the int r for the unit before's result r.
                values: list = []
                for trip in range(trips):
                    index = trip * per_trip + j
                    kind, what = column[index % copies]
                    if kind != PREV:
                        if kind == IN:
                            what = inputs[index // copies][what]
                        at = made.get(what.id) \
                            if what.__class__ is Temp else None
                        if at is not None:
                            if at[0] != index - 1:
                                return None
                            what = at[1]
                    values.append(what)
                prior = [value for value in values if value.__class__ is int]
                if not prior:
                    operand = assembly.column(values, gather_consts)
                    if operand is None:
                        return None
                    operands.append(operand)
                elif len(set(prior)) != 1 \
                        or len(prior) != (trips if j else trips - 1):
                    return None
                elif j:
                    operands.append(results[j - 1][prior[0]])
                else:
                    key = (prior[0], value_key(values[0]))
                    if key not in carries:
                        carries[key] = (Temp(values[0].ty, hint="rc"),
                                        values[0], prior[0])
                    operands.append(carries[key][0])
            fold = unit.template.fold_profile(tuple(
                value.__class__ is Const for value in operands))
            assert fold is not None
            cost += fold.cost
            with self.emitter.redirected(body, run[0].actor, "filter",
                                         self._phase):
                pushed, _ = unit.template.replay(self.emitter, operands,
                                                 self.source)
            results.append(pushed)
        carried = [(param, init, results[-1][r])
                   for param, init, r in carries.values()]
        if any(param.ty != nxt.ty for param, _, nxt in carried):
            return None
        rebinds: dict[tuple[int, int], list[tuple[int, Temp]]] = {}
        rebound: set[int] = set()
        for index, record in enumerate(run):
            for value, at in zip(record.outputs,  # type: ignore
                                 unit.outputs):
                if at is not None and value.__class__ is Temp \
                        and value.id in escaping and value.id not in rebound:
                    rebound.add(value.id)
                    trip, j = divmod(index * copies + at[0], per_trip)
                    rebinds.setdefault((j, at[1]), []).append((trip, value))
        if any(results[j][r].__class__ is not Temp for j, r in rebinds):
            return None
        for j, r in sorted(rebinds):
            assembly.scatter(results[j][r], rebinds[j, r])
        return assembly.finish(body, length, carried, cost)

    # -- filters ------------------------------------------------------------------

    def _setup_filter(self, vertex: FilterVertex) -> None:
        node = vertex.filter
        self.emitter.set_actor(node.name, "filter")
        fields: dict[str, FieldCell] = {}
        prefix = _sanitize(node.name)
        for name, ty in node.field_types.items():
            fields[name] = self._make_field(f"{prefix}_{name}", ty)
        code = self._code.get(id(node.decl))
        if code is None:
            code = self._code[id(node.decl)] = DeclCode(node.decl)
        executor = BodyExecutor(self.emitter, node, fields, self.source,
                                code)
        self.executors[vertex] = executor
        executor.run_field_initializers()
        if node.decl.init is not None:
            executor.run_body(node.decl.init, hooks=None)

    def _make_field(self, slot_name: str, ty: Type) -> FieldCell:
        if isinstance(ty, ArrayType):
            dims = [d for d in ty.dims() if d is not None]
            slot = StateSlot(name=slot_name, ty=ty.base, size=math.prod(dims))
        else:
            assert isinstance(ty, ScalarType)
            slot = StateSlot(name=slot_name, ty=ty, size=None)
            dims = []
        self.program.state_slots.append(slot)
        return FieldCell(slot=slot, dims=dims)

    # -- firings ---------------------------------------------------------------------

    def _check_deadline(self, vertex: Vertex, phase: str) -> None:
        faults_limits.check_deadline(
            f"lowering {vertex.name} ({phase} phase)")

    def _fire(self, firing: Firing) -> None:
        vertex = firing.vertex
        if self._counting:
            firings = self.program.filter_firings
            firings[vertex.name] = firings.get(vertex.name, 0) + 1
            self.program.filter_kinds.setdefault(
                vertex.name, vertex.kind.replace("Vertex", "").lower())
        if isinstance(vertex, FilterVertex):
            self._fire_filter(vertex, firing.prework)
        elif isinstance(vertex, SplitterVertex):
            self._fire_splitter(vertex)
        elif isinstance(vertex, JoinerVertex):
            self._fire_joiner(vertex)
        else:  # pragma: no cover
            raise AssertionError(vertex.kind)

    def _fire_filter(self, vertex: FilterVertex, prework: bool) -> None:
        node = vertex.filter
        self.emitter.set_actor(node.name, "filter")
        rates = node.prework if prework else node.work
        assert rates is not None
        body = node.decl.prework if prework else node.decl.work
        assert body is not None and body.body is not None
        executor = self.executors[vertex]
        executor.load_fields()
        if not self._replay(vertex, prework, rates.peek, body.body,
                            executor):
            self.firings_fallback += 1
            for cell in executor.fields.values():
                cell.cached = self.resolve(cell.cached)
            # Only this firing's ops prove a divisor never zero, as
            # when the body is recorded as a template.
            self.emitter.nonzero.clear()
            executor.run_body(body.body, _FilterHooks(
                self, vertex, rates.peek, self.emitter))
        executor.check_rates(rates.pop, rates.push,
                             "prework" if prework else "work")

    def _replay(self, vertex: FilterVertex, prework: bool, peek_rate: int,
                block: ast.Block, executor: BodyExecutor) -> bool:
        """Fire by recording a firing of the body's template, recording
        the template first if needed.  False when the body has no
        template, when the input queue is too short (per-firing
        execution then reports it), or when the firing's inputs would
        fold a condition the template's path was decided on."""
        body_key = (id(vertex.filter.decl), prework)
        if body_key in self._untemplated:
            return False
        key = (vertex, prework)
        template = self._templates.get(key)
        if template is None:
            template = firing_template.record(
                executor, block, lambda emitter: _RecordingHooks(
                    self, vertex, peek_rate, emitter))
            if template is None:
                self._untemplated.add(body_key)
                return False
            self._templates[key] = template
            self.templates_built += 1
        tokens: list[Value] = []
        if template.tokens:
            in_queue = self.queue_of(vertex.inputs[0])
            if len(in_queue) < template.tokens:
                return False
            tokens = list(islice(in_queue, template.tokens))
        fields = executor.fields
        inputs = tokens + [fields[name].cached for name in template.fields]
        fold = template.fold_profile(tuple(
            value.__class__ is Const
            or (value.__class__ is _Pending and value.id is None)
            for value in inputs))
        if fold is None:
            return False
        for _ in range(template.pops):
            in_queue.popleft()
        # A template without ops only passes values through, which is
        # its whole replay.
        record = None
        if template.steps:
            required = not (self.demand and template.deferrable)
            record = _Record(template, inputs, vertex.filter.name,
                             self._phase, fold, len(self._fired),
                             len(self.emitter.block), required)
            self._fired.append(record)
            self.firings_deferred += not required
        else:
            self.firings_replayed += 1
        # Leave the emitter where a replay would have left it.
        if template.exit_line is not None:
            self.emitter.set_line(template.exit_line)
        outputs = self._outputs(template, inputs, lambda index, at: _Pending(
            record, index, None if fold.offsets[at] is None  # type: ignore
            else record.base + fold.offsets[at]))  # type: ignore
        pushed = outputs[:len(template.pushes)]
        for (name, _), value in zip(template.exits,
                                    outputs[len(template.pushes):]):
            fields[name].cached = value
        if pushed:
            self.note_tokens(vertex.name, len(pushed))
            self.queue_of(vertex.outputs[0]).extend(pushed)
        executor.pops, executor.pushes = template.pops, len(pushed)
        return True

    def _route(self, token: Value) -> Value:
        """Move a token across a splitter/joiner.

        With elimination on this is the identity — the consumer will use
        the producer's name directly.  With elimination off we emit an
        explicit register move per routed token, modelling the data
        movement the paper's baseline performs.
        """
        if self.options.eliminate_splitjoin:
            return token
        token = self.resolve(token)
        result = Temp(token.ty, hint="route")
        self.emitter.emit(MoveOp(result=result, src=token, routing=True))
        return result

    def _fire_splitter(self, vertex: SplitterVertex) -> None:
        self.emitter.set_actor(vertex.name, "splitter")
        in_queue = self.queue_of(vertex.inputs[0])
        if vertex.policy == "duplicate":
            token = in_queue.popleft()
            for channel in vertex.outputs:
                self.note_tokens(vertex.name, 1)
                self.queue_of(channel).append(self._route(token))
            return
        for port, channel in enumerate(vertex.outputs):
            out_queue = self.queue_of(channel)
            for _ in range(vertex.weights[port]):
                self.note_tokens(vertex.name, 1)
                out_queue.append(self._route(in_queue.popleft()))

    def _fire_joiner(self, vertex: JoinerVertex) -> None:
        self.emitter.set_actor(vertex.name, "joiner")
        out_queue = self.queue_of(vertex.outputs[0])
        for port, channel in enumerate(vertex.inputs):
            in_queue = self.queue_of(channel)
            for _ in range(vertex.weights[port]):
                self.note_tokens(vertex.name, 1)
                out_queue.append(self._route(in_queue.popleft()))

    # -- loop-carried tokens ------------------------------------------------------

    def _capture(self, nexts: bool) -> None:
        """Take the tokens the queues keep across steady iterations: as
        the carries' next values, or after init as their initial values,
        putting the carry params in their place."""
        values: list[Value] = []
        for channel in self.graph.channels:
            expected = self.schedule.post_init_tokens[channel.name]
            if not expected:
                continue
            queue = self.queues[channel.name]
            assert len(queue) == expected, (
                f"queue {channel.name}: {len(queue)} tokens after "
                f"{'steady iteration' if nexts else 'init'}, schedule "
                f"predicted {expected}")
            values.extend(queue)
            for position in range(0 if nexts else expected):
                param = Temp(channel.ty, hint=f"carry{channel.uid}_")
                self.program.carry_params.append(param)
                queue[position] = param
        if nexts:
            self.program.carry_nexts = values
        else:
            self.program.carry_inits.extend(values)


_collector_lock = threading.Lock()
_collector_pauses = 0
_collector_was_enabled = False


@contextlib.contextmanager
def collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector for the enclosed compile.

    Lowering allocates up to millions of ops and temps that all outlive
    it, and next to no cyclic garbage; optimization, verification and
    code generation then walk and rewrite those ops.  CPython's
    collector re-scans its oldest generation each time that grows by a
    quarter, so on a large schedule the scans cost about a third of the
    lowering while freeing nothing.  One pause covers a whole compile
    (``CompiledStream.lower`` and ``laminar_c``, the cache's native
    build, and :func:`lower` for direct callers): pauses nest, and
    concurrent compiles share one; the collector runs again, if it was
    on, when the last of them ends.
    """
    global _collector_pauses, _collector_was_enabled
    with _collector_lock:
        if _collector_pauses == 0:
            _collector_was_enabled = gc.isenabled()
            gc.disable()
        _collector_pauses += 1
    try:
        yield
    finally:
        with _collector_lock:
            _collector_pauses -= 1
            if _collector_pauses == 0 and _collector_was_enabled:
                gc.enable()


def lower(schedule: Schedule, source: str = "",
          options: LoweringOptions | None = None, *,
          demand: bool = False) -> Program:
    """Lower a scheduled flat graph to a LaminarIR program.

    Each templated firing is recorded and built once, when its section
    ends.  ``demand=True`` leaves out the pure firings whose outputs no
    emitted code reads: the program is the eager one minus ops that
    dead-code elimination deletes, so use it only when that pass runs
    after (:meth:`repro.opt.OptOptions.prunes_dead_code`).  With
    ``options.regions`` each run of firings of one template becomes a
    loop region of :data:`REGION_MIN_REPEAT` trips or more when that
    pays, whose coefficient-table loads only state promotion turns back
    into constants.
    """
    with collector_paused():
        return Lowerer(schedule, source, options, demand=demand).lower()
