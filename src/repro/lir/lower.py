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

Lowered *demand-driven* (``lower(..., demand=True)``), a firing whose
template is pure is not replayed when it fires: its outputs enter the
queues as pending values, and it is replayed — into the position it
fired at — only once code that is emitted reads one of them.  The
queues tell at compile time which tokens nobody reads, so the firings
that only compute those emit nothing (docs/LOWERING.md §2c).

Lowered with loop regions (``lower(..., region_min_repeat=K)``), each
run of consecutive firings that replayed one firing template — and
emitted code — becomes one counted :class:`~repro.lir.ops.LoopRegion`
when its section ends, if it makes ``K`` trips or more: the template's
loop unit (one copy of the firing's unrolled loop, or the whole body)
replayed once per unit of a trip over trip-indexed inputs, with what a
trip hands the next as carries (docs/LOWERING.md §4b).
"""

from __future__ import annotations

import contextlib
import gc
import threading
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from repro.faults import limits as faults_limits
from repro.frontend import ast_nodes as ast
from repro.frontend.errors import LoweringError, SourceLocation
from repro.frontend.types import BOOLEAN, FLOAT, INT, ScalarType
from repro.graph.nodes import (Channel, FilterVertex, FlatGraph,
                               JoinerVertex, SplitterVertex, Vertex)
from repro.lir import template as firing_template
from repro.lir.ops import (Const, LoadOp, LoopRegion, MoveOp, Op, PrintOp,
                           StateSlot, StoreOp, Temp, Value, const_bool,
                           const_float, const_int, recycled_temp_ids,
                           reserve_temp_ids, reserved_temp_ids)
from repro.lir.program import Program
from repro.lir.regions import RegionAssembly, SlotAllocator, value_key
from repro.lir.symexec import (BodyExecutor, Emitter, FieldCell, TokenHooks)
from repro.lir.template import IN, PREV, FiringTemplate, LoopUnit
from repro.frontend.types import ArrayType, Type
from repro.obs import trace
from repro.scheduling.schedule import Firing, Schedule


# The fewest trips worth a loop region: repeats of a firing, or of one
# unit of its unrolled loop.
REGION_MIN_REPEAT = 4


@dataclass
class LoweringOptions:
    """What the lowering builds: ``eliminate_splitjoin`` (off for the
    E7 ablation: each routed token costs a ``move``) and
    ``steady_multiplier``.

    ``steady_multiplier`` unrolls that many steady-state iterations into
    one LaminarIR body (execution scaling): the schedule returns channel
    occupancy to its starting point after each iteration, so concatenating
    k iterations is always valid.  Larger bodies amortize the loop-carried
    rotation and widen the scope of CSE across iterations, at the price of
    code size and register pressure.
    """

    eliminate_splitjoin: bool = True
    steady_multiplier: int = 1

    def __post_init__(self) -> None:
        if self.steady_multiplier < 1:
            raise ValueError("steady_multiplier must be >= 1")


def _const_token(value: object, ty: ScalarType) -> Const:
    if ty == INT:
        return const_int(int(value))  # type: ignore[arg-type]
    if ty == FLOAT:
        return const_float(float(value))  # type: ignore[arg-type]
    if ty == BOOLEAN:
        return const_bool(bool(value))
    raise LoweringError(f"unsupported channel type {ty}")


class _Deferred:
    """A pure firing that was recorded instead of replayed.

    It keeps what a replay needs (its template and inputs, the actor and
    phase its ops are stamped with), the position in its section it
    fired at, and the block of temp ids its replay will mint.  Forced,
    it holds the replay's ops and outputs (and, when the lowering forms
    loop regions, keeps its template and resolved inputs); dropped at
    the end of its section unforced, it holds neither.
    """

    __slots__ = ("template", "inputs", "actor", "phase", "position",
                 "base", "temps", "outputs", "ops")

    def __init__(self, template: FiringTemplate, inputs: list,
                 actor: str, phase: str, position: int, temps: int):
        self.template: FiringTemplate | None = template
        self.inputs: list | None = inputs
        self.actor = actor
        self.phase = phase
        self.position = position
        self.base = reserve_temp_ids(temps)
        self.temps = temps
        self.outputs: list[Value | None] | None = None
        self.ops: list[Op] | None = None


class _Replayed:
    """A firing replayed where it fired, noted so that its section's end
    can collapse it into a loop region: its template, its inputs and
    outputs (the pushes, then the exits) and its ops' place in the
    section's block."""

    __slots__ = ("template", "inputs", "actor", "outputs", "position",
                 "count")

    def __init__(self, template: FiringTemplate, inputs: list, actor: str,
                 outputs: list, position: int, count: int):
        self.template: FiringTemplate | None = template
        self.inputs: list | None = inputs
        self.actor = actor
        self.outputs = outputs
        self.position = position
        self.count = count


class _Pending:
    """Output ``index`` (a push, or a field's value at exit) of a
    deferred firing; ``const`` when its replay will compute a constant."""

    __slots__ = ("firing", "index", "const")

    def __init__(self, firing: _Deferred, index: int, const: bool):
        self.firing = firing
        self.index = index
        self.const = const


def _promotable(op: Op) -> bool:
    """A load of a scalar or of an array element at a constant index,
    or a store to a scalar: state promotion removes these."""
    if op.__class__ is LoadOp:
        return op.index is None or op.index.__class__ is Const
    return op.__class__ is StoreOp and op.index is None


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
                 demand: bool = False,
                 region_min_repeat: int | None = None):
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
        self.templates_built = 0
        self.firings_replayed = 0
        self.firings_fallback = 0
        # Demand-driven replay: pure firings are deferred, and the
        # section's deferred firings spliced in at its end.
        self.demand = demand
        self._phase = "setup"
        # The section's deferred firings, and with regions on also the
        # ones replayed in place, in the order they fired.
        self._fired: list[_Deferred | _Replayed] = []
        self.firings_deferred = 0
        self.firings_dropped = 0
        # Loop regions from runs of one template's firings.
        self.region_min_repeat = region_min_repeat
        self._slots = SlotAllocator(self.program)
        self.regions_formed = 0

    def queue_of(self, channel: Channel | None) -> deque[Value]:
        assert channel is not None
        return self.queues[channel.name]

    def resolve(self, value: Value | _Pending | None) -> Value | None:
        """The value itself, or a pending one's, forcing its firing."""
        if value.__class__ is not _Pending:
            return value  # type: ignore[return-value]
        firing = value.firing  # type: ignore[union-attr]
        if firing.outputs is None:
            self._force(firing)
        return firing.outputs[value.index]  # type: ignore

    def note_tokens(self, vertex_name: str, amount: int) -> None:
        if self._counting and amount:
            tokens = self.program.filter_tokens
            tokens[vertex_name] = tokens.get(vertex_name, 0) + amount

    # -- driver ---------------------------------------------------------------

    def lower(self) -> Program:
        for channel in self.graph.channels:
            self.queues[channel.name] = deque(
                _const_token(v, channel.ty) for v in channel.initial)

        self.emitter.set_phase("setup")
        self.emitter.set_block(self.program.setup)
        for vertex in self.graph.topological_order():
            if isinstance(vertex, FilterVertex):
                self._setup_filter(vertex)
                self._check_deadline(vertex, "setup")

        for executor in self.executors.values():
            executor.invalidate_field_caches()
        self._begin_section("init", self.program.init)
        for firing in self.schedule.init:
            self._fire(firing)
            self._check_deadline(firing.vertex, "init")
        self._capture_carries()
        self._end_section()

        for executor in self.executors.values():
            executor.invalidate_field_caches()
        self._begin_section("steady", self.program.steady)
        self._counting = True
        for _ in range(self.options.steady_multiplier):
            for firing in self.schedule.steady:
                self._fire(firing)
                self._check_deadline(firing.vertex, "steady")
        self._counting = False
        self._capture_nexts()
        self._end_section()

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

    # -- demand-driven replay ----------------------------------------------

    def _begin_section(self, phase: str, block: list[Op]) -> None:
        self._phase = phase
        self.emitter.set_phase(phase)
        self.emitter.set_block(block)

    def _end_section(self) -> None:
        """Splice the forced firings' ops in where they fired; the
        others are dropped.  Then collapse runs of firings into loop
        regions.  Nothing reads a value of this section's firings later:
        the carries took the queues' tokens, and the field caches are
        invalidated at the boundary."""
        block = self.emitter.block
        spliced: list[Op] = []
        # (firing, start, end) of each firing that emitted ops, in the
        # spliced block.
        spans: list[tuple[_Deferred | _Replayed, int, int]] = []
        start = 0
        for firing in self._fired:
            if firing.__class__ is _Replayed:
                ops = block[firing.position:firing.position + firing.count]
                end = firing.position + firing.count
            elif firing.ops is None:
                self.firings_dropped += 1
                continue
            else:
                ops, end = firing.ops, firing.position
            spliced.extend(block[start:firing.position])
            start = end
            if ops:
                spans.append((firing, len(spliced),
                              len(spliced) + len(ops)))
                spliced.extend(ops)
        if self._fired:
            spliced.extend(block[start:])
            block[:] = spliced
        if spans and self.region_min_repeat is not None:
            self._form_regions(block, spans)
        for firing in self._fired:
            if firing.__class__ is _Deferred:
                firing.template = firing.inputs = firing.ops = None
        self._fired = []

    # -- loop regions -----------------------------------------------------

    def _form_regions(self, block: list[Op], spans: list) -> None:
        """Collapse each run of adjacent firings of one template whose
        loop unit repeats ``region_min_repeat`` or more times in all
        into a loop region, in place in ``block``."""
        min_repeat = self.region_min_repeat
        # Where each firing output is last read; the carry lists read
        # after the block.  Nothing else a firing computes is read
        # outside it.
        last_read = {value.id: -1 for firing, _, _ in spans
                     for value in firing.outputs if value.__class__ is Temp}
        for position, op in enumerate(block):
            for operand in op.operands():
                if operand.__class__ is Temp and operand.id in last_read:
                    last_read[operand.id] = position
        for value in self.program.carry_inits + self.program.carry_nexts:
            if value.__class__ is Temp and value.id in last_read:
                last_read[value.id] = len(block)
        # Scatter loads of this section's regions, which later regions
        # chain onto.
        scatter_defs: dict[int, Op] = {}
        out: list[Op] = []
        cursor = 0
        first = 0
        while first < len(spans):
            template = spans[first][0].template
            last = first + 1
            while last < len(spans) \
                    and spans[last][0].template is template \
                    and spans[last][1] == spans[last - 1][2]:
                last += 1
            run = spans[first:last]
            first = last
            unit = template.unit
            if unit is None or len(run) * unit.copies < min_repeat:
                continue
            replacement = self._collapse(block, run, unit, min_repeat,
                                         last_read, scatter_defs)
            if replacement is None:
                continue
            out.extend(block[cursor:run[0][1]])
            out.extend(replacement)
            cursor = run[-1][2]
            self.regions_formed += 1
            for op in replacement:
                if op.__class__ is LoadOp:
                    scatter_defs[op.result.id] = op
        if cursor:
            out.extend(block[cursor:])
            block[:] = out

    def _collapse(self, block: list[Op], run: list, unit: LoopUnit,
                  min_repeat: int, last_read: dict[int, int],
                  scatter_defs: dict[int, Op]) -> list[Op] | None:
        """The ops replacing ``run`` — gather stores, the region, scatter
        loads, then the last firing's field stores — or ``None`` when no
        region over it pays.  Tries, fewest first, each divisor of a
        firing's units per trip, then 2, 4, 8, ... whole firings."""
        firings = [firing for firing, _, _ in run]
        start, end = run[0][1], run[-1][2]
        # Loads and scalar stores of a filter's own state leave with
        # promotion, so they are not counted against the region.
        defined: set[int] = set()
        length = 0
        for op in block[start:end]:
            length += not _promotable(op)
            if op.result is not None:
                defined.add(op.result.id)
        # The outputs the run computes that are read after it escape,
        # and so do the values the last firing's field stores store:
        # those stores follow the region.
        tail = block[end - unit.tail:end]
        escaping = {value.id for firing in firings
                    for value in firing.outputs
                    if value.__class__ is Temp and value.id in defined
                    and last_read[value.id] >= end}
        escaping.update(op.value.id for op in tail
                        if op.value.__class__ is Temp
                        and op.value.id in defined)
        # The unit (numbered across the run) and result computing each
        # output the run defines.
        made: dict[int, tuple[int, int]] = {}
        for index, firing in enumerate(firings):
            for value, at in zip(firing.outputs, unit.outputs):
                if at is not None and value.__class__ is Temp \
                        and value.id in defined:
                    made[value.id] = (index * unit.copies + at[0], at[1])
        # A unit that reads its previous copy starts a trip only where a
        # firing starts, unless the run is one firing.
        copies = unit.copies
        units = len(firings) * copies
        sizes = [] if len(firings) > 1 and any(
            kind == PREV for column in unit.columns for kind, _ in column) \
            else [size for size in range(1, copies) if copies % size == 0]
        size = copies
        while units % size == 0:
            sizes.append(size)
            size *= 2
        # The region's temps take the ids of the run's temps it drops.
        with recycled_temp_ids(sorted(
                op.result.id for op in block[start:end]
                if op.result is not None
                and op.result.id not in escaping)):
            for per_trip in sizes:
                if units // per_trip < min_repeat:
                    break
                built = self._build_region(firings, unit, per_trip,
                                           block[start], length, escaping,
                                           defined, made, scatter_defs)
                if built is not None:
                    return built + tail
        return None

    def _build_region(self, firings: list, unit: LoopUnit, per_trip: int,
                      first: Op, length: int, escaping: set[int],
                      defined: set[int], made: dict[int, tuple[int, int]],
                      scatter_defs: dict[int, Op]) -> list[Op] | None:
        """A region doing ``per_trip`` units of ``firings`` per trip, or
        ``None`` when a column does not fit a loop or the region does
        not pay.  A column's value in a trip is a value from before the
        run, or the unit before's result: within the trip that is an
        operand of the body, across trips a carry."""
        copies = unit.copies
        trips = len(firings) * copies // per_trip
        assembly = RegionAssembly(self._slots, trips, (first.prov[0],),
                                  scatter_defs.get)
        body: list[Op] = []
        results: list[list[Value]] = []
        # (result, initial value key) -> (param, initial value, result)
        carries: dict[tuple, tuple[Temp, Value, int]] = {}
        for j in range(per_trip):
            inputs: list[Value] = []
            for column in unit.columns:
                # A value, or the int r for the unit before's result r.
                values: list = []
                for trip in range(trips):
                    index = trip * per_trip + j
                    kind, what = column[index % copies]
                    if kind != PREV:
                        if kind == IN:
                            what = firings[index // copies].inputs[what]
                        if what.__class__ is Temp and what.id in defined:
                            at = made.get(what.id)
                            if at is None or at[0] != index - 1:
                                return None
                            what = at[1]
                    values.append(what)
                prior = [value for value in values if value.__class__ is int]
                if not prior:
                    inputs.append(assembly.column(values))
                elif len(set(prior)) != 1 \
                        or len(prior) != (trips if j else trips - 1):
                    return None
                elif j:
                    inputs.append(results[j - 1][prior[0]])
                else:
                    key = (prior[0], value_key(values[0]))
                    if key not in carries:
                        carries[key] = (Temp(values[0].ty, hint="rc"),
                                        values[0], prior[0])
                    inputs.append(carries[key][0])
            with self.emitter.redirected(body, firings[0].actor, "filter",
                                         self._phase):
                pushed, _ = unit.template.replay(self.emitter, inputs,
                                                 self.source)
            results.append(pushed)
        carried = [(param, init, results[-1][r])
                   for param, init, r in carries.values()]
        if any(param.ty != nxt.ty for param, _, nxt in carried):
            return None
        rebinds: dict[tuple[int, int], list[tuple[int, Temp]]] = {}
        rebound: set[int] = set()
        for index, firing in enumerate(firings):
            for value, at in zip(firing.outputs, unit.outputs):
                if at is not None and value.__class__ is Temp \
                        and value.id in escaping and value.id not in rebound:
                    rebound.add(value.id)
                    trip, j = divmod(index * copies + at[0], per_trip)
                    rebinds.setdefault((j, at[1]), []).append((trip, value))
        for j, r in sorted(rebinds):
            if results[j][r].__class__ is not Temp:
                return None
            assembly.scatter(results[j][r], rebinds[j, r])
        return assembly.finish(body, length, carried,
                               sum(_promotable(op) for op in body))

    def _defer(self, vertex: FilterVertex, template: FiringTemplate,
               inputs: list, profile: tuple[int, tuple[bool, ...]]
               ) -> list:
        """Record a pure firing whose replay ``template.fold_profile``
        describes; returns its outputs (the pushes, then the exits) as
        they will be: inputs and constants passed through stay
        themselves, the rest are pending.  A template without ops only
        passes values through, which is its whole replay."""
        temps, const_outputs = profile
        firing = None
        if template.steps:
            firing = _Deferred(template, inputs, vertex.filter.name,
                               self._phase, len(self.emitter.block), temps)
            self._fired.append(firing)
            self.firings_deferred += 1
        else:
            self.firings_replayed += 1
        # Leave the emitter where a replay would have left it.
        line = template.exit_line
        if line is not None:
            self.emitter.set_line(line)
        known = len(inputs)
        consts = template.consts
        outputs: list = []
        for index, slot in enumerate(
                template.pushes + [slot for _, slot in template.exits]):
            if slot is None:
                outputs.append(None)
            elif slot < known:
                outputs.append(inputs[slot])
            elif slot < known + len(consts):
                outputs.append(consts[slot - known])
            else:
                assert firing is not None
                outputs.append(_Pending(firing, index,
                                        const_outputs[index]))
        return outputs

    def _force(self, firing: _Deferred) -> None:
        """Replay ``firing``, and first the deferred firings whose
        pending outputs it reads.  An explicit stack: a long chain of
        pure stages must not hit Python's recursion limit."""
        stack = [firing]
        while stack:
            top = stack[-1]
            if top.outputs is not None:
                stack.pop()
                continue
            assert top.inputs is not None, "forced a dropped firing"
            waiting = [value.firing for value in top.inputs
                       if value.__class__ is _Pending
                       and value.firing.outputs is None]
            if waiting:
                stack.extend(waiting)
                continue
            stack.pop()
            inputs = [self.resolve(value) for value in top.inputs]
            ops: list[Op] = []
            assert top.template is not None
            with self.emitter.redirected(ops, top.actor, "filter",
                                         top.phase), \
                    reserved_temp_ids(top.base, top.temps):
                pushed, exits = top.template.replay(
                    self.emitter, inputs, self.source)
            self.firings_replayed += 1
            top.outputs = pushed + exits
            top.ops = ops
            if self.region_min_repeat is None:
                top.template = top.inputs = None
            else:
                top.inputs = inputs

    # -- filters ------------------------------------------------------------------

    def _setup_filter(self, vertex: FilterVertex) -> None:
        node = vertex.filter
        self.emitter.set_actor(node.name, "filter")
        fields: dict[str, FieldCell] = {}
        prefix = _sanitize(node.name)
        for name, ty in node.field_types.items():
            fields[name] = self._make_field(f"{prefix}_{name}", ty)
        executor = BodyExecutor(self.emitter, node, fields, self.source)
        self.executors[vertex] = executor
        executor.run_field_initializers()
        if node.decl.init is not None:
            executor.run_body(node.decl.init, hooks=None)

    def _make_field(self, slot_name: str, ty: Type) -> FieldCell:
        if isinstance(ty, ArrayType):
            dims = [d for d in ty.dims() if d is not None]
            size = 1
            for d in dims:
                size *= d
            base = ty.base
            slot = StateSlot(name=slot_name, ty=base, size=size)
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
            executor.run_body(body.body, _FilterHooks(
                self, vertex, rates.peek, self.emitter))
        executor.check_rates(rates.pop, rates.push,
                             "prework" if prework else "work")

    def _replay(self, vertex: FilterVertex, prework: bool, peek_rate: int,
                block: ast.Block, executor: BodyExecutor) -> bool:
        """Fire by replaying the body's template, recording it first if
        needed.  False when the body has no template, when the input
        queue is too short (per-firing execution then reports it), or
        when the firing's inputs would fold a condition the template's
        path was decided on."""
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
        deferred = self.demand and template.deferrable
        if deferred or template.decisions:
            profile = template.fold_profile(tuple(
                value.__class__ is Const
                or (value.__class__ is _Pending and value.const)
                for value in inputs))
            if profile is None:
                return False
        for _ in range(template.pops):
            in_queue.popleft()
        if deferred:
            outputs = self._defer(vertex, template, inputs, profile)
            pushed = outputs[:len(template.pushes)]
            exits = outputs[len(template.pushes):]
        else:
            resolved = [self.resolve(value) for value in inputs]
            position = len(self.emitter.block)
            pushed, exits = template.replay(self.emitter, resolved,
                                            self.source)
            self.firings_replayed += 1
            if self.region_min_repeat is not None:
                self._fired.append(_Replayed(
                    template, resolved, vertex.filter.name, pushed + exits,
                    position, len(self.emitter.block) - position))
        for (name, _), value in zip(template.exits, exits):
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

    def _carry_channels(self) -> list[Channel]:
        return [ch for ch in self.graph.channels
                if self.schedule.post_init_tokens[ch.name] > 0]

    def _capture_carries(self) -> None:
        for channel in self._carry_channels():
            queue = self.queues[channel.name]
            expected = self.schedule.post_init_tokens[channel.name]
            assert len(queue) == expected, (
                f"queue {channel.name}: {len(queue)} tokens after init, "
                f"schedule predicted {expected}")
            for position in range(expected):
                param = Temp(channel.ty, hint=f"carry{channel.uid}_")
                self.program.carry_params.append(param)
                self.program.carry_inits.append(
                    self.resolve(queue[position]))
                queue[position] = param

    def _capture_nexts(self) -> None:
        nexts: list[Value] = []
        for channel in self._carry_channels():
            queue = self.queues[channel.name]
            expected = self.schedule.post_init_tokens[channel.name]
            assert len(queue) == expected, (
                f"queue {channel.name}: {len(queue)} tokens after steady "
                f"iteration, schedule predicted {expected}")
            nexts.extend(self.resolve(value) for value in queue)
        self.program.carry_nexts = nexts


_collector_lock = threading.Lock()
_collector_pauses = 0
_collector_was_enabled = False


@contextlib.contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector for the enclosed lowering.

    Lowering allocates up to millions of ops and temps that all outlive
    it, and next to no cyclic garbage.  CPython's collector re-scans its
    oldest generation each time that grows by a quarter, so on a large
    schedule the scans cost about a third of the lowering while freeing
    nothing.  Concurrent lowerings share one pause; the collector runs
    again, if it was on, when the last of them ends.
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
          demand: bool = False,
          region_min_repeat: int | None = None) -> Program:
    """Lower a scheduled flat graph to a LaminarIR program.

    ``demand=True`` leaves out the pure firings whose outputs no emitted
    code reads: the program is the eager one minus ops that dead-code
    elimination deletes, so use it only when that pass runs after.
    ``region_min_repeat=K`` collapses runs of firings of one template
    into loop regions of ``K`` trips or more, whose coefficient-table
    loads only state promotion turns back into constants.
    :meth:`repro.opt.OptOptions.lowering_flags` gives both for a
    pipeline.
    """
    with _collector_paused():
        return Lowerer(schedule, source, options, demand=demand,
                       region_min_repeat=region_min_repeat).lower()
