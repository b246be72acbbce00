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
from repro.faults.limits import ResourceExhausted
from repro.frontend import ast_nodes as ast
from repro.frontend.errors import LoweringError, SourceLocation
from repro.frontend.types import BOOLEAN, FLOAT, INT, ScalarType
from repro.graph.nodes import (Channel, FilterVertex, FlatGraph,
                               JoinerVertex, SplitterVertex, Vertex)
from repro.lir import template as firing_template
from repro.lir.ops import (Const, MoveOp, PrintOp, StateSlot, Temp, Value,
                           const_bool, const_float, const_int)
from repro.lir.program import Program
from repro.lir.symexec import (BodyExecutor, Emitter, FieldCell, TokenHooks)
from repro.lir.template import FiringTemplate
from repro.frontend.types import ArrayType, Type
from repro.obs import trace
from repro.scheduling.schedule import Firing, Schedule


@dataclass
class LoweringOptions:
    """Tunables for the lowering (the ablation switches of experiment E7).

    ``steady_multiplier`` unrolls that many steady-state iterations into
    one LaminarIR body (execution scaling): the schedule returns channel
    occupancy to its starting point after each iteration, so concatenating
    k iterations is always valid.  Larger bodies amortize the loop-carried
    rotation and widen the scope of CSE across iterations, at the price of
    code size and register pressure.
    """

    eliminate_splitjoin: bool = True
    steady_multiplier: int = 1
    op_limit: int = 4_000_000
    unroll_limit: int = 4_000_000

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
        return self.in_queue[offset]

    def pop(self, loc: SourceLocation) -> Value:
        self._check_pop(loc)
        if not self.in_queue:
            raise LoweringError(
                f"{self.vertex.name}: pop underflows the compile-time "
                "queue (scheduler bug)", loc, self.lowerer.source)
        self.pops += 1
        return self.in_queue.popleft()

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
                 options: LoweringOptions | None = None):
        self.schedule = schedule
        self.graph: FlatGraph = schedule.graph
        self.source = source
        self.options = options or LoweringOptions()
        # Ambient resource guardrails (docs/ROBUSTNESS.md): the op cap is
        # checked per firing so the diagnostic can name the filter whose
        # unroll blew the budget, with structured ResourceExhausted
        # typing (the Emitter's own op_limit stays a LoweringError).
        self.limits = faults_limits.active_limits()
        self.emitter = Emitter(op_limit=self.options.op_limit)
        self.program = Program(name=self.graph.name)
        self.queues: dict[str, deque[Value]] = {}
        self.executors: dict[FilterVertex, BodyExecutor] = {}
        # True while lowering the steady section: per-vertex token and
        # firing counts only accumulate there (the attribution tables and
        # interpreters report steady-state numbers).
        self._counting = False
        # Firing templates by (vertex, prework, scalar fields cached at
        # entry).  A body whose recording failed is not recorded again,
        # in any instance of its filter: the failure (data-dependent
        # control, a LoweringError) almost always comes from the body
        # itself, and per-firing execution is always correct.
        self._templates: dict[tuple[FilterVertex, bool, tuple[str, ...]],
                              FiringTemplate] = {}
        # (id of the filter's declaration, prework); AST nodes are
        # compared by value, so they are keyed by identity.
        self._untemplated: set[tuple[int, bool]] = set()
        self.templates_built = 0
        self.firings_replayed = 0
        self.firings_fallback = 0

    def queue_of(self, channel: Channel | None) -> deque[Value]:
        assert channel is not None
        return self.queues[channel.name]

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
                self._check_budget(vertex, "setup")

        for executor in self.executors.values():
            executor.invalidate_field_caches()
        self.emitter.set_phase("init")
        self.emitter.set_block(self.program.init)
        for firing in self.schedule.init:
            self._fire(firing)
            self._check_budget(firing.vertex, "init")

        self._capture_carries()

        for executor in self.executors.values():
            executor.invalidate_field_caches()
        self.emitter.set_phase("steady")
        self.emitter.set_block(self.program.steady)
        self._counting = True
        for _ in range(self.options.steady_multiplier):
            for firing in self.schedule.steady:
                self._fire(firing)
                self._check_budget(firing.vertex, "steady")
        self._counting = False
        self._capture_nexts()

        self.program.prints_per_iteration = sum(
            1 for op in self.program.steady if isinstance(op, PrintOp))
        trace.current_span().annotate(
            templates_built=self.templates_built,
            firings_replayed=self.firings_replayed,
            firings_fallback=self.firings_fallback)
        return self.program

    # -- filters ------------------------------------------------------------------

    def _setup_filter(self, vertex: FilterVertex) -> None:
        node = vertex.filter
        self.emitter.set_actor(node.name, "filter")
        fields: dict[str, FieldCell] = {}
        prefix = _sanitize(node.name)
        for name, ty in node.field_types.items():
            fields[name] = self._make_field(f"{prefix}_{name}", ty)
        executor = BodyExecutor(self.emitter, node, fields, self.source,
                                unroll_limit=self.options.unroll_limit)
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

    def _check_budget(self, vertex: Vertex, phase: str) -> None:
        cap = self.limits.max_unrolled_ops
        if cap is not None and self.emitter.emitted > cap:
            raise ResourceExhausted(
                "max_unrolled_ops", cap, self.emitter.emitted,
                where=f"filter {vertex.name!r} ({phase} phase)")
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
        if self._replay(vertex, prework, rates.peek, body.body, executor):
            self.firings_replayed += 1
        else:
            self.firings_fallback += 1
            executor.run_body(body.body, _FilterHooks(
                self, vertex, rates.peek, self.emitter))
        executor.check_rates(rates.pop, rates.push,
                             "prework" if prework else "work")

    def _replay(self, vertex: FilterVertex, prework: bool, peek_rate: int,
                block: ast.Block, executor: BodyExecutor) -> bool:
        """Fire by replaying the body's template, recording it first if
        needed.  False when the body has no template, or when the input
        queue is too short (per-firing execution then reports it)."""
        body_key = (id(vertex.filter.decl), prework)
        if body_key in self._untemplated:
            return False
        cached = tuple(name for name, cell in executor.fields.items()
                       if not cell.dims and cell.cached is not None)
        key = (vertex, prework, cached)
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
            for _ in range(template.pops):
                in_queue.popleft()
        fields = executor.fields
        pushed, exits = template.replay(
            self.emitter, tokens + [fields[name].cached  # type: ignore
                                    for name in template.fields],
            self.source)
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
                self.program.carry_inits.append(queue[position])
                queue[position] = param

    def _capture_nexts(self) -> None:
        nexts: list[Value] = []
        for channel in self._carry_channels():
            queue = self.queues[channel.name]
            expected = self.schedule.post_init_tokens[channel.name]
            assert len(queue) == expected, (
                f"queue {channel.name}: {len(queue)} tokens after steady "
                f"iteration, schedule predicted {expected}")
            nexts.extend(queue)
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
          options: LoweringOptions | None = None) -> Program:
    """Lower a scheduled flat graph to a LaminarIR program."""
    with _collector_paused():
        return Lowerer(schedule, source, options).lower()
