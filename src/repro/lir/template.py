"""Firing templates: execute a filter body once, replay it per firing.

The lowering fires each filter many times.  Two firings of the same body
that start from the same field-cache state emit the same ops up to
renaming: they read tokens from other queue positions and start from
other field values, but as long as no control decision depends on those
inputs, the statements executed, the loops unrolled and the ops emitted
are the same.

:func:`record` runs the body once through the ordinary
:class:`~repro.lir.symexec.BodyExecutor` and the filter's compiled
closures, with an opaque placeholder
temp for every token position it reads and for every scalar field (the
lowering loads them before a filter's first firing in a section), and
keeps what it emitted.
:meth:`FiringTemplate.replay` re-issues those ops through the real
:class:`~repro.lir.symexec.Emitter` with the placeholders renamed to the
firing's queue tokens and field values.  An op whose operands are now
all constants goes back through the emitter method that first emitted
it, so it folds exactly as per-firing execution would fold it; any
other op cannot fold and is rebuilt as recorded.  Temps are minted in
the same order as per-firing execution mints them: the output is
identical, not merely equivalent.

A body is not templated (the caller falls back to per-firing execution)
when its recording raised a :class:`~repro.frontend.errors.LoweringError`
— a loop bound or peek offset computed from a token, for instance — or
took a predicated return.  An if-converted body is templated: its
selects are steps like any other, and the template keeps the conditions
its path was decided on.  A firing whose inputs would fold one of those
to a constant would take another path, so it falls back
(:meth:`FiringTemplate.fold_profile`).

Whether a replay folds a step depends only on which of its inputs are
constants, not on their values, so :meth:`FiringTemplate.fold_profile`
tells without replaying what a firing's replay will do (a
:class:`Fold`), and the lowering builds the firing only when its
section ends (docs/LOWERING.md §2c).  A template is *deferrable*, so
that a firing of it may be dropped, when replaying it has no effect
and cannot raise: no store, print or call, no division, remainder or
shift, no float-to-int cast and no bounds-checked index.

A template whose steps are copies of one shorter unit — an unrolled
loop — knows that unit (:class:`LoopUnit`), so the lowering can roll
its firings back into a loop of unit trips (docs/LOWERING.md §4b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from repro.frontend import ast_nodes as ast
from repro.frontend.errors import LoweringError, SourceLocation
from repro.frontend.types import BOOLEAN, FLOAT, INT, ScalarType
from repro.lir.ops import (BinOp, CallOp, CastOp, Const, LoadOp, PrintOp,
                           SelectOp, StateSlot, StoreOp, Temp, UnOp, Value,
                           fresh_temp_ids)
from repro.lir.regions import value_key
from repro.lir.symexec import (BodyExecutor, Emitter, FieldCell, TokenHooks,
                               check_const_bounds)

# Step kinds: one per op class, casts split by the emitter method that
# made them.
_BINOP, _UNOP, _COERCE, _CAST, _CALL, _LOAD, _STORE, _PRINT, _SELECT = \
    range(9)

# Binary operators whose constant fold can raise: a zero divisor, a
# negative shift count.
_RAISING_BINOPS = frozenset(("/", "%", "<<", ">>"))


class _Recorder(Emitter):
    """An emitter that also notes, per op, its source line and what
    replay needs to re-issue it: the location of a binary op or of an
    indexed access, and whether a cast came from ``cast`` or ``coerce``
    (they fold constants differently)."""

    def __init__(self, emitter: Emitter):
        # The lowering's op cap; a recording past it names the filter
        # and phase being recorded.
        super().__init__(emitter.max_ops)
        self.set_actor(emitter._actor, emitter._actor_kind)
        self.set_phase(emitter._phase)
        self.notes: list[tuple[int, object]] = []
        self._loc: SourceLocation | None = None
        self._casting = False

    def emit(self, op) -> None:
        super().emit(op)
        note = self._casting if isinstance(op, CastOp) else self._loc
        self.notes.append((self._line, note))

    def binop(self, op: str, lhs: Value, rhs: Value,
              loc: SourceLocation, source: str = "") -> Value:
        self._loc = loc
        return super().binop(op, lhs, rhs, loc, source)

    def cast(self, value: Value, target: ScalarType) -> Value:
        self._casting = True
        try:
            return super().cast(value, target)
        finally:
            self._casting = False

    def load(self, slot: StateSlot, index: Value | None,
             loc: SourceLocation | None = None) -> Value:
        self._loc = loc
        return super().load(slot, index, loc)

    def store(self, slot: StateSlot, index: Value | None, value: Value,
              loc: SourceLocation | None = None) -> None:
        self._loc = loc
        super().store(slot, index, value, loc)


class Fold(NamedTuple):
    """What replaying a template does, given which of its inputs are
    constants."""

    temps: int  # temps it mints
    ops: int  # ops it emits
    cost: int  # those of its ops that state promotion does not remove
    line: int | None  # the source line of its first op
    raises: bool  # whether a step it folds or checks may raise
    consts: bool  # whether a step computes one of its outputs as a constant
    # Per step result, in slot order: the index of its temp among those
    # the replay mints, or None when it folds to a constant.  Its type is
    # the template's ``result_types`` entry.
    offsets: tuple[int | None, ...]


@dataclass
class FiringTemplate:
    """One filter body's ops over placeholder inputs.

    Values live in numbered slots: the ``tokens`` input positions read,
    then the scalar fields' values (``fields``, by name), then the
    template's constants, then one slot per op result in emission order.
    """

    steps: list[tuple]
    tokens: int
    pops: int
    fields: tuple[str, ...]
    consts: list[Value]
    pushes: list[int]
    exits: list[tuple[str, int | None]]
    end_line: int | None
    # Whether a firing of it may be dropped: its replay has no effect
    # and cannot raise, so it is a pure function of its inputs.
    deferrable: bool = False
    # The input slots its steps read.
    reads: frozenset[int] = frozenset()
    # The value slots of the conditions the recorded path was decided on.
    decisions: tuple[int, ...] = ()
    # The loop unit a region replays per trip (see _loop_unit); None
    # when the steps store to a filter array.
    unit: LoopUnit | None = None
    # The type of each step result, in slot order.
    result_types: tuple[ScalarType, ...] = field(init=False, repr=False)
    # fold_profile's answers, by constant-input mask.
    _profiles: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self.result_types = tuple(
            step[2].ty if step[0] == _LOAD else step[2]
            for step in self.steps if step[0] not in (_STORE, _PRINT))

    @property
    def exit_line(self) -> int | None:
        """The source line a replay leaves the emitter at, if any."""
        if self.end_line is not None:
            return self.end_line
        return self.steps[-1][1] if self.steps else None

    def fold_profile(self, const_inputs: tuple[bool, ...]) -> Fold | None:
        """What a replay whose inputs flagged in ``const_inputs`` are
        constants does, or ``None`` when those inputs fold a decision,
        so that the firing would take another path.  Exact, since a step
        folds exactly when its operands are constants (a cast to
        ``boolean`` never does, nor a load, and a select's condition is
        a decision)."""
        if const_inputs in self._profiles:
            return self._profiles[const_inputs]
        const = list(const_inputs) + [True] * len(self.consts)
        base = len(const)
        temps = ops = cost = 0
        line = None
        raises = False
        offsets = []
        for step in self.steps:
            kind = step[0]
            if kind == _BINOP:
                folds = const[step[3]] and const[step[4]]
            elif kind in (_UNOP, _COERCE):
                folds = const[step[3]]
            elif kind == _CAST:
                folds = const[step[3]] and step[2] != BOOLEAN
            elif kind == _CALL:
                folds = step[5] and all(const[arg] for arg in step[3])
            else:
                folds = False
            indexed = kind in (_LOAD, _STORE) and step[3] is not None
            # A bounds check, or a fold that raises on some constants.
            raises = raises or (indexed and step[4] is not None
                                and const[step[3]]) or folds and (
                kind == _CALL or kind in (_CAST, _COERCE) and step[2] == INT
                or kind == _BINOP and step[5] in _RAISING_BINOPS)
            if not folds:
                ops += 1
                cost += not (kind == _LOAD and (not indexed or const[step[3]])
                             or kind == _STORE and not indexed)
                line = step[1] if line is None else line
            if kind in (_STORE, _PRINT):
                continue
            offsets.append(None if folds else temps)
            temps += not folds
            const.append(folds)
        profile = None
        if not any(const[slot] for slot in self.decisions):
            outputs = self.pushes + [slot for _, slot in self.exits]
            profile = Fold(temps, ops, cost, line, raises, any(
                slot is not None and slot >= base and const[slot]
                for slot in outputs), tuple(offsets))
        self._profiles[const_inputs] = profile
        return profile

    def replay(self, emitter: Emitter, inputs: list[Value],
               source: str) -> tuple[list[Value], list[Value | None]]:
        """Emit one firing; ``inputs`` holds the first ``tokens`` queue
        tokens and then the ``fields`` values.  Returns the pushed
        values and the scalar fields' cached values at exit."""
        # An op with a temp operand cannot fold, and its operand types
        # are those recorded, so it is built directly with the recorded
        # result type; an all-constant op goes through its emitter method.
        values = inputs + self.consts
        append = values.append
        emit = emitter.emit
        set_line = emitter.set_line
        for step in self.steps:
            kind = step[0]
            set_line(step[1])
            if kind == _BINOP:
                lhs, rhs = values[step[3]], values[step[4]]
                if lhs.__class__ is Const and rhs.__class__ is Const:
                    append(emitter.binop(step[5], lhs, rhs, step[6],
                                         source))
                    continue
                result = Temp(step[2])
                emit(BinOp(result=result, op=step[5], lhs=lhs, rhs=rhs))
            elif kind == _LOAD:
                index = None if step[3] is None else values[step[3]]
                if step[4] is not None and index.__class__ is Const:
                    check_const_bounds(index, step[2], step[4], source)
                result = Temp(step[2].ty)
                emit(LoadOp(result=result, slot=step[2], index=index))
            elif kind == _STORE:
                index = None if step[3] is None else values[step[3]]
                if step[4] is not None and index.__class__ is Const:
                    check_const_bounds(index, step[2], step[4], source)
                emit(StoreOp(result=None, slot=step[2], index=index,
                             value=values[step[5]]))
                continue
            elif kind == _PRINT:
                emit(PrintOp(result=None, value=values[step[3]],
                             newline=step[2]))
                continue
            elif kind == _SELECT:
                append(emitter.select(values[step[3]], values[step[4]],
                                      values[step[5]]))
                continue
            elif kind == _CALL:
                args = [values[i] for i in step[3]]
                if all(arg.__class__ is Const for arg in args):
                    append(emitter.call(step[4], args))
                    continue
                result = Temp(step[2])
                emit(CallOp(result=result, name=step[4], args=args,
                            pure=step[5]))
            else:
                operand = values[step[3]]
                if operand.__class__ is Const:
                    append(emitter.unop(step[4], operand) if kind == _UNOP
                           else emitter.coerce(operand, step[2])
                           if kind == _COERCE
                           else emitter.cast(operand, step[2]))
                    continue
                result = Temp(step[2])
                emit(UnOp(result=result, op=step[4], operand=operand)
                     if kind == _UNOP
                     else CastOp(result=result, operand=operand))
            append(result)
        if self.end_line is not None:
            set_line(self.end_line)
        return ([values[slot] for slot in self.pushes],
                [None if slot is None else values[slot]
                 for _, slot in self.exits])


def _bounds_loc(index: Value | None, loc: object) -> object:
    """Where to report an index that folds to a constant on replay; None
    when none can (a constant index was already checked recording)."""
    return loc if isinstance(index, Temp) else None


def _deferrable(op, note: object) -> bool:
    """Whether replaying ``op`` (recorded with ``note``) is free of
    effects and of folds that can raise."""
    if isinstance(op, BinOp):
        return op.op not in _RAISING_BINOPS
    if isinstance(op, LoadOp):
        return _bounds_loc(op.index, note) is None
    if isinstance(op, CastOp):  # int() of an infinite or NaN constant
        return not (op.result.ty == INT and op.operand.ty == FLOAT)
    return isinstance(op, (UnOp, SelectOp))


def _step_shape(step: tuple) -> tuple[tuple, tuple]:
    """A step without its source line: what it does, and the value
    slots it reads."""
    kind = step[0]
    if kind == _BINOP:
        return (kind, step[2], step[5]), (step[3], step[4])
    if kind == _UNOP:
        return (kind, step[2], step[4]), (step[3],)
    if kind in (_CAST, _COERCE):
        return (kind, step[2]), (step[3],)
    if kind == _CALL:
        return (kind, step[2], step[4], step[5]), step[3]
    if kind == _LOAD:
        return (kind, id(step[2])), (step[3],)
    if kind == _STORE:
        return (kind, id(step[2])), (step[3], step[5])
    if kind == _SELECT:
        return (kind, step[2]), (step[3], step[4], step[5])
    return (kind, step[2]), (step[3],)


def _with_reads(step: tuple, reads: list[int | None]) -> tuple:
    """``step`` reading the value slots ``reads``, in the order
    :func:`_step_shape` lists them."""
    kind = step[0]
    if kind in (_BINOP, _SELECT):
        return step[:3] + tuple(reads) + step[3 + len(reads):]
    if kind == _CALL:
        return step[:3] + (tuple(reads),) + step[4:]
    if kind == _STORE:
        return step[:3] + (reads[0],) + step[4:5] + (reads[1],)
    return step[:3] + (reads[0],) + step[4:]


# What one copy of a unit reads at an operand: a firing input, a
# constant, or a result of the copy before.
IN, CONST, PREV = "in", "const", "prev"


@dataclass
class LoopUnit:
    """A template's steps as ``copies`` copies of one unit.

    ``template`` replays one copy.  Its inputs are the ``columns``: for
    each, what every copy reads there — ``(IN, p)`` the firing's input
    ``p``, ``(CONST, c)`` the constant ``c``, ``(PREV, r)`` the previous
    copy's ``r``-th result — and its replay pushes every result of the
    copy, in order.  ``outputs`` places each of the firing's outputs
    (its pushes, then its exits): ``(copy, r)`` when a copy computes
    it.  After the copies come ``tail`` steps that store the scalar
    fields the firing wrote; they store its exits.
    """

    template: FiringTemplate
    copies: int
    columns: list[tuple[tuple[str, object], ...]]
    outputs: list[tuple[int, int] | None]
    tail: int


def _loop_unit(steps: list[tuple], inputs: int, consts: list[Value],
               outputs: list[int | None]) -> LoopUnit | None:
    """The shortest unit ``steps`` are copies of (the whole body when
    nothing shorter is), or ``None`` when they store to a filter array.
    ``inputs`` counts the value slots before the constants; ``outputs``
    are the slots of the firing's pushes and exits."""
    tail = 0
    while tail < len(steps) and steps[-1 - tail][0] == _STORE \
            and steps[-1 - tail][3] is None:
        tail += 1
    body = steps[:len(steps) - tail]
    if not body or any(step[0] == _STORE for step in body):
        return None
    shapes = [_step_shape(step) for step in body]
    keys = [shape for shape, _ in shapes]
    for length in range(1, len(body) + 1):
        if len(body) % length == 0 and keys[length:] == keys[:-length]:
            unit = _unit_of(body, [reads for _, reads in shapes], length,
                            inputs, consts, outputs, tail)
            if unit is not None:
                return unit
    return None


def _unit_of(body: list[tuple], reads: list[tuple], length: int,
             inputs: int, consts: list[Value], outputs: list[int | None],
             tail: int) -> LoopUnit | None:
    """``body`` as copies of its first ``length`` steps, or ``None`` when
    a copy reads a result older than the previous copy's, or indexes a
    filter array by copy (promotion turns a constant-index load into
    the element's value, which a loop cannot)."""
    copies = len(body) // length
    results = sum(step[0] not in (_STORE, _PRINT)
                  for step in body[:length])
    base = inputs + len(consts)

    def entry(copy: int, slot: int) -> tuple:
        if slot < inputs:
            return (IN, slot)
        if slot < base:
            return (CONST, consts[slot - inputs])
        made, r = divmod(slot - base, results)
        return ("res" if made == copy else PREV if made == copy - 1
                else None, r)

    # A read every copy makes of the same constant or of its own
    # result keeps its slot; any other read is a column.
    columns: dict[tuple, tuple[int, tuple]] = {}
    plans: list[list] = []
    for j in range(length):
        plan: list = []
        for i, slot in enumerate(reads[j]):
            if slot is None:
                plan.append(None)
                continue
            entries = tuple(entry(copy, reads[copy * length + j][i])
                            for copy in range(copies))
            kinds = {kind for kind, _ in entries}
            if None in kinds or ("res" in kinds and len(set(entries)) > 1):
                return None
            key = tuple((kind, value_key(x)) if kind == CONST else (kind, x)
                        for kind, x in entries)
            if kinds == {"res"} or (kinds == {CONST} and len(set(key)) == 1):
                plan.append(("slot", slot))
            elif body[j][0] == _LOAD and kinds == {CONST}:
                return None
            else:
                plan.append(("col", columns.setdefault(
                    key, (len(columns), entries))[0]))
        plans.append(plan)
    # The unit's value slots: its columns, the template's constants, the
    # copy's results.
    shift = len(columns) - inputs
    template = FiringTemplate(
        steps=[_with_reads(body[j], [
            None if read is None else read[1] if read[0] == "col"
            else read[1] + shift for read in plans[j]])
            for j in range(length)],
        tokens=len(columns), pops=0, fields=(), consts=consts,
        pushes=[base + shift + r for r in range(results)], exits=[],
        end_line=None)
    return LoopUnit(
        template=template, copies=copies,
        columns=[entries for _, entries in columns.values()],
        outputs=[divmod(slot - base, results)
                 if slot is not None and slot >= base else None
                 for slot in outputs],
        tail=tail)


def record(executor: BodyExecutor, block: ast.Block,
           make_hooks: Callable[[Emitter], TokenHooks]
           ) -> FiringTemplate | None:
    """Record ``block`` as ``executor``'s filter would run it next.

    ``make_hooks`` builds the recording's token hooks around the
    recording emitter.  Afterwards their ``tokens[p]`` must be the
    placeholder read for input position ``p`` (covering every position
    up to the highest one read), ``pops`` the tokens consumed and
    ``pushed`` the values produced, in order.

    The recording runs on copies of the executor's field cells, with an
    emitter of its own and temp ids from a private space, so it leaves
    the program, the filter's state and the temp numbering untouched.
    Returns ``None`` when the body cannot be templated.
    ``ResourceExhausted`` propagates.
    """
    recorder = _Recorder(executor.emitter)
    with fresh_temp_ids():
        fields: dict[str, FieldCell] = {}
        cached: list[tuple[str, Temp]] = []
        for name, cell in executor.fields.items():
            assert not cell.dirty and (cell.dims or cell.cached is not None)
            copy = FieldCell(slot=cell.slot, dims=cell.dims)
            if not cell.dims:
                copy.cached = Temp(cell.slot.ty)
                cached.append((name, copy.cached))
            fields[name] = copy
        body = BodyExecutor(recorder, executor.node, fields, executor.source,
                            executor.code)
        hooks = make_hooks(recorder)
        try:
            body.run_body(block, hooks)
        except LoweringError:
            return None
    if body.data_dependent:
        return None

    slots: dict[int, int] = {}  # template temp id -> value slot
    for position, token in enumerate(hooks.tokens):
        slots[token.id] = position
    for _, placeholder in cached:
        slots[placeholder.id] = len(slots)
    # Constants are keyed by identity: 0.0 == -0.0, yet both must stay.
    consts: list[Value] = []
    const_slots: dict[int, int] = {}

    def intern(value: Value | None) -> None:
        if isinstance(value, Const) and id(value) not in const_slots:
            const_slots[id(value)] = len(slots) + len(consts)
            consts.append(value)

    exit_values = [(name, cell.cached) for name, cell in fields.items()
                   if not cell.dims]
    for op in recorder.block:
        for value in op.operands():
            intern(value)
    for value in hooks.pushed:
        intern(value)
    for _, value in exit_values:
        intern(value)
    next_slot = len(slots) + len(consts)

    def slot(value: Value | None) -> int | None:
        if value is None:
            return None
        if isinstance(value, Const):
            return const_slots[id(value)]
        assert isinstance(value, Temp)
        return slots[value.id]

    # A step is (kind, line, result type | slot | newline, operand
    # slot(s), then what the emitter method needs besides).
    steps: list[tuple] = []
    deferrable = True
    for op, (line, note) in zip(recorder.block, recorder.notes):
        deferrable = deferrable and _deferrable(op, note)
        ty = op.result.ty if op.result is not None else None
        if isinstance(op, BinOp):
            step = (_BINOP, line, ty, slot(op.lhs), slot(op.rhs), op.op,
                    note)
        elif isinstance(op, UnOp):
            step = (_UNOP, line, ty, slot(op.operand), op.op)
        elif isinstance(op, CastOp):
            step = (_CAST if note else _COERCE, line, ty, slot(op.operand))
        elif isinstance(op, CallOp):
            step = (_CALL, line, ty, tuple(slot(arg) for arg in op.args),
                    op.name, op.pure)
        elif isinstance(op, LoadOp):
            step = (_LOAD, line, op.slot, slot(op.index),
                    _bounds_loc(op.index, note))
        elif isinstance(op, StoreOp):
            step = (_STORE, line, op.slot, slot(op.index),
                    _bounds_loc(op.index, note), slot(op.value))
        elif isinstance(op, PrintOp):
            step = (_PRINT, line, op.newline, slot(op.value))
        elif isinstance(op, SelectOp):
            step = (_SELECT, line, ty, slot(op.cond), slot(op.then),
                    slot(op.otherwise))
        else:  # a body emits no other kind
            return None
        steps.append(step)
        if op.result is not None:
            slots[op.result.id] = next_slot
            next_slot += 1

    pushes = [slot(value) for value in hooks.pushed]
    exits = [(name, slot(value)) for name, value in exit_values]
    inputs = len(hooks.tokens) + len(cached)
    return FiringTemplate(
        steps=steps, tokens=len(hooks.tokens), pops=hooks.pops,
        fields=tuple(name for name, _ in cached), consts=consts,
        pushes=pushes, exits=exits,  # type: ignore[arg-type]
        end_line=recorder._line if block.stmts else None,
        deferrable=deferrable,
        reads=frozenset(slot for step in steps
                        for slot in _step_shape(step)[1]
                        if slot is not None and slot < inputs),
        decisions=tuple(sorted({slots[value.id]
                                for value in body.decisions
                                if isinstance(value, Temp)})),
        unit=_loop_unit(steps, inputs, consts,
                        pushes + [slot for _, slot in exits]))
