"""LaminarIR instruction set.

LaminarIR is a flat, token-named IR: every stream token that exists during
one steady-state iteration is a named value (:class:`Temp`), so dataflow is
explicit def-use instead of hidden behind FIFO read/write pointers.  Filter
state (fields) lives in :class:`StateSlot`\\ s accessed through explicit
``load``/``store`` ops — those are the only memory operations left in the
steady state.

Integer semantics are 32-bit two's complement (both interpreters wrap and
the C backends use ``int32_t``); floats are IEEE doubles everywhere, so
Python and native runs produce identical output streams.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Callable, Container, Iterable, Iterator

from repro.frontend.types import BOOLEAN, FLOAT, INT, ScalarType
from repro.frontend.values import coerce_runtime, wrap_i32

# Temp ids come from the innermost fresh_temp_ids() scope of the current
# context, else from one process-wide counter.
_scoped_ids: ContextVar[Iterator[int] | None] = ContextVar(
    "temp_ids", default=None)
_global_ids = itertools.count()
_global_lock = threading.Lock()


def _next_global_id() -> int:
    with _global_lock:
        return next(_global_ids)


def _next_temp_id() -> int:
    ids = _scoped_ids.get()
    if ids is not None:
        return next(ids)
    return _next_global_id()


def reserve_temp_ids(count: int) -> int:
    """Set aside ``count`` consecutive temp ids and return the first.

    Temps minted later in this context number past the block; a
    :func:`reserved_temp_ids` scope mints inside it.  An empty block
    takes no ids.
    """
    if count <= 0:
        return 0
    ids = _scoped_ids.get()
    if ids is not None:
        base = next(ids)
        if count > 1:  # consume the block's other count - 1 ids
            next(itertools.islice(ids, count - 2, None))
        return base
    global _global_ids
    with _global_lock:
        base = next(_global_ids)
        _global_ids = itertools.count(base + count)
    return base


@contextlib.contextmanager
def reserved_temp_ids(base: int, count: int) -> Iterator[None]:
    """Mint the temps of this context from a block that
    :func:`reserve_temp_ids` set aside, in order from ``base``; asserts
    on exit that they fit in its ``count`` ids."""
    ids = itertools.count(base)
    token = _scoped_ids.set(ids)
    try:
        yield
    finally:
        _scoped_ids.reset(token)
    used = next(ids) - base
    assert used <= count, f"minted {used} temps in a block of {count}"


@contextlib.contextmanager
def recycled_temp_ids(ids: Iterable[int]) -> Iterator[None]:
    """Mint the temps of this context from ``ids`` — ids that no op
    refers to any more — and then as the enclosing context mints them."""
    outer = _scoped_ids.get()
    rest = outer if outer is not None else iter(_next_global_id, None)
    token = _scoped_ids.set(itertools.chain(ids, rest))
    try:
        yield
    finally:
        _scoped_ids.reset(token)


@contextlib.contextmanager
def fresh_temp_ids() -> Iterator[None]:
    """Number the temps minted in this context from 0.

    One lowering (plus its optimization) runs in one scope, so the code
    emitted for a program never depends on what the process compiled
    before, and concurrent lowerings in threads number independently.
    On exit the process-wide counter skips past the scope's ids, so
    temps minted later outside any scope never collide with them.
    """
    ids = itertools.count()
    token = _scoped_ids.set(ids)
    try:
        yield
    finally:
        _scoped_ids.reset(token)
        high = next(ids)
        global _global_ids
        with _global_lock:
            _global_ids = itertools.count(max(high, next(_global_ids)))


@dataclass(frozen=True, slots=True)
class Value:
    """An SSA operand: either a :class:`Const` or a :class:`Temp`."""

    ty: ScalarType


# A compile builds values by the hundred thousand.  The __init__ that
# dataclass writes for a frozen class sets each field through
# object.__setattr__ by name; the ones below store into the slots
# directly, which does the same in about half the time.


@dataclass(frozen=True, slots=True, init=False)
class Const(Value):
    value: object = 0

    def __init__(self, ty: ScalarType, value: object = 0):
        _set_ty(self, ty)
        _set_value(self, value)

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True, slots=True, init=False)
class Temp(Value):
    """A named SSA value (a token or an intermediate result).

    ``id`` is unique within a program (see :func:`fresh_temp_ids`), so
    dataclass equality coincides with identity — two distinct temps never
    compare equal even when they share a type and hint.
    """

    hint: str = "t"
    id: int = field(default_factory=_next_temp_id)

    def __init__(self, ty: ScalarType, hint: str = "t",
                 id: int | None = None):
        _set_ty(self, ty)
        _set_hint(self, hint)
        _set_id(self, _next_temp_id() if id is None else id)

    def __str__(self) -> str:
        return f"%{self.hint}{self.id}"


_set_ty = Value.ty.__set__  # type: ignore[attr-defined]
_set_value = Const.value.__set__  # type: ignore[attr-defined]
_set_hint = Temp.hint.__set__  # type: ignore[attr-defined]
_set_id = Temp.id.__set__  # type: ignore[attr-defined]


def const_of(value: object, ty: ScalarType) -> Const:
    """The ``ty`` constant a run-time conversion of ``value`` to ``ty``
    gives: every compile-time fold builds its result here."""
    return Const(ty, coerce_runtime(value, ty))


def const_int(value: int) -> Const:
    return Const(INT, wrap_i32(value))


def const_float(value: float) -> Const:
    return Const(FLOAT, float(value))


def const_bool(value: bool) -> Const:
    return Const(BOOLEAN, bool(value))


@dataclass(frozen=True)
class StateSlot:
    """A mutable memory cell: a filter field or scratch storage.

    ``size`` is ``None`` for scalars; arrays are one-dimensional (the
    lowering linearizes multi-dimensional fields).
    """

    name: str
    ty: ScalarType
    size: int | None = None

    @property
    def is_array(self) -> bool:
        return self.size is not None

    def __str__(self) -> str:
        if self.is_array:
            return f"@{self.name}[{self.size}]"
        return f"@{self.name}"


# -- provenance ------------------------------------------------------------------


PROVENANCE_KINDS = ("filter", "splitter", "joiner")
PROVENANCE_PHASES = ("setup", "init", "steady")


@dataclass(frozen=True)
class Provenance:
    """Where an op came from: the actor and source position that emitted it.

    ``filter`` is the unique flat-graph instance name (e.g.
    ``"FMRadio.LowPass_2"``), ``kind`` the actor class, ``line`` the
    source line of the statement being lowered (0 when unknown) and
    ``phase`` the program section the op was emitted into.  Stamped by the
    lowering (:mod:`repro.lir.symexec`) and preserved by every optimizer
    pass; CSE merges accumulate the provenance sets of deduplicated ops
    onto the survivor, so attribution never loses a contributor.
    """

    filter: str
    kind: str = "filter"
    line: int = 0
    phase: str = "steady"

    def __str__(self) -> str:
        loc = f":{self.line}" if self.line else ""
        return f"{self.filter}{loc}@{self.phase}"


# -- operations -----------------------------------------------------------------


@dataclass(eq=False, slots=True)
class Op:
    """Base class.  ``result`` is None for pure side-effect ops.

    ``prov`` records which actor(s) this op is attributed to — a tuple
    because CSE can merge ops from different filters; the first entry is
    the *primary* provenance used for attribution totals.  Empty on
    hand-built programs (the verifier's integrity check is
    all-or-nothing per program).
    """

    result: Temp | None
    prov: tuple[Provenance, ...] = ()

    def operands(self) -> Iterator[Value]:
        raise NotImplementedError

    def map_operands(self, fn: Callable[[Value], Value]) -> None:
        raise NotImplementedError

    @property
    def has_side_effect(self) -> bool:
        return False


@dataclass(eq=False, slots=True)
class BinOp(Op):
    """Arithmetic/comparison/bitwise op.

    ``op`` spellings follow the source language (``+ - * / % & | ^ << >>
    == != < <= > >=``); the operand types (already unified by lowering)
    select int vs float semantics.
    """

    op: str = ""
    lhs: Value = None  # type: ignore[assignment]
    rhs: Value = None  # type: ignore[assignment]

    def operands(self) -> Iterator[Value]:
        yield self.lhs
        yield self.rhs

    def map_operands(self, fn: Callable[[Value], Value]) -> None:
        self.lhs = fn(self.lhs)
        self.rhs = fn(self.rhs)

    def __str__(self) -> str:
        return f"{self.result} = {self.lhs} {self.op} {self.rhs}"


def never_zero(op: Op) -> bool:
    """Whether ``op`` is an ``|`` with a nonzero constant operand, so
    that its result is never 0."""
    return op.__class__ is BinOp and op.op == "|" and any(
        value.__class__ is Const and value.value  # type: ignore
        for value in (op.lhs, op.rhs))  # type: ignore[attr-defined]


def safe_operand(op: str, lhs: Value, rhs: Value,
                 nonzero: Container[int]) -> int | None:
    """The right operand with which ``lhs op rhs`` cannot fault, or
    ``None`` when it cannot fault as it is.  A shift may fault unless
    its count is a constant in [0, 31] (safe count: 0); an int ``/`` or
    ``%`` may fault unless its divisor is a nonzero constant or a temp
    whose id is in ``nonzero`` (safe divisor: 1)."""
    if op == "<<" or op == ">>":
        if rhs.__class__ is Const \
                and 0 <= rhs.value <= 31:  # type: ignore[attr-defined]
            return None
        return 0
    if (op == "/" or op == "%") and lhs.ty == INT and rhs.ty == INT:
        if rhs.value if rhs.__class__ is Const \
                else rhs.id in nonzero:  # type: ignore[attr-defined]
            return None
        return 1
    return None


def may_fault(op: BinOp, nonzero: Container[int]) -> bool:
    """Whether ``op`` may stop the program at run time
    (:func:`safe_operand`).  Dead-code elimination keeps such an op even
    when nothing reads its result."""
    return safe_operand(op.op, op.lhs, op.rhs, nonzero) is not None


@dataclass(eq=False, slots=True)
class UnOp(Op):
    op: str = ""  # "-", "!", "~"
    operand: Value = None  # type: ignore[assignment]

    def operands(self) -> Iterator[Value]:
        yield self.operand

    def map_operands(self, fn: Callable[[Value], Value]) -> None:
        self.operand = fn(self.operand)

    def __str__(self) -> str:
        return f"{self.result} = {self.op}{self.operand}"


@dataclass(eq=False, slots=True)
class CastOp(Op):
    operand: Value = None  # type: ignore[assignment]

    def operands(self) -> Iterator[Value]:
        yield self.operand

    def map_operands(self, fn: Callable[[Value], Value]) -> None:
        self.operand = fn(self.operand)

    def __str__(self) -> str:
        assert self.result is not None
        return f"{self.result} = cast<{self.result.ty}>({self.operand})"


@dataclass(eq=False, slots=True)
class SelectOp(Op):
    """If-converted conditional: ``result = cond ? then : otherwise``."""

    cond: Value = None  # type: ignore[assignment]
    then: Value = None  # type: ignore[assignment]
    otherwise: Value = None  # type: ignore[assignment]

    def operands(self) -> Iterator[Value]:
        yield self.cond
        yield self.then
        yield self.otherwise

    def map_operands(self, fn: Callable[[Value], Value]) -> None:
        self.cond = fn(self.cond)
        self.then = fn(self.then)
        self.otherwise = fn(self.otherwise)

    def __str__(self) -> str:
        return (f"{self.result} = select {self.cond}, {self.then}, "
                f"{self.otherwise}")


@dataclass(eq=False, slots=True)
class CallOp(Op):
    """Intrinsic call; impure intrinsics (the RNG) are ordered effects."""

    name: str = ""
    args: list[Value] = field(default_factory=list)
    pure: bool = True

    def operands(self) -> Iterator[Value]:
        yield from self.args

    def map_operands(self, fn: Callable[[Value], Value]) -> None:
        self.args = [fn(a) for a in self.args]

    @property
    def has_side_effect(self) -> bool:
        return not self.pure

    def __str__(self) -> str:
        args = ", ".join(str(a) for a in self.args)
        return f"{self.result} = {self.name}({args})"


@dataclass(eq=False, slots=True)
class LoadOp(Op):
    """Read a state slot (``index`` is None for scalar slots)."""

    slot: StateSlot = None  # type: ignore[assignment]
    index: Value | None = None

    def operands(self) -> Iterator[Value]:
        if self.index is not None:
            yield self.index

    def map_operands(self, fn: Callable[[Value], Value]) -> None:
        if self.index is not None:
            self.index = fn(self.index)

    def __str__(self) -> str:
        idx = f"[{self.index}]" if self.index is not None else ""
        return f"{self.result} = load {self.slot.name}{idx}"


@dataclass(eq=False, slots=True)
class StoreOp(Op):
    slot: StateSlot = None  # type: ignore[assignment]
    index: Value | None = None
    value: Value = None  # type: ignore[assignment]

    def operands(self) -> Iterator[Value]:
        if self.index is not None:
            yield self.index
        yield self.value

    def map_operands(self, fn: Callable[[Value], Value]) -> None:
        if self.index is not None:
            self.index = fn(self.index)
        self.value = fn(self.value)

    @property
    def has_side_effect(self) -> bool:
        return True

    def __str__(self) -> str:
        idx = f"[{self.index}]" if self.index is not None else ""
        return f"store {self.slot.name}{idx}, {self.value}"


@dataclass(eq=False, slots=True)
class MoveOp(Op):
    """A register-to-register copy.

    ``routing=True`` marks the copies emitted by the splitter/joiner
    *non*-elimination mode (the E7 ablation): they model data movement the
    baseline is obliged to perform, so copy propagation must not remove
    them.  Plain moves (``routing=False``) are propagated away.
    """

    src: Value = None  # type: ignore[assignment]
    routing: bool = False

    def operands(self) -> Iterator[Value]:
        yield self.src

    def map_operands(self, fn: Callable[[Value], Value]) -> None:
        self.src = fn(self.src)

    def __str__(self) -> str:
        return f"{self.result} = move {self.src}"


@dataclass(eq=False, slots=True)
class LoopRegion(Op):
    """A counted loop: ``body`` executed ``trips`` times.

    The lowering (:mod:`repro.lir.lower`) forms one from a run of
    firings that replayed one firing template: the body is the
    template's loop unit — a copy of a firing's unrolled loop, a whole
    firing, or several — replayed once over trip-indexed values.
    ``index`` is the trip counter (INT, 0-based) defined afresh each
    trip; token accesses inside the body are plain base+stride
    expressions of ``index`` — never modulo — so arrays stay
    scalar-replaceable and autovectorizable.

    Values crossing the region boundary travel one of three ways:

    * *invariant* operands reference outer temps/consts directly;
    * *loop-carried* values rotate through the region-level
      ``carry_params``/``carry_inits``/``carry_nexts`` lists (evaluated
      exactly like the program-level steady carries, once per trip);
    * everything else goes through gather/scatter :class:`StateSlot`
      arrays indexed by ``index`` — the region has no result.

    ``parallel`` marks bodies with no loop-carried values and no ordered
    effects other than disjoint per-trip scatter stores; backends may
    vectorize those (``#pragma omp simd``).
    """

    trips: int = 0
    index: Temp = None  # type: ignore[assignment]
    body: list[Op] = field(default_factory=list)
    carry_params: list[Temp] = field(default_factory=list)
    carry_inits: list[Value] = field(default_factory=list)
    carry_nexts: list[Value] = field(default_factory=list)
    parallel: bool = False

    def operands(self) -> Iterator[Value]:
        """All *external* uses: carries plus body references to outer
        values.  Per-trip temps (index, carry params, body results) are
        internal and never yielded; a body op reads only results of the
        ops before it."""
        yield from self.carry_inits
        inner = {self.index.id}
        inner.update(param.id for param in self.carry_params)
        for op in self.body:
            for value in op.operands():
                if value.__class__ is not Temp or value.id not in inner:
                    yield value
            if op.result is not None:
                inner.add(op.result.id)
        for value in self.carry_nexts:
            if value.__class__ is not Temp or value.id not in inner:
                yield value

    def map_operands(self, fn: Callable[[Value], Value]) -> None:
        inner = {self.index.id}
        inner.update(param.id for param in self.carry_params)

        def outer(value: Value) -> Value:
            if value.__class__ is Temp and value.id in inner:
                return value
            return fn(value)

        self.carry_inits = [fn(v) for v in self.carry_inits]
        for op in self.body:
            op.map_operands(outer)
            if op.result is not None:
                inner.add(op.result.id)
        self.carry_nexts = [outer(v) for v in self.carry_nexts]

    @property
    def has_side_effect(self) -> bool:
        return True

    def body_slot_stores(self) -> Iterator[StateSlot]:
        for op in self.body:
            if isinstance(op, StoreOp):
                yield op.slot

    def body_slot_loads(self) -> Iterator[StateSlot]:
        for op in self.body:
            if isinstance(op, LoadOp):
                yield op.slot

    def __str__(self) -> str:
        carries = ""
        if self.carry_params:
            pairs = ", ".join(
                f"{p}={i}->{n}" for p, i, n in
                zip(self.carry_params, self.carry_inits, self.carry_nexts))
            carries = f" carries [{pairs}]"
        simd = " simd" if self.parallel else ""
        return (f"loop {self.index} in 0..{self.trips}{simd}{carries} "
                f"{{ {len(self.body)} ops }}")


@dataclass(eq=False, slots=True)
class PrintOp(Op):
    value: Value = None  # type: ignore[assignment]
    newline: bool = True

    def operands(self) -> Iterator[Value]:
        yield self.value

    def map_operands(self, fn: Callable[[Value], Value]) -> None:
        self.value = fn(self.value)

    @property
    def has_side_effect(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"print {self.value}"
