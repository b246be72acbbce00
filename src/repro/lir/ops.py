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
from typing import Callable, Iterator

from repro.frontend.types import BOOLEAN, FLOAT, INT, ScalarType

# Temp ids come from the innermost fresh_temp_ids() scope of the current
# context, else from one process-wide counter.
_scoped_ids: ContextVar[Iterator[int] | None] = ContextVar(
    "temp_ids", default=None)
_global_ids = itertools.count()
_global_lock = threading.Lock()


def _next_temp_id() -> int:
    ids = _scoped_ids.get()
    if ids is not None:
        return next(ids)
    with _global_lock:
        return next(_global_ids)


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


@dataclass(frozen=True)
class Value:
    """An SSA operand: either a :class:`Const` or a :class:`Temp`."""

    ty: ScalarType


@dataclass(frozen=True)
class Const(Value):
    value: object = 0

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class Temp(Value):
    """A named SSA value (a token or an intermediate result).

    ``id`` is unique within a program (see :func:`fresh_temp_ids`), so
    dataclass equality coincides with identity — two distinct temps never
    compare equal even when they share a type and hint.
    """

    hint: str = "t"
    id: int = field(default_factory=_next_temp_id)

    def __str__(self) -> str:
        return f"%{self.hint}{self.id}"


def const_int(value: int) -> Const:
    return Const(INT, wrap_i32(value))


def const_float(value: float) -> Const:
    return Const(FLOAT, float(value))


def const_bool(value: bool) -> Const:
    return Const(BOOLEAN, bool(value))


def wrap_i32(value: int) -> int:
    """Wrap a Python int to 32-bit two's complement."""
    value &= 0xFFFFFFFF
    return value - 0x100000000 if value >= 0x80000000 else value


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


@dataclass(eq=False)
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

    @property
    def is_pure(self) -> bool:
        """Pure ops may be removed when dead and deduplicated by CSE."""
        return not self.has_side_effect


@dataclass(eq=False)
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


@dataclass(eq=False)
class UnOp(Op):
    op: str = ""  # "-", "!", "~"
    operand: Value = None  # type: ignore[assignment]

    def operands(self) -> Iterator[Value]:
        yield self.operand

    def map_operands(self, fn: Callable[[Value], Value]) -> None:
        self.operand = fn(self.operand)

    def __str__(self) -> str:
        return f"{self.result} = {self.op}{self.operand}"


@dataclass(eq=False)
class CastOp(Op):
    operand: Value = None  # type: ignore[assignment]

    def operands(self) -> Iterator[Value]:
        yield self.operand

    def map_operands(self, fn: Callable[[Value], Value]) -> None:
        self.operand = fn(self.operand)

    def __str__(self) -> str:
        assert self.result is not None
        return f"{self.result} = cast<{self.result.ty}>({self.operand})"


@dataclass(eq=False)
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


@dataclass(eq=False)
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


@dataclass(eq=False)
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


@dataclass(eq=False)
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


@dataclass(eq=False)
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


@dataclass(eq=False)
class LoopRegion(Op):
    """A counted loop over a re-rolled run of identical firings.

    The re-roll pass (:mod:`repro.opt.reroll`) collapses ``trips``
    structurally identical firing instances into one ``body`` executed
    ``trips`` times.  ``index`` is the trip counter (INT, 0-based) defined
    afresh each trip; token accesses inside the body are plain
    base+stride expressions of ``index`` — never modulo — so arrays stay
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

    def inner_temp_ids(self) -> set[int]:
        """Ids defined per-trip: index, carry params, body results."""
        inner = {self.index.id}
        inner.update(p.id for p in self.carry_params)
        for op in self.body:
            if op.result is not None:
                inner.add(op.result.id)
        return inner

    def operands(self) -> Iterator[Value]:
        """All *external* uses: carries plus body references to outer
        values.  Per-trip temps (index, carry params, body results) are
        internal and never yielded."""
        inner = self.inner_temp_ids()
        yield from self.carry_inits
        for op in self.body:
            for value in op.operands():
                if isinstance(value, Temp) and value.id in inner:
                    continue
                yield value
        for value in self.carry_nexts:
            if isinstance(value, Temp) and value.id in inner:
                continue
            yield value

    def map_operands(self, fn: Callable[[Value], Value]) -> None:
        inner = self.inner_temp_ids()

        def outer(value: Value) -> Value:
            if isinstance(value, Temp) and value.id in inner:
                return value
            return fn(value)

        self.carry_inits = [outer(v) for v in self.carry_inits]
        for op in self.body:
            op.map_operands(outer)
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


@dataclass(eq=False)
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
