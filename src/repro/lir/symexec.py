"""Symbolic execution of filter bodies into LaminarIR ops.

This is the machinery behind the lowering: it executes a work body (or init
block, field initializer, prework, helper function) with *partially known*
values.  Compile-time-known values stay :class:`~repro.lir.ops.Const` and
fold eagerly; everything else becomes SSA temps with emitted ops.

Token operations (``peek``/``pop``/``push``) are delegated to
:class:`TokenHooks` supplied by the scheduler-driven lowering — that is
where FIFO queues become compile-time name lookups.

Control flow is resolved at compile time: loops with static bounds unroll,
``if`` on a static condition takes one branch, and ``if`` on a dynamic
condition is if-converted into ``select`` ops (both branches must be free
of side effects).  Data-dependent rates are impossible by construction —
exactly the SDF restriction LaminarIR relies on.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple

from repro.frontend import ast_nodes as ast
from repro.faults.limits import ResourceExhausted
from repro.frontend.errors import LoweringError, RateError, SourceLocation
from repro.frontend.intrinsics import INTRINSICS, result_type
from repro.frontend.types import (BOOLEAN, FLOAT, INT, ScalarType, Type,
                                  VOID)
from repro.frontend.values import (CMP_OPS, INT_ONLY_OPS, coerce_runtime,
                                   fold_binary, runtime_call, runtime_unary,
                                   wrap_i32)
from repro.graph.nodes import FilterNode
from repro.lir.ops import (BinOp, CallOp, CastOp, Const, LoadOp, Op, PrintOp,
                           Provenance, SelectOp, StateSlot, StoreOp, Temp,
                           UnOp, Value, const_bool, const_int, const_of,
                           never_zero, safe_operand)

_MAX_CALL_DEPTH = 64
# Ops one lowering may emit when ``ResourceLimits.max_unrolled_ops`` is
# unset, and statements one execution of a body may unroll.
MAX_OPS = 4_000_000
UNROLL_LIMIT = 4_000_000


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    def __init__(self, value: Value | None):
        self.value = value


@dataclass
class _HelperFrame:
    """Predicated-return state of one inlined helper invocation.

    A `return` under a data-dependent condition cannot abort symbolic
    execution (both branches run speculatively), so it is *predicated*:
    ``done`` accumulates "has this call already returned" and ``value``
    accumulates the selected return value.  Effects are forbidden while
    ``done`` is not statically false.
    """

    return_ty: ScalarType | None
    path_depth: int
    done: Value = None  # type: ignore[assignment]
    value: Value = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.done is None:
            self.done = const_bool(False)
        if self.value is None:
            self.value = const_of(0, self.return_ty or INT)


class TokenHooks:
    """Interface the lowering provides for one firing's token operations."""

    def peek(self, offset: int, loc: SourceLocation) -> Value:
        raise NotImplementedError

    def pop(self, loc: SourceLocation) -> Value:
        raise NotImplementedError

    def push(self, value: Value, loc: SourceLocation) -> None:
        raise NotImplementedError


class Emitter:
    """Appends ops to the current block with eager constant folding.

    Also stamps provenance: the lowering keeps the emitter told which
    actor is firing (:meth:`set_actor`), which program section is being
    built (:meth:`set_phase`) and which source line is executing
    (:meth:`set_line`); every emitted op gets the current
    :class:`Provenance`.  Provenance objects are interned per
    (actor, kind, line, phase) so a large unrolled schedule shares them.
    """

    def __init__(self, max_ops: int | None = None):
        self.block: list[Op] = []
        # The op cap: ``ResourceLimits.max_unrolled_ops``, or MAX_OPS.
        self.max_ops = MAX_OPS if max_ops is None else max_ops
        self.emitted = 0
        self._actor = ""
        self._actor_kind = "filter"
        self._phase = "setup"
        self._line = 0
        self._prov: tuple[Provenance, ...] = ()
        self._prov_cache: dict[tuple[str, str, int, str],
                               tuple[Provenance, ...]] = {}
        # Ids of the temps an emitted op computes never zero
        # (:func:`~repro.lir.ops.never_zero`): a division by one of them
        # cannot fault.
        self.nonzero: set[int] = set()

    def set_block(self, block: list[Op]) -> None:
        self.block = block

    @contextlib.contextmanager
    def redirected(self, block: list[Op], actor: str, kind: str,
                   phase: str) -> Iterator[None]:
        """Emit into ``block`` as ``actor`` firing in ``phase``; the
        previous block, actor, phase and line come back on exit."""
        saved = (self.block, self._actor, self._actor_kind, self._phase,
                 self._line)
        self.block = block
        self._actor, self._actor_kind, self._phase = actor, kind, phase
        self._refresh_prov()
        try:
            yield
        finally:
            (self.block, self._actor, self._actor_kind, self._phase,
             self._line) = saved
            self._refresh_prov()

    # -- provenance state ---------------------------------------------------------

    def set_actor(self, name: str, kind: str = "filter") -> None:
        if name != self._actor or kind != self._actor_kind:
            self._actor = name
            self._actor_kind = kind
            self._refresh_prov()

    def set_phase(self, phase: str) -> None:
        if phase != self._phase:
            self._phase = phase
            self._refresh_prov()

    def set_line(self, line: int) -> None:
        if line != self._line:
            self._line = line
            self._refresh_prov()

    def _refresh_prov(self) -> None:
        if not self._actor:
            self._prov = ()
            return
        key = (self._actor, self._actor_kind, self._line, self._phase)
        cached = self._prov_cache.get(key)
        if cached is None:
            cached = (Provenance(filter=self._actor, kind=self._actor_kind,
                                 line=self._line, phase=self._phase),)
            self._prov_cache[key] = cached
        self._prov = cached

    def emit(self, op: Op) -> None:
        self.emitted += 1
        if self.emitted > self.max_ops:
            raise ResourceExhausted(
                "max_unrolled_ops", self.max_ops, self.emitted,
                where=f"{self._actor_kind} {self._actor!r} "
                      f"({self._phase} phase)")
        op.prov = self._prov
        self.block.append(op)

    # -- folding helpers ---------------------------------------------------------

    def binop(self, op: str, lhs: Value, rhs: Value,
              loc: SourceLocation, source: str = "") -> Value:
        lhs, rhs = self._unify(op, lhs, rhs)
        result_ty = BOOLEAN if op in CMP_OPS else lhs.ty
        if isinstance(lhs, Const) and isinstance(rhs, Const):
            return const_of(fold_binary(op, lhs.value, rhs.value, loc,
                                        source), result_ty)
        result = Temp(result_ty)
        binop = BinOp(result=result, op=op, lhs=lhs, rhs=rhs)
        self.emit(binop)
        if op == "|" and never_zero(binop):
            self.nonzero.add(result.id)
        return result

    def _unify(self, op: str, lhs: Value, rhs: Value) -> tuple[Value, Value]:
        if op in INT_ONLY_OPS or lhs.ty == rhs.ty:
            return lhs, rhs
        if FLOAT in (lhs.ty, rhs.ty):
            return self.coerce(lhs, FLOAT), self.coerce(rhs, FLOAT)
        return lhs, rhs

    def unop(self, op: str, operand: Value) -> Value:
        if isinstance(operand, Const):
            return const_of(runtime_unary(op, operand.value), operand.ty)
        result = Temp(operand.ty)
        self.emit(UnOp(result=result, op=op, operand=operand))
        return result

    def coerce(self, value: Value, ty: ScalarType) -> Value:
        if value.ty == ty:
            return value
        if isinstance(value, Const):
            return const_of(value.value, ty)
        result = Temp(ty)
        self.emit(CastOp(result=result, operand=value))
        return result

    def cast(self, value: Value, target: ScalarType) -> Value:
        """An explicit source cast: unlike :meth:`coerce`, a constant
        cast to ``boolean`` is emitted, not folded."""
        if value.ty == target:
            return value
        if isinstance(value, Const) and target != BOOLEAN:
            return const_of(value.value, target)
        result = Temp(target)
        self.emit(CastOp(result=result, operand=value))
        return result

    def select(self, cond: Value, then: Value, otherwise: Value) -> Value:
        if then.ty != otherwise.ty:
            if FLOAT in (then.ty, otherwise.ty):
                then = self.coerce(then, FLOAT)
                otherwise = self.coerce(otherwise, FLOAT)
        if isinstance(cond, Const):
            return then if cond.value else otherwise
        if then is otherwise:
            return then
        result = Temp(then.ty)
        self.emit(SelectOp(result=result, cond=cond, then=then,
                           otherwise=otherwise))
        return result

    def call(self, name: str, args: list[Value]) -> Value:
        intrinsic = INTRINSICS[name]
        arg_tys: list[Type] = [a.ty for a in args]
        res_ty = result_type(intrinsic, arg_tys)
        assert isinstance(res_ty, ScalarType)
        if intrinsic.policy == "float":
            args = [self.coerce(a, FLOAT) for a in args]
        if intrinsic.pure and all(isinstance(a, Const) for a in args):
            return const_of(runtime_call(intrinsic, [a.value for a in args]),
                            res_ty)
        result = Temp(res_ty)
        self.emit(CallOp(result=result, name=name, args=args,
                         pure=intrinsic.pure))
        return result

    # ``loc`` (an indexed access's source position) is unused here; a
    # template recorder keeps it for the bounds check on replay.

    def load(self, slot: StateSlot, index: Value | None,
             loc: SourceLocation | None = None) -> Value:
        result = Temp(slot.ty)
        self.emit(LoadOp(result=result, slot=slot, index=index))
        return result

    def store(self, slot: StateSlot, index: Value | None, value: Value,
              loc: SourceLocation | None = None) -> None:
        self.emit(StoreOp(result=None, slot=slot, index=index,
                          value=self.coerce(value, slot.ty)))


# -- environment cells -------------------------------------------------------------


@dataclass(slots=True)
class ScalarCell:
    ty: ScalarType
    value: Value


@dataclass(slots=True)
class ArrayCell:
    """A fully scalarized local array: one Value per element."""

    element_ty: ScalarType
    dims: list[int]
    elems: list[Value]


@dataclass(slots=True)
class FieldCell:
    """A filter field backed by a state slot (scalar or linearized array).

    Scalar fields are *cached*: the first read in a section loads once,
    writes update the cached value (and mark it dirty), and the executor
    flushes one store per firing.  Because only the owning filter touches
    its fields, this is sound within a section; the lowering invalidates
    caches at section boundaries, where field state becomes loop-carried
    memory again.  Caching is what lets scalar field writes sit under
    data-dependent conditions: they merge through ``select`` like locals.
    """

    slot: StateSlot
    dims: list[int] = field(default_factory=list)  # empty for scalars
    cached: Value | None = None
    dirty: bool = False


Cell = ScalarCell | ArrayCell | FieldCell


class Env:
    """Lexically scoped environment of cells."""

    __slots__ = ("parent", "cells")

    def __init__(self, parent: "Env | None" = None):
        self.parent = parent
        self.cells: dict[str, Cell] = {}

    def lookup(self, name: str) -> Cell | None:
        env: Env | None = self
        while env is not None:
            cells = env.cells
            if name in cells:
                return cells[name]
            env = env.parent
        return None

    def snapshot(self) -> "list[tuple[Env, str, Cell]]":
        """All (env, name, cell) triples visible from this scope."""
        out: list[tuple[Env, str, Cell]] = []
        env: Env | None = self
        seen: set[str] = set()
        while env is not None:
            for name, cell in env.cells.items():
                if name not in seen:
                    seen.add(name)
                    out.append((env, name, cell))
            env = env.parent
        return out


class BodyExecutor:
    """Executes one filter body symbolically, emitting LaminarIR ops.

    The body runs as the closures ``code`` compiled for the filter's
    declaration (:class:`DeclCode`); the executor holds the state they
    act on.
    """

    def __init__(self, emitter: Emitter, node: FilterNode,
                 fields: dict[str, FieldCell], source: str,
                 code: "DeclCode"):
        self.emitter = emitter
        self.node = node
        self.fields = fields
        self.source = source
        self.code = code
        # The parameters' names, types and values, as base_env binds them.
        self._params = []
        for name, value in node.env.items():
            ty = _scalar_of(value)
            self._params.append((name, ty, coerce_runtime(value, ty)))
        self.hooks: TokenHooks | None = None
        self.pops = 0
        self.pushes = 0
        self.steps = 0
        self.call_depth = 0
        # > 0 while executing a speculative (if-converted) branch.
        self.speculative = 0
        # Branch conditions of enclosing if-conversions, ?: arms and
        # right sides of a dynamic && or ||, innermost last.
        self.path_conditions: list[Value] = []
        # Inlined-helper invocation frames, innermost last.
        self.helper_frames: list[_HelperFrame] = []
        # The non-constant values control decisions were taken on
        # (if-conversion and ?: conditions, the left side of a dynamic &&
        # or ||): a template replays this body's path only while these
        # stay non-constant.  A predicated return sets ``data_dependent``
        # instead, and such a body is not templated at all.
        self.decisions: list[Value] = []
        self.data_dependent = False

    # -- entry points -------------------------------------------------------------

    def base_env(self) -> Env:
        """The parameters, each a fresh constant, and the fields."""
        env = Env()
        cells = env.cells
        for name, ty, value in self._params:
            cells[name] = ScalarCell(ty, Const(ty, value))
        cells.update(self.fields)
        return env

    def run_body(self, block: ast.Block, hooks: TokenHooks | None) -> None:
        self.hooks = hooks
        self.pops = 0
        self.pushes = 0
        self.steps = 0
        self.code.block(block)(self, Env(self.base_env()))
        self.flush_fields()
        self.hooks = None

    def run_field_initializers(self) -> None:
        env = self.base_env()
        for fld, init in self.code.field_inits():
            self.emitter.set_line(fld.loc.line)
            cell = self.fields[fld.name]
            value = init(self, env)
            if cell.dims:
                raise LoweringError(
                    f"array field {fld.name!r} cannot have a scalar "
                    "initializer", fld.loc, self.source)
            cell.cached = self.emitter.coerce(value, cell.slot.ty)
            cell.dirty = True
        self.flush_fields()

    def flush_fields(self) -> None:
        """Write dirty scalar-field caches back to their state slots."""
        assert not self.speculative
        # The lowering may flush several executors in a row at a section
        # boundary; re-assert the owning filter so the stores attribute
        # to it rather than to whichever actor last fired.
        self.emitter.set_actor(self.node.name, "filter")
        for cell in self.fields.values():
            if not cell.dims and cell.dirty:
                assert cell.cached is not None
                self.emitter.store(cell.slot, None, cell.cached)
                cell.dirty = False

    def invalidate_field_caches(self) -> None:
        """Drop scalar-field caches (at section boundaries, where field
        state becomes loop-carried memory: the next read must load)."""
        self.flush_fields()
        for cell in self.fields.values():
            if not cell.dims:
                cell.cached = None

    def load_fields(self) -> None:
        """Load each scalar field not cached yet (before the filter's
        first firing in a section), so that a firing finds them all
        cached whichever it is."""
        for fld in self.node.decl.fields:
            cell = self.fields[fld.name]
            if not cell.dims and cell.cached is None:
                self.emitter.set_line(fld.loc.line)
                cell.cached = self.emitter.load(cell.slot, None)

    # -- what the compiled closures call -------------------------------------------

    def _const_int(self, value: Value, loc: SourceLocation,
                   what: str) -> int:
        if not isinstance(value, Const) or value.ty != INT:
            raise LoweringError(f"{what} must be compile-time constant",
                                loc, self.source)
        assert isinstance(value.value, int)
        return value.value

    def _unroll_exhausted(self, loc: SourceLocation) -> None:
        # Routed through the fault taxonomy (CLI exit code 3) so a
        # runaway unroll reports *which* filter blew the budget rather
        # than a bare lowering failure.
        raise ResourceExhausted(
            "unroll_limit", UNROLL_LIMIT, self.steps,
            where=f"filter {self.node.name!r} work body",
            detail="the limit counts the statements one execution "
                   "of the body unrolls: a non-terminating loop, or "
                   "a very long static one",
            loc=loc, source=self.source)

    def _static_truth(self, cond: Value, loc: SourceLocation) -> bool:
        """A loop condition's value; counts one step."""
        self.steps += 1
        if self.steps > UNROLL_LIMIT:
            self._unroll_exhausted(loc)
        if cond.__class__ is not Const:
            raise LoweringError(
                "loop condition is not compile-time constant; LaminarIR "
                "requires statically bounded loops", loc, self.source)
        return bool(cond.value)  # type: ignore[union-attr]

    def _return(self, value: Value | None, loc: SourceLocation) -> None:
        """Return ``value`` from the innermost helper frame."""
        frame = self.helper_frames[-1]
        if value is not None and frame.return_ty is not None:
            value = self.emitter.coerce(value, frame.return_ty)
        condition = self._frame_path_condition(frame, loc)
        done_false = isinstance(frame.done, Const) and not frame.done.value
        if isinstance(condition, Const) and condition.value and done_false:
            raise _Return(value)  # the classic unconditional return
        # Predicated return: select the value where this return fires and
        # no earlier return already did.
        self.data_dependent = True
        not_done = self.emitter.unop("!", frame.done)
        guard = self.emitter.binop("&", condition, not_done, loc,
                                   self.source)
        if value is not None:
            frame.value = self.emitter.select(guard, value, frame.value)
        frame.done = self.emitter.binop("|", frame.done, condition,
                                        loc, self.source)
        if isinstance(frame.done, Const) and frame.done.value \
                and not self.speculative:
            # every path has now returned; the rest of the body is dead
            raise _Return(frame.value)

    def _frame_path_condition(self, frame: _HelperFrame,
                              loc: SourceLocation) -> Value:
        """Conjunction of the branch conditions entered since the frame."""
        condition: Value = const_bool(True)
        for cond in self.path_conditions[frame.path_depth:]:
            condition = self.emitter.binop("&", condition, cond, loc,
                                           self.source)
        return condition

    def _write_field(self, cell: FieldCell, value: Value,
                     loc: SourceLocation) -> None:
        """Assign a scalar field's cached value."""
        new_value = self.emitter.coerce(value, cell.slot.ty)
        guard = self._pending_return_guard(loc)
        if guard is not None:
            # a helper on the stack may already have returned: keep the
            # old value on those paths
            if cell.cached is None:
                cell.cached = self.emitter.load(cell.slot, None)
            new_value = self.emitter.select(guard, new_value, cell.cached)
        cell.cached = new_value
        cell.dirty = True

    def _if_convert(self, then: "_Stmt", otherwise: "_Stmt | None",
                    cond: Value, env: Env) -> None:
        """Execute both branches speculatively and merge with selects."""
        self.decisions.append(cond)
        before = env.snapshot()
        saved = [(cell, self._cell_state(cell)) for _, _, cell in before]

        saved_frames = [(frame, frame.done, frame.value)
                        for frame in self.helper_frames]
        self.speculative += 1
        try:
            self.path_conditions.append(cond)
            try:
                then(self, Env(env))
            finally:
                self.path_conditions.pop()
            then_state = [self._cell_state(cell) for _, _, cell in before]
            then_frames = [(frame.done, frame.value)
                           for frame in self.helper_frames]
            for (cell, state) in saved:
                self._restore_cell(cell, state)
            for frame, done, value in saved_frames:
                frame.done, frame.value = done, value
            if otherwise is not None:
                negated = self.emitter.unop("!", cond)
                self.path_conditions.append(negated)
                try:
                    otherwise(self, Env(env))
                finally:
                    self.path_conditions.pop()
            else_state = [self._cell_state(cell) for _, _, cell in before]
            else_frames = [(frame.done, frame.value)
                           for frame in self.helper_frames]
        finally:
            self.speculative -= 1

        # Merge predicated-return state: each branch already folded the
        # path condition into done/value, so the merge is a plain select.
        for frame, (t_done, t_value), (e_done, e_value) in zip(
                self.helper_frames, then_frames, else_frames):
            frame.done = self.emitter.select(cond, t_done, e_done) \
                if t_done is not e_done else t_done
            frame.value = self.emitter.select(cond, t_value, e_value) \
                if t_value is not e_value else t_value

        for (_, _, cell), t_state, e_state in zip(before, then_state,
                                                  else_state):
            self._merge_cell(cell, cond, t_state, e_state)

    def _cell_state(self, cell: Cell) -> object:
        if isinstance(cell, ScalarCell):
            return cell.value
        if isinstance(cell, ArrayCell):
            return list(cell.elems)
        assert isinstance(cell, FieldCell)
        return (cell.cached, cell.dirty)

    def _restore_cell(self, cell: Cell, state: object) -> None:
        if isinstance(cell, ScalarCell):
            cell.value = state  # type: ignore[assignment]
        elif isinstance(cell, ArrayCell):
            cell.elems = list(state)  # type: ignore[arg-type]
        elif isinstance(cell, FieldCell):
            cell.cached, cell.dirty = state  # type: ignore[misc]

    def _merge_cell(self, cell: Cell, cond: Value, then_state: object,
                    else_state: object) -> None:
        if isinstance(cell, ScalarCell):
            if then_state is not else_state:
                cell.value = self.emitter.select(
                    cond, then_state, else_state)  # type: ignore[arg-type]
        elif isinstance(cell, FieldCell):
            t_cached, t_dirty = then_state  # type: ignore[misc]
            e_cached, e_dirty = else_state  # type: ignore[misc]
            if t_cached is e_cached and t_dirty == e_dirty:
                return
            # A branch that never touched the field keeps the memory
            # value: materialize a load for it (memory is unchanged
            # during speculation since stores are deferred).
            if t_cached is None:
                t_cached = self.emitter.load(cell.slot, None)
            if e_cached is None:
                e_cached = self.emitter.load(cell.slot, None)
            cell.cached = self.emitter.select(cond, t_cached, e_cached)
            cell.dirty = t_dirty or e_dirty
        elif isinstance(cell, ArrayCell):
            then_elems = then_state
            else_elems = else_state
            assert isinstance(then_elems, list) \
                and isinstance(else_elems, list)
            cell.elems = [
                t if t is e else self.emitter.select(cond, t, e)
                for t, e in zip(then_elems, else_elems)]

    def _pending_return_guard(self, loc: SourceLocation) -> Value | None:
        """Conjunction of "has not returned yet" over all helper frames,
        or None when no frame has a pending dynamic return."""
        guard: Value | None = None
        for frame in self.helper_frames:
            if isinstance(frame.done, Const) and not frame.done.value:
                continue
            not_done = self.emitter.unop("!", frame.done)
            guard = not_done if guard is None else self.emitter.binop(
                "&", guard, not_done, loc, self.source)
        return guard

    def _check_effect_allowed(self, loc: SourceLocation,
                              what: str) -> None:
        if self.speculative:
            raise LoweringError(
                f"{what} under a data-dependent condition cannot be "
                "lowered (SDF requires statically known effects)", loc,
                self.source)
        for frame in self.helper_frames:
            if not (isinstance(frame.done, Const)
                    and not frame.done.value):
                raise LoweringError(
                    f"{what} after a data-dependent return cannot be "
                    "lowered", loc, self.source)

    def _inline_helper(self, helper: "_Helper", args: "list[_Expr]",
                       env: Env, loc: SourceLocation) -> Value:
        if self.call_depth >= _MAX_CALL_DEPTH:
            raise LoweringError(
                f"helper call depth exceeds {_MAX_CALL_DEPTH} "
                "(recursion is not supported)", loc, self.source)
        call_env = Env(self.base_env())
        for (name, ty), arg in zip(helper.params, args):
            call_env.cells[name] = ScalarCell(
                ty, self.emitter.coerce(arg(self, env), ty))
        return_ty = helper.return_ty
        frame = _HelperFrame(return_ty=return_ty,
                             path_depth=len(self.path_conditions))
        self.call_depth += 1
        self.helper_frames.append(frame)
        try:
            helper.body(self, call_env)
        except _Return as ret:
            if ret.value is None:
                if return_ty is not None:
                    raise LoweringError(
                        f"helper {helper.name!r} returned no value",
                        loc, self.source) from None
                return const_int(0)
            assert return_ty is not None
            return self.emitter.coerce(ret.value, return_ty)
        finally:
            self.call_depth -= 1
            self.helper_frames.pop()
        if return_ty is None:
            return const_int(0)
        if isinstance(frame.done, Const) and not frame.done.value:
            raise LoweringError(
                f"helper {helper.name!r} fell off the end without "
                "returning", loc, self.source)
        # Some path returned dynamically; paths that fall through see the
        # default value (C leaves this undefined; we define it as zero).
        return frame.value

    def _linear_index(self, dims: list[int], indices: list[Value],
                      loc: SourceLocation) -> Value:
        if len(indices) != len(dims):
            raise LoweringError(
                f"expected {len(dims)} indices, got {len(indices)}", loc,
                self.source)
        if all(index.__class__ is Const for index in indices):
            # What the emitter folds the products and sums below to.
            offset = 0
            for dim, index in zip(dims, indices):
                offset = wrap_i32(wrap_i32(offset * dim)
                                  + coerce_runtime(index.value, INT))
            return Const(INT, offset)
        linear: Value = const_int(0)
        for dim, index in zip(dims, indices):
            linear = self.emitter.binop(
                "*", linear, const_int(dim), loc, self.source)
            linear = self.emitter.binop(
                "+", linear, self.emitter.coerce(index, INT), loc,
                self.source)
        return linear

    # -- rate validation ---------------------------------------------------------

    def check_rates(self, expected_pop: int, expected_push: int,
                    what: str) -> None:
        if self.pops != expected_pop:
            raise RateError(
                f"{self.node.name}: {what} popped {self.pops} token(s) but "
                f"declares pop {expected_pop}")
        if self.pushes != expected_push:
            raise RateError(
                f"{self.node.name}: {what} pushed {self.pushes} token(s) "
                f"but declares push {expected_push}")


# -- compiled bodies ---------------------------------------------------------------
#
# Each AST node of a filter declaration compiles once into a closure: a
# statement into ``fn(executor, env)``, an expression into
# ``fn(executor, env) -> Value``.  What the node fixes (its operator,
# its location, the closures of its children, whether a name calls a
# helper) is decided at compile time; what the executor fixes (its
# emitter, its fields, its parameters) is read when the closure runs, so
# in one lowering every instance of the declaration, every recording of
# a template and every per-firing fallback share the closures.  A closure does what the node's evaluation does,
# in the same order: it mints the same temps and fresh constants, counts
# the same steps and raises the same errors at the same places.

_Stmt = Callable[[BodyExecutor, Env], None]
_Expr = Callable[[BodyExecutor, Env], Value]


class _Helper(NamedTuple):
    name: str
    params: list[tuple[str, ScalarType]]
    return_ty: ScalarType | None
    body: _Stmt


class DeclCode:
    """The closures of one filter declaration, each compiled on first
    use.  A lowering makes one per declaration, which every instance of
    the filter shares, and drops it when it ends: nothing compiled
    outlives the lowering."""

    def __init__(self, decl: ast.FilterDecl):
        self.decl_helpers = {h.name: h for h in decl.helpers}
        self._fields = list(decl.fields)
        self._helpers: dict[str, _Helper] = {}
        # id(block) -> (block, closure); the block keeps its id taken.
        self._blocks: dict[int, tuple[ast.Block, _Stmt]] = {}
        self._field_inits: list[tuple[ast.FieldDecl, _Expr]] | None = None

    def block(self, block: ast.Block) -> _Stmt:
        entry = self._blocks.get(id(block))
        if entry is None:
            entry = self._blocks[id(block)] = (block,
                                               _compile_block(block, self))
        return entry[1]

    def field_inits(self) -> list[tuple[ast.FieldDecl, _Expr]]:
        if self._field_inits is None:
            self._field_inits = [(fld, _compile_expr(fld.init, self))
                                 for fld in self._fields
                                 if fld.init is not None]
        return self._field_inits

    def helper(self, name: str) -> _Helper:
        helper = self._helpers.get(name)
        if helper is None:
            decl = self.decl_helpers[name]
            params = []
            for param in decl.params:
                assert isinstance(param.ty, ScalarType)
                params.append((param.name, param.ty))
            return_ty = decl.return_type \
                if isinstance(decl.return_type, ScalarType) \
                and decl.return_type != VOID else None
            assert decl.body is not None
            helper = self._helpers[name] = _Helper(
                decl.name, params, return_ty,
                _compile_block(decl.body, self))
        return helper


def _coerce(ex: BodyExecutor, value: Value, ty: ScalarType) -> Value:
    return value if value.ty is ty else ex.emitter.coerce(value, ty)


def _fold_consts(op: str, lhs: Const, rhs: Const, loc: SourceLocation,
                 source: str) -> Const:
    """What ``Emitter.binop`` gives for two constants."""
    ty, left, right = lhs.ty, lhs.value, rhs.value
    if ty is not rhs.ty and op not in INT_ONLY_OPS and ty != rhs.ty \
            and FLOAT in (ty, rhs.ty):
        ty, left, right = FLOAT, float(left), float(right)  # type: ignore
    value = fold_binary(op, left, right, loc, source)
    if op in CMP_OPS:
        ty = BOOLEAN
    # The operator table already gives most results in their type.
    if value.__class__ is _PYTHON_CLASS[ty.name]:
        return Const(ty, value)
    return const_of(value, ty)


_PYTHON_CLASS = {"int": int, "float": float, "boolean": bool}


# The operators that may fault (:func:`~repro.lir.ops.safe_operand`).
_MAY_FAULT = frozenset(("<<", ">>", "/", "%"))


def _binop(ex: BodyExecutor, op: str, lhs: Value, rhs: Value,
           loc: SourceLocation) -> Value:
    """``lhs op rhs``: two constants fold here, anything else goes to
    the emitter."""
    if op in _MAY_FAULT and (ex.path_conditions or ex.helper_frames):
        safe = safe_operand(op, lhs, rhs, ex.emitter.nonzero)
        if safe is not None:
            rhs = _masked(ex, rhs, safe, loc)
    if lhs.__class__ is Const and rhs.__class__ is Const:
        return _fold_consts(op, lhs, rhs, loc, ex.source)  # type: ignore
    return ex.emitter.binop(op, lhs, rhs, loc, ex.source)


def _masked(ex: BodyExecutor, operand: Value, safe: int,
            loc: SourceLocation) -> Value:
    """The right operand an operator that may fault runs with where it
    may run although the program does not reach it: both arms of a
    data-dependent ``if`` or ``?:`` run, the right side of a
    data-dependent ``&&`` or ``||`` does, and so does the rest of a
    helper after a data-dependent ``return``.  The operand becomes
    ``safe`` (:func:`~repro.lir.ops.safe_operand`) wherever the program
    does not reach the operator, so it faults only where the FIFO
    interpreter does; the select that merges the arms throws that
    result away."""
    guard = ex._pending_return_guard(loc)
    for cond in ex.path_conditions:
        if cond.__class__ is _Unless:
            cond = ex.emitter.unop("!", cond.cond)  # type: ignore
        guard = cond if guard is None else ex.emitter.binop(
            "&", guard, cond, loc, ex.source)
    if guard is None:
        return operand
    return ex.emitter.select(guard, operand, const_of(safe, operand.ty))


class _Unless(NamedTuple):
    """The path condition "``cond`` is false" of an expression that
    runs only then (the second arm of ``?:``, the right side of ``||``);
    :func:`_masked` emits the negation only if it needs it."""
    cond: Value


def _under(ex: BodyExecutor, env: Env, expr: _Expr,
           condition: Value | _Unless) -> Value:
    """Evaluate ``expr``, which the program evaluates only where
    ``condition`` holds."""
    ex.path_conditions.append(condition)  # type: ignore[arg-type]
    try:
        return expr(ex, env)
    finally:
        ex.path_conditions.pop()


def _failing(message: str, loc: SourceLocation) -> _Expr:
    """A closure that raises ``message`` at ``loc`` when it runs."""
    def run(ex: BodyExecutor, env: Env) -> Value:
        raise LoweringError(message, loc, ex.source)
    return run


def _collect_indices(expr: ast.Index) -> tuple[ast.Expr, list[ast.Expr]]:
    indices: list[ast.Expr] = []
    node: ast.Expr = expr
    while isinstance(node, ast.Index):
        assert node.index is not None and node.base is not None
        indices.append(node.index)
        node = node.base
    indices.reverse()
    return node, indices


# -- statements --------------------------------------------------------------------


def _compile_block(block: ast.Block, code: DeclCode) -> _Stmt:
    """The statements in a scope of their own, without a step for the
    block itself."""
    stmts = [_compile_stmt(stmt, code) for stmt in block.stmts]

    def run(ex: BodyExecutor, env: Env) -> None:
        block_env = Env(env)
        for stmt in stmts:
            stmt(ex, block_env)
    return run


def _compile_stmt(stmt: ast.Stmt, code: DeclCode) -> _Stmt:
    """One statement: a step, its source line, then what it does."""
    compile_kind = _STMT_COMPILERS.get(stmt.__class__)
    body = (compile_kind(stmt, code) if compile_kind is not None
            else _failing(f"cannot lower statement {type(stmt).__name__}",
                          stmt.loc))
    loc = stmt.loc
    line = loc.line

    def run(ex: BodyExecutor, env: Env) -> None:
        ex.steps += 1
        if ex.steps > UNROLL_LIMIT:
            ex._unroll_exhausted(loc)
        ex.emitter.set_line(line)
        body(ex, env)
    return run


def _stmt_var_decl(stmt: ast.VarDecl, code: DeclCode) -> _Stmt:
    base = stmt.var_type
    assert isinstance(base, ScalarType)
    name, loc = stmt.name, stmt.loc
    if stmt.dims:
        dims = [(_compile_expr(d, code), d.loc) for d in stmt.dims]
        has_init = stmt.init is not None

        def run_array(ex: BodyExecutor, env: Env) -> None:
            sizes = [ex._const_int(dim(ex, env), dim_loc,
                                   "local array size")
                     for dim, dim_loc in dims]
            count = 1
            for size in sizes:
                if size <= 0:
                    raise LoweringError("array size must be positive",
                                        loc, ex.source)
                count *= size
            env.cells[name] = ArrayCell(base, sizes,
                                        [const_of(0, base)] * count)
            if has_init:
                raise LoweringError("array initializers are not supported",
                                    loc, ex.source)
        return run_array
    if stmt.init is not None:
        init = _compile_expr(stmt.init, code)

        def run_init(ex: BodyExecutor, env: Env) -> None:
            env.cells[name] = ScalarCell(base, _coerce(ex, init(ex, env),
                                                       base))
        return run_init

    def run_zero(ex: BodyExecutor, env: Env) -> None:
        env.cells[name] = ScalarCell(base, const_of(0, base))
    return run_zero


def _stmt_assign(stmt: ast.Assign, code: DeclCode) -> _Stmt:
    assert stmt.target is not None and stmt.value is not None
    value_of = _compile_expr(stmt.value, code)
    write = _compile_write(stmt.target, code)
    if stmt.op == "=":
        def run(ex: BodyExecutor, env: Env) -> None:
            write(ex, env, value_of(ex, env))
        return run
    current_of = _compile_expr(stmt.target, code)
    op, loc = stmt.op[:-1], stmt.loc

    def run_compound(ex: BodyExecutor, env: Env) -> None:
        value = value_of(ex, env)
        write(ex, env, _binop(ex, op, current_of(ex, env), value, loc))
    return run_compound


def _compile_write(target: ast.Expr, code: DeclCode
                   ) -> Callable[[BodyExecutor, Env, Value], None]:
    """The store of a value into ``target``."""
    loc = target.loc
    if isinstance(target, ast.Ident):
        name = target.name

        def write_name(ex: BodyExecutor, env: Env, value: Value) -> None:
            cell = env.lookup(name)
            if cell.__class__ is ScalarCell:
                cell.value = _coerce(ex, value, cell.ty)  # type: ignore
                return
            if cell.__class__ is FieldCell and not cell.dims:  # type: ignore
                ex._write_field(cell, value, loc)  # type: ignore[arg-type]
                return
            if cell is None:
                raise LoweringError(f"unknown variable {name!r}", loc,
                                    ex.source)
            raise LoweringError(f"cannot assign whole array {name!r}", loc,
                                ex.source)
        return write_name
    if isinstance(target, ast.Index):
        base, index_exprs = _collect_indices(target)
        assert isinstance(base, ast.Ident)
        name, base_loc = base.name, base.loc
        indices = [_compile_expr(index, code) for index in index_exprs]

        def write_element(ex: BodyExecutor, env: Env, value: Value) -> None:
            cell = env.lookup(name)
            if cell is None:
                raise LoweringError(f"unknown variable {name!r}", base_loc,
                                    ex.source)
            index_values = [index(ex, env) for index in indices]
            if cell.__class__ is ArrayCell:
                linear = ex._linear_index(cell.dims, index_values, loc)
                if linear.__class__ is not Const:
                    raise LoweringError(
                        "dynamic index into a local array is not "
                        "supported; use a filter field", loc, ex.source)
                offset = linear.value  # type: ignore[attr-defined]
                _check_bounds(offset, len(cell.elems), loc,  # type: ignore
                              ex.source)
                cell.elems[offset] = _coerce(  # type: ignore[union-attr]
                    ex, value, cell.element_ty)  # type: ignore[union-attr]
                return
            if cell.__class__ is FieldCell and cell.dims:
                ex._check_effect_allowed(loc, "field store")
                linear = ex._linear_index(cell.dims, index_values, loc)
                check_const_bounds(linear, cell.slot, loc,  # type: ignore
                                   ex.source)
                ex.emitter.store(cell.slot, linear, value,  # type: ignore
                                 loc)
                return
            raise LoweringError("indexed value is not an array", loc,
                                ex.source)
        return write_element

    def write_invalid(ex: BodyExecutor, env: Env, value: Value) -> None:
        raise LoweringError("invalid assignment target", loc, ex.source)
    return write_invalid


def _stmt_expr(stmt: ast.ExprStmt, code: DeclCode) -> _Stmt:
    assert stmt.expr is not None
    return _compile_expr(stmt.expr, code)  # type: ignore[return-value]


def _stmt_push(stmt: ast.PushStmt, code: DeclCode) -> _Stmt:
    assert stmt.value is not None
    value_of = _compile_expr(stmt.value, code)
    loc = stmt.loc

    def run(ex: BodyExecutor, env: Env) -> None:
        if ex.speculative or ex.helper_frames:
            ex._check_effect_allowed(loc, "push")
        if ex.hooks is None:
            raise LoweringError("push outside of a firing context", loc,
                                ex.source)
        ex.hooks.push(value_of(ex, env), loc)
        ex.pushes += 1
    return run


def _stmt_print(stmt: ast.PrintStmt, code: DeclCode) -> _Stmt:
    assert stmt.value is not None
    loc, newline = stmt.loc, stmt.newline
    if isinstance(stmt.value, ast.StringLit):
        def run_string(ex: BodyExecutor, env: Env) -> None:
            ex._check_effect_allowed(loc, "print")
            raise LoweringError("string printing is not supported in "
                                "lowered code", loc, ex.source)
        return run_string
    value_of = _compile_expr(stmt.value, code)

    def run(ex: BodyExecutor, env: Env) -> None:
        if ex.speculative or ex.helper_frames:
            ex._check_effect_allowed(loc, "print")
        ex.emitter.emit(PrintOp(result=None, value=value_of(ex, env),
                                newline=newline))
    return run


def _stmt_if(stmt: ast.IfStmt, code: DeclCode) -> _Stmt:
    assert stmt.cond is not None and stmt.then is not None
    cond_of = _compile_expr(stmt.cond, code)
    then = _compile_stmt(stmt.then, code)
    otherwise = (None if stmt.otherwise is None
                 else _compile_stmt(stmt.otherwise, code))

    def run(ex: BodyExecutor, env: Env) -> None:
        cond = cond_of(ex, env)
        if cond.__class__ is Const:
            if cond.value:  # type: ignore[attr-defined]
                then(ex, Env(env))
            elif otherwise is not None:
                otherwise(ex, Env(env))
            return
        ex._if_convert(then, otherwise, cond, env)
    return run


def _stmt_for(stmt: ast.ForStmt, code: DeclCode) -> _Stmt:
    assert stmt.body is not None
    init = None if stmt.init is None else _compile_stmt(stmt.init, code)
    cond_of = None if stmt.cond is None else _compile_expr(stmt.cond, code)
    step = None if stmt.step is None else _compile_stmt(stmt.step, code)
    body = _compile_stmt(stmt.body, code)
    loc = stmt.loc

    def run(ex: BodyExecutor, env: Env) -> None:
        loop_env = Env(env)
        if init is not None:
            init(ex, loop_env)
        while True:
            if cond_of is not None and not ex._static_truth(
                    cond_of(ex, loop_env), loc):
                return
            try:
                body(ex, Env(loop_env))
            except _Break:
                return
            except _Continue:
                pass
            if step is not None:
                step(ex, loop_env)
    return run


def _stmt_while(stmt: ast.WhileStmt, code: DeclCode) -> _Stmt:
    assert stmt.cond is not None and stmt.body is not None
    cond_of = _compile_expr(stmt.cond, code)
    body = _compile_stmt(stmt.body, code)
    loc = stmt.loc

    def run(ex: BodyExecutor, env: Env) -> None:
        while ex._static_truth(cond_of(ex, env), loc):
            try:
                body(ex, Env(env))
            except _Break:
                return
            except _Continue:
                continue
    return run


def _stmt_do_while(stmt: ast.DoWhileStmt, code: DeclCode) -> _Stmt:
    assert stmt.cond is not None and stmt.body is not None
    cond_of = _compile_expr(stmt.cond, code)
    body = _compile_stmt(stmt.body, code)
    loc = stmt.loc

    def run(ex: BodyExecutor, env: Env) -> None:
        while True:
            try:
                body(ex, Env(env))
            except _Break:
                return
            except _Continue:
                pass
            if not ex._static_truth(cond_of(ex, env), loc):
                return
    return run


def _stmt_return(stmt: ast.ReturnStmt, code: DeclCode) -> _Stmt:
    value_of = (None if stmt.value is None
                else _compile_expr(stmt.value, code))
    loc = stmt.loc

    def run(ex: BodyExecutor, env: Env) -> None:
        if not ex.helper_frames:
            raise LoweringError("return outside of a helper", loc,
                                ex.source)
        ex._return(None if value_of is None else value_of(ex, env), loc)
    return run


def _stmt_jump(stmt: ast.Stmt, code: DeclCode) -> _Stmt:
    word = "break" if isinstance(stmt, ast.BreakStmt) else "continue"
    jump = _Break if word == "break" else _Continue
    loc = stmt.loc

    def run(ex: BodyExecutor, env: Env) -> None:
        if ex.speculative:
            raise LoweringError(
                f"{word} under a data-dependent condition cannot be "
                "lowered", loc, ex.source)
        raise jump()
    return run


_STMT_COMPILERS: dict[type, Callable] = {
    ast.Block: _compile_block,
    ast.VarDecl: _stmt_var_decl,
    ast.Assign: _stmt_assign,
    ast.ExprStmt: _stmt_expr,
    ast.PushStmt: _stmt_push,
    ast.PrintStmt: _stmt_print,
    ast.IfStmt: _stmt_if,
    ast.ForStmt: _stmt_for,
    ast.WhileStmt: _stmt_while,
    ast.DoWhileStmt: _stmt_do_while,
    ast.ReturnStmt: _stmt_return,
    ast.BreakStmt: _stmt_jump,
    ast.ContinueStmt: _stmt_jump,
}


# -- expressions -------------------------------------------------------------------


def _compile_expr(expr: ast.Expr, code: DeclCode) -> _Expr:
    compile_kind = _EXPR_COMPILERS.get(expr.__class__)
    if compile_kind is None:
        return _failing(f"cannot lower {type(expr).__name__}", expr.loc)
    return compile_kind(expr, code)


def _expr_literal(expr: ast.Expr, code: DeclCode) -> _Expr:
    # A fresh constant per evaluation, as const_int/float/bool make it.
    ty = INT if isinstance(expr, ast.IntLit) \
        else FLOAT if isinstance(expr, ast.FloatLit) else BOOLEAN
    value = coerce_runtime(expr.value, ty)  # type: ignore[attr-defined]

    def run(ex: BodyExecutor, env: Env) -> Value:
        return Const(ty, value)
    return run


def _expr_ident(expr: ast.Ident, code: DeclCode) -> _Expr:
    name, loc = expr.name, expr.loc

    def run(ex: BodyExecutor, env: Env) -> Value:
        cell = env.lookup(name)
        if cell.__class__ is ScalarCell:
            return cell.value  # type: ignore[union-attr]
        if cell.__class__ is FieldCell and not cell.dims:  # type: ignore
            cached = cell.cached  # type: ignore[union-attr]
            if cached is None:
                cached = cell.cached = ex.emitter.load(  # type: ignore
                    cell.slot, None)  # type: ignore[union-attr]
            return cached
        if cell is None:
            raise LoweringError(f"unknown identifier {name!r}", loc,
                                ex.source)
        raise LoweringError(f"array {name!r} used as a scalar", loc,
                            ex.source)
    return run


def _expr_unary(expr: ast.UnaryOp, code: DeclCode) -> _Expr:
    assert expr.operand is not None
    operand_of = _compile_expr(expr.operand, code)
    op = expr.op

    def run(ex: BodyExecutor, env: Env) -> Value:
        operand = operand_of(ex, env)
        if operand.__class__ is Const:
            return const_of(runtime_unary(op, operand.value),  # type: ignore
                            operand.ty)
        return ex.emitter.unop(op, operand)
    return run


def _expr_cast(expr: ast.Cast, code: DeclCode) -> _Expr:
    assert expr.target is not None and expr.operand is not None
    target = expr.target
    assert isinstance(target, ScalarType)
    operand_of = _compile_expr(expr.operand, code)
    folds = target != BOOLEAN  # a constant cast to boolean is emitted

    def run(ex: BodyExecutor, env: Env) -> Value:
        operand = operand_of(ex, env)
        if operand.ty is target:
            return operand
        if folds and operand.__class__ is Const \
                and operand.ty.name != target.name:
            return const_of(operand.value, target)  # type: ignore
        return ex.emitter.cast(operand, target)
    return run


def _expr_binary(expr: ast.BinaryOp, code: DeclCode) -> _Expr:
    assert expr.left is not None and expr.right is not None
    left_of = _compile_expr(expr.left, code)
    right_of = _compile_expr(expr.right, code)
    op, loc = expr.op, expr.loc
    if op in ("&&", "||"):
        conj = op == "&&"
        combine = "&" if conj else "|"

        def run_logical(ex: BodyExecutor, env: Env) -> Value:
            left = left_of(ex, env)
            if left.__class__ is Const:
                if bool(left.value) is not conj:  # type: ignore
                    return const_bool(bool(left.value))  # type: ignore
                return right_of(ex, env)
            # Dynamic: evaluate both (the RHS must be pure anyway) and
            # combine; C backends emit && / || whose RHS is re-evaluated,
            # which is safe for pure expressions.  Booleans take part in
            # & and | as 0/1 ints and keep their type, so downstream
            # conditions still work.
            ex.decisions.append(left)
            right = _under(ex, env, right_of,
                           left if conj else _Unless(left))
            return ex.emitter.binop(combine, left, right, loc, ex.source)
        return run_logical

    def run(ex: BodyExecutor, env: Env) -> Value:
        return _binop(ex, op, left_of(ex, env), right_of(ex, env), loc)
    return run


def _expr_ternary(expr: ast.TernaryOp, code: DeclCode) -> _Expr:
    assert expr.cond and expr.then and expr.otherwise
    cond_of = _compile_expr(expr.cond, code)
    then_of = _compile_expr(expr.then, code)
    otherwise_of = _compile_expr(expr.otherwise, code)

    def run(ex: BodyExecutor, env: Env) -> Value:
        cond = cond_of(ex, env)
        if cond.__class__ is Const:
            return (then_of if cond.value  # type: ignore[attr-defined]
                    else otherwise_of)(ex, env)
        ex.decisions.append(cond)
        then = _under(ex, env, then_of, cond)
        otherwise = _under(ex, env, otherwise_of, _Unless(cond))
        return ex.emitter.select(cond, then, otherwise)
    return run


def _expr_call(expr: ast.Call, code: DeclCode) -> _Expr:
    name, loc = expr.name, expr.loc
    args = [_compile_expr(arg, code) for arg in expr.args]
    if name in code.decl_helpers:
        def run_helper(ex: BodyExecutor, env: Env) -> Value:
            return ex._inline_helper(ex.code.helper(name), args, env, loc)
        return run_helper
    intrinsic = INTRINSICS.get(name)
    if intrinsic is None:
        return _failing(f"unknown function {name!r}", loc)
    pure = intrinsic.pure

    def run(ex: BodyExecutor, env: Env) -> Value:
        if not pure:
            ex._check_effect_allowed(loc, name)
        return ex.emitter.call(name, [arg(ex, env) for arg in args])
    return run


def _expr_index(expr: ast.Index, code: DeclCode) -> _Expr:
    base, index_exprs = _collect_indices(expr)
    loc = expr.loc
    if not isinstance(base, ast.Ident):
        return _failing("indexed value is not a variable", loc)
    name, base_loc = base.name, base.loc
    indices = [_compile_expr(index, code) for index in index_exprs]

    def run(ex: BodyExecutor, env: Env) -> Value:
        cell = env.lookup(name)
        if cell is None:
            raise LoweringError(f"unknown variable {name!r}", base_loc,
                                ex.source)
        index_values = [index(ex, env) for index in indices]
        if cell.__class__ is ArrayCell:
            linear = ex._linear_index(cell.dims, index_values, loc)
            if linear.__class__ is not Const:
                raise LoweringError(
                    "dynamic index into a local array is not supported; "
                    "use a filter field", loc, ex.source)
            offset = linear.value  # type: ignore[attr-defined]
            _check_bounds(offset, len(cell.elems), loc,  # type: ignore
                          ex.source)
            return cell.elems[offset]  # type: ignore[union-attr]
        if cell.__class__ is FieldCell and cell.dims:
            linear = ex._linear_index(cell.dims, index_values, loc)
            check_const_bounds(linear, cell.slot, loc,  # type: ignore
                               ex.source)
            return ex.emitter.load(cell.slot, linear, loc)  # type: ignore
        raise LoweringError(f"{name!r} is not an array", loc, ex.source)
    return run


def _expr_peek(expr: ast.PeekExpr, code: DeclCode) -> _Expr:
    assert expr.offset is not None
    offset_of = _compile_expr(expr.offset, code)
    loc = expr.loc

    def run(ex: BodyExecutor, env: Env) -> Value:
        if ex.hooks is None:
            raise LoweringError("peek outside of a firing context", loc,
                                ex.source)
        offset = offset_of(ex, env)
        if offset.__class__ is not Const:
            raise LoweringError(
                "peek offset is not compile-time constant; LaminarIR "
                "requires static token indices", loc, ex.source)
        assert isinstance(offset.value, int)  # type: ignore[attr-defined]
        return ex.hooks.peek(offset.value, loc)  # type: ignore
    return run


def _expr_pop(expr: ast.PopExpr, code: DeclCode) -> _Expr:
    loc = expr.loc

    def run(ex: BodyExecutor, env: Env) -> Value:
        if ex.speculative or ex.helper_frames:
            ex._check_effect_allowed(loc, "pop")
        if ex.hooks is None:
            raise LoweringError("pop outside of a firing context", loc,
                                ex.source)
        value = ex.hooks.pop(loc)
        ex.pops += 1
        return value
    return run


_EXPR_COMPILERS: dict[type, Callable] = {
    ast.IntLit: _expr_literal,
    ast.FloatLit: _expr_literal,
    ast.BoolLit: _expr_literal,
    ast.Ident: _expr_ident,
    ast.UnaryOp: _expr_unary,
    ast.BinaryOp: _expr_binary,
    ast.TernaryOp: _expr_ternary,
    ast.Cast: _expr_cast,
    ast.Call: _expr_call,
    ast.Index: _expr_index,
    ast.PeekExpr: _expr_peek,
    ast.PopExpr: _expr_pop,
}


def _check_bounds(offset: int, size: int, loc: SourceLocation,
                  source: str) -> None:
    if not 0 <= offset < size:
        raise LoweringError(
            f"array index {offset} out of bounds [0, {size})", loc, source)


def check_const_bounds(linear: Value, slot: StateSlot,
                       loc: SourceLocation, source: str) -> None:
    """Reject a constant index outside an array slot."""
    if isinstance(linear, Const) and slot.size is not None:
        assert isinstance(linear.value, int)
        _check_bounds(linear.value, slot.size, loc, source)


def _scalar_of(value: object) -> ScalarType:
    if isinstance(value, bool):
        return BOOLEAN
    if isinstance(value, int):
        return INT
    if isinstance(value, float):
        return FLOAT
    raise TypeError(f"unsupported parameter value {value!r}")
