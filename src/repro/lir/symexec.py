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
from typing import Iterator

from repro.frontend import ast_nodes as ast
from repro.faults.limits import ResourceExhausted
from repro.frontend.errors import LoweringError, RateError, SourceLocation
from repro.frontend.intrinsics import INTRINSICS, result_type
from repro.frontend.types import (BOOLEAN, FLOAT, INT, ScalarType, Type,
                                  VOID)
from repro.frontend.values import (CMP_OPS, INT_ONLY_OPS, fold_binary,
                                   runtime_call, runtime_unary)
from repro.graph.nodes import FilterNode
from repro.lir.ops import (BinOp, CallOp, CastOp, Const, LoadOp, Op, PrintOp,
                           Provenance, SelectOp, StateSlot, StoreOp, Temp,
                           UnOp, Value, const_bool, const_float, const_int,
                           const_of)

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
        self.emit(BinOp(result=result, op=op, lhs=lhs, rhs=rhs))
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


@dataclass
class ScalarCell:
    ty: ScalarType
    value: Value


@dataclass
class ArrayCell:
    """A fully scalarized local array: one Value per element."""

    element_ty: ScalarType
    dims: list[int]
    elems: list[Value]


@dataclass
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

    def __init__(self, parent: "Env | None" = None):
        self.parent = parent
        self.cells: dict[str, Cell] = {}

    def child(self) -> "Env":
        return Env(self)

    def define(self, name: str, cell: Cell) -> None:
        self.cells[name] = cell

    def lookup(self, name: str) -> Cell | None:
        env: Env | None = self
        while env is not None:
            if name in env.cells:
                return env.cells[name]
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
    """Executes one filter body symbolically, emitting LaminarIR ops."""

    def __init__(self, emitter: Emitter, node: FilterNode,
                 fields: dict[str, FieldCell], source: str):
        self.emitter = emitter
        self.node = node
        self.fields = fields
        self.source = source
        self.helpers = {h.name: h for h in node.decl.helpers}
        self.hooks: TokenHooks | None = None
        self.pops = 0
        self.pushes = 0
        self.steps = 0
        self.call_depth = 0
        # > 0 while executing a speculative (if-converted) branch.
        self.speculative = 0
        # Branch conditions of enclosing if-conversions, innermost last.
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
        env = Env()
        for name, value in self.node.env.items():
            ty = _scalar_of(value)
            env.define(name, ScalarCell(ty, const_of(value, ty)))
        for name, cell in self.fields.items():
            env.define(name, cell)
        return env

    def run_body(self, block: ast.Block, hooks: TokenHooks | None) -> None:
        self.hooks = hooks
        self.pops = 0
        self.pushes = 0
        self.steps = 0
        env = self.base_env().child()
        self._exec_block(block, env)
        self.flush_fields()
        self.hooks = None

    def run_field_initializers(self) -> None:
        env = self.base_env()
        for fld in self.node.decl.fields:
            if fld.init is None:
                continue
            self.emitter.set_line(fld.loc.line)
            cell = self.fields[fld.name]
            value = self._eval(fld.init, env)
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

    # -- statements ----------------------------------------------------------------

    def _const_int(self, value: Value, loc: SourceLocation,
                   what: str) -> int:
        if not isinstance(value, Const) or value.ty != INT:
            raise LoweringError(f"{what} must be compile-time constant",
                                loc, self.source)
        assert isinstance(value.value, int)
        return value.value

    def _step(self, loc: SourceLocation) -> None:
        self.steps += 1
        if self.steps > UNROLL_LIMIT:
            # Routed through the fault taxonomy (CLI exit code 3) so a
            # runaway unroll reports *which* filter blew the budget
            # rather than a bare lowering failure.
            raise ResourceExhausted(
                "unroll_limit", UNROLL_LIMIT, self.steps,
                where=f"filter {self.node.name!r} work body",
                detail="the limit counts the statements one execution "
                       "of the body unrolls: a non-terminating loop, or "
                       "a very long static one",
                loc=loc, source=self.source)

    def _exec_block(self, block: ast.Block, env: Env) -> None:
        block_env = env.child()
        for stmt in block.stmts:
            self._exec(stmt, block_env)

    def _exec(self, stmt: ast.Stmt, env: Env) -> None:
        self._step(stmt.loc)
        self.emitter.set_line(stmt.loc.line)
        if isinstance(stmt, ast.Block):
            self._exec_block(stmt, env)
        elif isinstance(stmt, ast.VarDecl):
            self._exec_var_decl(stmt, env)
        elif isinstance(stmt, ast.Assign):
            self._exec_assign(stmt, env)
        elif isinstance(stmt, ast.ExprStmt):
            assert stmt.expr is not None
            self._eval(stmt.expr, env)
        elif isinstance(stmt, ast.PushStmt):
            self._exec_push(stmt, env)
        elif isinstance(stmt, ast.PrintStmt):
            self._exec_print(stmt, env)
        elif isinstance(stmt, ast.IfStmt):
            self._exec_if(stmt, env)
        elif isinstance(stmt, ast.ForStmt):
            self._exec_for(stmt, env)
        elif isinstance(stmt, ast.WhileStmt):
            self._exec_while(stmt, env)
        elif isinstance(stmt, ast.DoWhileStmt):
            self._exec_do_while(stmt, env)
        elif isinstance(stmt, ast.ReturnStmt):
            self._exec_return(stmt, env)
        elif isinstance(stmt, ast.BreakStmt):
            if self.speculative:
                raise LoweringError(
                    "break under a data-dependent condition cannot be "
                    "lowered", stmt.loc, self.source)
            raise _Break()
        elif isinstance(stmt, ast.ContinueStmt):
            if self.speculative:
                raise LoweringError(
                    "continue under a data-dependent condition cannot be "
                    "lowered", stmt.loc, self.source)
            raise _Continue()
        else:
            raise LoweringError(
                f"cannot lower statement {type(stmt).__name__}", stmt.loc,
                self.source)

    def _exec_return(self, stmt: ast.ReturnStmt, env: Env) -> None:
        if not self.helper_frames:
            raise LoweringError("return outside of a helper", stmt.loc,
                                self.source)
        frame = self.helper_frames[-1]
        value = (self._eval(stmt.value, env)
                 if stmt.value is not None else None)
        if value is not None and frame.return_ty is not None:
            value = self.emitter.coerce(value, frame.return_ty)
        condition = self._frame_path_condition(frame, stmt.loc)
        done_false = isinstance(frame.done, Const) and not frame.done.value
        if isinstance(condition, Const) and condition.value and done_false:
            raise _Return(value)  # the classic unconditional return
        # Predicated return: select the value where this return fires and
        # no earlier return already did.
        self.data_dependent = True
        not_done = self.emitter.unop("!", frame.done)
        guard = self.emitter.binop("&", condition, not_done, stmt.loc,
                                   self.source)
        if value is not None:
            frame.value = self.emitter.select(guard, value, frame.value)
        frame.done = self.emitter.binop("|", frame.done, condition,
                                        stmt.loc, self.source)
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

    def _exec_var_decl(self, stmt: ast.VarDecl, env: Env) -> None:
        assert stmt.var_type is not None
        base = stmt.var_type
        assert isinstance(base, ScalarType)
        if stmt.dims:
            dims = [self._const_int(self._eval(d, env), d.loc,
                                    "local array size")
                    for d in stmt.dims]
            count = 1
            for d in dims:
                if d <= 0:
                    raise LoweringError("array size must be positive",
                                        stmt.loc, self.source)
                count *= d
            env.define(stmt.name,
                       ArrayCell(base, dims, [const_of(0, base)] * count))
            if stmt.init is not None:
                raise LoweringError(
                    "array initializers are not supported", stmt.loc,
                    self.source)
            return
        if stmt.init is not None:
            value = self.emitter.coerce(self._eval(stmt.init, env), base)
        else:
            value = const_of(0, base)
        env.define(stmt.name, ScalarCell(base, value))

    def _exec_assign(self, stmt: ast.Assign, env: Env) -> None:
        assert stmt.target is not None and stmt.value is not None
        value = self._eval(stmt.value, env)
        if stmt.op != "=":
            current = self._eval(stmt.target, env)
            value = self.emitter.binop(stmt.op[:-1], current, value,
                                       stmt.loc, self.source)
        self._write_ref(stmt.target, value, env)

    def _write_ref(self, target: ast.Expr, value: Value, env: Env) -> None:
        if isinstance(target, ast.Ident):
            cell = env.lookup(target.name)
            if cell is None:
                raise LoweringError(f"unknown variable {target.name!r}",
                                    target.loc, self.source)
            if isinstance(cell, ScalarCell):
                cell.value = self.emitter.coerce(value, cell.ty)
                return
            if isinstance(cell, FieldCell) and not cell.dims:
                new_value = self.emitter.coerce(value, cell.slot.ty)
                guard = self._pending_return_guard(target.loc)
                if guard is not None:
                    # a helper on the stack may already have returned:
                    # keep the old value on those paths
                    if cell.cached is None:
                        cell.cached = self.emitter.load(cell.slot, None)
                    new_value = self.emitter.select(guard, new_value,
                                                    cell.cached)
                cell.cached = new_value
                cell.dirty = True
                return
            raise LoweringError(
                f"cannot assign whole array {target.name!r}", target.loc,
                self.source)
        if isinstance(target, ast.Index):
            base, indices = self._collect_indices(target)
            assert isinstance(base, ast.Ident)
            cell = env.lookup(base.name)
            if cell is None:
                raise LoweringError(f"unknown variable {base.name!r}",
                                    base.loc, self.source)
            index_values = [self._eval(i, env) for i in indices]
            if isinstance(cell, ArrayCell):
                linear = self._linear_index(cell.dims, index_values,
                                            target.loc)
                if not isinstance(linear, Const):
                    raise LoweringError(
                        "dynamic index into a local array is not "
                        "supported; use a filter field", target.loc,
                        self.source)
                offset = linear.value
                assert isinstance(offset, int)
                _check_bounds(offset, len(cell.elems), target.loc,
                              self.source)
                cell.elems[offset] = self.emitter.coerce(value,
                                                         cell.element_ty)
                return
            if isinstance(cell, FieldCell) and cell.dims:
                self._check_effect_allowed(target.loc, "field store")
                linear = self._linear_index(cell.dims, index_values,
                                            target.loc)
                check_const_bounds(linear, cell.slot, target.loc,
                                   self.source)
                self.emitter.store(cell.slot, linear, value, target.loc)
                return
            raise LoweringError("indexed value is not an array", target.loc,
                                self.source)
        raise LoweringError("invalid assignment target", target.loc,
                            self.source)

    def _collect_indices(
            self, expr: ast.Index) -> tuple[ast.Expr, list[ast.Expr]]:
        indices: list[ast.Expr] = []
        node: ast.Expr = expr
        while isinstance(node, ast.Index):
            assert node.index is not None and node.base is not None
            indices.append(node.index)
            node = node.base
        indices.reverse()
        return node, indices

    def _exec_push(self, stmt: ast.PushStmt, env: Env) -> None:
        self._check_effect_allowed(stmt.loc, "push")
        assert stmt.value is not None
        if self.hooks is None:
            raise LoweringError("push outside of a firing context",
                                stmt.loc, self.source)
        value = self._eval(stmt.value, env)
        self.hooks.push(value, stmt.loc)
        self.pushes += 1

    def _exec_print(self, stmt: ast.PrintStmt, env: Env) -> None:
        self._check_effect_allowed(stmt.loc, "print")
        assert stmt.value is not None
        if isinstance(stmt.value, ast.StringLit):
            raise LoweringError("string printing is not supported in "
                                "lowered code", stmt.loc, self.source)
        value = self._eval(stmt.value, env)
        self.emitter.emit(PrintOp(result=None, value=value,
                                  newline=stmt.newline))

    def _exec_if(self, stmt: ast.IfStmt, env: Env) -> None:
        assert stmt.cond is not None and stmt.then is not None
        cond = self._eval(stmt.cond, env)
        if isinstance(cond, Const):
            if cond.value:
                self._exec(stmt.then, env.child())
            elif stmt.otherwise is not None:
                self._exec(stmt.otherwise, env.child())
            return
        self._if_convert(stmt, cond, env)

    def _if_convert(self, stmt: ast.IfStmt, cond: Value, env: Env) -> None:
        """Execute both branches speculatively and merge with selects."""
        assert stmt.then is not None
        self.decisions.append(cond)
        before = env.snapshot()
        saved = [(cell, self._cell_state(cell)) for _, _, cell in before]

        saved_frames = [(frame, frame.done, frame.value)
                        for frame in self.helper_frames]
        self.speculative += 1
        try:
            self.path_conditions.append(cond)
            try:
                self._exec(stmt.then, env.child())
            finally:
                self.path_conditions.pop()
            then_state = [self._cell_state(cell) for _, _, cell in before]
            then_frames = [(frame.done, frame.value)
                           for frame in self.helper_frames]
            for (cell, state) in saved:
                self._restore_cell(cell, state)
            for frame, done, value in saved_frames:
                frame.done, frame.value = done, value
            if stmt.otherwise is not None:
                negated = self.emitter.unop("!", cond)
                self.path_conditions.append(negated)
                try:
                    self._exec(stmt.otherwise, env.child())
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

    def _exec_for(self, stmt: ast.ForStmt, env: Env) -> None:
        loop_env = env.child()
        if stmt.init is not None:
            self._exec(stmt.init, loop_env)
        while True:
            if stmt.cond is not None:
                cond = self._eval(stmt.cond, loop_env)
                if not self._static_truth(cond, stmt.loc):
                    return
            assert stmt.body is not None
            try:
                self._exec(stmt.body, loop_env.child())
            except _Break:
                return
            except _Continue:
                pass
            if stmt.step is not None:
                self._exec(stmt.step, loop_env)

    def _exec_while(self, stmt: ast.WhileStmt, env: Env) -> None:
        assert stmt.cond is not None and stmt.body is not None
        while True:
            cond = self._eval(stmt.cond, env)
            if not self._static_truth(cond, stmt.loc):
                return
            try:
                self._exec(stmt.body, env.child())
            except _Break:
                return
            except _Continue:
                continue

    def _exec_do_while(self, stmt: ast.DoWhileStmt, env: Env) -> None:
        assert stmt.cond is not None and stmt.body is not None
        while True:
            try:
                self._exec(stmt.body, env.child())
            except _Break:
                return
            except _Continue:
                pass
            cond = self._eval(stmt.cond, env)
            if not self._static_truth(cond, stmt.loc):
                return

    def _static_truth(self, cond: Value, loc: SourceLocation) -> bool:
        self._step(loc)
        if not isinstance(cond, Const):
            raise LoweringError(
                "loop condition is not compile-time constant; LaminarIR "
                "requires statically bounded loops", loc, self.source)
        return bool(cond.value)

    # -- expressions ---------------------------------------------------------------

    def _eval(self, expr: ast.Expr, env: Env) -> Value:
        if isinstance(expr, ast.IntLit):
            return const_int(expr.value)
        if isinstance(expr, ast.FloatLit):
            return const_float(expr.value)
        if isinstance(expr, ast.BoolLit):
            return const_bool(expr.value)
        if isinstance(expr, ast.Ident):
            return self._eval_ident(expr, env)
        if isinstance(expr, ast.UnaryOp):
            assert expr.operand is not None
            return self.emitter.unop(expr.op, self._eval(expr.operand, env))
        if isinstance(expr, ast.BinaryOp):
            return self._eval_binary(expr, env)
        if isinstance(expr, ast.TernaryOp):
            return self._eval_ternary(expr, env)
        if isinstance(expr, ast.Cast):
            assert expr.target is not None and expr.operand is not None
            assert isinstance(expr.target, ScalarType)
            return self.emitter.cast(self._eval(expr.operand, env),
                                     expr.target)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, env)
        if isinstance(expr, ast.Index):
            return self._eval_index(expr, env)
        if isinstance(expr, ast.PeekExpr):
            return self._eval_peek(expr, env)
        if isinstance(expr, ast.PopExpr):
            return self._eval_pop(expr)
        raise LoweringError(f"cannot lower {type(expr).__name__}", expr.loc,
                            self.source)

    def _eval_ident(self, expr: ast.Ident, env: Env) -> Value:
        cell = env.lookup(expr.name)
        if cell is None:
            raise LoweringError(f"unknown identifier {expr.name!r}",
                                expr.loc, self.source)
        if isinstance(cell, ScalarCell):
            return cell.value
        if isinstance(cell, FieldCell) and not cell.dims:
            if cell.cached is None:
                cell.cached = self.emitter.load(cell.slot, None)
            return cell.cached
        raise LoweringError(f"array {expr.name!r} used as a scalar",
                            expr.loc, self.source)

    def _eval_binary(self, expr: ast.BinaryOp, env: Env) -> Value:
        assert expr.left is not None and expr.right is not None
        if expr.op in ("&&", "||"):
            left = self._eval(expr.left, env)
            if isinstance(left, Const):
                short = (expr.op == "&&" and not left.value) \
                    or (expr.op == "||" and bool(left.value))
                if short:
                    return const_bool(bool(left.value))
                return self._eval(expr.right, env)
            # Dynamic: evaluate both (the RHS must be pure anyway) and
            # combine; C backends emit && / || whose RHS is re-evaluated,
            # which is safe for pure expressions.
            self.decisions.append(left)
            right = self._eval(expr.right, env)
            return self.emitter.binop("&" if expr.op == "&&" else "|",
                                      self._bool_to_int(left),
                                      self._bool_to_int(right),
                                      expr.loc, self.source)
        left = self._eval(expr.left, env)
        right = self._eval(expr.right, env)
        return self.emitter.binop(expr.op, left, right, expr.loc,
                                  self.source)

    def _bool_to_int(self, value: Value) -> Value:
        # Booleans participate in & / | as 0/1 ints; keep the boolean type
        # so downstream conditions still work.
        return value

    def _eval_ternary(self, expr: ast.TernaryOp, env: Env) -> Value:
        assert expr.cond and expr.then and expr.otherwise
        cond = self._eval(expr.cond, env)
        if isinstance(cond, Const):
            return self._eval(expr.then if cond.value else expr.otherwise,
                              env)
        self.decisions.append(cond)
        then = self._eval(expr.then, env)
        otherwise = self._eval(expr.otherwise, env)
        return self.emitter.select(cond, then, otherwise)

    def _eval_call(self, expr: ast.Call, env: Env) -> Value:
        helper = self.helpers.get(expr.name)
        if helper is not None:
            return self._inline_helper(helper, expr, env)
        intrinsic = INTRINSICS.get(expr.name)
        if intrinsic is None:
            raise LoweringError(f"unknown function {expr.name!r}", expr.loc,
                                self.source)
        if not intrinsic.pure:
            self._check_effect_allowed(expr.loc, expr.name)
        args = [self._eval(a, env) for a in expr.args]
        return self.emitter.call(expr.name, args)

    def _inline_helper(self, helper: ast.HelperFunc, expr: ast.Call,
                       env: Env) -> Value:
        if self.call_depth >= _MAX_CALL_DEPTH:
            raise LoweringError(
                f"helper call depth exceeds {_MAX_CALL_DEPTH} "
                "(recursion is not supported)", expr.loc, self.source)
        call_env = self.base_env().child()
        for param, arg in zip(helper.params, expr.args):
            assert isinstance(param.ty, ScalarType)
            value = self.emitter.coerce(self._eval(arg, env), param.ty)
            call_env.define(param.name, ScalarCell(param.ty, value))
        return_ty = helper.return_type \
            if isinstance(helper.return_type, ScalarType) \
            and helper.return_type != VOID else None
        frame = _HelperFrame(return_ty=return_ty,
                             path_depth=len(self.path_conditions))
        self.call_depth += 1
        self.helper_frames.append(frame)
        try:
            assert helper.body is not None
            self._exec_block(helper.body, call_env)
        except _Return as ret:
            if ret.value is None:
                if return_ty is not None:
                    raise LoweringError(
                        f"helper {helper.name!r} returned no value",
                        expr.loc, self.source) from None
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
                "returning", expr.loc, self.source)
        # Some path returned dynamically; paths that fall through see the
        # default value (C leaves this undefined; we define it as zero).
        return frame.value

    def _eval_index(self, expr: ast.Index, env: Env) -> Value:
        base, indices = self._collect_indices(expr)
        if not isinstance(base, ast.Ident):
            raise LoweringError("indexed value is not a variable", expr.loc,
                                self.source)
        cell = env.lookup(base.name)
        if cell is None:
            raise LoweringError(f"unknown variable {base.name!r}", base.loc,
                                self.source)
        index_values = [self._eval(i, env) for i in indices]
        if isinstance(cell, ArrayCell):
            linear = self._linear_index(cell.dims, index_values, expr.loc)
            if not isinstance(linear, Const):
                raise LoweringError(
                    "dynamic index into a local array is not supported; "
                    "use a filter field", expr.loc, self.source)
            offset = linear.value
            assert isinstance(offset, int)
            _check_bounds(offset, len(cell.elems), expr.loc, self.source)
            return cell.elems[offset]
        if isinstance(cell, FieldCell) and cell.dims:
            linear = self._linear_index(cell.dims, index_values, expr.loc)
            check_const_bounds(linear, cell.slot, expr.loc, self.source)
            return self.emitter.load(cell.slot, linear, expr.loc)
        raise LoweringError(f"{base.name!r} is not an array", expr.loc,
                            self.source)

    def _linear_index(self, dims: list[int], indices: list[Value],
                      loc: SourceLocation) -> Value:
        if len(indices) != len(dims):
            raise LoweringError(
                f"expected {len(dims)} indices, got {len(indices)}", loc,
                self.source)
        linear: Value = const_int(0)
        for dim, index in zip(dims, indices):
            linear = self.emitter.binop(
                "*", linear, const_int(dim), loc, self.source)
            linear = self.emitter.binop(
                "+", linear, self.emitter.coerce(index, INT), loc,
                self.source)
        return linear

    def _eval_peek(self, expr: ast.PeekExpr, env: Env) -> Value:
        if self.hooks is None:
            raise LoweringError("peek outside of a firing context",
                                expr.loc, self.source)
        assert expr.offset is not None
        offset = self._eval(expr.offset, env)
        if not isinstance(offset, Const):
            raise LoweringError(
                "peek offset is not compile-time constant; LaminarIR "
                "requires static token indices", expr.loc, self.source)
        assert isinstance(offset.value, int)
        return self.hooks.peek(offset.value, expr.loc)

    def _eval_pop(self, expr: ast.PopExpr) -> Value:
        self._check_effect_allowed(expr.loc, "pop")
        if self.hooks is None:
            raise LoweringError("pop outside of a firing context", expr.loc,
                                self.source)
        value = self.hooks.pop(expr.loc)
        self.pops += 1
        return value

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
