"""The FIFO baseline interpreter — our stand-in for the StreamIt compiler.

Executes the flat stream graph exactly the way StreamIt-generated C does:

* every channel is a circular buffer accessed through read/write indices
  kept in memory (each access costs pointer loads/stores — see
  :mod:`repro.interp.counters` for the accounting),
* splitters and joiners run as real copy actors,
* filter work bodies execute their loops and branches at run time.

This gives the baseline side of every experiment: its outputs define
correctness for the LaminarIR route, and its counters define the baseline
data-communication / memory-access / cycle numbers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.frontend import ast_nodes as ast
from repro.frontend.errors import InterpError, RateError, SourceLocation
from repro.frontend.intrinsics import INTRINSICS, XorShift32
from repro.frontend.types import (ArrayType, BOOLEAN, FLOAT, INT, ScalarType,
                                  VOID)
from repro.frontend.values import (coerce_runtime, default_value,
                                   runtime_binary, runtime_call,
                                   runtime_unary)
from repro.graph.nodes import (FilterVertex, FlatGraph, JoinerVertex,
                               SplitterVertex, Vertex)
from repro.interp.counters import Counters, RunResult
from repro.obs import metrics as obs_metrics
from repro.obs import trace
from repro.scheduling.schedule import Firing, Schedule


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    def __init__(self, value: object):
        self.value = value


def _runtime_type(value: object) -> ScalarType:
    if isinstance(value, bool):
        return BOOLEAN
    if isinstance(value, int):
        return INT
    if isinstance(value, float):
        return FLOAT
    raise InterpError(f"unexpected runtime value {value!r}")


def _round_up_pow2(value: int) -> int:
    size = 1
    while size < value:
        size <<= 1
    return size


class RingBuffer:
    """A StreamIt-style circular buffer with masked indices."""

    def __init__(self, capacity: int, counters: Counters):
        self.capacity = _round_up_pow2(max(capacity, 1))
        self.mask = self.capacity - 1
        self.data: list[object] = [0] * self.capacity
        self.read = 0
        self.write = 0
        self.counters = counters

    def __len__(self) -> int:
        return self.write - self.read

    def push(self, value: object) -> None:
        if len(self) >= self.capacity:  # pragma: no cover - sized statically
            raise InterpError("FIFO overflow (buffer sized too small)")
        self.data[self.write & self.mask] = value
        self.write += 1
        self.counters.count_fifo_push()

    def pop(self) -> object:
        if not len(self):
            raise InterpError("FIFO underflow on pop")
        value = self.data[self.read & self.mask]
        self.read += 1
        self.counters.count_fifo_pop()
        return value

    def peek(self, offset: int) -> object:
        if offset < 0 or offset >= len(self):
            raise InterpError(f"FIFO underflow on peek({offset})")
        self.counters.count_fifo_peek()
        return self.data[(self.read + offset) & self.mask]


@dataclass
class _Array:
    """A run-time array value; element accesses are memory accesses."""

    element_ty: ScalarType
    dims: list[int]
    elems: list[object]


class _Scope:
    def __init__(self, parent: "_Scope | None" = None):
        self.parent = parent
        self.vars: dict[str, object] = {}

    def child(self) -> "_Scope":
        return _Scope(self)

    def define(self, name: str, value: object) -> None:
        self.vars[name] = value

    def find(self, name: str) -> "_Scope | None":
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.vars:
                return scope
            scope = scope.parent
        return None


class _FilterState:
    """Per-instance run-time state of one filter."""

    def __init__(self, vertex: FilterVertex):
        self.vertex = vertex
        self.node = vertex.filter
        self.fields: dict[str, object] = {}
        self.helpers = {h.name: h for h in self.node.decl.helpers}

    def base_scope(self) -> _Scope:
        """Scope holding the bound parameters.

        Fields are *not* copied in: identifier lookup falls back to
        ``self.fields`` so that locals can shadow fields and field accesses
        are counted as memory accesses.
        """
        scope = _Scope()
        for name, value in self.node.env.items():
            scope.define(name, value)
        return scope


class FifoInterpreter:
    """Executes a scheduled flat graph with run-time FIFO queues."""

    def __init__(self, schedule: Schedule, source: str = "",
                 rng_seed: int = XorShift32.DEFAULT_SEED):
        self.schedule = schedule
        self.graph: FlatGraph = schedule.graph
        self.source = source
        self.counters = Counters()
        self.rng = XorShift32(rng_seed)
        self.outputs: list[object] = []
        self.buffers: dict[str, RingBuffer] = {}
        self.states: dict[Vertex, _FilterState] = {}
        self._depth = 0
        # Per-vertex token pushes / firings, accumulated across all phases;
        # run() diffs around the steady loop for the RunResult.
        self.vertex_tokens: dict[str, int] = {}
        self.vertex_firings: dict[str, int] = {}

    def _note_tokens(self, name: str, amount: int) -> None:
        self.vertex_tokens[name] = self.vertex_tokens.get(name, 0) + amount

    # -- public API -------------------------------------------------------------

    def run(self, iterations: int) -> RunResult:
        self._setup()
        for firing in self.schedule.init:
            self._fire(firing)
        steady_start = self.counters.snapshot()
        tokens_start = dict(self.vertex_tokens)
        firings_start = dict(self.vertex_firings)
        timing = trace.is_enabled()
        iter_seconds = obs_metrics.histogram("interp.fifo.iter_seconds")
        for _ in range(iterations):
            began = time.perf_counter() if timing else 0.0
            for firing in self.schedule.steady:
                self._fire(firing)
            if timing:
                iter_seconds.observe(time.perf_counter() - began)
        steady = self.counters.delta_since(steady_start)
        filter_tokens = {
            name: total - tokens_start.get(name, 0)
            for name, total in self.vertex_tokens.items()
            if total - tokens_start.get(name, 0)}
        filter_firings = {
            name: total - firings_start.get(name, 0)
            for name, total in self.vertex_firings.items()
            if total - firings_start.get(name, 0)}
        obs_metrics.publish_counters("interp.fifo.steady", steady)
        if trace.is_enabled():
            for name, tokens in filter_tokens.items():
                obs_metrics.gauge(
                    f"interp.fifo.filter.{name}.tokens").set(tokens)
            for name, firings in filter_firings.items():
                obs_metrics.gauge(
                    f"interp.fifo.filter.{name}.firings").set(firings)
        return RunResult(outputs=list(self.outputs),
                         counters=self.counters.snapshot(),
                         steady_counters=steady, iterations=iterations,
                         filter_tokens=filter_tokens,
                         filter_firings=filter_firings)

    # -- setup -------------------------------------------------------------------

    def _setup(self) -> None:
        for channel in self.graph.channels:
            bound = self.schedule.buffer_bounds[channel.name]
            buffer = RingBuffer(bound, self.counters)
            for value in channel.initial:
                buffer.push(coerce_runtime(value, channel.ty))
            self.buffers[channel.name] = buffer
        for vertex in self.graph.filters:
            state = _FilterState(vertex)
            self.states[vertex] = state
            self._init_fields(state)
            if vertex.filter.decl.init is not None:
                scope = state.base_scope().child()
                self._exec_block(vertex.filter.decl.init, scope, state,
                                 hooks=None)

    def _init_fields(self, state: _FilterState) -> None:
        for fld in state.node.decl.fields:
            ty = state.node.field_types[fld.name]
            if isinstance(ty, ArrayType):
                dims = [d for d in ty.dims() if d is not None]
                count = 1
                for d in dims:
                    count *= d
                value: object = _Array(ty.base, dims,
                                       [default_value(ty.base)] * count)
            else:
                assert isinstance(ty, ScalarType)
                value = default_value(ty)
            state.fields[fld.name] = value
        # Field initializers run in declaration order; earlier fields are
        # visible through the state-fallback lookup.
        scope = state.base_scope()
        for fld in state.node.decl.fields:
            if fld.init is None:
                continue
            ty = state.node.field_types[fld.name]
            assert isinstance(ty, ScalarType)
            state.fields[fld.name] = coerce_runtime(
                self._eval(fld.init, scope, state, None), ty)

    # -- firings -------------------------------------------------------------------

    def _fire(self, firing: Firing) -> None:
        vertex = firing.vertex
        self.vertex_firings[vertex.name] = \
            self.vertex_firings.get(vertex.name, 0) + 1
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
        rates = node.prework if prework else node.work
        decl = node.decl.prework if prework else node.decl.work
        assert rates is not None and decl is not None
        state = self.states[vertex]
        hooks = _Hooks(self, vertex, rates.peek)
        scope = state.base_scope().child()
        assert decl.body is not None
        self._exec_block(decl.body, scope, state, hooks)
        self._note_tokens(vertex.name, hooks.pushes)
        what = "prework" if prework else "work"
        if hooks.pops != rates.pop:
            raise RateError(
                f"{vertex.name}: {what} popped {hooks.pops} token(s), "
                f"declared pop {rates.pop}")
        if hooks.pushes != rates.push:
            raise RateError(
                f"{vertex.name}: {what} pushed {hooks.pushes} token(s), "
                f"declared push {rates.push}")

    def _fire_splitter(self, vertex: SplitterVertex) -> None:
        in_buffer = self.buffers[vertex.inputs[0].name]  # type: ignore
        if vertex.policy == "duplicate":
            token = in_buffer.pop()
            for channel in vertex.outputs:
                assert channel is not None
                self._note_tokens(vertex.name, 1)
                self.buffers[channel.name].push(token)
            return
        for port, channel in enumerate(vertex.outputs):
            assert channel is not None
            out_buffer = self.buffers[channel.name]
            for _ in range(vertex.weights[port]):
                self._note_tokens(vertex.name, 1)
                out_buffer.push(in_buffer.pop())

    def _fire_joiner(self, vertex: JoinerVertex) -> None:
        out_buffer = self.buffers[vertex.outputs[0].name]  # type: ignore
        for port, channel in enumerate(vertex.inputs):
            assert channel is not None
            in_buffer = self.buffers[channel.name]
            for _ in range(vertex.weights[port]):
                self._note_tokens(vertex.name, 1)
                out_buffer.push(in_buffer.pop())

    # -- statements --------------------------------------------------------------

    def _exec_block(self, block: ast.Block, scope: _Scope,
                    state: _FilterState, hooks: "_Hooks | None") -> None:
        inner = scope.child()
        for stmt in block.stmts:
            self._exec(stmt, inner, state, hooks)

    def _exec(self, stmt: ast.Stmt, scope: _Scope, state: _FilterState,
              hooks: "_Hooks | None") -> None:
        if isinstance(stmt, ast.Block):
            self._exec_block(stmt, scope, state, hooks)
        elif isinstance(stmt, ast.VarDecl):
            self._exec_var_decl(stmt, scope, state, hooks)
        elif isinstance(stmt, ast.Assign):
            self._exec_assign(stmt, scope, state, hooks)
        elif isinstance(stmt, ast.ExprStmt):
            assert stmt.expr is not None
            self._eval(stmt.expr, scope, state, hooks)
        elif isinstance(stmt, ast.PushStmt):
            assert stmt.value is not None
            if hooks is None:
                raise InterpError("push outside work", stmt.loc, self.source)
            hooks.push(self._eval(stmt.value, scope, state, hooks))
        elif isinstance(stmt, ast.PrintStmt):
            assert stmt.value is not None
            value = self._eval(stmt.value, scope, state, hooks)
            self.outputs.append(value)
            self.counters.prints += 1
        elif isinstance(stmt, ast.IfStmt):
            assert stmt.cond is not None and stmt.then is not None
            self.counters.branch += 1
            if self._eval(stmt.cond, scope, state, hooks):
                self._exec(stmt.then, scope.child(), state, hooks)
            elif stmt.otherwise is not None:
                self._exec(stmt.otherwise, scope.child(), state, hooks)
        elif isinstance(stmt, ast.ForStmt):
            self._exec_for(stmt, scope, state, hooks)
        elif isinstance(stmt, ast.WhileStmt):
            self._exec_while(stmt, scope, state, hooks)
        elif isinstance(stmt, ast.DoWhileStmt):
            self._exec_do_while(stmt, scope, state, hooks)
        elif isinstance(stmt, ast.ReturnStmt):
            value = (self._eval(stmt.value, scope, state, hooks)
                     if stmt.value is not None else None)
            raise _Return(value)
        elif isinstance(stmt, ast.BreakStmt):
            raise _Break()
        elif isinstance(stmt, ast.ContinueStmt):
            raise _Continue()
        else:
            raise InterpError(f"cannot execute {type(stmt).__name__}",
                              stmt.loc, self.source)

    def _exec_var_decl(self, stmt: ast.VarDecl, scope: _Scope,
                       state: _FilterState, hooks: "_Hooks | None") -> None:
        base = stmt.var_type
        assert isinstance(base, ScalarType)
        if stmt.dims:
            dims = [int(self._eval(d, scope, state, hooks))  # type: ignore
                    for d in stmt.dims]
            count = 1
            for d in dims:
                if d <= 0:
                    raise InterpError("array size must be positive",
                                      stmt.loc, self.source)
                count *= d
            scope.define(stmt.name,
                         _Array(base, dims, [default_value(base)] * count))
            return
        if stmt.init is not None:
            value = coerce_runtime(
                self._eval(stmt.init, scope, state, hooks), base)
        else:
            value = default_value(base)
        scope.define(stmt.name, value)

    def _exec_assign(self, stmt: ast.Assign, scope: _Scope,
                     state: _FilterState, hooks: "_Hooks | None") -> None:
        assert stmt.target is not None and stmt.value is not None
        value = self._eval(stmt.value, scope, state, hooks)
        if stmt.op != "=":
            current = self._eval(stmt.target, scope, state, hooks)
            value = runtime_binary(stmt.op[:-1], current, value)
            self.counters.count_binary(stmt.op[:-1])
        self._write(stmt.target, value, scope, state, hooks)

    def _write(self, target: ast.Expr, value: object, scope: _Scope,
               state: _FilterState, hooks: "_Hooks | None") -> None:
        if isinstance(target, ast.Ident):
            holder = scope.find(target.name)
            if holder is not None:
                current = holder.vars[target.name]
                if isinstance(current, _Array):
                    raise InterpError("cannot assign a whole array",
                                      target.loc, self.source)
                holder.vars[target.name] = coerce_runtime(
                    value, _runtime_type(current))
                return
            if target.name in state.fields:
                current = state.fields[target.name]
                if isinstance(current, _Array):
                    raise InterpError("cannot assign a whole array",
                                      target.loc, self.source)
                state.fields[target.name] = coerce_runtime(
                    value, _runtime_type(current))
                self.counters.stores += 1
                return
            raise InterpError(f"unknown variable {target.name!r}",
                              target.loc, self.source)
        if isinstance(target, ast.Index):
            array, offset = self._resolve_element(target, scope, state,
                                                  hooks)
            array.elems[offset] = coerce_runtime(value, array.element_ty)
            self.counters.stores += 1
            return
        raise InterpError("invalid assignment target", target.loc,
                          self.source)

    def _resolve_element(self, expr: ast.Index, scope: _Scope,
                         state: _FilterState,
                         hooks: "_Hooks | None") -> tuple[_Array, int]:
        indices: list[ast.Expr] = []
        node: ast.Expr = expr
        while isinstance(node, ast.Index):
            assert node.index is not None and node.base is not None
            indices.append(node.index)
            node = node.base
        indices.reverse()
        if not isinstance(node, ast.Ident):
            raise InterpError("indexed value is not a variable", expr.loc,
                              self.source)
        holder = scope.find(node.name)
        if holder is not None:
            array = holder.vars[node.name]
        elif node.name in state.fields:
            array = state.fields[node.name]
        else:
            raise InterpError(f"unknown variable {node.name!r}", node.loc,
                              self.source)
        if not isinstance(array, _Array):
            raise InterpError(f"{node.name!r} is not an array", expr.loc,
                              self.source)
        if len(indices) != len(array.dims):
            raise InterpError(
                f"expected {len(array.dims)} indices, got {len(indices)}",
                expr.loc, self.source)
        offset = 0
        for dim, index_expr in zip(array.dims, indices):
            index = self._eval(index_expr, scope, state, hooks)
            assert isinstance(index, int)
            offset = offset * dim + index
            self.counters.alu += 1  # address arithmetic
        total = len(array.elems)
        if not 0 <= offset < total:
            raise InterpError(f"array index {offset} out of bounds "
                              f"[0, {total})", expr.loc, self.source)
        return array, offset

    def _exec_for(self, stmt: ast.ForStmt, scope: _Scope,
                  state: _FilterState, hooks: "_Hooks | None") -> None:
        loop_scope = scope.child()
        if stmt.init is not None:
            self._exec(stmt.init, loop_scope, state, hooks)
        while True:
            if stmt.cond is not None:
                self.counters.branch += 1
                if not self._eval(stmt.cond, loop_scope, state, hooks):
                    return
            assert stmt.body is not None
            try:
                self._exec(stmt.body, loop_scope.child(), state, hooks)
            except _Break:
                return
            except _Continue:
                pass
            if stmt.step is not None:
                self._exec(stmt.step, loop_scope, state, hooks)

    def _exec_while(self, stmt: ast.WhileStmt, scope: _Scope,
                    state: _FilterState, hooks: "_Hooks | None") -> None:
        assert stmt.cond is not None and stmt.body is not None
        while True:
            self.counters.branch += 1
            if not self._eval(stmt.cond, scope, state, hooks):
                return
            try:
                self._exec(stmt.body, scope.child(), state, hooks)
            except _Break:
                return
            except _Continue:
                continue

    def _exec_do_while(self, stmt: ast.DoWhileStmt, scope: _Scope,
                       state: _FilterState,
                       hooks: "_Hooks | None") -> None:
        assert stmt.cond is not None and stmt.body is not None
        while True:
            try:
                self._exec(stmt.body, scope.child(), state, hooks)
            except _Break:
                return
            except _Continue:
                pass
            self.counters.branch += 1
            if not self._eval(stmt.cond, scope, state, hooks):
                return

    # -- expressions ------------------------------------------------------------

    def _eval(self, expr: ast.Expr, scope: _Scope, state: _FilterState,
              hooks: "_Hooks | None") -> object:
        if isinstance(expr, ast.IntLit):
            return expr.value
        if isinstance(expr, ast.FloatLit):
            return expr.value
        if isinstance(expr, ast.BoolLit):
            return expr.value
        if isinstance(expr, ast.Ident):
            holder = scope.find(expr.name)
            if holder is not None:
                return holder.vars[expr.name]
            if expr.name in state.fields:
                value = state.fields[expr.name]
                if not isinstance(value, _Array):
                    self.counters.loads += 1
                return value
            raise InterpError(f"unknown identifier {expr.name!r}", expr.loc,
                              self.source)
        if isinstance(expr, ast.UnaryOp):
            assert expr.operand is not None
            operand = self._eval(expr.operand, scope, state, hooks)
            self.counters.alu += 1
            return runtime_unary(expr.op, operand)
        if isinstance(expr, ast.BinaryOp):
            return self._eval_binary(expr, scope, state, hooks)
        if isinstance(expr, ast.TernaryOp):
            assert expr.cond and expr.then and expr.otherwise
            self.counters.branch += 1
            if self._eval(expr.cond, scope, state, hooks):
                return self._eval(expr.then, scope, state, hooks)
            return self._eval(expr.otherwise, scope, state, hooks)
        if isinstance(expr, ast.Cast):
            assert expr.target is not None and expr.operand is not None
            assert isinstance(expr.target, ScalarType)
            self.counters.alu += 1
            return coerce_runtime(
                self._eval(expr.operand, scope, state, hooks), expr.target)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, scope, state, hooks)
        if isinstance(expr, ast.Index):
            array, offset = self._resolve_element(expr, scope, state, hooks)
            self.counters.loads += 1
            return array.elems[offset]
        if isinstance(expr, ast.PeekExpr):
            assert expr.offset is not None
            if hooks is None:
                raise InterpError("peek outside work", expr.loc, self.source)
            offset = self._eval(expr.offset, scope, state, hooks)
            assert isinstance(offset, int)
            return hooks.peek(offset, expr.loc)
        if isinstance(expr, ast.PopExpr):
            if hooks is None:
                raise InterpError("pop outside work", expr.loc, self.source)
            return hooks.pop()
        raise InterpError(f"cannot evaluate {type(expr).__name__}", expr.loc,
                          self.source)

    def _eval_binary(self, expr: ast.BinaryOp, scope: _Scope,
                     state: _FilterState, hooks: "_Hooks | None") -> object:
        assert expr.left is not None and expr.right is not None
        if expr.op in ("&&", "||"):
            left = self._eval(expr.left, scope, state, hooks)
            self.counters.branch += 1
            if expr.op == "&&" and not left:
                return False
            if expr.op == "||" and left:
                return True
            return bool(self._eval(expr.right, scope, state, hooks))
        left = self._eval(expr.left, scope, state, hooks)
        right = self._eval(expr.right, scope, state, hooks)
        self.counters.count_binary(expr.op)
        return runtime_binary(expr.op, left, right)

    def _eval_call(self, expr: ast.Call, scope: _Scope, state: _FilterState,
                   hooks: "_Hooks | None") -> object:
        helper = state.helpers.get(expr.name)
        if helper is not None:
            return self._call_helper(helper, expr, scope, state, hooks)
        intrinsic = INTRINSICS.get(expr.name)
        if intrinsic is None:
            raise InterpError(f"unknown function {expr.name!r}", expr.loc,
                              self.source)
        args = [self._eval(a, scope, state, hooks) for a in expr.args]
        self.counters.intrinsic += 1
        if intrinsic.name == "randf":
            return self.rng.randf()
        if intrinsic.name == "randi":
            try:
                return self.rng.randi(int(args[0]))  # type: ignore[arg-type]
            except ValueError as error:
                raise InterpError(str(error), expr.loc, self.source) \
                    from None
        return runtime_call(intrinsic, args)

    def _call_helper(self, helper: ast.HelperFunc, expr: ast.Call,
                     scope: _Scope, state: _FilterState,
                     hooks: "_Hooks | None") -> object:
        if self._depth >= 64:
            raise InterpError("helper call depth exceeded", expr.loc,
                              self.source)
        call_scope = state.base_scope().child()
        for param, arg in zip(helper.params, expr.args):
            assert isinstance(param.ty, ScalarType)
            value = coerce_runtime(self._eval(arg, scope, state, hooks),
                                   param.ty)
            call_scope.define(param.name, value)
        self._depth += 1
        try:
            assert helper.body is not None
            self._exec_block(helper.body, call_scope, state, hooks)
        except _Return as ret:
            if ret.value is None:
                return 0
            assert isinstance(helper.return_type, ScalarType)
            return coerce_runtime(ret.value, helper.return_type)
        finally:
            self._depth -= 1
        if helper.return_type in (None, VOID):
            return 0
        raise InterpError(f"helper {helper.name!r} returned no value",
                          expr.loc, self.source)


class _Hooks:
    """Run-time token operations of one filter firing."""

    def __init__(self, interp: FifoInterpreter, vertex: FilterVertex,
                 peek_rate: int):
        self.interp = interp
        self.vertex = vertex
        self.peek_rate = peek_rate
        self.in_buffer = (interp.buffers[vertex.inputs[0].name]
                          if vertex.inputs else None)  # type: ignore
        self.out_buffer = (interp.buffers[vertex.outputs[0].name]
                           if vertex.outputs else None)  # type: ignore
        self.out_ty = (vertex.outputs[0].ty if vertex.outputs  # type: ignore
                       else None)
        self.pops = 0
        self.pushes = 0

    def peek(self, offset: int, loc: SourceLocation) -> object:
        if self.in_buffer is None:
            raise InterpError(f"{self.vertex.name}: peek without input", loc)
        if self.pops + offset + 1 > self.peek_rate:
            raise InterpError(
                f"{self.vertex.name}: peek({offset}) after {self.pops} "
                f"pop(s) exceeds declared peek rate {self.peek_rate}", loc)
        return self.in_buffer.peek(offset)

    def pop(self) -> object:
        assert self.in_buffer is not None
        self.pops += 1
        return self.in_buffer.pop()

    def push(self, value: object) -> None:
        assert self.out_buffer is not None and self.out_ty is not None
        self.pushes += 1
        self.out_buffer.push(coerce_runtime(value, self.out_ty))
