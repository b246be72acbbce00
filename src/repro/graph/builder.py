"""Elaboration: AST → hierarchical stream graph.

Elaboration binds concrete values to stream parameters, executes composite
bodies (``add`` under ``for``/``if``), resolves data rates and array sizes,
and checks that channel types line up.  The result is a tree of
:class:`~repro.graph.nodes.StreamNode` instances ready for flattening.
"""

from __future__ import annotations

from repro.frontend import ast_nodes as ast
from repro.frontend.errors import ElaborationError, SourceLocation
from repro.frontend.intrinsics import INTRINSICS
from repro.frontend.types import ArrayType, ScalarType, Type, VOID
from repro.frontend.values import (coerce_runtime, fold_binary,
                                   runtime_call, runtime_unary)
from repro.graph.nodes import (FeedbackLoopNode, FilterNode, PipelineNode,
                               Rates, SplitJoinNode, StreamNode)

_MAX_CHILDREN = 10_000  # guard against runaway composite loops


class ConstEvaluator:
    """Evaluates compile-time expressions during elaboration.

    Only pure constructs are legal here: literals, bound parameters and
    composite-body locals, arithmetic, and pure intrinsics.
    """

    def __init__(self, source: str):
        self.source = source

    def eval(self, expr: ast.Expr, env: dict[str, object]) -> object:
        value = self._eval(expr, env)
        return value

    def eval_int(self, expr: ast.Expr, env: dict[str, object],
                 what: str) -> int:
        value = self._eval(expr, env)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ElaborationError(f"{what} must be a compile-time int, "
                                   f"got {value!r}", expr.loc, self.source)
        return value

    def _eval(self, expr: ast.Expr, env: dict[str, object]) -> object:
        if isinstance(expr, ast.IntLit):
            return expr.value
        if isinstance(expr, ast.FloatLit):
            return expr.value
        if isinstance(expr, ast.BoolLit):
            return expr.value
        if isinstance(expr, ast.Ident):
            if expr.name not in env:
                raise ElaborationError(
                    f"{expr.name!r} is not a compile-time constant",
                    expr.loc, self.source)
            return env[expr.name]
        if isinstance(expr, ast.UnaryOp):
            assert expr.operand is not None
            return runtime_unary(expr.op, self._eval(expr.operand, env))
        if isinstance(expr, ast.BinaryOp):
            return self._eval_binary(expr, env)
        if isinstance(expr, ast.TernaryOp):
            assert expr.cond and expr.then and expr.otherwise
            cond = self._eval(expr.cond, env)
            return self._eval(expr.then if cond else expr.otherwise, env)
        if isinstance(expr, ast.Cast):
            assert expr.target is not None and expr.operand is not None
            assert isinstance(expr.target, ScalarType)
            return coerce_runtime(self._eval(expr.operand, env),
                                  expr.target)
        if isinstance(expr, ast.Call):
            intrinsic = INTRINSICS.get(expr.name)
            if intrinsic is None or not intrinsic.pure:
                raise ElaborationError(
                    f"{expr.name!r} cannot be evaluated at elaboration time",
                    expr.loc, self.source)
            return runtime_call(intrinsic,
                                [self._eval(arg, env) for arg in expr.args])
        raise ElaborationError(
            f"{type(expr).__name__} is not a compile-time constant",
            expr.loc, self.source)

    def _eval_binary(self, expr: ast.BinaryOp,
                     env: dict[str, object]) -> object:
        assert expr.left is not None and expr.right is not None
        op = expr.op
        if op == "&&":
            return bool(self._eval(expr.left, env)) \
                and bool(self._eval(expr.right, env))
        if op == "||":
            return bool(self._eval(expr.left, env)) \
                or bool(self._eval(expr.right, env))
        left = self._eval(expr.left, env)
        right = self._eval(expr.right, env)
        return fold_binary(op, left, right, expr.loc, self.source)


class Elaborator:
    def __init__(self, program: ast.Program):
        self.program = program
        self.source = program.source
        self.evaluator = ConstEvaluator(program.source)
        self._instance_counts: dict[str, int] = {}
        self._total_children = 0

    def elaborate(self) -> StreamNode:
        top = self.program.top
        return self._instantiate(top, [], {}, top.loc)

    # -- instantiation -----------------------------------------------------------

    def _instance_name(self, decl_name: str) -> str:
        count = self._instance_counts.get(decl_name, 0)
        self._instance_counts[decl_name] = count + 1
        return decl_name if count == 0 else f"{decl_name}_{count}"

    def _instantiate(self, decl: ast.StreamDecl, args: list[object],
                     captured: dict[str, object],
                     loc: SourceLocation) -> StreamNode:
        self._total_children += 1
        if self._total_children > _MAX_CHILDREN:
            raise ElaborationError(
                f"stream graph exceeds {_MAX_CHILDREN} instances "
                "(runaway composite loop?)", loc, self.source)
        if len(args) != len(decl.params):
            raise ElaborationError(
                f"{decl.name!r} expects {len(decl.params)} argument(s), "
                f"got {len(args)}", loc, self.source)
        env = dict(captured)
        for param, arg in zip(decl.params, args):
            assert param.ty is not None
            env[param.name] = _typed(arg, param.ty)
        name = self._instance_name(decl.name)
        if isinstance(decl, ast.FilterDecl):
            return self._elaborate_filter(decl, env, name)
        if isinstance(decl, ast.PipelineDecl):
            return self._elaborate_pipeline(decl, env, name)
        if isinstance(decl, ast.SplitJoinDecl):
            return self._elaborate_splitjoin(decl, env, name)
        if isinstance(decl, ast.FeedbackLoopDecl):
            return self._elaborate_feedbackloop(decl, env, name)
        raise AssertionError(type(decl).__name__)

    # -- filter ---------------------------------------------------------------------

    def _elaborate_filter(self, decl: ast.FilterDecl,
                          env: dict[str, object], name: str) -> FilterNode:
        in_type = decl.in_type or VOID
        out_type = decl.out_type or VOID
        for ty, which in ((in_type, "input"), (out_type, "output")):
            if not isinstance(ty, ScalarType):
                raise ElaborationError(
                    f"filter {decl.name!r} has non-scalar {which} type {ty}",
                    decl.loc, self.source)
        assert decl.work is not None
        work = self._resolve_rates(decl.work, env, decl, in_type, out_type)
        prework = None
        if decl.prework is not None:
            prework = self._resolve_rates(decl.prework, env, decl, in_type,
                                          out_type, is_prework=True)
        field_types = {}
        for fld in decl.fields:
            assert fld.ty is not None
            field_types[fld.name] = self._resolve_array_type(
                fld.ty, fld.dims, env)
        return FilterNode(name=name, in_type=in_type, out_type=out_type,
                          decl=decl, env=env, work=work, prework=prework,
                          field_types=field_types)

    def _resolve_rates(self, work: ast.WorkDecl, env: dict[str, object],
                       decl: ast.FilterDecl, in_type: Type, out_type: Type,
                       is_prework: bool = False) -> Rates:
        def rate(expr: ast.Expr | None, what: str) -> int:
            if expr is None:
                return 0
            value = self.evaluator.eval_int(expr, env, what)
            if value < 0:
                raise ElaborationError(f"{what} must be non-negative",
                                       expr.loc, self.source)
            return value

        push = rate(work.push_rate, "push rate")
        pop = rate(work.pop_rate, "pop rate")
        peek = rate(work.peek_rate, "peek rate")
        if peek and peek < pop:
            raise ElaborationError(
                f"filter {decl.name!r}: peek rate {peek} < pop rate {pop}",
                work.loc, self.source)
        # Zero steady rates on typed ports are legal: they pair with
        # weight-0 splitter/joiner ports (the branch sees no traffic).
        # Genuinely unbalanced programs are rejected later by the balance
        # equations, which see the whole graph.
        return Rates(push=push, pop=pop, peek=peek)

    def _resolve_array_type(self, base: Type, dims: list[ast.Expr],
                            env: dict[str, object]) -> Type:
        ty: Type = base
        for dim in reversed(dims):
            size = self.evaluator.eval_int(dim, env, "array size")
            if size <= 0:
                raise ElaborationError("array size must be positive",
                                       dim.loc, self.source)
            ty = ArrayType(element=ty, size=size)
        return ty

    # -- composites ------------------------------------------------------------------

    def _elaborate_pipeline(self, decl: ast.PipelineDecl,
                            env: dict[str, object],
                            name: str) -> PipelineNode:
        assert decl.body is not None
        children = self._run_composite_body(decl.body.stmts, dict(env))
        if not children:
            raise ElaborationError(f"pipeline {decl.name!r} has no children",
                                   decl.loc, self.source)
        self._check_pipeline_types(decl, children)
        node = PipelineNode(name=name,
                            in_type=children[0].in_type,
                            out_type=children[-1].out_type,
                            children=children)
        self._check_declared_io(decl, node)
        return node

    def _check_pipeline_types(self, decl: ast.PipelineDecl,
                              children: list[StreamNode]) -> None:
        for left, right in zip(children, children[1:]):
            if left.out_type != right.in_type:
                raise ElaborationError(
                    f"pipeline {decl.name!r}: {left.name} produces "
                    f"{left.out_type} but {right.name} consumes "
                    f"{right.in_type}", decl.loc, self.source)

    def _elaborate_splitjoin(self, decl: ast.SplitJoinDecl,
                             env: dict[str, object],
                             name: str) -> SplitJoinNode:
        assert decl.split is not None and decl.join is not None
        assert decl.body is not None
        local_env = dict(env)
        children = self._run_composite_body(decl.body.stmts, local_env)
        if not children:
            raise ElaborationError(
                f"splitjoin {decl.name!r} has no children", decl.loc,
                self.source)
        split_weights = self._resolve_weights(
            decl.split, len(children), local_env, "split")
        join_weights = self._resolve_weights(
            decl.join, len(children), local_env, "join")
        in_type = children[0].in_type
        out_type = children[0].out_type
        for child in children:
            if child.in_type != in_type or child.out_type != out_type:
                raise ElaborationError(
                    f"splitjoin {decl.name!r}: children disagree on types "
                    f"({child.name}: {child.in_type}->{child.out_type} vs "
                    f"{in_type}->{out_type})", decl.loc, self.source)
        node = SplitJoinNode(
            name=name, in_type=in_type, out_type=out_type,
            split_kind=decl.split.kind, split_weights=split_weights,
            join_weights=join_weights, children=children)
        self._check_declared_io(decl, node)
        return node

    def _resolve_weights(self, split: ast.SplitDecl | ast.JoinDecl,
                         n_children: int, env: dict[str, object],
                         which: str) -> list[int]:
        if isinstance(split, ast.SplitDecl) and split.kind == "duplicate":
            return []
        if not split.weights:
            return [1] * n_children  # `roundrobin` with no weights
        weights = [self.evaluator.eval_int(w, env, f"{which} weight")
                   for w in split.weights]
        if len(weights) == 1 and n_children > 1:
            weights = weights * n_children  # `roundrobin(k)` shorthand
        if len(weights) != n_children:
            raise ElaborationError(
                f"{which} roundrobin has {len(weights)} weight(s) for "
                f"{n_children} branch(es)", split.loc, self.source)
        for weight in weights:
            if weight < 0:
                raise ElaborationError(
                    f"{which} roundrobin weights must be non-negative",
                    split.loc, self.source)
        if sum(weights) == 0:
            raise ElaborationError(
                f"{which} roundrobin needs at least one positive weight",
                split.loc, self.source)
        return weights

    def _elaborate_feedbackloop(self, decl: ast.FeedbackLoopDecl,
                                env: dict[str, object],
                                name: str) -> FeedbackLoopNode:
        assert decl.body_add is not None and decl.loop_add is not None
        assert decl.join is not None and decl.split is not None
        local_env = dict(env)
        body = self._add_child(decl.body_add, local_env)
        loop = self._add_child(decl.loop_add, local_env)
        join_weights = self._resolve_weights(decl.join, 2, local_env, "join")
        if decl.split.kind == "duplicate":
            split_weights: list[int] = []
        else:
            split_weights = self._resolve_weights(decl.split, 2, local_env,
                                                  "split")
        enqueued = [self.evaluator.eval(e.value, local_env)
                    for e in decl.enqueues if e.value is not None]
        if body.out_type != loop.in_type and loop.in_type != VOID:
            raise ElaborationError(
                f"feedbackloop {decl.name!r}: body produces {body.out_type} "
                f"but loop consumes {loop.in_type}", decl.loc, self.source)
        node = FeedbackLoopNode(
            name=name, in_type=body.in_type, out_type=body.out_type,
            join_weights=join_weights, split_kind=decl.split.kind,
            split_weights=split_weights, body=body, loop=loop,
            enqueued=enqueued)
        self._check_declared_io(decl, node)
        return node

    def _check_declared_io(self, decl: ast.StreamDecl,
                           node: StreamNode) -> None:
        if decl.in_type is not None and decl.in_type != node.in_type:
            raise ElaborationError(
                f"{decl.name!r} declares input {decl.in_type} but its "
                f"children consume {node.in_type}", decl.loc, self.source)
        if decl.out_type is not None and decl.out_type != node.out_type:
            raise ElaborationError(
                f"{decl.name!r} declares output {decl.out_type} but its "
                f"children produce {node.out_type}", decl.loc, self.source)

    # -- composite body execution -------------------------------------------------

    def _run_composite_body(self, stmts: list[ast.Stmt],
                            env: dict[str, object]) -> list[StreamNode]:
        children: list[StreamNode] = []
        for stmt in stmts:
            self._run_composite_stmt(stmt, env, children)
        return children

    def _run_composite_stmt(self, stmt: ast.Stmt, env: dict[str, object],
                            children: list[StreamNode]) -> None:
        if isinstance(stmt, ast.AddStmt):
            children.append(self._add_child(stmt, env))
        elif isinstance(stmt, ast.VarDecl):
            value = (self.evaluator.eval(stmt.init, env)
                     if stmt.init is not None else 0)
            env[stmt.name] = value if stmt.dims \
                else _typed(value, stmt.var_type)
        elif isinstance(stmt, ast.Assign):
            self._run_composite_assign(stmt, env)
        elif isinstance(stmt, ast.Block):
            for inner in stmt.stmts:
                self._run_composite_stmt(inner, env, children)
        elif isinstance(stmt, ast.ForStmt):
            self._run_composite_for(stmt, env, children)
        elif isinstance(stmt, ast.IfStmt):
            assert stmt.cond is not None and stmt.then is not None
            if self.evaluator.eval(stmt.cond, env):
                self._run_composite_stmt(stmt.then, env, children)
            elif stmt.otherwise is not None:
                self._run_composite_stmt(stmt.otherwise, env, children)
        elif isinstance(stmt, ast.ExprStmt):
            pass  # side-effect-free at elaboration time
        else:
            raise ElaborationError(
                f"{type(stmt).__name__} not allowed in a composite body",
                stmt.loc, self.source)

    def _run_composite_assign(self, stmt: ast.Assign,
                              env: dict[str, object]) -> None:
        assert isinstance(stmt.target, ast.Ident) and stmt.value is not None
        name = stmt.target.name
        value = self.evaluator.eval(stmt.value, env)
        if stmt.op != "=":
            value = fold_binary(stmt.op[:-1], env[name], value, stmt.loc,
                                self.source)
        env[name] = _typed(value, stmt.target.ty)

    def _run_composite_for(self, stmt: ast.ForStmt, env: dict[str, object],
                           children: list[StreamNode]) -> None:
        loop_env = dict(env)
        if stmt.init is not None:
            self._run_composite_stmt(stmt.init, loop_env, children)
        iterations = 0
        while stmt.cond is None or self.evaluator.eval(stmt.cond, loop_env):
            assert stmt.body is not None
            self._run_composite_stmt(stmt.body, loop_env, children)
            if stmt.step is not None:
                self._run_composite_stmt(stmt.step, loop_env, children)
            iterations += 1
            if iterations > _MAX_CHILDREN:
                raise ElaborationError(
                    "composite for-loop exceeds iteration limit", stmt.loc,
                    self.source)

    def _add_child(self, stmt: ast.AddStmt,
                   env: dict[str, object]) -> StreamNode:
        if stmt.anonymous is not None:
            return self._instantiate(stmt.anonymous, [], env, stmt.loc)
        decl = self._find_stream(stmt.child, stmt.loc)
        args = [self.evaluator.eval(arg, env) for arg in stmt.args]
        return self._instantiate(decl, args, {}, stmt.loc)

    def _find_stream(self, name: str, loc: SourceLocation) -> ast.StreamDecl:
        for decl in self.program.streams:
            if decl.name == name:
                return decl
        raise ElaborationError(f"unknown stream {name!r}", loc, self.source)


def _typed(value: object, ty: Type | None) -> object:
    """``value`` as a variable or parameter of type ``ty`` holds it: an
    int wraps and an int assigned to a float widens, as at run time."""
    return coerce_runtime(value, ty) if isinstance(ty, ScalarType) \
        else value


def elaborate(program: ast.Program) -> StreamNode:
    """Elaborate the top-level stream of ``program``."""
    return Elaborator(program).elaborate()
