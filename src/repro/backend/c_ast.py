"""AST → C translation for the FIFO baseline backend.

Translates one filter instance's bodies (init, work, prework, helpers) to
C, preserving the run-time control flow — loops stay loops, exactly as the
StreamIt compiler emits them.  Parameters are substituted as literals
(instances are specialized), fields become prefixed statics, and token
operations become calls to the per-channel FIFO accessors supplied by the
graph-level generator.
"""

from __future__ import annotations

import math

from repro.frontend import ast_nodes as ast
from repro.frontend.errors import LoweringError
from repro.frontend.types import BOOLEAN, FLOAT, INT, ScalarType
from repro.frontend.values import coerce_runtime, runtime_unary
from repro.graph.nodes import FilterNode
from repro.backend.common import (INTRINSIC_C_NAMES, c_float_literal,
                                  c_int_literal, c_shift, c_type)


class CAstPrinter:
    """Prints one filter instance's statements/expressions as C."""

    def __init__(self, node: FilterNode, prefix: str,
                 push_fn: str | None, pop_fn: str | None,
                 peek_fn: str | None, source: str = ""):
        self.node = node
        self.prefix = prefix
        self.push_fn = push_fn
        self.pop_fn = pop_fn
        self.peek_fn = peek_fn
        self.source = source
        self.helpers = {h.name for h in node.decl.helpers}
        # Whether a shift needs C_SHIFT_RUNTIME, and whether a
        # subtraction needs C_ZERO_SUB_RUNTIME.
        self.checked_shifts = False
        self.zero_subs = False
        self.fields = set(node.field_types)
        self._scopes: list[set[str]] = []

    # -- scope tracking ------------------------------------------------------

    def _push_scope(self) -> None:
        self._scopes.append(set())

    def _pop_scope(self) -> None:
        self._scopes.pop()

    def _define_local(self, name: str) -> None:
        self._scopes[-1].add(name)

    def _is_local(self, name: str) -> bool:
        return any(name in scope for scope in self._scopes)

    # -- naming ---------------------------------------------------------------

    def field_name(self, name: str) -> str:
        return f"{self.prefix}_{name}"

    def _ident(self, name: str, loc) -> str:
        if self._is_local(name):
            return f"l_{name}"
        if name in self.fields:
            return self.field_name(name)
        if name in self.node.env:
            return _value_literal(self.node.env[name])
        raise LoweringError(f"unknown identifier {name!r} in C backend",
                            loc, self.source)

    # -- statements --------------------------------------------------------------

    def block(self, block: ast.Block, indent: int) -> list[str]:
        pad = "    " * indent
        self._push_scope()
        lines = [pad + "{"]
        for stmt in block.stmts:
            lines.extend(self.stmt(stmt, indent + 1))
        lines.append(pad + "}")
        self._pop_scope()
        return lines

    def stmt(self, stmt: ast.Stmt, indent: int) -> list[str]:
        pad = "    " * indent
        if isinstance(stmt, ast.Block):
            if not stmt.stmts:
                return []
            return self.block(stmt, indent)
        if isinstance(stmt, ast.VarDecl):
            return [pad + self._var_decl(stmt)]
        if isinstance(stmt, ast.Assign):
            assert stmt.target is not None and stmt.value is not None
            target = self.expr(stmt.target)
            value = self.expr(stmt.value)
            checked = self._shift(stmt.op[:-1], target, value, stmt.value)
            if checked is not None:
                return [pad + f"{target} = {checked};"]
            return [pad + f"{target} {stmt.op} {value};"]
        if isinstance(stmt, ast.ExprStmt):
            assert stmt.expr is not None
            return [pad + self.expr(stmt.expr) + ";"]
        if isinstance(stmt, ast.PushStmt):
            assert stmt.value is not None and self.push_fn is not None
            return [pad + f"{self.push_fn}({self.expr(stmt.value)});"]
        if isinstance(stmt, ast.PrintStmt):
            assert stmt.value is not None
            ty = stmt.value.ty or FLOAT
            fn = "repro_print_i32" if ty in (INT, BOOLEAN) \
                else "repro_print_f64"
            return [pad + f"{fn}({self.expr(stmt.value)});"]
        if isinstance(stmt, ast.IfStmt):
            return self._if_stmt(stmt, indent)
        if isinstance(stmt, ast.ForStmt):
            return self._for_stmt(stmt, indent)
        if isinstance(stmt, ast.WhileStmt):
            assert stmt.cond is not None and stmt.body is not None
            lines = [pad + f"while ({self.expr(stmt.cond)})"]
            lines.extend(self._body(stmt.body, indent))
            return lines
        if isinstance(stmt, ast.DoWhileStmt):
            assert stmt.cond is not None and stmt.body is not None
            lines = [pad + "do"]
            lines.extend(self._body(stmt.body, indent))
            lines.append(pad + f"while ({self.expr(stmt.cond)});")
            return lines
        if isinstance(stmt, ast.ReturnStmt):
            if stmt.value is None:
                return [pad + "return;"]
            return [pad + f"return {self.expr(stmt.value)};"]
        if isinstance(stmt, ast.BreakStmt):
            return [pad + "break;"]
        if isinstance(stmt, ast.ContinueStmt):
            return [pad + "continue;"]
        raise LoweringError(f"cannot translate {type(stmt).__name__} to C",
                            stmt.loc, self.source)

    def _body(self, stmt: ast.Stmt, indent: int) -> list[str]:
        """A loop/if body: always print as a braced block."""
        if isinstance(stmt, ast.Block):
            return self.block(stmt, indent)
        self._push_scope()
        pad = "    " * indent
        lines = [pad + "{"] + self.stmt(stmt, indent + 1) + [pad + "}"]
        self._pop_scope()
        return lines

    def _var_decl(self, stmt: ast.VarDecl) -> str:
        assert isinstance(stmt.var_type, ScalarType)
        base = c_type(stmt.var_type)
        self._define_local(stmt.name)
        if stmt.dims:
            dims = "".join(f"[{self.expr(d)}]" for d in stmt.dims)
            return f"{base} l_{stmt.name}{dims} = {{0}};"
        if stmt.init is not None:
            return f"{base} l_{stmt.name} = {self.expr(stmt.init)};"
        return f"{base} l_{stmt.name} = 0;"

    def _if_stmt(self, stmt: ast.IfStmt, indent: int) -> list[str]:
        assert stmt.cond is not None and stmt.then is not None
        pad = "    " * indent
        lines = [pad + f"if ({self.expr(stmt.cond)})"]
        lines.extend(self._body(stmt.then, indent))
        if stmt.otherwise is not None:
            lines.append(pad + "else")
            lines.extend(self._body(stmt.otherwise, indent))
        return lines

    def _for_stmt(self, stmt: ast.ForStmt, indent: int) -> list[str]:
        pad = "    " * indent
        self._push_scope()
        init = ""
        if stmt.init is not None:
            if isinstance(stmt.init, ast.VarDecl):
                init = self._var_decl(stmt.init).rstrip(";")
            elif isinstance(stmt.init, ast.Assign):
                assert stmt.init.target is not None
                assert stmt.init.value is not None
                init = (f"{self.expr(stmt.init.target)} {stmt.init.op} "
                        f"{self.expr(stmt.init.value)}")
            else:
                raise LoweringError("unsupported for-init", stmt.loc,
                                    self.source)
        cond = self.expr(stmt.cond) if stmt.cond is not None else ""
        step = ""
        if stmt.step is not None:
            if isinstance(stmt.step, ast.Assign):
                assert stmt.step.target is not None
                assert stmt.step.value is not None
                step = (f"{self.expr(stmt.step.target)} {stmt.step.op} "
                        f"{self.expr(stmt.step.value)}")
            elif isinstance(stmt.step, ast.ExprStmt):
                assert stmt.step.expr is not None
                step = self.expr(stmt.step.expr)
            else:
                raise LoweringError("unsupported for-step", stmt.loc,
                                    self.source)
        assert stmt.body is not None
        lines = [pad + f"for ({init}; {cond}; {step})"]
        lines.extend(self._body(stmt.body, indent))
        self._pop_scope()
        return lines

    # -- expressions ----------------------------------------------------------------

    def expr(self, expr: ast.Expr) -> str:
        if isinstance(expr, ast.IntLit):
            return c_int_literal(expr.value)
        if isinstance(expr, ast.FloatLit):
            return c_float_literal(expr.value)
        if isinstance(expr, ast.BoolLit):
            return "1" if expr.value else "0"
        if isinstance(expr, ast.Ident):
            return self._ident(expr.name, expr.loc)
        if isinstance(expr, ast.UnaryOp):
            assert expr.operand is not None
            return f"({expr.op}{self.expr(expr.operand)})"
        if isinstance(expr, ast.BinaryOp):
            assert expr.left is not None and expr.right is not None
            if expr.op in ("/", "%") and (expr.ty or FLOAT) == INT:
                fn = "repro_div_i32" if expr.op == "/" else "repro_mod_i32"
                return (f"{fn}({self.expr(expr.left)}, "
                        f"{self.expr(expr.right)})")
            left, right = self.expr(expr.left), self.expr(expr.right)
            if expr.op == "-" and expr.ty == FLOAT \
                    and _is_positive_zero(self._constant(expr.left)) \
                    and self._constant(expr.right) is None:
                self.zero_subs = True
                return f"repro_zero_sub_f64({right})"
            checked = self._shift(expr.op, left, right, expr.right)
            if checked is not None:
                return checked
            return f"({left} {expr.op} {right})"
        if isinstance(expr, ast.TernaryOp):
            assert expr.cond and expr.then and expr.otherwise
            return (f"({self.expr(expr.cond)} ? {self.expr(expr.then)} : "
                    f"{self.expr(expr.otherwise)})")
        if isinstance(expr, ast.Cast):
            assert expr.target is not None and expr.operand is not None
            assert isinstance(expr.target, ScalarType)
            value = self._constant(expr.operand)
            if expr.target == INT and value.__class__ is float:
                # C leaves converting a float past the i32 range
                # undefined, and gcc folds a constant one by saturating:
                # fold it here as every other route converts.
                return c_int_literal(coerce_runtime(value, INT))
            return f"(({c_type(expr.target)}){self.expr(expr.operand)})"
        if isinstance(expr, ast.Call):
            return self._call(expr)
        if isinstance(expr, ast.Index):
            assert expr.base is not None and expr.index is not None
            return f"{self.expr(expr.base)}[{self.expr(expr.index)}]"
        if isinstance(expr, ast.PeekExpr):
            assert expr.offset is not None and self.peek_fn is not None
            return f"{self.peek_fn}({self.expr(expr.offset)})"
        if isinstance(expr, ast.PopExpr):
            assert self.pop_fn is not None
            return f"{self.pop_fn}()"
        raise LoweringError(f"cannot translate {type(expr).__name__} to C",
                            expr.loc, self.source)

    def _shift(self, op: str, left: str, right: str,
               count: ast.Expr) -> str | None:
        """The checked call for a shift whose count is not a constant
        in [0, 31] (see ``c_shift``)."""
        checked = c_shift(op, left, right, self._constant(count))
        self.checked_shifts = self.checked_shifts or checked is not None
        return checked

    def _constant(self, expr: ast.Expr) -> object:
        """The value of a literal, of a parameter (printed as a literal)
        or of either negated; ``None`` for any other expression."""
        if isinstance(expr, (ast.IntLit, ast.FloatLit)):
            return expr.value
        if isinstance(expr, ast.Ident) and not self._is_local(expr.name) \
                and expr.name not in self.fields:
            return self.node.env.get(expr.name)
        if isinstance(expr, ast.UnaryOp) and expr.op == "-":
            assert expr.operand is not None
            value = self._constant(expr.operand)
            return None if value is None else runtime_unary("-", value)
        return None

    def _call(self, expr: ast.Call) -> str:
        args = ", ".join(self.expr(a) for a in expr.args)
        if expr.name in self.helpers:
            return f"{self.prefix}_{expr.name}({args})"
        if expr.name in ("abs", "min", "max"):
            arg_ty = expr.args[0].ty or FLOAT
            suffix = "i32" if arg_ty == INT \
                and all((a.ty or FLOAT) == INT for a in expr.args) \
                else "f64"
            if suffix == "f64":
                args = ", ".join(f"(f64)({self.expr(a)})"
                                 for a in expr.args)
            if expr.name == "abs" and suffix == "f64":
                return f"fabs({args})"
            return f"repro_{expr.name}_{suffix}({args})"
        c_name = INTRINSIC_C_NAMES.get(expr.name)
        if c_name is None:
            raise LoweringError(f"no C intrinsic for {expr.name!r}",
                                expr.loc, self.source)
        if expr.name not in ("randf", "randi"):
            args = ", ".join(f"(f64)({self.expr(a)})" for a in expr.args)
        return f"{c_name}({args})"


def _is_positive_zero(value: object) -> bool:
    return value.__class__ in (int, float) and value == 0 \
        and math.copysign(1.0, value) > 0  # type: ignore[arg-type]


def _value_literal(value: object) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return c_int_literal(value)
    if isinstance(value, float):
        return c_float_literal(value)
    raise TypeError(f"unsupported parameter literal {value!r}")


def helper_function(printer: CAstPrinter, helper: ast.HelperFunc) -> str:
    """Emit one helper as a static C function."""
    assert helper.body is not None
    return_ty = "void"
    if helper.return_type is not None \
            and isinstance(helper.return_type, ScalarType) \
            and helper.return_type.name != "void":
        return_ty = c_type(helper.return_type)
    params = []
    printer._push_scope()
    for param in helper.params:
        assert isinstance(param.ty, ScalarType)
        printer._define_local(param.name)
        params.append(f"{c_type(param.ty)} l_{param.name}")
    signature = (f"static {return_ty} {printer.prefix}_{helper.name}"
                 f"({', '.join(params) or 'void'})")
    lines = [signature] + printer.block(helper.body, 0)
    printer._pop_scope()
    return "\n".join(lines)
