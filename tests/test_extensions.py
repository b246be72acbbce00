"""Tests for the extension features: do-while loops, steady-state
execution scaling, and constant-carry specialization."""

import pytest

from repro import (LoweringOptions, OptOptions, check_equivalence,
                   compile_source)
from repro.frontend import ast_nodes as ast
from repro.frontend.errors import LoweringError
from repro.frontend.parser import parse
from repro.lir import verify
from repro.opt.carries import specialize_constant_carries

PREAMBLE = """
void->float filter Src() { work push 1 { push(randf()); } }
float->void filter Snk() { work pop 1 { println(pop()); } }
"""


class TestDoWhile:
    def test_parses(self):
        program = parse(
            "int->int filter F { work push 1 pop 1 { int i = 0; "
            "do { i++; } while (i < 3); push(pop() + i); } }")
        body = program.stream("F").work.body
        loop = body.stmts[1]
        assert isinstance(loop, ast.DoWhileStmt)

    def test_executes_at_least_once(self):
        stream = compile_source(
            "void->int filter S() { work push 1 { push(0); } }"
            "int->int filter F() { work push 1 pop 1 { int n = pop(); "
            "int count = 0; do { count++; } while (count < n); "
            "push(count); } }"
            .replace("while (count < n)", "while (false)")
            + "int->void filter P() { work pop 1 { println(pop()); } }"
            "void->void pipeline Top { add S(); add F(); add P(); }")
        assert stream.run_fifo(2).outputs == [1, 1]

    def test_static_do_while_lowers(self):
        stream = compile_source(
            PREAMBLE +
            "float->float filter F() { work push 1 pop 1 { "
            "float v = pop(); int i = 0; "
            "do { v = v * 0.5; i++; } while (i < 3); push(v); } }"
            "void->void pipeline P { add Src(); add F(); add Snk(); }")
        report = check_equivalence(stream, iterations=5)
        assert report.matches

    def test_dynamic_do_while_rejected_by_lowering(self):
        stream = compile_source(
            "void->int filter S() { work push 1 { push(randi(9) + 1); } }"
            "int->int filter F() { work push 1 pop 1 { int n = pop(); "
            "int c = 0; do { c++; n = n - 1; } while (n > 0); "
            "push(c); } }"
            "int->void filter P() { work pop 1 { println(pop()); } }"
            "void->void pipeline Top { add S(); add F(); add P(); }")
        # the baseline interpreter handles it
        assert len(stream.run_fifo(3).outputs) == 3
        # the lowering rejects the data-dependent trip count
        with pytest.raises(LoweringError, match="not compile-time"):
            stream.lower()

    def test_break_inside_do_while(self):
        stream = compile_source(
            PREAMBLE +
            "float->float filter F() { work push 1 pop 1 { "
            "float v = pop(); int i = 0; "
            "do { if (i == 2) break; v = v + 1; i++; } while (true); "
            "push(v); } }"
            "void->void pipeline P { add Src(); add F(); add Snk(); }")
        report = check_equivalence(stream, iterations=4)
        assert report.matches

    def test_emitted_c_contains_do_while(self, tmp_path):
        stream = compile_source(
            PREAMBLE +
            "float->float filter F() { work push 1 pop 1 { "
            "float v = pop(); int i = 0; "
            "do { v = v * 0.5; i++; } while (i < 3); push(v); } }"
            "void->void pipeline P { add Src(); add F(); add Snk(); }")
        code = stream.fifo_c()
        assert "do" in code and "while (" in code


class TestExecutionScaling:
    @pytest.fixture(scope="class")
    def stream(self):
        return compile_source(
            PREAMBLE +
            "float->float filter W() { work push 1 pop 1 peek 4 { "
            "push(peek(0) + peek(3)); pop(); } }"
            "void->void pipeline P { add Src(); add W(); add Snk(); }")

    @pytest.mark.parametrize("multiplier", [1, 2, 3, 4])
    def test_outputs_invariant_under_scaling(self, stream, multiplier):
        base = stream.run_fifo(12)
        scaled = stream.run_laminar(
            12, lowering=LoweringOptions(steady_multiplier=multiplier))
        assert scaled.outputs == base.outputs

    def test_body_contains_k_iterations(self, stream):
        one = stream.lower(LoweringOptions(steady_multiplier=1)).program
        four = stream.lower(LoweringOptions(steady_multiplier=4)).program
        assert four.prints_per_iteration == 4 * one.prints_per_iteration

    def test_carries_unchanged_by_scaling(self, stream):
        one = stream.lower(LoweringOptions(steady_multiplier=1)).program
        four = stream.lower(LoweringOptions(steady_multiplier=4)).program
        assert len(one.carry_params) == len(four.carry_params)

    def test_scaled_program_verifies(self, stream):
        verify(stream.lower(LoweringOptions(steady_multiplier=8)).program)

    def test_iterations_must_divide(self, stream):
        with pytest.raises(ValueError, match="multiple of"):
            stream.run_laminar(
                5, lowering=LoweringOptions(steady_multiplier=2))

    def test_invalid_multiplier_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            LoweringOptions(steady_multiplier=0)


class TestCarrySpecialization:
    def test_invariant_constant_carry_removed(self):
        stream = compile_source(
            PREAMBLE +
            "float->float filter Mix() { work push 1 pop 2 { "
            "push(peek(0) + peek(1)); pop(); pop(); } }"
            "float->float filter ZeroPad() { work push 2 pop 1 { "
            "push(pop()); push(0); } }"
            "void->void pipeline P { add Src(); add ZeroPad(); "
            "add Mix(); add Snk(); }")
        program = stream.lower().program
        # the padded zeros are consumed in-iteration; any constant carry
        # that is invariant must have been specialized away
        for init, nxt in zip(program.carry_inits, program.carry_nexts):
            assert not (init == nxt and not hasattr(init, "id"))

    def test_specialization_preserves_outputs(self):
        stream = compile_source(
            PREAMBLE +
            "float->float filter D() { "
            "prework push 2 { push(0); push(0); } "
            "work push 1 pop 1 { push(pop()); } }"
            "void->void pipeline P { add Src(); add D(); add Snk(); }")
        with_spec = stream.run_laminar(8, opt=OptOptions())
        without = stream.run_laminar(
            8,
            opt=OptOptions(pipeline="cp,promote,reroll,fold,cse,dce,schedule"))
        assert with_spec.outputs == without.outputs

    def test_zero_safe(self):
        # -0.0 vs 0.0 must not be conflated
        from repro.lir import Program, Temp, const_float
        from repro.frontend.types import FLOAT
        program = Program(name="t")
        param = Temp(FLOAT)
        program.carry_params = [param]
        program.carry_inits = [const_float(0.0)]
        program.carry_nexts = [const_float(-0.0)]
        assert specialize_constant_carries(program) == 0

    def test_bool_vs_int_not_conflated(self):
        from repro.lir import Program, Temp, Const
        from repro.frontend.types import INT
        program = Program(name="t")
        param = Temp(INT)
        program.carry_params = [param]
        program.carry_inits = [Const(INT, True)]
        program.carry_nexts = [Const(INT, 1)]
        assert specialize_constant_carries(program) == 0

    def test_param_identity_next(self):
        from repro.lir import Program, Temp, const_int
        from repro.frontend.types import INT
        program = Program(name="t")
        param = Temp(INT)
        program.carry_params = [param]
        program.carry_inits = [const_int(7)]
        program.carry_nexts = [param]  # untouched across iterations
        assert specialize_constant_carries(program) == 1
        assert program.carry_params == []
