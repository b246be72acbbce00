"""Focused tests for the symbolic executor: constant folding during
unrolling, control-flow resolution, helpers, arrays, and limits."""

import pytest

from repro import compile_source
from repro.frontend.errors import LoweringError
from repro.lir import (BinOp, CallOp, LoweringOptions, PrintOp, SelectOp,
                       lower)
from repro.lir import symexec
from repro.lir.ops import CastOp, LoadOp, StoreOp

PREAMBLE = """
void->float filter Src() { work push 1 { push(randf()); } }
float->void filter Snk() { work pop 1 { println(pop()); } }
void->int filter ISrc() { work push 1 { push(randi(100)); } }
int->void filter ISnk() { work pop 1 { println(pop()); } }
"""


def steady_of(body, lowering=None):
    stream = compile_source(PREAMBLE + body)
    return lower(stream.schedule, stream.source, lowering).steady


def op_kinds(ops):
    return [type(op).__name__ for op in ops]


class TestEagerFolding:
    def test_const_arith_produces_no_ops(self):
        steady = steady_of(
            "float->float filter F() { work push 1 pop 1 { "
            "float k = 2 * 3 + 4; push(pop() + k); } }"
            "void->void pipeline P { add Src(); add F(); add Snk(); }")
        binops = [op for op in steady if isinstance(op, BinOp)]
        assert len(binops) == 1  # only the dynamic add

    def test_const_intrinsics_fold(self):
        steady = steady_of(
            "float->float filter F() { work push 1 pop 1 { "
            "push(pop() * sqrt(16.0)); } }"
            "void->void pipeline P { add Src(); add F(); add Snk(); }")
        assert not any(isinstance(op, CallOp) and op.name == "sqrt"
                       for op in steady)

    def test_parameter_substitution(self):
        steady = steady_of(
            "float->float filter F(float k) { work push 1 pop 1 { "
            "push(pop() * (k + 1)); } }"
            "void->void pipeline P { add Src(); add F(2.0); add Snk(); }")
        muls = [op for op in steady
                if isinstance(op, BinOp) and op.op == "*"]
        assert len(muls) == 1
        assert getattr(muls[0].rhs, "value", None) == 3.0

    def test_static_branch_taken(self):
        steady = steady_of(
            "float->float filter F(int mode) { work push 1 pop 1 { "
            "if (mode == 1) push(pop() * 10); else push(pop() * 20); } }"
            "void->void pipeline P { add Src(); add F(1); add Snk(); }")
        muls = [op for op in steady
                if isinstance(op, BinOp) and op.op == "*"]
        assert getattr(muls[0].rhs, "value", None) == 10.0


class TestLoops:
    def test_nested_loops_unroll(self):
        steady = steady_of(
            "float->float filter F() { work push 1 pop 1 { float s = 0; "
            "for (int i = 0; i < 3; i++) "
            "for (int j = 0; j < 2; j++) s += peek(0) * (i + j + 1); "
            "push(s); pop(); } }"
            "void->void pipeline P { add Src(); add F(); add Snk(); }")
        muls = [op for op in steady
                if isinstance(op, BinOp) and op.op == "*"]
        assert len(muls) == 6

    def test_break_stops_unrolling(self):
        steady = steady_of(
            "float->float filter F() { work push 1 pop 1 { float s = 0; "
            "for (int i = 0; i < 100; i++) { if (i == 2) break; "
            "s += peek(0); } push(s); pop(); } }"
            "void->void pipeline P { add Src(); add F(); add Snk(); }")
        adds = [op for op in steady
                if isinstance(op, BinOp) and op.op == "+"]
        assert len(adds) == 2

    def test_continue_skips(self):
        stream = compile_source(
            PREAMBLE +
            "float->float filter F() { work push 1 pop 1 { float s = 0; "
            "for (int i = 0; i < 4; i++) { if (i % 2 == 0) continue; "
            "s += peek(0) * i; } push(s); pop(); } }"
            "void->void pipeline P { add Src(); add F(); add Snk(); }")
        fifo = stream.run_fifo(3)
        laminar = stream.run_laminar(3)
        assert fifo.outputs == laminar.outputs

    def test_runaway_loop_detected(self, monkeypatch):
        from repro.faults.limits import ResourceExhausted
        monkeypatch.setattr(symexec, "UNROLL_LIMIT", 1000)
        with pytest.raises(ResourceExhausted) as info:
            steady_of(
                "float->float filter F() { work push 1 pop 1 { "
                "int i = 0; while (i >= 0) { i = i + 1; } "
                "push(pop()); } }"
                "void->void pipeline P { add Src(); add F(); add Snk(); }")
        error = info.value
        assert error.resource == "unroll_limit"
        assert error.limit == 1000
        assert "filter 'F'" in error.where
        # Still a CompileError subclass, so existing except clauses and
        # the CLI's exit-code mapping keep working.
        from repro.frontend.errors import CompileError
        assert isinstance(error, CompileError)

    def test_unroll_limit_counts_one_body(self, monkeypatch):
        # F's body unrolls ~600 statements and fires 10x per iteration:
        # the limit bounds one execution of the body, not their sum.
        from repro.faults.limits import ResourceExhausted
        body = (
            "float->float filter F() { work push 1 pop 1 { float s = 0; "
            "for (int i = 0; i < 200; i++) s += i; push(pop() + s); } }"
            "float->void filter Snk10() { work pop 10 { "
            "for (int i = 0; i < 10; i++) println(pop()); } }"
            "void->void pipeline P { add Src(); add F(); add Snk10(); }")
        monkeypatch.setattr(symexec, "UNROLL_LIMIT", 1000)
        steady = steady_of(body)
        assert sum(isinstance(op, PrintOp) for op in steady) == 10
        monkeypatch.setattr(symexec, "UNROLL_LIMIT", 300)
        with pytest.raises(ResourceExhausted):
            steady_of(body)


class TestIfConversion:
    def test_select_emitted(self):
        steady = steady_of(
            "int->int filter F() { work push 1 pop 1 { int v = pop(); "
            "int r = 0; if (v > 50) r = 1; push(r); } }"
            "void->void pipeline P { add ISrc(); add F(); add ISnk(); }")
        assert any(isinstance(op, SelectOp) for op in steady)

    def test_nested_dynamic_ifs(self):
        stream = compile_source(
            PREAMBLE +
            "int->int filter F() { work push 1 pop 1 { int v = pop(); "
            "int r = 0; if (v > 50) { if (v > 75) r = 2; else r = 1; } "
            "push(r); } }"
            "void->void pipeline P { add ISrc(); add F(); add ISnk(); }")
        assert stream.run_fifo(8).outputs == stream.run_laminar(8).outputs

    def test_mixed_static_dynamic(self):
        stream = compile_source(
            PREAMBLE +
            "int->int filter F(int mode) { work push 1 pop 1 { "
            "int v = pop(); int r = 0; "
            "if (mode == 1) { if (v > 50) r = v; } else r = 7; "
            "push(r); } }"
            "void->void pipeline P { add ISrc(); add F(1); add ISnk(); }")
        assert stream.run_fifo(6).outputs == stream.run_laminar(6).outputs

    def test_conditional_field_store_if_converts(self):
        # scalar field writes under dynamic conditions are legal: the
        # cached field merges through a select like a local
        source = (
            "int->int filter Peak() { int s; work push 1 pop 1 { "
            "int v = pop(); if (v > s) s = v; push(s); } }"
            "void->void pipeline P { add ISrc(); add Peak(); "
            "add ISnk(); }")
        stream = compile_source(PREAMBLE + source)
        fifo = stream.run_fifo(10)
        laminar = stream.run_laminar(10)
        assert fifo.outputs == laminar.outputs
        # the peak tracker really tracks: outputs are non-decreasing
        assert fifo.outputs == sorted(fifo.outputs)

    def test_conditional_store_in_both_branches(self):
        source = (
            "float->float filter AGC() { float gain; "
            "init { gain = 1; } work push 1 pop 1 { "
            "float v = pop() * gain; "
            "if (v > 0.8) gain = gain * 0.9; "
            "else gain = gain * 1.01; push(v); } }"
            "void->void pipeline P { add Src(); add AGC(); add Snk(); }")
        stream = compile_source(PREAMBLE + source)
        assert stream.run_fifo(12).outputs == \
            stream.run_laminar(12).outputs

    def test_conditional_store_one_flush_per_firing(self):
        steady = steady_of(
            "int->int filter Peak() { int s; work push 1 pop 1 { "
            "int v = pop(); if (v > s) s = v; push(s); } }"
            "void->void pipeline P { add ISrc(); add Peak(); "
            "add ISnk(); }",
            LoweringOptions())
        from repro.lir.ops import StoreOp
        stores = [op for op in steady if isinstance(op, StoreOp)]
        assert len(stores) <= 1  # one flush, not one per branch

    def test_conditional_array_field_store_still_rejected(self):
        # array fields stay in memory; conditional element stores would
        # need predicated memory writes, which SDF lowering rejects
        with pytest.raises(LoweringError, match="field store under"):
            steady_of(
                "int->int filter F() { int[4] s; work push 1 pop 1 { "
                "int v = pop(); if (v > 50) s[0] = v; push(s[0]); } }"
                "void->void pipeline P { add ISrc(); add F(); "
                "add ISnk(); }")

    def test_rng_under_dynamic_cond_rejected(self):
        with pytest.raises(LoweringError, match="randi under"):
            steady_of(
                "int->int filter F() { work push 1 pop 1 { "
                "int v = pop(); int r = 0; if (v > 50) r = randi(3); "
                "push(r); } }"
                "void->void pipeline P { add ISrc(); add F(); "
                "add ISnk(); }")

    def test_print_under_dynamic_cond_rejected(self):
        with pytest.raises(LoweringError, match="print under"):
            steady_of(
                "int->void filter F() { work pop 1 { int v = pop(); "
                "if (v > 50) println(v); } }"
                "void->void pipeline P { add ISrc(); add F(); }")


class TestHelpers:
    def test_nested_helper_calls(self):
        stream = compile_source(
            PREAMBLE +
            "float->float filter F() { "
            "float sq(float x) { return x * x; } "
            "float quad(float x) { return sq(sq(x)); } "
            "work push 1 pop 1 { push(quad(pop())); } }"
            "void->void pipeline P { add Src(); add F(); add Snk(); }")
        assert stream.run_fifo(4).outputs == stream.run_laminar(4).outputs

    def test_recursion_rejected(self):
        with pytest.raises(LoweringError, match="call depth"):
            steady_of(
                "float->float filter F() { "
                "float f(float x) { return f(x) + 1; } "
                "work push 1 pop 1 { push(f(pop())); } }"
                "void->void pipeline P { add Src(); add F(); add Snk(); }")

    def test_helper_with_early_returns(self):
        stream = compile_source(
            PREAMBLE +
            "float->float filter F() { "
            "float clamp(float x) { "
            "  if (x > 0.75) return 0.75; "
            "  if (x < 0.25) return 0.25; "
            "  return x; } "
            "work push 1 pop 1 { push(clamp(pop())); } }"
            "void->void pipeline P { add Src(); add F(); add Snk(); }")
        fifo = stream.run_fifo(10)
        assert fifo.outputs == stream.run_laminar(10).outputs
        assert all(0.25 <= v <= 0.75 for v in fifo.outputs)

    def test_helper_missing_return_detected(self):
        # A non-void helper that can fall off the end: caught when the
        # falling-off path actually executes at lowering time.
        with pytest.raises(LoweringError, match="fell off the end"):
            steady_of(
                "float->float filter F() { "
                "float bad(float x) { int i = 0; i = i + 1; } "
                "work push 1 pop 1 { push(bad(pop())); } }"
                "void->void pipeline P { add Src(); add F(); add Snk(); }")


class TestArrays:
    def test_local_array_scalarized(self):
        steady = steady_of(
            "float->float filter F() { work push 1 pop 1 { "
            "float[4] t; t[0] = pop(); t[1] = t[0] * 2; "
            "t[2] = t[1] * 2; t[3] = t[2] * 2; push(t[3]); } }"
            "void->void pipeline P { add Src(); add F(); add Snk(); }")
        assert not any(isinstance(op, (LoadOp, StoreOp)) for op in steady)

    def test_local_array_const_out_of_bounds(self):
        with pytest.raises(LoweringError, match="out of bounds"):
            steady_of(
                "float->float filter F() { work push 1 pop 1 { "
                "float[2] t; t[5] = pop(); push(t[0]); } }"
                "void->void pipeline P { add Src(); add F(); add Snk(); }")

    def test_dynamic_local_index_rejected(self):
        with pytest.raises(LoweringError, match="dynamic index into a "
                                                "local array"):
            steady_of(
                "int->int filter F() { work push 1 pop 1 { "
                "int[4] t; t[0] = 1; push(t[pop() & 3]); } }"
                "void->void pipeline P { add ISrc(); add F(); "
                "add ISnk(); }")

    def test_dynamic_field_index_allowed(self):
        stream = compile_source(
            PREAMBLE +
            "int->int filter F() { int[4] t; "
            "init { for (int i = 0; i < 4; i++) t[i] = i * 10; } "
            "work push 1 pop 1 { push(t[pop() & 3]); } }"
            "void->void pipeline P { add ISrc(); add F(); add ISnk(); }")
        assert stream.run_fifo(8).outputs == stream.run_laminar(8).outputs

    def test_multidim_local_array(self):
        stream = compile_source(
            PREAMBLE +
            "float->float filter F() { work push 1 pop 1 { "
            "float[2][2] m; m[0][0] = pop(); m[1][1] = m[0][0] * 3; "
            "push(m[1][1]); } }"
            "void->void pipeline P { add Src(); add F(); add Snk(); }")
        assert stream.run_fifo(4).outputs == stream.run_laminar(4).outputs

    def test_casts_emitted_for_mixed_types(self):
        steady = steady_of(
            "int->int filter F() { work push 1 pop 1 { "
            "float f = pop() * 0.5; push((int)f); } }"
            "void->void pipeline P { add ISrc(); add F(); add ISnk(); }")
        assert any(isinstance(op, CastOp) for op in steady)


class TestPredicatedReturns:
    def test_both_branches_return(self):
        stream = compile_source(
            PREAMBLE +
            "float->float filter F() { "
            "float pick(float x) { "
            "  if (x > 0.5) return x * 2; else return x * 3; } "
            "work push 1 pop 1 { push(pick(pop())); } }"
            "void->void pipeline P { add Src(); add F(); add Snk(); }")
        assert stream.run_fifo(10).outputs == stream.run_laminar(10).outputs

    def test_chain_of_early_returns(self):
        stream = compile_source(
            PREAMBLE +
            "float->float filter F() { "
            "float bucket(float x) { "
            "  if (x < 0.25) return 1; "
            "  if (x < 0.5) return 2; "
            "  if (x < 0.75) return 3; "
            "  return 4; } "
            "work push 1 pop 1 { push(bucket(pop())); } }"
            "void->void pipeline P { add Src(); add F(); add Snk(); }")
        fifo = stream.run_fifo(12)
        assert fifo.outputs == stream.run_laminar(12).outputs
        assert set(fifo.outputs) <= {1.0, 2.0, 3.0, 4.0}

    def test_computation_after_dynamic_return(self):
        stream = compile_source(
            PREAMBLE +
            "float->float filter F() { "
            "float f(float x) { "
            "  if (x > 0.5) return 0.0; "
            "  float y = x * 10; "
            "  return y + 1; } "
            "work push 1 pop 1 { push(f(pop())); } }"
            "void->void pipeline P { add Src(); add F(); add Snk(); }")
        assert stream.run_fifo(10).outputs == stream.run_laminar(10).outputs

    def test_dynamic_break_rejected(self):
        with pytest.raises(LoweringError, match="break under"):
            steady_of(
                "int->int filter F() { work push 1 pop 1 { int v = pop();"
                " int s = 0; for (int i = 0; i < 4; i++) { "
                "if (v > 50) break; s = s + i; } push(s); } }"
                "void->void pipeline P { add ISrc(); add F(); "
                "add ISnk(); }")

    def test_dynamic_continue_rejected(self):
        with pytest.raises(LoweringError, match="continue under"):
            steady_of(
                "int->int filter F() { work push 1 pop 1 { int v = pop();"
                " int s = 0; for (int i = 0; i < 4; i++) { "
                "if (v > 50) continue; s = s + i; } push(s); } }"
                "void->void pipeline P { add ISrc(); add F(); "
                "add ISnk(); }")

    def test_push_after_dynamic_return_rejected(self):
        # a void helper that may have returned cannot guard later pushes
        with pytest.raises(LoweringError, match="data-dependent"):
            steady_of(
                "float->float filter F() { "
                "float f(float x) { if (x > 0.5) return 1.0; "
                "return randf(); } "
                "work push 1 pop 1 { push(f(pop())); } }"
                "void->void pipeline P { add Src(); add F(); add Snk(); }")


class TestFieldCaching:
    def test_field_write_after_dynamic_return_predicated(self):
        # the early-exit path must not bump the counter field
        stream = compile_source(
            PREAMBLE +
            "float->float filter F() { float count; "
            "float tally(float x) { "
            "  if (x > 0.5) return 0.0; "
            "  count = count + 1; "
            "  return count; } "
            "work push 1 pop 1 { push(tally(pop())); } }"
            "void->void pipeline P { add Src(); add F(); add Snk(); }")
        fifo = stream.run_fifo(12)
        assert fifo.outputs == stream.run_laminar(12).outputs

    def test_cache_invalidated_across_steady_boundary(self):
        # the accumulator must be re-loaded at the top of the steady body
        # (its value is loop-carried), not reuse the init-section value
        stream = compile_source(
            PREAMBLE +
            "float->float filter Acc() { float s; "
            "work push 1 pop 1 { s = s + pop(); push(s); } }"
            "void->void pipeline P { add Src(); add Acc(); add Snk(); }")
        from repro import OptOptions
        unopt = stream.run_laminar(6, opt=OptOptions(pipeline=()))
        fifo = stream.run_fifo(6)
        assert unopt.outputs == fifo.outputs

    def test_repeated_reads_load_once(self):
        steady = steady_of(
            "float->float filter F() { float g = 2.0; "
            "work push 1 pop 1 { push(pop() * g + g + g); } }"
            "void->void pipeline P { add Src(); add F(); add Snk(); }",
            LoweringOptions())
        loads = [op for op in steady if isinstance(op, LoadOp)]
        assert len(loads) <= 1

    def test_read_then_conditional_write_then_read(self):
        stream = compile_source(
            PREAMBLE +
            "float->float filter F() { float m; "
            "work push 1 pop 1 { float v = pop(); "
            "float before = m; "
            "if (v > before) m = v; "
            "push(m - before); } }"
            "void->void pipeline P { add Src(); add F(); add Snk(); }")
        assert stream.run_fifo(10).outputs == \
            stream.run_laminar(10).outputs
