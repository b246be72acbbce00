"""Tests for the optimizer passes, both on hand-built IR and end to end."""

import math
import struct

import pytest

from repro import LoweringOptions, compile_source
from repro.frontend.types import FLOAT, INT
from repro.interp import LaminarInterpreter
from repro.lir import (BinOp, CallOp, LoadOp, MoveOp, PrintOp, Program,
                       StateSlot, StoreOp, Temp, const_float, const_int)
from repro.opt import (OptOptions, common_subexpression_elimination,
                       constant_folding, copy_propagation,
                       dead_code_elimination, optimize, promote_state)
from repro.opt.carries import carries
from tests.conftest import requires_cc

PREAMBLE = """
void->float filter Src() { work push 1 { push(randf()); } }
float->void filter Snk() { work pop 1 { println(pop()); } }
"""

# The default pass list without its entry for pressure scheduling, and
# the lowering without loop regions (the unrolled build).
NO_SCHEDULE = OptOptions(pipeline="cp,promote,fold,carry,cse,dce")
UNROLLED = LoweringOptions(regions=False)


def make_program():
    return Program(name="test")


def _changes(stats, *names) -> int:
    """Total changes the named passes made."""
    return sum(stat.changes for stat in stats.pass_stats
               if stat.name in names)


class TestCopyPropagation:
    def test_move_forwarded(self):
        program = make_program()
        a = Temp(FLOAT)
        b = Temp(FLOAT)
        program.steady = [
            CallOp(result=a, name="randf", args=[], pure=False),
            MoveOp(result=b, src=a),
            PrintOp(result=None, value=b),
        ]
        removed = copy_propagation(program)
        assert removed == 1
        assert isinstance(program.steady[-1], PrintOp)
        assert program.steady[-1].value is a

    def test_move_chain(self):
        program = make_program()
        a, b, c = Temp(FLOAT), Temp(FLOAT), Temp(FLOAT)
        program.steady = [
            CallOp(result=a, name="randf", args=[], pure=False),
            MoveOp(result=b, src=a),
            MoveOp(result=c, src=b),
            PrintOp(result=None, value=c),
        ]
        copy_propagation(program)
        assert program.steady[-1].value is a

    def test_carry_lists_rewritten(self):
        program = make_program()
        a, b = Temp(FLOAT), Temp(FLOAT)
        program.init = [
            CallOp(result=a, name="randf", args=[], pure=False),
            MoveOp(result=b, src=a),
        ]
        program.carry_params = [Temp(FLOAT)]
        program.carry_inits = [b]
        program.carry_nexts = [program.carry_params[0]]
        copy_propagation(program)
        assert program.carry_inits == [a]


class TestConstantFolding:
    def test_binop_folds(self):
        program = make_program()
        t = Temp(INT)
        program.steady = [
            BinOp(result=t, op="+", lhs=const_int(2), rhs=const_int(3)),
            PrintOp(result=None, value=t),
        ]
        folded = constant_folding(program)
        assert folded == 1
        assert program.steady[0].value.value == 5

    def test_fold_cascades(self):
        program = make_program()
        a, b = Temp(INT), Temp(INT)
        program.steady = [
            BinOp(result=a, op="*", lhs=const_int(4), rhs=const_int(5)),
            BinOp(result=b, op="-", lhs=a, rhs=const_int(1)),
            PrintOp(result=None, value=b),
        ]
        constant_folding(program)
        assert program.steady[0].value.value == 19

    def test_int_wraparound(self):
        program = make_program()
        t = Temp(INT)
        program.steady = [
            BinOp(result=t, op="*", lhs=const_int(2 ** 30),
                  rhs=const_int(4)),
            PrintOp(result=None, value=t),
        ]
        constant_folding(program)
        assert program.steady[0].value.value == 0

    def test_algebraic_mul_one(self):
        program = make_program()
        a, b = Temp(FLOAT), Temp(FLOAT)
        program.steady = [
            CallOp(result=a, name="randf", args=[], pure=False),
            BinOp(result=b, op="*", lhs=a, rhs=const_float(1.0)),
            PrintOp(result=None, value=b),
        ]
        constant_folding(program)
        assert program.steady[-1].value is a

    def test_float_add_zero_not_folded(self):
        # x + 0.0 is not an identity for IEEE -0.0; must stay.
        program = make_program()
        a, b = Temp(FLOAT), Temp(FLOAT)
        program.steady = [
            CallOp(result=a, name="randf", args=[], pure=False),
            BinOp(result=b, op="+", lhs=a, rhs=const_float(0.0)),
            PrintOp(result=None, value=b),
        ]
        constant_folding(program)
        assert isinstance(program.steady[1], BinOp)

    def test_int_add_zero_folded(self):
        program = make_program()
        a, b = Temp(INT), Temp(INT)
        program.steady = [
            CallOp(result=a, name="randi", args=[const_int(5)],
                   pure=False),
            BinOp(result=b, op="+", lhs=a, rhs=const_int(0)),
            PrintOp(result=None, value=b),
        ]
        constant_folding(program)
        assert program.steady[-1].value is a

    def test_pure_intrinsic_folds(self):
        program = make_program()
        t = Temp(FLOAT)
        program.steady = [
            CallOp(result=t, name="sqrt", args=[const_float(4.0)],
                   pure=True),
            PrintOp(result=None, value=t),
        ]
        constant_folding(program)
        assert program.steady[0].value.value == 2.0

    def test_impure_call_never_folds(self):
        program = make_program()
        t = Temp(FLOAT)
        program.steady = [
            CallOp(result=t, name="randf", args=[], pure=False),
            PrintOp(result=None, value=t),
        ]
        folded = constant_folding(program)
        assert folded == 0
        assert isinstance(program.steady[0], CallOp)


# The float values a signed-zero fold must keep bit-exact.
SIGNED_ZERO_INPUTS = (0.0, -0.0, float("nan"), float("inf"),
                      float("-inf"), 2.5)


def _signed_zero_program():
    """Per input value, a carry param ``p`` (the value, unknown to the
    optimizer) printed through every zero addition, before and after
    making it ``q = 0.0 + p``, which is never ``-0.0``.  Returns the
    program and, per form, whether ``constant_folding`` must fold it."""
    program = make_program()
    zero, neg = const_float(0.0), const_float(-0.0)
    forms = []
    for value in SIGNED_ZERO_INPUTS:
        p, q, r = Temp(FLOAT), Temp(FLOAT), Temp(FLOAT)
        program.carry_params.append(p)
        program.carry_inits.append(const_float(value))
        program.carry_nexts.append(p)
        program.steady += [
            BinOp(result=q, op="+", lhs=zero, rhs=p),
            BinOp(result=r, op="-", lhs=p, rhs=const_float(1.5))]
        for x, known in ((p, False), (q, True), (r, True)):
            for op, lhs, rhs, folds in (
                    ("+", x, neg, True), ("+", neg, x, True),
                    ("-", x, zero, True), ("+", x, zero, known),
                    ("+", zero, x, known), ("-", x, neg, known)):
                result = Temp(FLOAT)
                program.steady += [
                    BinOp(result=result, op=op, lhs=lhs, rhs=rhs),
                    PrintOp(result=None, value=result)]
                forms.append((x, folds))
    program.prints_per_iteration = len(forms)
    return program, forms


def _bits(outputs):
    """Each float output's IEEE-754 bit pattern, NaN signs included."""
    return [struct.pack("<d", value) for value in outputs]


class TestSignedZeroFolds:
    """``x + -0.0``, ``-0.0 + x`` and ``x - 0.0`` are ``x``; ``x + 0.0``,
    ``0.0 + x`` and ``x - -0.0`` are ``x`` only when ``x`` is never
    ``-0.0``, as a sum with a non-``-0.0`` operand or a difference from
    a nonzero constant is."""

    def test_truth_table(self):
        program, forms = _signed_zero_program()
        constant_folding(program)
        printed = [op.value for op in program.steady
                   if isinstance(op, PrintOp)]
        for value, (x, folds) in zip(printed, forms):
            assert (value is x) == folds

    # Outputs compare by bit pattern, so a failure names the output
    # whose sign or bits changed.
    def test_bit_exact_in_the_interpreter(self):
        before, _ = _signed_zero_program()
        after, _ = _signed_zero_program()
        constant_folding(after)
        outputs = [LaminarInterpreter(program).run(2).outputs
                   for program in (before, after)]
        assert _bits(outputs[0]) == _bits(outputs[1])
        # -0.0 survives: the second input's first form is p + -0.0.
        assert math.copysign(1.0, outputs[1][18]) == -1.0

    @requires_cc
    def test_bit_exact_natively(self, tmp_path):
        from repro.backend import compile_and_run
        from repro.backend.laminar_c import generate_laminar_c
        before, _ = _signed_zero_program()
        after, _ = _signed_zero_program()
        constant_folding(after)
        runs = [compile_and_run(generate_laminar_c(program), 2,
                                print_outputs=True, workdir=tmp_path / name)
                for name, program in (("before", before), ("after", after))]
        assert _bits(runs[0].outputs) == _bits(runs[1].outputs)
        assert runs[0].checksum == runs[1].checksum


class TestCSE:
    def test_duplicate_binop_removed(self):
        program = make_program()
        a = Temp(FLOAT)
        x, y = Temp(FLOAT), Temp(FLOAT)
        program.steady = [
            CallOp(result=a, name="randf", args=[], pure=False),
            BinOp(result=x, op="*", lhs=a, rhs=a),
            BinOp(result=y, op="*", lhs=a, rhs=a),
            PrintOp(result=None, value=x),
            PrintOp(result=None, value=y),
        ]
        removed = common_subexpression_elimination(program)
        assert removed == 1
        assert program.steady[-1].value is x

    def test_commutative_matching(self):
        program = make_program()
        a, b = Temp(FLOAT), Temp(FLOAT)
        x, y = Temp(FLOAT), Temp(FLOAT)
        program.steady = [
            CallOp(result=a, name="randf", args=[], pure=False),
            CallOp(result=b, name="randf", args=[], pure=False),
            BinOp(result=x, op="+", lhs=a, rhs=b),
            BinOp(result=y, op="+", lhs=b, rhs=a),
            PrintOp(result=None, value=x),
            PrintOp(result=None, value=y),
        ]
        assert common_subexpression_elimination(program) == 1

    def test_noncommutative_not_swapped(self):
        program = make_program()
        a, b = Temp(FLOAT), Temp(FLOAT)
        x, y = Temp(FLOAT), Temp(FLOAT)
        program.steady = [
            CallOp(result=a, name="randf", args=[], pure=False),
            CallOp(result=b, name="randf", args=[], pure=False),
            BinOp(result=x, op="-", lhs=a, rhs=b),
            BinOp(result=y, op="-", lhs=b, rhs=a),
            PrintOp(result=None, value=x),
            PrintOp(result=None, value=y),
        ]
        assert common_subexpression_elimination(program) == 0

    def test_load_cse_respects_stores(self):
        slot = StateSlot("s", FLOAT)
        program = make_program()
        program.state_slots = [slot]
        l1, l2, l3 = Temp(FLOAT), Temp(FLOAT), Temp(FLOAT)
        program.steady = [
            LoadOp(result=l1, slot=slot),
            LoadOp(result=l2, slot=slot),      # dedupes with l1
            StoreOp(result=None, slot=slot, value=const_float(1.0)),
            LoadOp(result=l3, slot=slot),      # must NOT dedupe
            PrintOp(result=None, value=l1),
            PrintOp(result=None, value=l2),
            PrintOp(result=None, value=l3),
        ]
        removed = common_subexpression_elimination(program)
        assert removed == 1
        loads = [op for op in program.steady if isinstance(op, LoadOp)]
        assert len(loads) == 2

    def test_impure_calls_not_deduped(self):
        program = make_program()
        a, b = Temp(FLOAT), Temp(FLOAT)
        program.steady = [
            CallOp(result=a, name="randf", args=[], pure=False),
            CallOp(result=b, name="randf", args=[], pure=False),
            PrintOp(result=None, value=a),
            PrintOp(result=None, value=b),
        ]
        assert common_subexpression_elimination(program) == 0


class TestDCE:
    def test_unused_pure_op_removed(self):
        program = make_program()
        dead = Temp(FLOAT)
        program.steady = [
            BinOp(result=dead, op="+", lhs=const_float(1.0),
                  rhs=const_float(2.0)),
        ]
        assert dead_code_elimination(program) == 1
        assert program.steady == []

    def test_print_is_root(self):
        program = make_program()
        t = Temp(FLOAT)
        program.steady = [
            BinOp(result=t, op="+", lhs=const_float(1.0),
                  rhs=const_float(2.0)),
            PrintOp(result=None, value=t),
        ]
        assert dead_code_elimination(program) == 0

    def test_carry_values_are_roots(self):
        program = make_program()
        t = Temp(FLOAT)
        program.init = [
            BinOp(result=t, op="+", lhs=const_float(1.0),
                  rhs=const_float(2.0)),
        ]
        program.carry_params = [Temp(FLOAT)]
        program.carry_inits = [t]
        program.carry_nexts = [program.carry_params[0]]
        assert dead_code_elimination(program) == 0

    def test_store_to_unread_slot_removed(self):
        slot = StateSlot("dead_slot", FLOAT)
        program = make_program()
        program.state_slots = [slot]
        program.steady = [
            StoreOp(result=None, slot=slot, value=const_float(1.0)),
        ]
        assert dead_code_elimination(program) == 1
        assert program.state_slots == []

    def test_transitive_liveness_across_sections(self):
        program = make_program()
        a = Temp(FLOAT)
        program.setup = [
            BinOp(result=a, op="*", lhs=const_float(2.0),
                  rhs=const_float(3.0)),
        ]
        program.steady = [PrintOp(result=None, value=a)]
        assert dead_code_elimination(program) == 0
        assert len(program.setup) == 1


class TestPromotion:
    def test_scalar_state_promoted(self):
        stream = compile_source(
            PREAMBLE +
            "float->float filter Acc() { float s; "
            "work push 1 pop 1 { s = s + pop(); push(s); } }"
            "void->void pipeline P { add Src(); add Acc(); add Snk(); }")
        lowered = stream.lower()
        assert _changes(lowered.opt_stats, "promote_state") >= 1
        assert lowered.program.state_slots == []

    def test_readonly_table_folds_to_constants(self):
        stream = compile_source(
            PREAMBLE +
            "float->float filter T() { float[4] t; "
            "init { for (int i = 0; i < 4; i++) t[i] = i + 1.0; } "
            "work push 1 pop 1 { push(pop() * t[2]); } }"
            "void->void pipeline P { add Src(); add T(); add Snk(); }")
        program = stream.lower().program
        loads = [op for op in program.steady
                 if isinstance(op, LoadOp)]
        assert loads == []
        muls = [op for op in program.steady
                if isinstance(op, BinOp) and op.op == "*"]
        assert any(getattr(op.rhs, "value", None) == 3.0 for op in muls)

    def test_dynamic_index_blocks_promotion(self):
        stream = compile_source(
            PREAMBLE.replace("randf()", "randf()") +
            "void->int filter ISrc() { work push 1 { push(randi(4)); } }"
            "int->float filter T() { float[4] t; "
            "init { for (int i = 0; i < 4; i++) t[i] = i * 1.5; } "
            "work push 1 pop 1 { push(t[pop()]); } }"
            "void->void pipeline P { add ISrc(); add T(); add Snk(); }")
        program = stream.lower().program
        assert len(program.state_slots) == 1

    def test_promotion_preserves_semantics(self):
        source = (
            PREAMBLE +
            "float->float filter Acc() { float s; float[3] h; "
            "init { s = 1; for (int i = 0; i < 3; i++) h[i] = 0; } "
            "work push 1 pop 1 { h[2] = h[1]; h[1] = h[0]; h[0] = pop(); "
            "s = s * 0.9 + h[2]; push(s); } }"
            "void->void pipeline P { add Src(); add Acc(); add Snk(); }")
        stream = compile_source(source)
        with_promo = stream.run_laminar(12, opt=OptOptions())
        without = stream.run_laminar(
            12,
            opt=OptOptions(pipeline="cp,fold,carry,cse,dce,schedule"))
        assert with_promo.outputs == without.outputs

    def test_promotion_moves_memory_to_zero(self):
        stream = compile_source(
            PREAMBLE +
            "float->float filter Acc() { float s; "
            "work push 1 pop 1 { s = s + pop(); push(s); } }"
            "void->void pipeline P { add Src(); add Acc(); add Snk(); }")
        result = stream.run_laminar(5)
        assert result.steady_counters.memory_accesses == 0


class TestPipelineIntegration:
    def test_optimize_reports_sizes(self, demo_stream):
        stats = demo_stream.lower().opt_stats
        assert stats.ops_before["steady"] >= stats.ops_after["steady"]
        assert 0.0 <= stats.steady_reduction <= 1.0

    def test_optimize_none_is_identity(self, demo_stream):
        baseline = demo_stream.run_laminar(6, opt=OptOptions(pipeline=()))
        optimized = demo_stream.run_laminar(6, opt=OptOptions())
        assert baseline.outputs == optimized.outputs
        assert optimized.steady_counters.total_ops <= \
            baseline.steady_counters.total_ops

    def test_fixpoint_idempotent(self, demo_stream):
        lowered = demo_stream.lower()
        size_once = len(lowered.program.steady)
        second = optimize(lowered.program)
        assert len(lowered.program.steady) == size_once
        assert _changes(second, "constant_folding") == 0
        assert _changes(second, "dead_code_elimination") == 0

    def test_fixpoint_converges(self, demo_stream):
        stats = demo_stream.lower().opt_stats
        assert stats.converged
        assert 1 <= stats.fixpoint_rounds <= 64

    def test_fixpoint_converges_on_suite_benchmarks(self):
        from repro.suite import load_benchmark
        for name in ("lattice", "autocor"):
            stats = load_benchmark(name).lower().opt_stats
            assert stats.converged, name
            assert stats.fixpoint_rounds >= 1

    def test_disabled_pipeline_converges_in_one_round(self):
        stream = compile_source(
            PREAMBLE + "void->void pipeline P { add Src(); add Snk(); }")
        stats = stream.lower(opt=OptOptions(pipeline=())).opt_stats
        assert stats.converged
        assert stats.fixpoint_rounds == 1

    def test_nonconvergence_warns_and_flags(self, demo_stream,
                                            monkeypatch):
        import repro.opt.pipeline as pipeline_mod
        # Cap the loop at one round so a program that still has work to
        # do after round 1 exercises the give-up path.
        monkeypatch.setattr(pipeline_mod, "_FIXPOINT_ROUNDS", 1)
        from repro.lir import lower
        # Loop regions collapse the cross-instance redundancy that keeps
        # CSE busy past round 1, so leave them out to reach the give-up
        # path.
        program = lower(demo_stream.schedule, demo_stream.source, UNROLLED)
        with pytest.warns(RuntimeWarning, match="did not reach a fixpoint"):
            stats = optimize(program)
        assert not stats.converged
        assert stats.fixpoint_rounds == 1


class TestPressureScheduling:
    def test_outputs_preserved(self, demo_stream):
        with_sched = demo_stream.run_laminar(6, opt=OptOptions())
        without = demo_stream.run_laminar(
            6, opt=NO_SCHEDULE)
        assert with_sched.outputs == without.outputs

    def test_never_increases_peak_liveness(self):
        from repro.machine import peak_live_values
        from repro.suite import load_benchmark
        for name in ("autocor", "matrixmult", "dct"):
            stream = load_benchmark(name)
            before = stream.lower(
                opt=NO_SCHEDULE).program
            after = stream.lower(opt=OptOptions()).program
            live_out_b = [v for v in before.carry_nexts
                          if hasattr(v, "id")]
            live_out_a = [v for v in after.carry_nexts
                          if hasattr(v, "id")]
            peak_before = peak_live_values(before.steady,
                                           before.carry_params, live_out_b)
            peak_after = peak_live_values(after.steady,
                                          after.carry_params, live_out_a)
            assert peak_after <= peak_before, name

    def test_effect_order_preserved(self, demo_stream):
        from repro.lir import PrintOp, StoreOp, CallOp
        before = demo_stream.lower(
            opt=NO_SCHEDULE).program
        after = demo_stream.lower(opt=OptOptions()).program

        def effects(program):
            out = []
            for op in program.steady:
                if isinstance(op, (PrintOp, StoreOp)) or \
                        (isinstance(op, CallOp) and not op.pure):
                    out.append(type(op).__name__)
            return out

        assert effects(before) == effects(after)

    def test_verifier_accepts_scheduled(self, demo_stream):
        from repro.lir import verify
        verify(demo_stream.lower(opt=OptOptions()).program)


class TestDeadCarryElimination:
    def test_unused_history_removed(self):
        stream = compile_source(
            PREAMBLE +
            "float->float filter Drop() { work push 1 pop 3 peek 5 { "
            "push(peek(4)); pop(); pop(); pop(); } }"
            "void->void pipeline P { add Src(); add Drop(); add Snk(); }")
        program = stream.lower().program
        assert program.carry_params == []

    def test_live_chain_kept(self):
        # peek(0) reads the oldest carried token: the whole rotation chain
        # is live and nothing may be removed
        stream = compile_source(
            PREAMBLE +
            "float->float filter Old() { work push 1 pop 1 peek 4 { "
            "push(peek(0) + peek(3)); pop(); } }"
            "void->void pipeline P { add Src(); add Old(); add Snk(); }")
        program = stream.lower().program
        assert len(program.carry_params) == 3

    def test_fresh_only_window_fully_eliminated(self):
        # peek(2) with window 3 always reads the token pushed *this*
        # iteration, so every carried position is dead
        stream = compile_source(
            PREAMBLE +
            "float->float filter Mid() { work push 1 pop 1 peek 3 { "
            "push(peek(2)); pop(); } }"
            "void->void pipeline P { add Src(); add Mid(); add Snk(); }")
        program = stream.lower().program
        assert program.carry_params == []
        assert stream.run_laminar(6).outputs == stream.run_fifo(6).outputs

    def test_partially_dead_window(self):
        # peek(1) reads one carried position; the other is dead
        stream = compile_source(
            PREAMBLE +
            "float->float filter Mid() { work push 1 pop 1 peek 3 { "
            "push(peek(1)); pop(); } }"
            "void->void pipeline P { add Src(); add Mid(); add Snk(); }")
        program = stream.lower().program
        assert len(program.carry_params) == 1
        assert stream.run_laminar(6).outputs == stream.run_fifo(6).outputs

    def test_carry_read_only_by_a_dead_carry_dropped_in_one_call(self):
        # b's next is a's parameter and nothing else reads a; no op
        # reads b, so both go, and c, which a print reads, stays.
        program = make_program()
        a, b, c, fresh = (Temp(FLOAT) for _ in range(4))
        program.steady = [PrintOp(result=None, value=c),
                          BinOp(result=fresh, op="+", lhs=c,
                                rhs=const_float(1.0))]
        program.carry_params = [a, b, c]
        program.carry_inits = [const_float(v) for v in (1.0, 2.0, 3.0)]
        program.carry_nexts = [fresh, a, fresh]
        assert carries(program) == 2
        assert program.carry_params == [c]
        assert program.carry_nexts == [fresh]


class TestCarryChains:
    """The carries pass resolves a whole chain of invariant carries in
    one call, so the fixpoint does not spend a round per link."""

    DEPTH = 10

    def _zero_window(self):
        # A peek window of zeros: the last carry is invariant on its
        # own (its next value is itself) and every other carry's next
        # value is the following carry, so each becomes invariant only
        # once its successor is specialized.
        program = make_program()
        params = [Temp(FLOAT) for _ in range(self.DEPTH)]
        program.carry_params = list(params)
        program.carry_inits = [const_float(0.0)] * self.DEPTH
        program.carry_nexts = params[1:] + params[-1:]
        program.steady = [PrintOp(result=None, value=p) for p in params]
        return program

    def test_one_call_removes_the_whole_chain(self):
        program = self._zero_window()
        assert carries(program) == self.DEPTH
        assert program.carry_params == []
        assert program.carry_inits == program.carry_nexts == []
        assert [op.value for op in program.steady] == \
            [const_float(0.0)] * self.DEPTH

    def test_one_call_removes_a_ring_of_zeros(self):
        # Each carry's next is the other: neither is invariant on its
        # own, but both hold 0.0 on every iteration.
        program = make_program()
        params = [Temp(FLOAT), Temp(FLOAT)]
        program.carry_params = list(params)
        program.carry_inits = [const_float(0.0)] * 2
        program.carry_nexts = params[::-1]
        program.steady = [PrintOp(result=None, value=p) for p in params]
        assert carries(program) == 2
        assert program.carry_params == program.carry_nexts == []
        assert [op.value for op in program.steady] == [const_float(0.0)] * 2

    def test_optimize_converges_in_two_rounds(self):
        program = self._zero_window()
        stats = optimize(program)
        assert stats.converged
        assert _changes(stats, "carries") == self.DEPTH
        assert stats.fixpoint_rounds <= 2

    @pytest.mark.parametrize("scale", [1, 4])
    def test_filterbank_converges_in_three_rounds(self, scale):
        from repro.suite import load_benchmark
        stats = load_benchmark("filterbank", scale=scale).lower().opt_stats
        assert stats.converged
        assert stats.fixpoint_rounds <= 3


class TestCongruentCarries:
    """Carries with equal inits whose nexts stay equal merge into one;
    equal inits alone, or nexts equal only near the front of a shift
    chain, do not."""

    DUPLICATE_FIRS = PREAMBLE + """
    float->float filter FIR() {
        work push 1 pop 1 peek 16 {
            float s = 0;
            for (int i = 0; i < 16; i++) s += peek(i) * (i + 0.5);
            push(s); pop();
        }
    }
    void->void pipeline P {
        add Src();
        add splitjoin { split duplicate; add FIR(); add FIR();
                        join roundrobin; };
        add Snk();
    }"""

    @staticmethod
    def _carrying(inits, nexts_of):
        """A program with one float carry per init, each printed every
        iteration; ``nexts_of(params, fresh)`` gives the carry nexts,
        where ``fresh[k]`` is ``params[k] + (k + 1)``."""
        program = make_program()
        params = [Temp(FLOAT) for _ in inits]
        fresh = [Temp(FLOAT) for _ in inits]
        program.steady = [PrintOp(result=None, value=p) for p in params]
        program.steady += [BinOp(result=f, op="+", lhs=p,
                                 rhs=const_float(k + 1.0))
                           for k, (p, f) in enumerate(zip(params, fresh))]
        program.carry_params = list(params)
        program.carry_inits = [const_float(value) for value in inits]
        program.carry_nexts = nexts_of(params, fresh)
        program.prints_per_iteration = len(params)
        return program

    def test_duplicate_split_firs_share_one_window(self):
        stream = compile_source(self.DUPLICATE_FIRS)
        program = stream.lower().program
        assert len(program.carry_params) == 15
        multiplies = [op for op in program.steady
                      if isinstance(op, BinOp) and op.op == "*"]
        assert len(multiplies) == 16  # CSE merged the two FIRs
        code = stream.laminar_c()
        assert code.count("memmove(") == 1
        assert code.count("static f64 cw") == 1
        assert _bits(stream.run_laminar(8).outputs) == \
            _bits(stream.run_fifo(8).outputs)

    @requires_cc
    def test_duplicate_split_firs_bit_exact_natively(self, tmp_path):
        from repro.backend import checksum_outputs, compile_and_run
        stream = compile_source(self.DUPLICATE_FIRS)
        expected = stream.run_fifo(8).outputs
        for name, code in (("fifo", stream.fifo_c()),
                           ("laminar", stream.laminar_c())):
            run = compile_and_run(code, 8, print_outputs=True,
                                  workdir=tmp_path / name)
            assert _bits(run.outputs) == _bits(expected), name
            assert run.checksum == checksum_outputs(expected), name

    def test_same_init_different_next_stays_apart(self):
        program = self._carrying(
            [1.0, 1.0], lambda params, fresh: fresh)
        assert carries(program) == 0
        assert len(program.carry_params) == 2

    def test_signed_zero_inits_stay_apart(self):
        program = self._carrying(
            [0.0, -0.0], lambda params, fresh: [fresh[0], fresh[0]])
        assert carries(program) == 0
        assert len(program.carry_params) == 2

    def test_windows_differing_deep_in_the_chain_stay_apart(self):
        # a0 <- a1 <- a2 <- fresh0 and b0 <- b1 <- b2 <- fresh1, all
        # zero-initialized: a0 and b0 first differ two shifts on.
        program = self._carrying(
            [0.0] * 6,
            lambda p, fresh: [p[1], p[2], fresh[0], p[4], p[5], fresh[3]])
        assert carries(program) == 0
        assert len(program.carry_params) == 6

    def test_invariant_carries_with_one_init_merge(self):
        # Each carry's next is itself: only a partition that starts
        # coarse and splits sees the two as equal.
        program = make_program()
        seed = Temp(FLOAT)
        params = [Temp(FLOAT), Temp(FLOAT)]
        program.init = [BinOp(result=seed, op="+", lhs=const_float(1.0),
                              rhs=const_float(2.0))]
        program.steady = [PrintOp(result=None, value=p) for p in params]
        program.carry_params = list(params)
        program.carry_inits = [seed, seed]
        program.carry_nexts = list(params)
        assert carries(program) == 1
        assert program.carry_params == program.carry_nexts == params[:1]
        assert [op.value for op in program.steady] == [params[0]] * 2

    def test_dead_carry_is_not_the_one_kept(self):
        # The two carries are congruent, but no op reads the first: it
        # is dropped before the merge picks a group's first member.
        program = make_program()
        dead, live, fresh = Temp(FLOAT), Temp(FLOAT), Temp(FLOAT)
        program.steady = [PrintOp(result=None, value=live),
                          BinOp(result=fresh, op="+", lhs=live,
                                rhs=const_float(1.0))]
        program.carry_params = [dead, live]
        program.carry_inits = [const_float(0.0)] * 2
        program.carry_nexts = [fresh, fresh]
        assert carries(program) == 1
        assert program.carry_params == [live]
        assert program.steady[0].value is live

    def test_equal_windows_merge_whole(self):
        program = self._carrying(
            [0.0] * 6,
            lambda p, fresh: [p[1], p[2], fresh[0], p[4], p[5], fresh[0]])
        before = LaminarInterpreter(program).run(4).outputs
        assert carries(program) == 3
        assert program.carry_nexts[:2] == program.carry_params[1:]
        assert _bits(LaminarInterpreter(program).run(4).outputs) == \
            _bits(before)


class TestPassManagerConfig:
    """The pass-pipeline and round-cap knobs added with the pass manager."""

    def test_parse_pipeline_resolves_aliases(self):
        from repro.opt import parse_pipeline
        assert parse_pipeline("cp,promote,fold,cse,dce") == (
            "copy_propagation", "promote_state", "constant_folding",
            "common_subexpression_elimination", "dead_code_elimination")

    def test_parse_pipeline_rejects_unknown_pass(self):
        from repro.opt import parse_pipeline
        with pytest.raises(ValueError, match="unknown optimizer pass"):
            parse_pipeline("cp,frobnicate")

    def test_pipeline_assignment_coerces_and_validates(self):
        # Every assignment path normalizes to a canonical tuple[str,...]
        # via parse_pipeline: strings, lists, tuples, generators.
        canonical = ("constant_folding",
                     "common_subexpression_elimination")
        assert OptOptions(pipeline="fold,cse").pipeline == canonical
        assert OptOptions(pipeline=["fold", "cse"]).pipeline == canonical
        options = OptOptions()
        options.pipeline = (name for name in ("fold", "cse"))
        assert options.pipeline == canonical
        options.pipeline = ""
        assert options.pipeline == ()

    def test_pipeline_assignment_rejects_bad_values(self):
        with pytest.raises(ValueError, match="unknown optimizer pass"):
            OptOptions(pipeline=["fold", "frobnicate"])
        with pytest.raises(TypeError, match="iterable of pass names"):
            OptOptions(pipeline=42)
        with pytest.raises(TypeError, match="iterable of pass names"):
            OptOptions(pipeline=None)

    def test_explicit_pipeline_runs_exactly_those_passes(self, demo_stream):
        from repro.lir import lower
        program = lower(demo_stream.schedule, demo_stream.source)
        stats = optimize(program, OptOptions(
            pipeline=("cp", "fold", "dce")))
        names = {stat.name for stat in stats.pass_stats}
        assert "copy_propagation" in names
        assert "promote_state" not in names
        assert "common_subexpression_elimination" not in names
        assert "schedule_for_pressure" not in names

    def test_custom_pipeline_preserves_outputs(self, demo_stream):
        base = demo_stream.run_laminar(6)
        alt = demo_stream.run_laminar(6, opt=OptOptions(
            pipeline=("dce", "fold", "cse", "carry", "dce", "schedule")))
        assert base.outputs == alt.outputs

    def test_max_rounds_caps_fixpoint(self, demo_stream):
        from repro.lir import lower
        # Unrolled: the re-rolled demo converges within one round.
        program = lower(demo_stream.schedule, demo_stream.source, UNROLLED)
        with pytest.warns(RuntimeWarning, match="did not reach a fixpoint"):
            stats = optimize(program, OptOptions(max_rounds=1))
        assert stats.fixpoint_rounds == 1
        assert not stats.converged

    def test_max_rounds_default_matches_module_cap(self, demo_stream):
        stats = demo_stream.lower().opt_stats
        assert stats.converged
        assert stats.fixpoint_rounds <= 64

    def test_pass_skipped_when_nothing_changed_since_its_last_run(
            self, demo_stream):
        from repro.lir import lower
        program = lower(demo_stream.schedule, demo_stream.source)
        optimize(program)
        # On an optimized program each pass runs once: the dead-code
        # pre-prune finds nothing, so the group's own DCE runs are
        # skipped, and one quiet round ends the group.
        second = optimize(program)
        assert second.fixpoint_rounds == 1
        assert {stat.name: stat.runs for stat in second.pass_stats} == {
            name: 1 for name in (
                "dead_code_elimination", "copy_propagation",
                "promote_state", "constant_folding",
                "carries",
                "common_subexpression_elimination",
                "schedule_for_pressure")}

    def test_pass_stats_reported_in_first_run_order(self, demo_stream):
        stats = demo_stream.lower().opt_stats
        names = [stat.name for stat in stats.pass_stats]
        assert names[0] == "dead_code_elimination"  # the dense pre-prune
        assert "copy_propagation" in names
        assert all(stat.runs >= 1 for stat in stats.pass_stats)
        assert len(names) == len(set(names))


class TestSuiteIdempotence:
    """Optimizing an already-optimized program must change nothing."""

    def test_every_suite_program(self):
        from repro.suite import benchmark_names, load_benchmark
        for name in benchmark_names(include_extras=True):
            lowered = load_benchmark(name).lower()
            sizes = {title: len(ops)
                     for title, ops in lowered.program.sections()}
            second = optimize(lowered.program)
            after = {title: len(ops)
                     for title, ops in lowered.program.sections()}
            assert after == sizes, name
            assert second.converged, name
            for stat in second.pass_stats:
                assert stat.changes == 0, (name, stat.name)
