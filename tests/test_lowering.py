"""Tests for the LaminarIR lowering: compile-time queues, splitter/joiner
elimination, loop-carried tokens, unrolling and if-conversion."""

import pytest

from repro import compile_source
from repro.frontend.errors import LoweringError, RateError
from repro.lir import (BinOp, LoweringOptions, MoveOp, PrintOp, SelectOp,
                       StoreOp, lower)
from repro.frontend.types import INT
from repro.lir.ops import CallOp, Const, LoadOp, Op, Temp

PREAMBLE = """
void->float filter Src() { work push 1 { push(randf()); } }
float->void filter Snk() { work pop 1 { println(pop()); } }
"""


def lower_program(body, lowering=None):
    stream = compile_source(PREAMBLE + body)
    return lower(stream.schedule, stream.source, lowering)


class TestDirectTokenAccess:
    def test_no_queue_ops_in_output(self):
        # pop/peek/push never materialize as instructions: the steady
        # section contains only compute, state and print ops.
        program = lower_program(
            "float->float filter Avg() { work push 1 pop 1 peek 2 "
            "{ push((peek(0) + peek(1)) / 2); pop(); } }"
            "void->void pipeline P { add Src(); add Avg(); add Snk(); }")
        kinds = {type(op).__name__ for op in program.steady}
        assert "MoveOp" not in kinds
        assert kinds <= {"BinOp", "UnOp", "CastOp", "SelectOp", "CallOp",
                         "LoadOp", "StoreOp", "PrintOp"}

    def test_producer_value_used_directly(self):
        # With a pure identity chain, the print argument is the very value
        # the source call produced (no copies in between).
        program = lower_program(
            "float->float filter Id() { work push 1 pop 1 { push(pop()); } }"
            "void->void pipeline P { add Src(); add Id(); add Id(); "
            "add Snk(); }")
        calls = [op for op in program.steady if isinstance(op, CallOp)]
        prints = [op for op in program.steady if isinstance(op, PrintOp)]
        assert len(calls) == 1 and len(prints) == 1
        assert prints[0].value is calls[0].result

    def test_peek_window_names_resolved(self):
        program = lower_program(
            "float->float filter W() { work push 1 pop 1 peek 3 "
            "{ push(peek(0) + peek(1) + peek(2)); pop(); } }"
            "void->void pipeline P { add Src(); add W(); add Snk(); }")
        # 2 carried tokens (peek surplus) rotate through the iteration
        assert len(program.carry_params) == 2
        assert len(program.carry_inits) == 2
        assert len(program.carry_nexts) == 2

    def test_carry_rotation_shifts_window(self):
        program = lower_program(
            "float->float filter W() { work push 1 pop 1 peek 3 "
            "{ push(peek(2)); pop(); } }"
            "void->void pipeline P { add Src(); add W(); add Snk(); }")
        # carry_nexts = [old carry[1], fresh token]
        assert program.carry_nexts[0] is program.carry_params[1]

    def test_prints_per_iteration(self):
        program = lower_program(
            "void->void pipeline P { add Src(); add Snk(); }")
        assert program.prints_per_iteration == 1


class TestSplitterJoinerElimination:
    SPLITJOIN = (
        "float->float filter Id() { work push 1 pop 1 { push(pop()); } }"
        "void->void pipeline P { add Src(); add splitjoin { "
        "split duplicate; add Id(); add Id(); join roundrobin(1, 1); }; "
        "add Snk(); }")

    def test_elimination_produces_no_moves(self):
        program = lower_program(self.SPLITJOIN)
        assert not any(isinstance(op, MoveOp) for op in program.steady)

    def test_ablation_emits_moves(self):
        program = lower_program(
            self.SPLITJOIN,
            LoweringOptions(eliminate_splitjoin=False))
        moves = [op for op in program.steady if isinstance(op, MoveOp)]
        # splitter: 2 moves per token; joiner: 2 moves per iteration
        assert len(moves) == 4

    def test_duplicate_split_shares_one_value(self):
        program = lower_program(
            "float->float filter Neg() { work push 1 pop 1 "
            "{ push(0 - pop()); } }"
            "void->void pipeline P { add Src(); add splitjoin { "
            "split duplicate; add Neg(); add Neg(); "
            "join roundrobin(1, 1); }; add Snk(); }")
        binops = [op for op in program.steady if isinstance(op, BinOp)]
        assert len(binops) == 2
        assert binops[0].rhs is binops[1].rhs  # same source token

    def test_roundrobin_routing(self):
        # roundrobin(1,1) split: even tokens to branch 0, odd to branch 1,
        # re-interleaved by the joiner; output equals input order.
        stream = compile_source(
            PREAMBLE +
            "float->float filter Id() { work push 1 pop 1 { push(pop()); } }"
            "void->void pipeline P { add Src(); add splitjoin { "
            "split roundrobin(1, 1); add Id(); add Id(); "
            "join roundrobin(1, 1); }; add Snk(); }")
        fifo = stream.run_fifo(6)
        laminar = stream.run_laminar(6)
        assert fifo.outputs == laminar.outputs


class TestStateAndSetup:
    def test_field_initializer_in_setup(self):
        program = lower_program(
            "float->float filter S() { float g = 2.5; "
            "work push 1 pop 1 { push(pop() * g); } }"
            "void->void pipeline P { add Src(); add S(); add Snk(); }")
        stores = [op for op in program.setup if isinstance(op, StoreOp)]
        assert len(stores) == 1

    def test_init_block_unrolls_into_setup(self):
        program = lower_program(
            "float->float filter T() { float[4] t; "
            "init { for (int i = 0; i < 4; i++) t[i] = i * 2.0; } "
            "work push 1 pop 1 { push(pop() + t[3]); } }"
            "void->void pipeline P { add Src(); add T(); add Snk(); }")
        stores = [op for op in program.setup if isinstance(op, StoreOp)]
        assert len(stores) == 4

    def test_state_slot_per_instance(self):
        program = lower_program(
            "float->float filter A() { float s; "
            "work push 1 pop 1 { s = s + pop(); push(s); } }"
            "void->void pipeline P { add Src(); add A(); add A(); "
            "add Snk(); }")
        names = {slot.name for slot in program.state_slots}
        assert len(names) == 2


class TestControlFlow:
    def test_static_loop_unrolls(self):
        program = lower_program(
            "float->float filter U() { work push 1 pop 1 "
            "{ float s = 0; for (int i = 0; i < 5; i++) s += pop() * i; "
            "push(s); } }"
            .replace("pop() * i", "peek(0) * i")  # single pop
            .replace("push(s); }", "push(s); pop(); }")
            + "void->void pipeline P { add Src(); add U(); add Snk(); }")
        binops = [op for op in program.steady if isinstance(op, BinOp)]
        # i = 0..4 : mul+add per step, minus folded zeros
        assert len(binops) >= 4

    def test_dynamic_condition_if_converts(self):
        program = lower_program(
            "float->float filter C() { work push 1 pop 1 "
            "{ float v = pop(); float r = 0; "
            "if (v > 0) r = v; else r = 0 - v; push(r); } }"
            "void->void pipeline P { add Src(); add C(); add Snk(); }")
        assert any(isinstance(op, SelectOp) for op in program.steady)

    def test_push_under_dynamic_condition_rejected(self):
        with pytest.raises(LoweringError, match="push under a data"):
            lower_program(
                "float->float filter Bad() { work push 1 pop 1 "
                "{ float v = pop(); if (v > 0) push(v); else push(0.0); } }"
                "void->void pipeline P { add Src(); add Bad(); "
                "add Snk(); }")

    def test_dynamic_loop_bound_rejected(self):
        with pytest.raises(LoweringError, match="not compile-time"):
            lower_program(
                "int->int filter Bad() { work push 1 pop 1 "
                "{ int n = pop(); int s = 0; "
                "for (int i = 0; i < n; i++) s += i; push(s); } }"
                "void->int filter ISrc() { work push 1 { push(randi(5)); } }"
                "int->void filter ISnk() { work pop 1 { println(pop()); } }"
                "void->void pipeline P { add ISrc(); add Bad(); "
                "add ISnk(); }")

    def test_dynamic_peek_offset_rejected(self):
        with pytest.raises(LoweringError, match="static token indices"):
            lower_program(
                "int->int filter Bad() { work push 1 pop 1 peek 4 "
                "{ push(peek(pop() & 3)); } }"
                "void->int filter ISrc() { work push 1 { push(randi(5)); } }"
                "int->void filter ISnk() { work pop 1 { println(pop()); } }"
                "void->void pipeline P { add ISrc(); add Bad(); "
                "add ISnk(); }")

    def test_helper_inlined(self):
        program = lower_program(
            "float->float filter H() { "
            "float tri(float x) { return x * x * x; } "
            "work push 1 pop 1 { push(tri(pop())); } }"
            "void->void pipeline P { add Src(); add H(); add Snk(); }")
        binops = [op for op in program.steady if isinstance(op, BinOp)]
        assert len(binops) == 2  # two multiplies, fully inlined


class TestRateEnforcement:
    def test_under_popping_detected(self):
        with pytest.raises(RateError, match="popped 1 token"):
            lower_program(
                "float->float filter Bad() { work push 1 pop 2 "
                "{ push(pop()); } }"
                "void->void pipeline P { add Src(); add Bad(); "
                "add Snk(); }")

    def test_over_pushing_detected(self):
        with pytest.raises(RateError, match="pushed 2 token"):
            lower_program(
                "float->float filter Bad() { work push 1 pop 1 "
                "{ push(pop()); push(1.0); } }"
                "void->void pipeline P { add Src(); add Bad(); "
                "add Snk(); }")

    def test_peek_beyond_declared_window(self):
        with pytest.raises(LoweringError, match="exceeds declared peek"):
            lower_program(
                "float->float filter Bad() { work push 1 pop 1 peek 2 "
                "{ pop(); push(peek(2)); } }"
                "void->void pipeline P { add Src(); add Bad(); "
                "add Snk(); }")


class TestDump:
    def test_dump_contains_sections(self, tiny_stream):
        program = tiny_stream.lower().program
        text = program.dump()
        assert "setup:" in text
        assert "steady" in text

    def test_dump_truncation(self, demo_stream):
        program = demo_stream.lower().program
        text = program.dump(max_ops_per_section=2)
        assert "more)" in text


def _concrete_op_classes():
    pending, found = list(Op.__subclasses__()), []
    while pending:
        cls = pending.pop()
        found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


class TestLeanLayout:
    """IR objects are slotted: the unrolled schedule makes hundreds of
    thousands of them, and a per-instance ``__dict__`` would be most of
    their size."""

    def test_values_have_no_instance_dict(self):
        for value in (Temp(INT), Const(INT, 1)):
            assert not hasattr(value, "__dict__"), type(value).__name__

    @pytest.mark.parametrize("cls", _concrete_op_classes(),
                             ids=lambda cls: cls.__name__)
    def test_ops_have_no_instance_dict(self, cls):
        assert not hasattr(cls(result=None), "__dict__")

    def test_every_op_class_is_covered(self):
        assert len(_concrete_op_classes()) >= 10
