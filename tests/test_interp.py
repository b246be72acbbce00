"""Tests for both interpreters: semantics, counters, determinism."""

import pytest

from repro import compile_source
from repro.frontend.errors import InterpError, RateError
from repro.frontend.types import INT
from repro.frontend.values import coerce_runtime, runtime_binary, \
    runtime_unary
from repro.interp import FifoInterpreter, LaminarInterpreter
from repro.interp.counters import Counters
from repro.interp.fifo import RingBuffer

PREAMBLE = """
void->float filter Src() { work push 1 { push(randf()); } }
float->void filter Snk() { work pop 1 { println(pop()); } }
"""


def run_fifo(body, iterations=4):
    stream = compile_source(PREAMBLE + body)
    return stream.run_fifo(iterations)


class TestRuntimeSemantics:
    def test_int_division_truncates_toward_zero(self):
        assert runtime_binary("/", -7, 2) == -3
        assert runtime_binary("/", 7, -2) == -3
        assert runtime_binary("/", 7, 2) == 3

    def test_int_modulo_sign_of_dividend(self):
        assert runtime_binary("%", -7, 2) == -1
        assert runtime_binary("%", 7, -2) == 1

    def test_division_by_zero_raises(self):
        with pytest.raises(InterpError, match="division by zero"):
            runtime_binary("/", 1, 0)

    def test_negative_shift_count_raises(self):
        for op in ("<<", ">>"):
            with pytest.raises(InterpError,
                               match=f"negative shift count in '{op}'"):
                runtime_binary(op, 1, -1)
        stream = compile_source(
            "void->int filter S(int p) { work push 1 { push(1 << p); } }\n"
            "int->void filter P() { work pop 1 { println(pop()); } }\n"
            "void->void pipeline Top { add S(-1); add P(); }\n")
        with pytest.raises(InterpError, match="negative shift count"):
            stream.run_fifo(1)

    def test_int_overflow_wraps(self):
        assert runtime_binary("+", 2**31 - 1, 1) == -(2**31)
        assert runtime_binary("*", 65536, 65536) == 0

    def test_float_division(self):
        assert runtime_binary("/", 1.0, 4.0) == 0.25

    def test_float_to_int_outside_i32_is_int_min(self):
        # C leaves these undefined; x86's cvttsd2si gives INT_MIN.
        for value in (float("inf"), float("-inf"), float("nan"), 2.0**31,
                      -2.0**31 - 1.0, 1e300):
            assert coerce_runtime(value, INT) == -(2**31)
        assert coerce_runtime(2.0**31 - 0.5, INT) == 2**31 - 1
        assert coerce_runtime(-2.0**31 - 0.5, INT) == -(2**31)
        assert coerce_runtime(-2.5, INT) == -2

    def test_shift_ops(self):
        assert runtime_binary("<<", 1, 10) == 1024
        assert runtime_binary(">>", -8, 1) == -4  # arithmetic shift

    def test_unary(self):
        assert runtime_unary("-", 5) == -5
        assert runtime_unary("~", 0) == -1
        assert runtime_unary("!", False) is True


class TestRingBuffer:
    def test_fifo_order(self):
        buffer = RingBuffer(4, Counters())
        for value in (1, 2, 3):
            buffer.push(value)
        assert [buffer.pop() for _ in range(3)] == [1, 2, 3]

    def test_wraparound(self):
        buffer = RingBuffer(4, Counters())
        for round_ in range(5):
            buffer.push(round_)
            assert buffer.pop() == round_

    def test_peek_does_not_consume(self):
        buffer = RingBuffer(4, Counters())
        buffer.push(10)
        buffer.push(20)
        assert buffer.peek(1) == 20
        assert len(buffer) == 2

    def test_underflow_raises(self):
        buffer = RingBuffer(2, Counters())
        with pytest.raises(InterpError, match="underflow"):
            buffer.pop()

    def test_peek_underflow_raises(self):
        buffer = RingBuffer(2, Counters())
        buffer.push(1)
        with pytest.raises(InterpError, match="underflow"):
            buffer.peek(1)

    def test_counters_updated(self):
        counters = Counters()
        buffer = RingBuffer(4, counters)
        buffer.push(1)
        assert counters.token_transfers == 1
        assert counters.stores == 2  # token + write index
        buffer.pop()
        assert counters.loads >= 2


class TestFifoInterpreter:
    def test_deterministic_across_runs(self, demo_stream):
        first = demo_stream.run_fifo(6)
        second = demo_stream.run_fifo(6)
        assert first.outputs == second.outputs

    def test_seed_changes_outputs(self, demo_stream):
        base = demo_stream.run_fifo(6)
        other = demo_stream.run_fifo(6, seed=99)
        assert base.outputs != other.outputs

    def test_output_count_matches_schedule(self, demo_stream):
        iterations = 5
        result = demo_stream.run_fifo(iterations)
        per_iter = demo_stream.lower().program.prints_per_iteration
        assert len(result.outputs) == iterations * per_iter

    def test_steady_counters_linear_in_iterations(self, tiny_stream):
        short = tiny_stream.run_fifo(2)
        long = tiny_stream.run_fifo(4)
        assert long.steady_counters.total_ops == \
            2 * short.steady_counters.total_ops

    def test_rate_violation_detected(self):
        with pytest.raises(RateError, match="popped"):
            run_fifo(
                "float->float filter Bad() { work push 1 pop 2 "
                "{ push(pop()); } }"
                "void->void pipeline P { add Src(); add Bad(); "
                "add Snk(); }")

    def test_field_accesses_counted(self):
        result = run_fifo(
            "float->float filter S() { float g = 3.0; "
            "work push 1 pop 1 { push(pop() * g); } }"
            "void->void pipeline P { add Src(); add S(); add Snk(); }",
            iterations=1)
        assert result.steady_counters.loads > 0

    def test_helper_execution(self):
        result = run_fifo(
            "float->float filter H() { "
            "float sq(float x) { return x * x; } "
            "work push 1 pop 1 { push(sq(pop())); } }"
            "void->void pipeline P { add Src(); add H(); add Snk(); }",
            iterations=2)
        assert len(result.outputs) == 2
        assert all(v >= 0 for v in result.outputs)

    def test_int_program(self):
        stream = compile_source(
            "void->int filter C() { int n; init { n = 0; } "
            "work push 1 { push(n); n = n + 1; } }"
            "int->void filter P() { work pop 1 { println(pop()); } }"
            "void->void pipeline Top { add C(); add P(); }")
        result = stream.run_fifo(5)
        assert result.outputs == [0, 1, 2, 3, 4]

    def test_boolean_locals(self):
        stream = compile_source(
            "void->int filter C() { int n; init { n = 0; } work push 1 "
            "{ boolean even = n % 2 == 0; push(even ? 1 : 0); n = n + 1; } }"
            "int->void filter P() { work pop 1 { println(pop()); } }"
            "void->void pipeline Top { add C(); add P(); }")
        assert stream.run_fifo(4).outputs == [1, 0, 1, 0]

    def test_multidim_field(self):
        stream = compile_source(
            "void->float filter M() { float[2][3] m; int t; "
            "init { for (int i = 0; i < 2; i++) "
            "for (int j = 0; j < 3; j++) m[i][j] = i * 10 + j; t = 0; } "
            "work push 1 { push(m[t % 2][t % 3]); t = t + 1; } }"
            "float->void filter P() { work pop 1 { println(pop()); } }"
            "void->void pipeline Top { add M(); add P(); }")
        result = stream.run_fifo(6)
        assert result.outputs == [0.0, 11.0, 2.0, 10.0, 1.0, 12.0]


class TestLaminarInterpreter:
    def test_matches_fifo(self, demo_stream):
        fifo = demo_stream.run_fifo(8)
        laminar = demo_stream.run_laminar(8)
        assert fifo.outputs == laminar.outputs

    def test_fewer_total_ops(self, demo_stream):
        fifo = demo_stream.run_fifo(8)
        laminar = demo_stream.run_laminar(8)
        assert laminar.steady_counters.total_ops < \
            fifo.steady_counters.total_ops

    def test_memory_accesses_reduced(self, demo_stream):
        fifo = demo_stream.run_fifo(8)
        laminar = demo_stream.run_laminar(8)
        assert laminar.steady_counters.memory_accesses < \
            fifo.steady_counters.memory_accesses

    def test_undefined_value_detected(self):
        from repro.lir import Program, PrintOp, Temp
        from repro.frontend.types import FLOAT
        program = Program(name="bad")
        program.steady = [PrintOp(result=None, value=Temp(FLOAT))]
        with pytest.raises(InterpError, match="undefined value"):
            LaminarInterpreter(program).run(1)

    def test_iterations_zero(self, tiny_stream):
        result = tiny_stream.run_laminar(0)
        assert result.outputs == []

    def test_counters_snapshot_isolated(self, tiny_stream):
        result = tiny_stream.run_laminar(3)
        # steady counters exclude setup/init work
        assert result.steady_counters.total_ops <= \
            result.counters.total_ops


class TestCountersApi:
    def test_delta_since(self):
        counters = Counters()
        counters.alu = 5
        before = counters.snapshot()
        counters.alu = 9
        assert counters.delta_since(before).alu == 4

    def test_as_dict_roundtrip(self):
        counters = Counters(loads=1, stores=2, alu=3)
        values = counters.as_dict()
        assert values["loads"] == 1
        assert Counters(**values).stores == 2

    def test_memory_accesses_property(self):
        assert Counters(loads=3, stores=4).memory_accesses == 7

    def test_per_iteration(self, tiny_stream):
        result = tiny_stream.run_fifo(4)
        assert result.per_iteration("prints") == \
            result.steady_counters.prints / 4
