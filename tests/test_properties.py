"""Property-based tests (hypothesis) for core invariants:

* 32-bit wrapping arithmetic laws,
* compile-time folds agree with run-time evaluation,
* the RNG contract shared with the C runtime,
* random stream pipelines: scheduling invariants and FIFO/LaminarIR
  output equivalence,
* random straight-line LaminarIR programs: the optimizer preserves
  semantics exactly.
"""

from __future__ import annotations

import copy

from hypothesis import given, settings, strategies as st

from repro import compile_source
from repro.backend.common import checksum_outputs
from repro.frontend.errors import UNKNOWN_LOCATION
from repro.frontend.intrinsics import XorShift32
from repro.frontend.types import FLOAT, INT
from repro.frontend.values import CMP_OPS, runtime_binary
from repro.interp import LaminarInterpreter
from repro.lir import (BinOp, CallOp, Const, PrintOp, Program, SelectOp,
                       StateSlot, StoreOp, Temp, const_float, const_int,
                       wrap_i32)
from repro.lir.ops import LoadOp
from repro.lir.symexec import Emitter
from repro.opt import optimize
from repro.scheduling.balance import steady_state_token_counts

i32s = st.integers(min_value=-(2 ** 31), max_value=2 ** 31 - 1)
any_ints = st.integers(min_value=-(2 ** 40), max_value=2 ** 40)
small_floats = st.floats(min_value=-1e6, max_value=1e6,
                         allow_nan=False, allow_infinity=False)

_SAFE_INT_OPS = ("+", "-", "*", "&", "|", "^")


class TestWrapI32:
    @given(any_ints)
    def test_range(self, value):
        wrapped = wrap_i32(value)
        assert -(2 ** 31) <= wrapped < 2 ** 31

    @given(any_ints)
    def test_idempotent(self, value):
        assert wrap_i32(wrap_i32(value)) == wrap_i32(value)

    @given(any_ints)
    def test_congruent_mod_2_32(self, value):
        assert (wrap_i32(value) - value) % (2 ** 32) == 0

    @given(i32s)
    def test_identity_in_range(self, value):
        assert wrap_i32(value) == value


class TestEvaluatorAgreement:
    """A compile-time fold gives the value run-time evaluation computes:
    the lowering's emitter folds constants through the same table."""

    @staticmethod
    def _folded(op, lhs, rhs):
        value = Emitter().binop(op, lhs, rhs, UNKNOWN_LOCATION)
        assert isinstance(value, Const)
        return value.value

    @given(i32s, i32s.filter(lambda v: v != 0))
    def test_division_agrees_and_truncates(self, left, right):
        run_time = runtime_binary("/", left, right)
        assert self._folded("/", const_int(left), const_int(right)) == \
            run_time
        # C semantics, wrapping: (a/b)*b + a%b == a, truncating toward 0
        remainder = runtime_binary("%", left, right)
        assert wrap_i32(run_time * right + remainder) == left
        assert abs(remainder) < abs(right)
        assert remainder == 0 or (remainder < 0) == (left < 0)

    @given(small_floats, small_floats,
           st.sampled_from(("+", "-", "*")))
    def test_float_ops_agree(self, left, right, op):
        assert self._folded(op, const_float(left), const_float(right)) == \
            runtime_binary(op, left, right)


class TestRng:
    def test_sequence_is_fixed(self):
        rng = XorShift32()
        first_five = [rng.next_u32() for _ in range(5)]
        # Pinned: the C runtime implements the identical recurrence, so
        # this sequence is part of the cross-language contract.
        assert first_five == [2274908837, 358294691, 1210119364, 2176035992, 1882851208]

    @given(st.integers(min_value=1, max_value=2 ** 31 - 1))
    def test_randi_in_bounds(self, bound):
        rng = XorShift32(seed=123)
        for _ in range(16):
            value = rng.randi(bound)
            assert 0 <= value < bound

    def test_randf_in_unit_interval(self):
        rng = XorShift32()
        for _ in range(1000):
            value = rng.randf()
            assert 0.0 <= value < 1.0

    def test_randf_exactly_representable(self):
        # (x >> 8) / 2^24 is exact in a double: multiplying back must be
        # lossless, which is what makes Python/C outputs bit-identical.
        rng = XorShift32()
        for _ in range(100):
            state = rng.state
            value = XorShift32(state).randf()
            rng.next_u32()
            assert value * (1 << 24) == float(int(value * (1 << 24)))

    @given(st.lists(st.floats(allow_nan=False), max_size=8))
    def test_checksum_deterministic(self, values):
        assert checksum_outputs(values) == checksum_outputs(values)


# -- random stream pipelines ---------------------------------------------------

_STAGES = st.lists(
    st.one_of(
        st.tuples(st.just("scale"),
                  st.floats(min_value=-2, max_value=2,
                            allow_nan=False).map(lambda f: round(f, 3))),
        st.tuples(st.just("window"), st.integers(2, 4)),
        st.tuples(st.just("up"), st.integers(2, 3)),
        st.tuples(st.just("down"), st.integers(2, 3)),
        st.tuples(st.just("splitjoin"), st.integers(2, 3)),
    ),
    min_size=0, max_size=4)


def _pipeline_source(stages) -> str:
    decls = ["void->float filter Src() { work push 1 { push(randf()); } }",
             "float->void filter Snk() { work pop 1 { println(pop()); } }"]
    adds = ["add Src();"]
    for index, (kind, arg) in enumerate(stages):
        name = f"S{index}"
        if kind == "scale":
            decls.append(
                f"float->float filter {name}() {{ work push 1 pop 1 "
                f"{{ push(pop() * {arg}); }} }}")
            adds.append(f"add {name}();")
        elif kind == "window":
            decls.append(
                f"float->float filter {name}() {{ work push 1 pop 1 "
                f"peek {arg} {{ float s = 0; "
                f"for (int i = 0; i < {arg}; i++) s += peek(i); "
                f"push(s); pop(); }} }}")
            adds.append(f"add {name}();")
        elif kind == "up":
            decls.append(
                f"float->float filter {name}() {{ work push {arg} pop 1 "
                f"{{ float v = pop(); "
                f"for (int i = 0; i < {arg}; i++) push(v + i); }} }}")
            adds.append(f"add {name}();")
        elif kind == "down":
            decls.append(
                f"float->float filter {name}() {{ work push 1 pop {arg} "
                f"{{ push(pop()); "
                f"for (int i = 1; i < {arg}; i++) pop(); }} }}")
            adds.append(f"add {name}();")
        else:  # splitjoin of `arg` identity branches
            decls.append(
                f"float->float filter {name}() {{ work push 1 pop 1 "
                f"{{ push(pop()); }} }}")
            branches = " ".join(f"add {name}();" for _ in range(arg))
            adds.append(
                f"add splitjoin {{ split duplicate; {branches} "
                f"join roundrobin; }};")
    adds.append("add Snk();")
    decls.append("void->void pipeline P { " + " ".join(adds) + " }")
    return "\n".join(decls)


class TestRandomPipelines:
    @settings(max_examples=25, deadline=None)
    @given(_STAGES)
    def test_equivalence_and_schedule_invariants(self, stages):
        stream = compile_source(_pipeline_source(stages))
        # balance equations hold
        counts = steady_state_token_counts(stream.graph,
                                           stream.schedule.reps)
        assert all(v > 0 for v in counts.values())
        # both routes agree
        fifo = stream.run_fifo(3)
        laminar = stream.run_laminar(3)
        assert fifo.outputs == laminar.outputs
        # LaminarIR never does more work than the baseline
        assert laminar.steady_counters.total_ops <= \
            fifo.steady_counters.total_ops


# -- random LaminarIR programs ----------------------------------------------------


@st.composite
def _lir_programs(draw):
    """A random straight-line int program over a small state array."""
    program = Program(name="random")
    slot = StateSlot("mem", INT, size=4)
    program.state_slots = [slot]
    pool: list = [const_int(draw(i32s)) for _ in range(2)]

    def fresh(section, op):
        section.append(op)
        if op.result is not None:
            pool.append(op.result)

    for section in (program.setup, program.steady):
        for _ in range(draw(st.integers(3, 12))):
            choice = draw(st.integers(0, 5))
            if choice <= 2:  # binop
                op = draw(st.sampled_from(_SAFE_INT_OPS))
                lhs, rhs = draw(st.sampled_from(pool)), \
                    draw(st.sampled_from(pool))
                fresh(section, BinOp(result=Temp(INT), op=op, lhs=lhs,
                                     rhs=rhs))
            elif choice == 3:  # select on a comparison
                cmp_op = draw(st.sampled_from(CMP_OPS))
                from repro.frontend.types import BOOLEAN
                cond = Temp(BOOLEAN)
                section.append(BinOp(result=cond, op=cmp_op,
                                     lhs=draw(st.sampled_from(pool)),
                                     rhs=draw(st.sampled_from(pool))))
                fresh(section, SelectOp(result=Temp(INT), cond=cond,
                                        then=draw(st.sampled_from(pool)),
                                        otherwise=draw(
                                            st.sampled_from(pool))))
            elif choice == 4:  # store
                section.append(StoreOp(
                    result=None, slot=slot,
                    index=const_int(draw(st.integers(0, 3))),
                    value=draw(st.sampled_from(pool))))
            else:  # load
                fresh(section, LoadOp(result=Temp(INT), slot=slot,
                                      index=const_int(
                                          draw(st.integers(0, 3)))))
        section.append(PrintOp(result=None,
                               value=draw(st.sampled_from(pool))))
    # one impure op to check effect ordering survives
    rand = CallOp(result=Temp(INT), name="randi", args=[const_int(100)],
                  pure=False)
    program.steady.append(rand)
    program.steady.append(PrintOp(result=None, value=rand.result))
    return program


class TestSchedulerSemantics:
    @settings(max_examples=30, deadline=None)
    @given(_lir_programs())
    def test_pressure_scheduling_preserves_outputs(self, program):
        from repro.opt.schedule_ops import schedule_for_pressure
        reference = LaminarInterpreter(copy.deepcopy(program)).run(3)
        scheduled = copy.deepcopy(program)
        schedule_for_pressure(scheduled)
        result = LaminarInterpreter(scheduled).run(3)
        assert result.outputs == reference.outputs


class TestOptimizerSemantics:
    @settings(max_examples=40, deadline=None)
    @given(_lir_programs())
    def test_optimize_preserves_outputs(self, program):
        reference = LaminarInterpreter(copy.deepcopy(program)).run(3)
        optimized_program = copy.deepcopy(program)
        optimize(optimized_program)
        optimized = LaminarInterpreter(optimized_program).run(3)
        assert optimized.outputs == reference.outputs

    @settings(max_examples=20, deadline=None)
    @given(_lir_programs())
    def test_optimize_never_increases_ops(self, program):
        before = sum(len(ops) for _t, ops in program.sections())
        optimize(program)
        after = sum(len(ops) for _t, ops in program.sections())
        assert after <= before


# -- random filter bodies (source-level fuzzing) --------------------------------


@st.composite
def _float_exprs(draw, depth=0):
    """A random float-typed expression over `peek(0..2)` and literals."""
    if depth >= 3 or draw(st.booleans()):
        choice = draw(st.integers(0, 3))
        if choice == 0:
            return f"peek({draw(st.integers(0, 2))})"
        if choice == 1:
            return repr(round(draw(st.floats(
                min_value=-4, max_value=4, allow_nan=False)), 3))
        if choice == 2:
            return "v"
        return f"sin(peek({draw(st.integers(0, 2))}))"
    op = draw(st.sampled_from(["+", "-", "*"]))
    left = draw(_float_exprs(depth=depth + 1))
    right = draw(_float_exprs(depth=depth + 1))
    if draw(st.booleans()):
        cmp_op = draw(st.sampled_from(["<", ">", "<=", ">="]))
        third = draw(_float_exprs(depth=depth + 1))
        return (f"(({left}) {cmp_op} ({right}) ? ({third}) "
                f": ({left}) {op} ({right}))")
    return f"(({left}) {op} ({right}))"


@st.composite
def _filter_bodies(draw):
    """A random work body: locals, a static loop, a dynamic ternary."""
    lines = ["float v = peek(0);"]
    for index in range(draw(st.integers(0, 3))):
        lines.append(f"float x{index} = {draw(_float_exprs())};")
        lines.append(f"v = v + x{index};")
    if draw(st.booleans()):
        bound = draw(st.integers(1, 4))
        lines.append(f"for (int i = 0; i < {bound}; i++) "
                     f"v = v * 0.9 + {draw(_float_exprs())};")
    lines.append(f"push({draw(_float_exprs())} + v);")
    lines.append("pop();")
    return "\n      ".join(lines)


class TestRandomFilterBodies:
    @settings(max_examples=30, deadline=None)
    @given(_filter_bodies())
    def test_fuzzed_body_equivalence(self, body):
        source = f"""
        void->float filter Src() {{ work push 1 {{ push(randf()); }} }}
        float->void filter Snk() {{ work pop 1 {{ println(pop()); }} }}
        float->float filter Fuzz() {{
          work push 1 pop 1 peek 3 {{
            {body}
          }}
        }}
        void->void pipeline P {{ add Src(); add Fuzz(); add Snk(); }}
        """
        stream = compile_source(source)
        fifo = stream.run_fifo(4)
        laminar = stream.run_laminar(4)
        assert fifo.outputs == laminar.outputs


class TestParserRobustness:
    """Malformed input must raise CompileError, never crash."""

    @settings(max_examples=60, deadline=None)
    @given(st.text(alphabet="filter work push pop peek {}()[];=+-*/<>! "
                            "0123456789.fx\n\t\"", max_size=120))
    def test_garbage_never_crashes(self, text):
        from repro.frontend.errors import CompileError
        from repro.frontend import parse_and_check
        try:
            parse_and_check(text)
        except CompileError:
            pass  # any diagnostic is acceptable; crashes are not

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 400))
    def test_truncated_program_never_crashes(self, cut):
        from repro.frontend.errors import CompileError
        from repro.frontend import parse_and_check
        whole = (
            "float->float filter F(int n) { float[n] w; "
            "init { for (int i = 0; i < n; i++) w[i] = sin(i); } "
            "work push 1 pop 1 peek n { float s = 0; "
            "for (int i = 0; i < n; i++) s += peek(i) * w[i]; "
            "push(s); pop(); } }"
            "void->void pipeline P { add F(4); }")
        try:
            parse_and_check(whole[:cut])
        except CompileError:
            pass
