"""Unit tests for the C code generators (text-level, no compiler needed)."""

import hashlib

import pytest

from repro import LoweringOptions, compile_source
from repro.backend.common import C_MAIN
from repro.backend.laminar_c import generate_laminar_c
from repro.suite import benchmark_names, load_benchmark
from tests.conftest import function_text, requires_cc

PREAMBLE = """
void->float filter Src() { work push 1 { push(randf()); } }
float->void filter Snk() { work pop 1 { println(pop()); } }
"""


def fifo_code(body):
    return compile_source(PREAMBLE + body).fifo_c()


def laminar_code(body, lowering=None):
    return compile_source(PREAMBLE + body).laminar_c(lowering)


PIPE = "void->void pipeline P { add Src(); add F(); add Snk(); }"


class TestFifoCodegen:
    def test_parameter_specialization(self):
        code = fifo_code(
            "float->float filter F(float k) { work push 1 pop 1 "
            "{ push(pop() * k); } }"
            "void->void pipeline P { add Src(); add F(2.5); add F(7.0); "
            "add Snk(); }")
        assert "* 2.5" in code
        assert "* 7.0" in code
        assert "VF_work" in code and "VF_1_work" in code

    def test_field_becomes_prefixed_static(self):
        code = fifo_code(
            "float->float filter F() { float acc; work push 1 pop 1 "
            "{ acc = acc + pop(); push(acc); } }" + PIPE)
        assert "static f64 VF_acc" in code

    def test_array_field_dims(self):
        code = fifo_code(
            "float->float filter F() { float[3][4] m; work push 1 pop 1 "
            "{ push(pop() + m[1][2]); } }" + PIPE)
        assert "VF_m[3][4]" in code

    def test_local_shadowing_field(self):
        code = fifo_code(
            "float->float filter F() { float x; work push 1 pop 1 "
            "{ float x = pop(); push(x); } }" + PIPE)
        assert "l_x" in code

    def test_helper_emitted_per_instance(self):
        code = fifo_code(
            "float->float filter F() { "
            "float g(float v) { return v * 2; } "
            "work push 1 pop 1 { push(g(pop())); } }" + PIPE)
        assert "VF_g(" in code

    def test_schedule_runs_compressed(self):
        code = fifo_code(
            "float->float filter F() { work push 1 pop 4 "
            "{ push(pop()); pop(); pop(); pop(); } }" + PIPE)
        # Src fires 4x per steady iteration -> compressed into a loop
        assert "for (int i = 0; i < 4; i++)" in code

    def test_prework_function(self):
        code = fifo_code(
            "float->float filter F() { prework push 1 { push(0); } "
            "work push 1 pop 1 { push(pop()); } }" + PIPE)
        assert "VF_prework" in code

    def test_enqueue_in_setup(self):
        code = fifo_code(
            "float->float filter Mix() { work push 2 pop 2 { "
            "float a = pop(); float b = pop(); push(a + b); "
            "push(a - b); } }"
            "float->float filter Id() { work push 1 pop 1 "
            "{ push(pop()); } }"
            "void->void pipeline P { add Src(); add feedbackloop { "
            "join roundrobin(1, 1); body Mix(); loop Id(); "
            "split roundrobin(1, 1); enqueue 0.125; }; add Snk(); }")
        assert "_push(0.125);" in code

    def test_intrinsic_spellings(self):
        code = fifo_code(
            "float->float filter F() { work push 1 pop 1 { float v = "
            "pop(); push(sin(v) + repro_placeholder(v)); } }"
            .replace(" + repro_placeholder(v)", " + abs(v) + min(v, 1.0) "
                     "+ round(v)") + PIPE)
        assert "sin((f64)" in code
        assert "fabs(" in code
        assert "repro_min_f64(" in code
        assert "repro_round(" in code

    def test_int_abs_uses_int_helper(self):
        code = compile_source(
            "void->int filter S() { work push 1 { push(randi(9)); } }"
            "int->int filter F() { work push 1 pop 1 "
            "{ push(abs(pop() - 5)); } }"
            "int->void filter P() { work pop 1 { println(pop()); } }"
            "void->void pipeline Top { add S(); add F(); add P(); }"
        ).fifo_c()
        assert "repro_abs_i32(" in code


class TestLaminarCodegen:
    def test_state_slots_are_statics(self):
        code = laminar_code(
            "float->float filter F() { float[4] h; int idx; "
            "work push 1 pop 1 { h[idx & 3] = pop(); idx = idx + 1; "
            "push(h[idx & 3]); } }" + PIPE)
        assert "static f64 F_h[4];" in code
        # idx is scalar state but dynamic-indexed array blocks only h
        assert "repro_steady" in code

    def test_carry_variables_are_statics(self):
        code = laminar_code(
            "float->float filter F() { work push 1 pop 1 peek 3 "
            "{ push(peek(0) + peek(2)); pop(); } }" + PIPE)
        assert "/* rotate loop-carried tokens */" in code
        assert code.count("static f64 t") >= 2

    def test_two_phase_rotation(self):
        code = laminar_code(
            "float->float filter F() { work push 1 pop 1 peek 2 "
            "{ push(peek(1) - peek(0)); pop(); } }" + PIPE)
        # next-values computed into n0.. before assignment
        assert "f64 n0 = " in code

    def test_no_elimination_emits_moves(self):
        base = (
            "float->float filter Id() { work push 1 pop 1 "
            "{ push(pop()); } }"
            "void->void pipeline P { add Src(); add splitjoin { "
            "split duplicate; add Id(); add Id(); "
            "join roundrobin(1, 1); }; add Snk(); }")
        kept = laminar_code(base,
                            LoweringOptions(eliminate_splitjoin=False))
        eliminated = laminar_code(base)
        assert len(kept) > len(eliminated)

    def test_int_min_literal(self):
        from repro.backend.laminar_c import generate_laminar_c
        from repro.lir import (BinOp, PrintOp, Program, Temp, const_int)
        from repro.frontend.types import INT
        program = Program(name="edge")
        t = Temp(INT)
        program.steady = [
            BinOp(result=t, op="+", lhs=const_int(-2147483648),
                  rhs=const_int(0)),
            PrintOp(result=None, value=t),
        ]
        code = generate_laminar_c(program)
        assert "(-2147483647 - 1)" in code

    def test_boolean_prints_as_int(self):
        code = compile_source(
            "void->int filter S() { work push 1 { push(randi(2)); } }"
            "int->void filter P() { work pop 1 "
            "{ println(pop()); } }"
            "void->void pipeline Top { add S(); add P(); }").laminar_c()
        assert "repro_print_i32(" in code

    def test_setup_init_steady_present(self, demo_stream):
        code = demo_stream.laminar_c()
        for section in ("repro_setup", "repro_init_schedule",
                        "repro_steady"):
            assert f"static void {section}(void)" in code

    @pytest.mark.parametrize("profile", [False, True],
                             ids=["plain", "profile"])
    def test_prologue_marks_run_once_sections_only(self, demo_stream,
                                                   profile):
        code = generate_laminar_c(demo_stream.lower().program,
                                  profile=profile)
        assert code.count('#define REPRO_PROLOGUE __attribute__(('
                          'noinline, optimize("O1")))') == 1
        assert code.count("REPRO_PROLOGUE static void") == 2
        for section in ("repro_setup", "repro_init_schedule"):
            assert f"\nREPRO_PROLOGUE static void {section}(void)" in code
        assert "\nstatic void repro_steady(void)" in code


# sha256 prefixes of the repro_steady text: the run-once prologue is
# compiled for compile time, but the timed section must not change with
# it.  Re-pin only for a change meant to alter the steady C (and bump
# CODEGEN_VERSION with it).
STEADY_DIGESTS = {
    ("autocor", 1): "0e4084bfa3bdfefc",
    ("beamformer", 1): "ffb70e682e6d4da6",
    ("bitonic_sort", 1): "2fb905f1dd9dddb2",
    ("channel_vocoder", 1): "59b5d2b670a16317",
    ("dct", 1): "36f4d0bd21beaa09",
    ("fft", 1): "5de9f8fc5f3699fd",
    ("filterbank", 1): "124c0d755ede06a2",
    ("fm_radio", 1): "01ff571d7ccf9b2d",
    ("histogram", 1): "8381692afb1a1ab2",
    ("lattice", 1): "1f0b85f1cef4b08e",
    ("matrixmult", 1): "e62bfb45b3ba1366",
    ("rate_convert", 1): "c1f70a7139cc5d55",
    ("tde", 1): "4129c71a1df21a60",
    ("tea_cipher", 1): "ef8b3e62ff8b6b03",
    ("autocor", 4): "8ce2f5c56efbf56e",
    ("bitonic_sort", 4): "7779839484da5749",
    ("fft", 4): "91da69cb22ae34c8",
    ("filterbank", 4): "36215bc867749a7e",
    ("matrixmult", 4): "c4fbb659bfd45073",
}


# Ceilings on the whole LaminarIR C file, in bytes: a program that loses
# a loop region grows by the unrolled body (matrixmult x4 from 10.6 kB
# to 42 kB), which the digest alone reports only as "changed".
# filterbank x4's FIR runs stay unrolled, so that their upsampler zeros
# fold; that costs 4.8 kB of C over the regions that gathered them.
C_SIZE_CEILINGS = {
    ("autocor", 1): 17_141,
    ("beamformer", 1): 78_493,
    ("bitonic_sort", 1): 14_170,
    ("channel_vocoder", 1): 57_921,
    ("dct", 1): 17_916,
    ("fft", 1): 14_375,
    ("filterbank", 1): 131_463,
    ("fm_radio", 1): 41_107,
    ("histogram", 1): 21_585,
    ("lattice", 1): 5_471,
    ("matrixmult", 1): 6_199,
    ("rate_convert", 1): 7_818,
    ("tde", 1): 26_763,
    ("tea_cipher", 1): 5_603,
    ("autocor", 4): 65_396,
    ("bitonic_sort", 4): 96_036,
    ("fft", 4): 70_994,
    ("filterbank", 4): 340_698,
    ("matrixmult", 4): 10_599,
}


def test_steady_digests_cover_the_suite():
    assert {name for name, scale in STEADY_DIGESTS if scale == 1} == \
        set(benchmark_names(include_extras=True))
    assert set(C_SIZE_CEILINGS) == set(STEADY_DIGESTS)


@pytest.mark.parametrize("name,scale", sorted(STEADY_DIGESTS))
def test_steady_text_is_pinned(name, scale):
    code = load_benchmark(name, scale=scale).laminar_c()
    steady = function_text(code, "repro_steady")
    assert hashlib.sha256(steady.encode()).hexdigest()[:16] == \
        STEADY_DIGESTS[name, scale]
    assert len(code) <= C_SIZE_CEILINGS[name, scale]


# -- carried peek windows and constant elements ---------------------------

def _two_windows(size: int = 14):
    """Two carried windows, each shifting by one per iteration, whose
    fresh tokens read each other: A's is B's element ``b5``, which B's
    shift overwrites, and B's is ``a0 + 0.5``.  Each iteration prints
    ``a0`` and ``b0``."""
    from repro.frontend.types import FLOAT
    from repro.lir import BinOp, PrintOp, Program, Temp, const_float
    program = Program(name="windows")
    a = [Temp(FLOAT) for _ in range(size)]
    b = [Temp(FLOAT) for _ in range(size)]
    fresh = Temp(FLOAT)
    program.steady = [
        PrintOp(result=None, value=a[0]),
        PrintOp(result=None, value=b[0]),
        BinOp(result=fresh, op="+", lhs=a[0], rhs=const_float(0.5)),
    ]
    program.carry_params = a + b
    program.carry_inits = [const_float(k + 1.0) for k in range(size)] + \
        [const_float(-k - 1.0) for k in range(size)]
    program.carry_nexts = a[1:] + [b[5]] + b[1:] + [fresh]
    program.prints_per_iteration = 2
    return program


class TestCarriedWindows:
    def test_fm_radio_shifts_each_window_once(self):
        from repro.backend.laminar_c import carry_windows
        program = load_benchmark("fm_radio").lower().program
        windows = carry_windows(program.carry_params, program.carry_nexts)
        assert {(size, shift) for _, size, shift in windows} == \
            {(27, 5), (31, 1)}
        steady = function_text(generate_laminar_c(program), "repro_steady")
        assert steady.count("memmove(") == len(windows)
        for number, (start, size, shift) in enumerate(windows):
            assert steady.count(f"memmove(cw{number}, ") == 1
            for index in range(start, start + size - shift):
                assert f" n{index} = " not in steady
            for index in range(start + size - shift, start + size):
                assert f"    cw{number}[{index - start}] = n{index};" \
                    in steady

    def test_rate_convert_keeps_scalar_carries(self):
        program = load_benchmark("rate_convert").lower().program
        code = generate_laminar_c(program)
        assert "memmove(" not in code and "cw0" not in code
        steady = function_text(code, "repro_steady")
        for index, param in enumerate(program.carry_params):
            assert f" n{index} = " in steady
            assert f"    t{param.id} = n{index};" in steady

    def test_fresh_token_read_from_another_window(self):
        code = generate_laminar_c(_two_windows())
        steady = function_text(code, "repro_steady")
        assert "static f64 cw0[14];" in code and "static f64 cw1[14];" in code
        # Both fresh tokens are captured before either window shifts.
        assert steady.index("f64 n13 = cw1[5];") \
            < steady.index("memmove(cw0, ")
        assert steady.index("f64 n27 = ") < steady.index("memmove(cw1, ")

    def test_short_window_stays_scalar(self):
        code = generate_laminar_c(_two_windows(size=12))
        assert "memmove(" not in code and "cw0" not in code


class TestMain:
    def test_plain_main_is_the_seed_main(self, tiny_stream):
        # Both backends end in the one seed main, and so does the
        # profile build: profiling adds no code to main().
        program = tiny_stream.lower().program
        assert generate_laminar_c(program).endswith(C_MAIN)
        assert generate_laminar_c(program, profile=True).endswith(C_MAIN)
        assert tiny_stream.fifo_c().endswith(C_MAIN)

    def test_profile_build_reads_no_environment(self, tiny_stream):
        code = generate_laminar_c(tiny_stream.lower().program,
                                  profile=True)
        assert "profile-json" in code
        assert "REPRO_HEARTBEAT_MS" not in code
        assert "getenv(" not in code


@requires_cc
class TestWindowsNative:
    def test_rotation_order_is_bit_exact(self, tmp_path):
        from repro.backend import checksum_outputs, compile_and_run
        from repro.interp import LaminarInterpreter
        program = _two_windows()
        iterations = 40
        expected = LaminarInterpreter(program).run(iterations).outputs
        assert expected[:4] == [1.0, -1.0, 2.0, -2.0]
        native = compile_and_run(generate_laminar_c(program), iterations,
                                 workdir=tmp_path)
        assert native.checksum == checksum_outputs(expected)

    def test_profile_build_is_bit_exact(self, tmp_path):
        from repro.backend import checksum_outputs, compile_and_run
        stream = load_benchmark("beamformer")
        iterations = 3
        code = generate_laminar_c(stream.lower().program, profile=True)
        assert "memmove(cw0, " in code
        native = compile_and_run(code, iterations, workdir=tmp_path)
        assert native.checksum == \
            checksum_outputs(stream.run_fifo(iterations).outputs)
