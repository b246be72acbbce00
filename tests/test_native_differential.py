"""Differential testing against the native toolchain.

Every test compiles generated C with the host compiler and requires
bit-identical output checksums across all execution routes.  Skipped
when no compiler is available.
"""

import pytest

from repro import LoweringOptions, compile_source
from repro.backend import checksum_outputs, compile_and_run
from tests.conftest import function_text, requires_cc

pytestmark = requires_cc

PREAMBLE = """
void->float filter Src() { work push 1 { push(randf()); } }
float->void filter Snk() { work pop 1 { println(pop()); } }
"""

# Programs chosen to stress distinct codegen paths.
PROGRAMS = {
    "weighted_roundrobin": (
        PREAMBLE +
        "float->float filter Id() { work push 1 pop 1 { push(pop()); } }"
        "void->void pipeline P { add Src(); add splitjoin { "
        "split roundrobin(3, 2); add Id(); add Id(); "
        "join roundrobin(3, 2); }; add Snk(); }"),
    "stateful_iir": (
        PREAMBLE +
        "float->float filter IIR(float a) { float s; init { s = 0; } "
        "work push 1 pop 1 { s = a * s + (1 - a) * pop(); push(s); } }"
        "void->void pipeline P { add Src(); add IIR(0.9); add IIR(0.5); "
        "add Snk(); }"),
    "int_hash_chain": (
        "void->int filter S() { work push 1 { push(randi(1000000)); } }"
        "int->int filter H() { work push 1 pop 1 { int v = pop(); "
        "v = v * 2654435761; v = v ^ (v >> 16); v = v * 2246822519; "
        "push(v ^ (v >> 13)); } }"
        "int->void filter P() { work pop 1 { println(pop()); } }"
        "void->void pipeline Top { add S(); add H(); add H(); add P(); }"),
    "select_heavy": (
        PREAMBLE +
        "float->float filter Tri() { work push 1 pop 1 { "
        "float v = pop(); float r = v < 0.33 ? v * 3 "
        ": v < 0.66 ? 2 - v * 3 : v - 0.66; push(r); } }"
        "void->void pipeline P { add Src(); add Tri(); add Snk(); }"),
    "feedback": (
        PREAMBLE +
        "float->float filter Mix() { work push 2 pop 2 { "
        "float a = pop(); float b = pop(); push(a + 0.5 * b); "
        "push(a - 0.5 * b); } }"
        "float->float filter Id() { work push 1 pop 1 { push(pop()); } }"
        "void->void pipeline P { add Src(); add feedbackloop { "
        "join roundrobin(1, 1); body Mix(); loop Id(); "
        "split roundrobin(1, 1); enqueue 0.25; }; add Snk(); }"),
    "helper_early_return": (
        PREAMBLE +
        "float->float filter F() { "
        "float clamp(float x) { if (x > 0.8) return 0.8; "
        "if (x < 0.2) return 0.2; return x; } "
        "work push 1 pop 1 { push(clamp(pop())); } }"
        "void->void pipeline P { add Src(); add F(); add Snk(); }"),
}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_four_way_checksum(name, tmp_path):
    iterations = 24
    stream = compile_source(PROGRAMS[name])
    expected = checksum_outputs(stream.run_fifo(iterations).outputs)
    laminar = checksum_outputs(stream.run_laminar(iterations).outputs)
    assert laminar == expected, "interpreter routes diverge"
    native_fifo = compile_and_run(stream.fifo_c(), iterations,
                                  workdir=tmp_path, name="f")
    native_laminar = compile_and_run(stream.laminar_c(), iterations,
                                     workdir=tmp_path, name="l")
    assert native_fifo.checksum == expected, "native FIFO diverges"
    assert native_laminar.checksum == expected, "native LaminarIR diverges"


def test_scaled_native_matches(tmp_path):
    stream = compile_source(
        PREAMBLE +
        "float->float filter W() { work push 1 pop 1 peek 3 { "
        "push(peek(0) * 0.5 + peek(2)); pop(); } }"
        "void->void pipeline P { add Src(); add W(); add Snk(); }")
    iterations = 24
    expected = checksum_outputs(stream.run_fifo(iterations).outputs)
    for multiplier in (2, 4):
        code = stream.laminar_c(
            LoweringOptions(steady_multiplier=multiplier))
        native = compile_and_run(code, iterations // multiplier,
                                 workdir=tmp_path,
                                 name=f"scaled{multiplier}")
        assert native.checksum == expected, multiplier
        assert native.output_count == iterations


def test_ablation_native_matches(tmp_path):
    stream = compile_source(PROGRAMS["weighted_roundrobin"])
    iterations = 20
    expected = checksum_outputs(stream.run_fifo(iterations).outputs)
    code = stream.laminar_c(LoweringOptions(eliminate_splitjoin=False))
    native = compile_and_run(code, iterations, workdir=tmp_path)
    assert native.checksum == expected


# x + 1 > x at x = INT_MAX: false when ints wrap, folded to true by a
# compiler that treats signed overflow as undefined.  randi(1) is always
# 0 but opaque to the C compiler.  prework lands in the init schedule,
# which is compiled at its own per-function level; work is the -O3
# steady control.
WRAP_PROGRAM = """
void->int filter Edge() {
  prework push 1 { int x = 2147483647 - randi(1); push(x + 1 > x ? 1 : 0); }
  work push 1 { int x = 2147483647 - randi(1); push(x + 1 > x ? 1 : 0); }
}
int->void filter P() { work pop 1 { println(pop()); } }
void->void pipeline Top { add Edge(); add P(); }
"""


def test_prologue_keeps_wrapping_int_semantics(tmp_path):
    stream = compile_source(WRAP_PROGRAM)
    iterations = 4
    outputs = stream.run_fifo(iterations).outputs
    assert outputs == [0] * iterations
    code = stream.laminar_c()
    for section in ("repro_init_schedule", "repro_steady"):
        assert " + 1;" in function_text(code, section), section
    native = compile_and_run(code, iterations, workdir=tmp_path)
    assert native.checksum == checksum_outputs(outputs)


def test_suite_benchmark_native(tmp_path):
    from repro.suite import load_benchmark
    stream = load_benchmark("fft")
    iterations = 6
    expected = checksum_outputs(stream.run_fifo(iterations).outputs)
    native = compile_and_run(stream.laminar_c(), iterations,
                             workdir=tmp_path)
    assert native.checksum == expected


@pytest.mark.parametrize("name", ["filterbank", "beamformer", "dct",
                                  "fm_radio", "fft", "matrixmult",
                                  "channel_vocoder", "rate_convert",
                                  "lattice", "tde"])
def test_loop_region_arrays_sanitizer_clean(name, tmp_path):
    """Loop regions index gather and scatter arrays by the trip count:
    AddressSanitizer traps an index past an array's end, and
    UndefinedBehaviorSanitizer the arithmetic around it.  Together the
    programs cover every suite program whose run-once prologue is not
    empty, and every shape of region: unit trips of a firing's loop
    (tde, fft, matrixmult), if-converted bodies (channel_vocoder) and
    carried fields (rate_convert).  The carried peek windows of
    beamformer, channel_vocoder, filterbank and fm_radio are static
    arrays shifted by one memmove per iteration, and the sanitizer traps
    a shift past a window's end."""
    from repro.backend.runner import (SANITIZE_CFLAGS, compile_c,
                                      run_binary)
    from repro.suite import load_benchmark
    stream = load_benchmark(name)
    code = stream.laminar_c()
    iterations = 2
    optimized = run_binary(compile_c(code, tmp_path, name="o3"),
                           iterations)
    sanitized = run_binary(compile_c(code, tmp_path, SANITIZE_CFLAGS,
                                     name="sanitized"), iterations)
    assert sanitized.checksum == optimized.checksum
    assert optimized.checksum == \
        checksum_outputs(stream.run_fifo(iterations).outputs)
