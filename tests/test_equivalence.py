"""The central correctness property (E8): for every program, the FIFO
baseline route and the LaminarIR route produce identical output streams,
under every combination of lowering/optimization options."""

import pytest

from repro import (LoweringOptions, OptOptions, check_equivalence,
                   compile_source)
from repro.suite import benchmark_names, load_benchmark

PREAMBLE = """
void->float filter Src() { work push 1 { push(randf()); } }
float->void filter Snk() { work pop 1 { println(pop()); } }
"""


def assert_equivalent(body, iterations=6, **kwargs):
    stream = compile_source(PREAMBLE + body)
    report = check_equivalence(stream, iterations=iterations, **kwargs)
    assert report.matches, (
        f"outputs diverge: {report.fifo.outputs[:5]} vs "
        f"{report.laminar.outputs[:5]}")
    return report


class TestConstructs:
    def test_identity(self):
        assert_equivalent(
            "void->void pipeline P { add Src(); add Snk(); }")

    def test_peeking(self):
        assert_equivalent(
            "float->float filter W() { work push 1 pop 1 peek 7 "
            "{ float s = 0; for (int i = 0; i < 7; i++) s += peek(i); "
            "push(s); pop(); } }"
            "void->void pipeline P { add Src(); add W(); add Snk(); }")

    def test_upsample_downsample(self):
        assert_equivalent(
            "float->float filter Up() { work push 3 pop 1 "
            "{ float v = pop(); push(v); push(v * 2); push(v * 3); } }"
            "float->float filter Down() { work push 1 pop 2 "
            "{ push(pop() + peek(0)); pop(); } }"
            "void->void pipeline P { add Src(); add Up(); add Down(); "
            "add Snk(); }")

    def test_duplicate_splitjoin(self):
        assert_equivalent(
            "float->float filter A() { work push 1 pop 1 "
            "{ push(pop() * 2); } }"
            "float->float filter B() { work push 1 pop 1 "
            "{ push(pop() + 1); } }"
            "void->void pipeline P { add Src(); add splitjoin { "
            "split duplicate; add A(); add B(); join roundrobin(1, 1); }; "
            "add Snk(); }")

    def test_weighted_roundrobin(self):
        assert_equivalent(
            "float->float filter Id() { work push 1 pop 1 "
            "{ push(pop()); } }"
            "void->void pipeline P { add Src(); add splitjoin { "
            "split roundrobin(2, 3); add Id(); add Id(); "
            "join roundrobin(2, 3); }; add Snk(); }")

    def test_nested_splitjoins(self):
        assert_equivalent(
            "float->float filter Id() { work push 1 pop 1 "
            "{ push(pop()); } }"
            "void->void pipeline P { add Src(); add splitjoin { "
            "split duplicate; add splitjoin { split roundrobin(1, 1); "
            "add Id(); add Id(); join roundrobin(1, 1); }; add Id(); "
            "join roundrobin(1, 1); }; add Snk(); }")

    def test_stateful_filter(self):
        assert_equivalent(
            "float->float filter IIR() { float s; init { s = 0; } "
            "work push 1 pop 1 { s = 0.7 * s + 0.3 * pop(); push(s); } }"
            "void->void pipeline P { add Src(); add IIR(); add Snk(); }")

    def test_prework_delay(self):
        assert_equivalent(
            "float->float filter D() { "
            "prework push 3 { push(0); push(0); push(0); } "
            "work push 1 pop 1 { push(pop()); } }"
            "void->void pipeline P { add Src(); add D(); add Snk(); }")

    def test_feedback_loop(self):
        assert_equivalent(
            "float->float filter Mix() { work push 2 pop 2 "
            "{ float a = pop(); float b = pop(); push(0.5 * a + 0.5 * b); "
            "push(a - 0.25 * b); } }"
            "float->float filter Damp() { work push 1 pop 1 "
            "{ push(pop() * 0.5); } }"
            "void->void pipeline P { add Src(); add feedbackloop { "
            "join roundrobin(1, 1); body Mix(); loop Damp(); "
            "split roundrobin(1, 1); enqueue 0.0; }; add Snk(); }")

    def test_int_bit_twiddling(self):
        stream = compile_source(
            "void->int filter S() { work push 1 { push(randi(65536)); } }"
            "int->int filter Twiddle() { work push 1 pop 1 "
            "{ int v = pop(); v = v ^ (v << 3); v = v & 262143; "
            "v = v | 5; v = ~v; push(v >> 1); } }"
            "int->void filter P() { work pop 1 { println(pop()); } }"
            "void->void pipeline Top { add S(); add Twiddle(); add P(); }")
        report = check_equivalence(stream, iterations=10)
        assert report.matches

    def test_dynamic_select(self):
        assert_equivalent(
            "float->float filter Clamp() { work push 1 pop 1 "
            "{ float v = pop(); push(v > 0.5 ? 0.5 : v); } }"
            "void->void pipeline P { add Src(); add Clamp(); add Snk(); }")

    def test_if_conversion_with_local_array(self):
        stream = compile_source(
            "void->int filter S() { work push 2 { push(randi(100)); "
            "push(randi(100)); } }"
            "int->int filter SortPair() { work push 2 pop 2 "
            "{ int[2] v; v[0] = pop(); v[1] = pop(); "
            "if (v[0] > v[1]) { int t = v[0]; v[0] = v[1]; v[1] = t; } "
            "push(v[0]); push(v[1]); } }"
            "int->void filter P() { work pop 1 { println(pop()); } }"
            "void->void pipeline Top { add S(); add SortPair(); add P(); }")
        report = check_equivalence(stream, iterations=10)
        assert report.matches
        # outputs must actually be sorted pairs
        outs = report.fifo.outputs
        for i in range(0, len(outs), 2):
            assert outs[i] <= outs[i + 1]

    def test_mixed_int_float_arithmetic(self):
        assert_equivalent(
            "float->float filter Mix() { work push 1 pop 1 "
            "{ int k = 3; float v = pop(); push(v * k + k / 2); } }"
            "void->void pipeline P { add Src(); add Mix(); add Snk(); }")

    def test_intrinsics(self):
        assert_equivalent(
            "float->float filter M() { work push 1 pop 1 "
            "{ float v = pop(); push(sqrt(abs(v)) + atan2(v, 2.0) "
            "+ min(v, 0.25) + pow(2.0, v) + fmod(v * 7, 1.3)); } }"
            "void->void pipeline P { add Src(); add M(); add Snk(); }")


class TestOptionMatrix:
    @pytest.mark.parametrize("opt", [
        OptOptions(pipeline=()),
        OptOptions(pipeline="cp,reroll,fold,carry,cse,dce,schedule"),
        OptOptions(pipeline="cp,promote,reroll,fold,carry,dce,schedule"),
        OptOptions(pipeline="cp,promote,reroll,carry,cse,dce,schedule"),
        OptOptions(),
    ], ids=["none", "no-promote", "no-cse", "no-fold", "all"])
    def test_demo_under_opt_options(self, demo_stream, opt):
        report = check_equivalence(demo_stream, iterations=5, opt=opt)
        assert report.matches

    def test_no_splitjoin_elimination(self, demo_stream):
        report = check_equivalence(
            demo_stream, iterations=5,
            lowering=LoweringOptions(eliminate_splitjoin=False))
        assert report.matches


@pytest.mark.parametrize("name",
                         benchmark_names(include_extras=True))
class TestSuiteEquivalence:
    def test_benchmark(self, name):
        stream = load_benchmark(name)
        report = check_equivalence(stream, iterations=3)
        assert report.matches
        assert report.output_count > 0
