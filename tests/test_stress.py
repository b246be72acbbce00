"""Stress and robustness tests: deep pipelines, wide splitjoins, large
peek windows, and heavy repetition vectors."""

import pytest

from repro import check_equivalence, compile_source
from repro.faults import ResourceExhausted, ResourceLimits, use_limits
from repro.lir import lower, verify

PREAMBLE = """
void->float filter Src() { work push 1 { push(randf()); } }
float->void filter Snk() { work pop 1 { println(pop()); } }
"""


class TestDeepAndWide:
    def test_deep_pipeline(self):
        stages = "".join(
            f"float->float filter S{i}() {{ work push 1 pop 1 "
            f"{{ push(pop() * {1.0 + i / 100.0}); }} }}"
            for i in range(60))
        adds = "".join(f"add S{i}();" for i in range(60))
        stream = compile_source(
            PREAMBLE + stages +
            f"void->void pipeline P {{ add Src(); {adds} add Snk(); }}")
        assert len(stream.graph.filters) == 62
        report = check_equivalence(stream, iterations=3)
        assert report.matches

    def test_wide_splitjoin(self):
        stream = compile_source(
            PREAMBLE +
            "float->float filter Id() { work push 1 pop 1 "
            "{ push(pop()); } }"
            "void->void pipeline P { add Src(); add splitjoin { "
            "split duplicate; "
            "for (int i = 0; i < 24; i++) add Id(); "
            "join roundrobin; }; add Snk(); }")
        assert check_equivalence(stream, iterations=2).matches
        # every branch reads the same source token directly
        program = stream.lower().program
        verify(program)

    def test_large_peek_window(self):
        stream = compile_source(
            PREAMBLE +
            "float->float filter Big() { work push 1 pop 1 peek 128 { "
            "float s = 0; for (int i = 0; i < 128; i++) s += peek(i); "
            "push(s); pop(); } }"
            "void->void pipeline P { add Src(); add Big(); add Snk(); }")
        program = stream.lower().program
        assert len(program.carry_params) == 127
        assert check_equivalence(stream, iterations=2).matches

    def test_heavy_repetition_vector(self):
        # 5:7 and 7:5 conversions force reps of lcm scale
        stream = compile_source(
            PREAMBLE +
            "float->float filter Up() { work push 7 pop 5 { "
            "float s = 0; for (int i = 0; i < 5; i++) s += pop(); "
            "for (int i = 0; i < 7; i++) push(s + i); } }"
            "float->float filter Down() { work push 5 pop 7 { "
            "float s = 0; for (int i = 0; i < 7; i++) s += pop(); "
            "for (int i = 0; i < 5; i++) push(s - i); } }"
            "void->void pipeline P { add Src(); add Up(); add Down(); "
            "add Snk(); }")
        reps = {v.name: r for v, r in stream.schedule.reps.items()}
        # Up: 5 -> 7 and Down: 7 -> 5 cancel, so they fire equally often
        assert reps["Up"] == 1 and reps["Down"] == 1
        assert reps["Src"] == 5 and reps["Snk"] == 5
        assert check_equivalence(stream, iterations=2).matches

    def test_nested_splitjoin_tower(self):
        # three levels of nesting
        stream = compile_source(
            PREAMBLE +
            "float->float filter Id() { work push 1 pop 1 "
            "{ push(pop()); } }"
            "float->float splitjoin L1 { split roundrobin(1, 1); "
            "add Id(); add Id(); join roundrobin(1, 1); }"
            "float->float splitjoin L2 { split duplicate; "
            "add L1(); add Id(); join roundrobin(1, 1); }"
            "float->float splitjoin L3 { split roundrobin(3, 1); "
            "add L2(); add Id(); join roundrobin(6, 1); }"  # L2 doubles
            "void->void pipeline P { add Src(); add L3(); add Snk(); }")
        assert check_equivalence(stream, iterations=4).matches


class TestLimits:
    def test_op_limit_enforced(self):
        stream = compile_source(
            PREAMBLE +
            "float->float filter Heavy() { work push 1 pop 1 { "
            "float s = pop(); for (int i = 0; i < 500; i++) "
            "s = s * 1.0001 + i; push(s); } }"
            "void->void pipeline P { add Src(); add Heavy(); add Snk(); }")
        with use_limits(ResourceLimits(max_unrolled_ops=100)), \
                pytest.raises(ResourceExhausted) as info:
            lower(stream.schedule, stream.source)
        assert info.value.resource == "max_unrolled_ops"
        assert info.value.limit == 100
        assert "filter 'Heavy'" in info.value.where

    def test_graph_size_guard(self):
        from repro.frontend import parse_and_check
        from repro.frontend.errors import ElaborationError
        from repro.graph import elaborate
        source = (
            "float->float filter Id() { work push 1 pop 1 "
            "{ push(pop()); } }"
            "void->void pipeline P { "
            "for (int i = 0; i < 100000; i++) add Id(); }")
        with pytest.raises(ElaborationError, match="instances"):
            elaborate(parse_and_check(source))

    def test_composite_loop_guard(self):
        from repro.frontend import parse_and_check
        from repro.frontend.errors import ElaborationError
        from repro.graph import elaborate
        source = (
            "float->float filter Id() { work push 1 pop 1 "
            "{ push(pop()); } }"
            "void->void pipeline P { int i = 0; "
            "for (i = 0; i >= 0; i = i) add Id(); }")
        with pytest.raises(ElaborationError):
            elaborate(parse_and_check(source))


class TestProgramIntrospection:
    def test_op_counts(self, demo_stream):
        counts = demo_stream.lower().program.op_counts()
        assert set(counts) == {"setup", "init", "steady"}
        assert counts["steady"].get("PrintOp", 0) > 0

    def test_ops_have_str(self, demo_stream):
        program = demo_stream.lower().program
        for _title, ops in program.sections():
            for op in ops:
                text = str(op)
                assert text and "Op" not in text.split()[0]

    def test_steady_op_count_property(self, demo_stream):
        program = demo_stream.lower().program
        assert program.steady_op_count == len(program.steady)
