"""Tests for elaboration (builder) and flattening."""

import pytest

from repro.frontend import parse_and_check
from repro.frontend.errors import ElaborationError
from repro.frontend.types import ArrayType, FLOAT
from repro.graph import (FeedbackLoopNode, FilterNode, PipelineNode,
                         SplitJoinNode, elaborate, flatten, graph_stats)
from repro.graph.nodes import FilterVertex, JoinerVertex, SplitterVertex

PREAMBLE = """
float->float filter Id() { work push 1 pop 1 { push(pop()); } }
float->float filter Scale(float k) { work push 1 pop 1 { push(pop() * k); } }
float->float filter Win(int n) {
  work push 1 pop 1 peek n {
    float s = 0;
    for (int i = 0; i < n; i++) s += peek(i);
    push(s); pop();
  }
}
void->float filter Src() { work push 1 { push(randf()); } }
float->void filter Snk() { work pop 1 { println(pop()); } }
"""


def build(top):
    return elaborate(parse_and_check(PREAMBLE + top))


def build_flat(top):
    return flatten(build(top))


class TestElaboration:
    def test_pipeline_children(self):
        root = build("void->void pipeline P { add Src(); add Id(); "
                     "add Snk(); }")
        assert isinstance(root, PipelineNode)
        assert [type(c).__name__ for c in root.children] == \
            ["FilterNode", "FilterNode", "FilterNode"]

    def test_parameter_binding(self):
        root = build("void->void pipeline P { add Src(); add Scale(2.5); "
                     "add Snk(); }")
        scale = root.children[1]
        assert isinstance(scale, FilterNode)
        assert scale.env["k"] == 2.5

    def test_int_arg_coerced_to_float_param(self):
        root = build("void->void pipeline P { add Src(); add Scale(3); "
                     "add Snk(); }")
        assert root.children[1].env["k"] == 3.0
        assert isinstance(root.children[1].env["k"], float)

    def test_composite_locals_evaluate_as_at_run_time(self):
        # A float local divides as a float, and int arithmetic wraps:
        # 1 << 31 is INT_MIN, and INT_MIN * 4 + 9 is 9.
        root = build("void->void pipeline P { float f = 1; f = f / 2; "
                     "int s = 1 << 31; s *= 4; add Src(); add Scale(f); "
                     "add Win(s + 9); add Snk(); }")
        assert root.children[1].env["k"] == 0.5
        assert root.children[2].work.peek == 9

    def test_rates_resolved(self):
        root = build("void->void pipeline P { add Src(); add Win(5); "
                     "add Snk(); }")
        win = root.children[1]
        assert (win.work.push, win.work.pop, win.work.peek) == (1, 1, 5)

    def test_peek_defaults_to_pop(self):
        root = build("void->void pipeline P { add Src(); add Id(); "
                     "add Snk(); }")
        assert root.children[1].work.peek == 1

    def test_composite_for_loop(self):
        root = build("void->void pipeline P { add Src(); "
                     "for (int i = 0; i < 3; i++) add Scale(i); "
                     "add Snk(); }")
        scales = root.children[1:4]
        assert [s.env["k"] for s in scales] == [0.0, 1.0, 2.0]

    def test_composite_if(self):
        root = build("void->void pipeline P { int n = 2; add Src(); "
                     "if (n > 1) add Id(); else add Scale(9); add Snk(); }")
        assert root.children[1].decl.name == "Id"

    def test_instance_names_unique(self):
        root = build("void->void pipeline P { add Src(); add Id(); "
                     "add Id(); add Snk(); }")
        names = [c.name for c in root.children]
        assert len(set(names)) == len(names)

    def test_field_array_sizes_resolved(self):
        source = PREAMBLE + """
        float->float filter Tab(int n) {
          float[n] t;
          work push 1 pop 1 { push(pop() + t[0]); }
        }
        void->void pipeline P { add Src(); add Tab(7); add Snk(); }
        """
        root = elaborate(parse_and_check(source))
        tab = root.children[1]
        ty = tab.field_types["t"]
        assert isinstance(ty, ArrayType)
        assert ty.size == 7

    def test_splitjoin_weights(self):
        root = build("void->void pipeline P { add Src(); add splitjoin { "
                     "split duplicate; add Id(); add Id(); "
                     "join roundrobin(2, 3); }; add Snk(); }")
        sj = root.children[1]
        assert isinstance(sj, SplitJoinNode)
        assert sj.join_weights == [2, 3]

    def test_single_weight_shorthand(self):
        root = build("void->void pipeline P { add Src(); add splitjoin { "
                     "split roundrobin(2); add Id(); add Id(); add Id(); "
                     "join roundrobin; }; add Snk(); }")
        sj = root.children[1]
        assert sj.split_weights == [2, 2, 2]
        assert sj.join_weights == [1, 1, 1]

    def test_weight_count_mismatch(self):
        with pytest.raises(ElaborationError, match="weight"):
            build("void->void pipeline P { add Src(); add splitjoin { "
                  "split roundrobin(1, 2, 3); add Id(); add Id(); "
                  "join roundrobin; }; add Snk(); }")

    def test_type_mismatch_in_pipeline(self):
        source = """
        void->int filter ISrc() { work push 1 { push(1); } }
        float->void filter FSnk() { work pop 1 { println(pop()); } }
        void->void pipeline P { add ISrc(); add FSnk(); }
        """
        with pytest.raises(ElaborationError, match="produces int"):
            elaborate(parse_and_check(source))

    def test_negative_rate_rejected(self):
        source = PREAMBLE + """
        float->float filter Bad(int n) {
          work push n pop 1 { push(pop()); }
        }
        void->void pipeline P { add Src(); add Bad(0 - 1); add Snk(); }
        """
        with pytest.raises(ElaborationError, match="non-negative"):
            elaborate(parse_and_check(source))

    def test_peek_less_than_pop_rejected(self):
        source = PREAMBLE + """
        float->float filter Bad() {
          work push 1 pop 3 peek 2 { push(pop()); pop(); pop(); }
        }
        void->void pipeline P { add Src(); add Bad(); add Snk(); }
        """
        with pytest.raises(ElaborationError, match="peek rate 2 < pop"):
            elaborate(parse_and_check(source))

    def test_anonymous_capture(self):
        root = build("void->void pipeline P { int k = 4; add Src(); "
                     "add pipeline { add Scale(k); }; add Snk(); }")
        inner = root.children[1]
        assert isinstance(inner, PipelineNode)
        assert inner.children[0].env["k"] == 4.0

    def test_feedbackloop_elaborates(self):
        source = PREAMBLE + """
        float->float filter Mix() {
          work push 1 pop 2 { push((peek(0) + peek(1)) / 2); pop(); pop(); }
        }
        void->void pipeline P {
          add Src();
          add feedbackloop {
            join roundrobin(1, 1);
            body Mix();
            loop Scale(0.5);
            split roundrobin(1, 1);
            enqueue 0.0;
          };
          add Snk();
        }
        """
        root = elaborate(parse_and_check(source))
        loop = root.children[1]
        assert isinstance(loop, FeedbackLoopNode)
        assert loop.enqueued == [0.0]


class TestFlattening:
    def test_linear_pipeline_shape(self, ):
        graph = build_flat("void->void pipeline P { add Src(); add Id(); "
                           "add Snk(); }")
        assert len(graph.vertices) == 3
        assert len(graph.channels) == 2

    def test_splitjoin_shape(self):
        graph = build_flat(
            "void->void pipeline P { add Src(); add splitjoin { "
            "split duplicate; add Id(); add Id(); join roundrobin; }; "
            "add Snk(); }")
        stats = graph_stats(graph)
        assert stats == {"filters": 4, "splitters": 1, "joiners": 1,
                         "channels": 6, "peeking_filters": 0}

    def test_duplicate_splitter_weights_filled(self):
        graph = build_flat(
            "void->void pipeline P { add Src(); add splitjoin { "
            "split duplicate; add Id(); add Id(); add Id(); "
            "join roundrobin; }; add Snk(); }")
        splitter = graph.splitters[0]
        assert splitter.weights == [1, 1, 1]

    def test_ports_fully_connected(self, demo_stream):
        for vertex in demo_stream.graph.vertices:
            assert all(ch is not None for ch in vertex.inputs)
            assert all(ch is not None for ch in vertex.outputs)

    def test_topological_order_respects_edges(self):
        graph = build_flat("void->void pipeline P { add Src(); add Id(); "
                           "add Snk(); }")
        order = graph.topological_order()
        position = {v: i for i, v in enumerate(order)}
        for channel in graph.channels:
            if not channel.initial:
                assert position[channel.src] < position[channel.dst]

    def test_feedbackloop_flat_shape(self):
        source = PREAMBLE + """
        float->float filter Mix() {
          work push 1 pop 2 { push((peek(0) + peek(1)) / 2); pop(); pop(); }
        }
        void->void pipeline P {
          add Src();
          add feedbackloop {
            join roundrobin(1, 1);
            body Mix();
            loop Scale(0.5);
            split roundrobin(1, 1);
            enqueue 0.0;
          };
          add Snk();
        }
        """
        graph = flatten(elaborate(parse_and_check(source)))
        joiners = graph.joiners
        assert len(joiners) == 1
        back = [ch for ch in graph.channels if ch.initial]
        assert len(back) == 1
        assert back[0].dst is joiners[0]

    def test_feedbackloop_without_enqueue_rejected(self):
        source = PREAMBLE + """
        float->float filter Mix() {
          work push 1 pop 2 { push(peek(0)); pop(); pop(); }
        }
        void->void pipeline P {
          add Src();
          add feedbackloop {
            join roundrobin(1, 1);
            body Mix();
            loop Scale(0.5);
            split roundrobin(1, 1);
          };
          add Snk();
        }
        """
        with pytest.raises(ElaborationError, match="no enqueued"):
            flatten(elaborate(parse_and_check(source)))

    def test_filter_vertex_rates(self):
        graph = build_flat("void->void pipeline P { add Src(); add Win(4); "
                           "add Snk(); }")
        win = [v for v in graph.filters if "Win" in v.name][0]
        assert win.pop_rate(0) == 1
        assert win.peek_rate(0) == 4
        assert win.push_rate(0) == 1

    def test_splitter_vertex_rates(self):
        graph = build_flat(
            "void->void pipeline P { add Src(); add splitjoin { "
            "split roundrobin(2, 3); add Id(); add Id(); "
            "join roundrobin(1, 1); }; add Snk(); }")
        splitter = graph.splitters[0]
        assert splitter.pop_rate(0) == 5
        assert splitter.push_rate(0) == 2
        assert splitter.push_rate(1) == 3
        joiner = graph.joiners[0]
        assert joiner.pop_rate(1) == 1
        assert joiner.push_rate(0) == 2
