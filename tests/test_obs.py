"""Tests for the observability subsystem (repro.obs)."""

import json
import threading

import pytest

from repro import compile_source
from repro.obs import bus, export, metrics, reqctx, sinks, trace
from tests.conftest import TINY_PROGRAM


@pytest.fixture(autouse=True)
def clean_tracer():
    trace.disable()
    trace.reset()
    yield
    trace.disable()
    trace.reset()


class TestTracerDisabled:
    def test_span_returns_shared_null_singleton(self):
        assert trace.span("a") is trace.span("b")

    def test_null_span_is_inert(self):
        with trace.span("a") as span:
            span.annotate(x=1)
        assert span.attrs == {}
        assert trace.get_trace() == []

    def test_current_span_is_null(self):
        assert trace.current_span() is trace.span("whatever")


class TestTracerEnabled:
    def test_nesting_builds_a_tree(self):
        trace.enable()
        with trace.span("compile", file="x.str"):
            with trace.span("parse"):
                pass
            with trace.span("flatten"):
                pass
        roots = trace.get_trace()
        assert [root.name for root in roots] == ["compile"]
        assert [child.name for child in roots[0].children] == \
            ["parse", "flatten"]
        assert roots[0].attrs == {"file": "x.str"}

    def test_durations_recorded(self):
        trace.enable()
        with trace.span("outer"):
            with trace.span("inner"):
                pass
        outer = trace.get_trace()[0]
        assert outer.duration is not None and outer.duration >= 0.0
        assert outer.children[0].duration is not None
        assert outer.duration >= outer.children[0].duration

    def test_annotate(self):
        trace.enable()
        with trace.span("s", a=1) as span:
            span.annotate(b=2)
        assert trace.get_trace()[0].attrs == {"a": 1, "b": 2}

    def test_exception_still_closes_span(self):
        trace.enable()
        with pytest.raises(ValueError):
            with trace.span("boom"):
                raise ValueError("x")
        span = trace.get_trace()[0]
        assert span.duration is not None

    def test_current_span(self):
        trace.enable()
        with trace.span("outer"):
            with trace.span("inner"):
                assert trace.current_span().name == "inner"
            assert trace.current_span().name == "outer"

    def test_enable_reset_clears_previous_trace(self):
        trace.enable()
        with trace.span("old"):
            pass
        trace.enable(reset=True)
        assert trace.get_trace() == []

    def test_traced_decorator(self):
        trace.enable()

        @trace.traced("labelled", kind="test")
        def work():
            return 42

        @trace.traced
        def bare():
            return 7

        assert work() == 42
        assert bare() == 7
        names = [span.name for span in trace.get_trace()]
        assert "labelled" in names
        assert any("bare" in name for name in names)

    def test_traced_decorator_noop_when_disabled(self):
        @trace.traced
        def work():
            return 1

        assert work() == 1
        assert trace.get_trace() == []

    def test_tracing_context_restores_disabled_state(self):
        assert not trace.is_enabled()
        with trace.tracing():
            assert trace.is_enabled()
            with trace.span("inside"):
                pass
        assert not trace.is_enabled()
        # Spans collected under tracing() stay readable afterwards.
        assert [span.name for span in trace.get_trace()] == ["inside"]

    def test_threads_get_their_own_roots(self):
        trace.enable()

        def worker(index):
            with trace.span(f"thread-span-{index}"):
                with trace.span("child"):
                    pass

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        with trace.span("main-span"):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        names = {span.name for span in trace.get_trace()}
        assert "main-span" in names
        assert {f"thread-span-{i}" for i in range(4)} <= names
        for root in trace.get_trace():
            if root.name.startswith("thread-span-"):
                assert [c.name for c in root.children] == ["child"]


class TestMetrics:
    def test_counter_gauge_histogram(self):
        registry = metrics.MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(4)
        registry.gauge("g").set(2.5)
        registry.histogram("h").observe(1.0)
        registry.histogram("h").observe(3.0)
        snapshot = registry.as_dict()
        assert snapshot["c"] == 5
        assert snapshot["g"] == 2.5
        assert snapshot["h"]["count"] == 2
        assert snapshot["h"]["mean"] == 2.0
        assert snapshot["h"]["min"] == 1.0
        assert snapshot["h"]["max"] == 3.0

    def test_as_dict_is_sorted(self):
        registry = metrics.MetricsRegistry()
        registry.counter("z").inc()
        registry.counter("a").inc()
        assert list(registry.as_dict()) == ["a", "z"]

    def test_type_conflict_raises(self):
        registry = metrics.MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_disabled_returns_shared_null_instrument(self):
        assert metrics.counter("a") is metrics.gauge("b")
        metrics.counter("a").inc()
        metrics.gauge("b").set(1)
        assert metrics.registry().as_dict() == {}

    def test_enabled_records_into_global_registry(self):
        trace.enable()
        metrics.counter("hits").inc(3)
        assert metrics.registry().as_dict()["hits"] == 3

    def test_publish_counters(self):
        trace.enable()
        from repro.interp.counters import Counters
        counters = Counters(loads=2, stores=3, alu=1)
        metrics.publish_counters("test.prefix", counters)
        snapshot = metrics.registry().as_dict()
        assert snapshot["test.prefix.loads"] == 2
        assert snapshot["test.prefix.memory_accesses"] == 5
        assert snapshot["test.prefix.total_ops"] == 6


def _traced_pipeline():
    """Compile + run the tiny program with tracing on; returns roots."""
    with trace.tracing():
        stream = compile_source(TINY_PROGRAM, "tiny.str")
        stream.run_fifo(2)
        stream.run_laminar(2)
        roots = trace.get_trace()
        snapshot = metrics.registry().as_dict()
    return roots, snapshot


def _names(roots):
    out = []

    def walk(span):
        out.append(span.name)
        for child in span.children:
            walk(child)

    for root in roots:
        walk(root)
    return out


class TestPipelineIntegration:
    def test_spans_cover_every_stage(self):
        roots, _ = _traced_pipeline()
        names = _names(roots)
        for stage in ("compile", "parse", "elaborate", "flatten",
                      "schedule", "schedule.repetition_vector", "lower",
                      "lower.lir", "optimize", "verify", "run.fifo",
                      "run.laminar"):
            assert stage in names, f"missing span {stage}"

    def test_per_pass_optimizer_spans_and_metrics(self):
        roots, snapshot = _traced_pipeline()
        names = _names(roots)
        assert "opt.dead_code_elimination" in names
        assert "opt.constant_folding" in names
        assert "opt.dead_code_elimination.ops" in snapshot
        assert snapshot["opt.fixpoint_rounds"] >= 1

    def test_scheduler_and_interp_metrics_published(self):
        _, snapshot = _traced_pipeline()
        assert snapshot["schedule.steady_firings"] >= 1
        assert snapshot["interp.fifo.steady.total_ops"] > 0
        assert snapshot["interp.laminar.steady.total_ops"] > 0
        # The paper's headline effect, straight from the registry:
        assert snapshot["interp.laminar.steady.memory_accesses"] <= \
            snapshot["interp.fifo.steady.memory_accesses"]


class TestExporters:
    def test_format_tree_contains_spans_and_metrics(self):
        roots, snapshot = _traced_pipeline()
        text = export.format_tree(roots, snapshot, title="test run")
        assert "test run" in text
        assert "compile" in text
        assert "optimize" in text
        assert "metrics:" in text
        assert "schedule.steady_firings" in text

    def test_format_tree_empty(self):
        assert "no spans" in export.format_tree([])

    def test_to_json_round_trips(self):
        roots, snapshot = _traced_pipeline()
        payload = export.to_json(roots, snapshot)
        text = json.dumps(payload)
        parsed = json.loads(text)
        assert parsed["spans"]
        top_names = [span["name"] for span in parsed["spans"]]
        assert "compile" in top_names
        compile_span = parsed["spans"][top_names.index("compile")]
        assert compile_span["duration_s"] >= 0.0
        children = [c["name"] for c in compile_span["children"]]
        assert "parse" in children
        assert parsed["metrics"]["schedule.steady_firings"] >= 1

    def test_chrome_trace_is_structurally_valid(self):
        roots, _ = _traced_pipeline()
        payload = export.to_chrome_trace(roots)
        # Round-trips through JSON without error.
        parsed = json.loads(json.dumps(payload))
        events = parsed["traceEvents"]
        assert events
        assert parsed["displayTimeUnit"] == "ms"
        complete = [e for e in events if e["ph"] == "X"]
        assert complete
        for event in events:
            assert event["ph"] in ("X", "M")
            assert isinstance(event["name"], str) and event["name"]
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            if event["ph"] == "X":
                assert event["cat"] == "repro"
                assert isinstance(event["ts"], (int, float))
                assert isinstance(event["dur"], (int, float))
                assert event["ts"] >= 0.0
                assert event["dur"] >= 0.0
                assert isinstance(event["args"], dict)
        # Timestamps are normalized: something starts at (about) zero.
        assert min(e["ts"] for e in complete) < 1.0

    def test_chrome_trace_child_nested_within_parent(self):
        roots, _ = _traced_pipeline()
        events = export.to_chrome_trace(roots)["traceEvents"]
        by_name = {e["name"]: e for e in events if e["ph"] == "X"}
        parent, child = by_name["compile"], by_name["parse"]
        assert parent["ts"] <= child["ts"]
        assert child["ts"] + child["dur"] <= \
            parent["ts"] + parent["dur"] + 1.0  # float slack in us

    def test_write_chrome_trace(self, tmp_path):
        roots, _ = _traced_pipeline()
        path = export.write_chrome_trace(roots, tmp_path / "trace.json")
        parsed = json.loads(path.read_text())
        assert parsed["traceEvents"]


class TestHistogramPercentiles:
    """Exact nearest-rank percentiles while n < the reservoir size."""

    @staticmethod
    def filled(values):
        hist = metrics.Histogram("h")
        for value in values:
            hist.observe(value)
        return hist

    def test_1_to_100_pins(self):
        hist = self.filled(range(1, 101))
        assert hist.percentile(50) == 50
        assert hist.percentile(90) == 90
        assert hist.percentile(99) == 99
        assert hist.percentile(100) == 100

    def test_1_to_10_pins(self):
        hist = self.filled(range(1, 11))
        assert hist.percentile(50) == 5
        assert hist.percentile(90) == 9
        # p99 of 10 samples is the max, not an interpolated artifact.
        assert hist.percentile(99) == 10

    def test_order_does_not_matter(self):
        shuffled = [7, 1, 9, 3, 10, 4, 8, 2, 6, 5]
        hist = self.filled(shuffled)
        assert hist.percentile(50) == 5
        assert hist.percentile(99) == 10

    def test_single_sample(self):
        hist = self.filled([42.0])
        for q in (0, 50, 99, 100):
            assert hist.percentile(q) == 42.0

    def test_empty_histogram(self):
        assert metrics.Histogram("h").percentile(50) == 0.0

    def test_module_helper_is_the_same_rule(self):
        samples = [7, 1, 9, 3, 10, 4, 8, 2, 6, 5]
        for q in (0, 50, 90, 99, 100):
            assert metrics.percentile(samples, q) == \
                self.filled(samples).percentile(q)
        assert metrics.percentile([], 50) == 0.0

    def test_summary_includes_percentiles(self):
        summary = self.filled(range(1, 11)).summary()
        assert summary["p50"] == 5
        assert summary["p90"] == 9
        assert summary["p99"] == 10

    def test_decimation_stays_deterministic(self):
        n = metrics.Histogram.MAX_SAMPLES * 4
        a = self.filled(range(n))
        b = self.filled(range(n))
        assert a.percentile(50) == b.percentile(50)
        assert a.count == n
        # Decimated estimates stay within one stride of the true value.
        assert abs(a.percentile(50) - n / 2) <= a._stride * 2


class _ListSink(bus.TelemetrySink):
    def __init__(self):
        self.events, self.spans, self.snapshots = [], [], []
        self.flushes = 0

    def on_event(self, event):
        self.events.append(event)

    def on_span(self, span):
        self.spans.append(span)

    def on_metrics(self, snapshot):
        self.snapshots.append(snapshot)

    def flush(self):
        self.flushes += 1


class TestTelemetryBus:
    def setup_method(self):
        self.bus = bus.TelemetryBus()

    def test_events_buffered_without_sinks_or_tracing(self):
        assert not trace.is_enabled()
        event = self.bus.emit("native.stall", binary="prog", beats=2)
        assert event.wall_time > 0
        assert event.monotonic_ns > 0
        recent = self.bus.recent_events()
        assert [e.name for e in recent] == ["native.stall"]
        assert recent[0].attrs == {"binary": "prog", "beats": 2}

    def test_buffer_is_bounded(self):
        for index in range(bus.EVENT_BUFFER + 50):
            self.bus.emit("e", index=index)
        recent = self.bus.recent_events()
        assert len(recent) == bus.EVENT_BUFFER
        assert recent[0].attrs["index"] == 50  # oldest evicted first

    def test_filter_by_name(self):
        self.bus.emit("a")
        self.bus.emit("b")
        self.bus.emit("a")
        assert len(self.bus.recent_events("a")) == 2
        self.bus.reset_events()
        assert self.bus.recent_events() == []

    def test_events_fan_out_to_sinks(self):
        sink = self.bus.add_sink(_ListSink())
        self.bus.emit("compile.done", filters=3)
        assert [e.name for e in sink.events] == ["compile.done"]

    def test_flush_pushes_metrics_snapshot(self):
        sink = self.bus.add_sink(_ListSink())
        self.bus.flush({"x": 1})
        assert sink.snapshots == [{"x": 1}]
        assert sink.flushes == 1
        self.bus.flush()  # no snapshot -> flush only
        assert sink.snapshots == [{"x": 1}]
        assert sink.flushes == 2

    def test_span_hook_installed_only_while_sinks_attached(self):
        sink = _ListSink()
        self.bus.add_sink(sink)
        trace.enable()
        # The global bus owns the real hook; drive this bus's hook
        # directly through a span close.
        trace.set_span_hook(self.bus._span_closed)
        with trace.span("watched"):
            pass
        assert [s.name for s in sink.spans] == ["watched"]
        self.bus.remove_sink(sink)
        assert self.bus.sinks() == []

    def test_event_to_dict_coerces_exotic_attrs(self):
        event = self.bus.emit("e", path=object(), ok=True, n=1)
        payload = event.to_dict()
        assert isinstance(payload["attrs"]["path"], str)
        assert payload["attrs"]["ok"] is True
        json.dumps(payload)  # fully serializable

    def test_global_bus_helpers(self):
        bus.get_bus().reset_events()
        bus.emit_event("global.check", k="v")
        events = bus.get_bus().recent_events("global.check")
        assert events and events[-1].attrs == {"k": "v"}
        bus.get_bus().reset_events()


class TestJsonlEventSink:
    def test_writes_events_spans_and_metrics(self, tmp_path):
        path = tmp_path / "log" / "events.jsonl"
        local = bus.TelemetryBus()
        sink = local.add_sink(sinks.JsonlEventSink(path))
        local.emit("native.stall", binary="prog")
        trace.enable()
        with trace.span("spanned", file="x.str") as span:
            pass
        sink.on_span(span)
        local.flush({"hits": 3})
        local.remove_sink(sink)  # clears the global span hook
        sink.close()
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        by_type = {}
        for line in lines:
            by_type.setdefault(line["type"], []).append(line)
        assert [e["name"] for e in by_type["event"]] == ["native.stall"]
        assert by_type["event"][0]["attrs"] == {"binary": "prog"}
        span_line = by_type["span"][0]
        assert span_line["name"] == "spanned"
        assert span_line["duration_ns"] >= 0
        assert span_line["attrs"] == {"file": "x.str"}
        assert by_type["metrics"][0]["metrics"] == {"hits": 3}

    def test_append_only_across_reopen(self, tmp_path):
        path = tmp_path / "events.jsonl"
        for round_no in range(2):
            sink = sinks.JsonlEventSink(path)
            sink.on_event(bus.Event(name=f"round{round_no}"))
            sink.close()
        names = [json.loads(line)["name"]
                 for line in path.read_text().splitlines()]
        assert names == ["round0", "round1"]

    def test_chrome_trace_sink(self, tmp_path):
        trace.enable()
        with trace.span("traced"):
            pass
        sink = sinks.ChromeTraceSink(tmp_path / "trace.json")
        sink.on_metrics({"m": 1})
        sink.close()
        parsed = json.loads((tmp_path / "trace.json").read_text())
        assert any(e["name"] == "traced" for e in parsed["traceEvents"])


class TestOpenMetrics:
    def filled_registry(self):
        registry = metrics.MetricsRegistry()
        registry.counter("native.fallback").inc(2)
        registry.gauge("native.heartbeat.iterations").set(7)
        hist = registry.histogram("opt.pass_ns")
        for value in range(1, 11):
            hist.observe(float(value))
        return registry

    def test_exposition_shape(self):
        text = sinks.to_openmetrics(self.filled_registry())
        assert text.endswith("# EOF\n")
        assert "# TYPE repro_native_fallback counter" in text
        assert "repro_native_fallback_total 2" in text
        assert "# TYPE repro_native_heartbeat_iterations gauge" in text
        assert "repro_native_heartbeat_iterations 7" in text
        assert "# TYPE repro_opt_pass_ns summary" in text
        assert 'repro_opt_pass_ns{quantile="0.5"} 5.0' in text
        assert 'repro_opt_pass_ns{quantile="0.99"} 10.0' in text
        assert "repro_opt_pass_ns_count 10" in text
        assert "repro_opt_pass_ns_sum 55.0" in text

    def test_names_are_sanitized(self):
        registry = metrics.MetricsRegistry()
        registry.counter("weird.name-with/chars").inc()
        text = sinks.to_openmetrics(registry)
        assert "repro_weird_name_with_chars_total 1" in text

    def test_empty_registry_is_still_valid(self):
        text = sinks.to_openmetrics(metrics.MetricsRegistry())
        assert text == "# EOF\n"

    def test_sink_writes_at_flush(self, tmp_path):
        trace.enable()
        metrics.registry().reset()
        metrics.counter("hits").inc()
        sink = sinks.OpenMetricsSink(tmp_path / "metrics.prom")
        sink.flush()
        text = (tmp_path / "metrics.prom").read_text()
        assert "repro_hits_total 1" in text
        assert text.endswith("# EOF\n")


class TestLabeledMetrics:
    def test_distinct_label_sets_are_distinct_instruments(self):
        registry = metrics.MetricsRegistry()
        run = registry.counter("serve.requests", route="/run")
        scrape = registry.counter("serve.requests", route="/metrics")
        bare = registry.counter("serve.requests")
        run.inc(2)
        scrape.inc(3)
        bare.inc(5)
        assert run is not scrape and run is not bare
        assert registry.counter("serve.requests", route="/run").value == 2
        assert registry.counter("serve.requests").value == 5

    def test_label_order_is_canonical(self):
        registry = metrics.MetricsRegistry()
        assert registry.gauge("g", a="1", b="2") \
            is registry.gauge("g", b="2", a="1")

    def test_family_type_is_enforced_across_label_sets(self):
        registry = metrics.MetricsRegistry()
        registry.counter("mixed", route="/run")
        with pytest.raises(TypeError):
            registry.gauge("mixed", route="/metrics")
        with pytest.raises(TypeError):
            registry.histogram("mixed")

    def test_as_dict_uses_display_names(self):
        registry = metrics.MetricsRegistry()
        registry.counter("hits", status="200", route="/run").inc(4)
        assert registry.as_dict() == \
            {'hits{route="/run",status="200"}': 4}
        assert registry.names() == ['hits{route="/run",status="200"}']

    def test_gauge_add(self):
        gauge = metrics.Gauge("g")
        gauge.set(3)
        gauge.add(2)
        gauge.add(-1)
        assert gauge.value == 4

    def test_histogram_merge_is_exact_on_moments(self):
        left = metrics.Histogram("h")
        right = metrics.Histogram("h")
        for value in (1.0, 2.0, 3.0):
            left.observe(value)
        for value in (10.0, 0.5):
            right.observe(value)
        left.merge(right)
        assert left.count == 5
        assert left.total == 16.5
        assert left.min == 0.5
        assert left.max == 10.0
        assert left.percentile(99) == 10.0

    def test_merge_into_semantics(self):
        source = metrics.MetricsRegistry()
        target = metrics.MetricsRegistry()
        target.counter("c", route="/run").inc(10)
        target.gauge("g").set(1)
        target.histogram("h").observe(1.0)
        source.counter("c", route="/run").inc(2)
        source.counter("untouched")  # zero: must not land in target
        source.gauge("g").set(7)
        source.histogram("h").observe(3.0)
        source.merge_into(target)
        assert target.counter("c", route="/run").value == 12
        assert target.gauge("g").value == 7
        assert target.histogram("h").count == 2
        assert target.histogram("h").total == 4.0
        assert "untouched" not in target.names()

    def test_helpers_route_to_active_context(self):
        trace.enable()
        ctx = reqctx.RequestContext()
        metrics.counter("ambient.hits").inc()
        with reqctx.activate(ctx):
            metrics.counter("ctx.hits").inc(3)
            metrics.gauge("ctx.depth").set(2)
        assert "ctx.hits" not in metrics.registry().names()
        assert ctx.registry.counter("ctx.hits").value == 3
        assert ctx.registry.gauge("ctx.depth").value == 2
        assert metrics.registry().counter("ambient.hits").value == 1
        assert "ambient.hits" not in ctx.registry.names()


class TestTraceparent:
    def test_parse_valid_header(self):
        header = "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01"
        assert reqctx.parse_traceparent(header) == \
            ("ab" * 16, "cd" * 8, "01")

    @pytest.mark.parametrize("bad", [
        None,
        42,
        "",
        "banana",
        "00-" + "AB" * 16 + "-" + "cd" * 8 + "-01",   # uppercase hex
        "ff-" + "ab" * 16 + "-" + "cd" * 8 + "-01",   # reserved version
        "00-" + "0" * 32 + "-" + "cd" * 8 + "-01",    # all-zero trace id
        "00-" + "ab" * 16 + "-" + "0" * 16 + "-01",   # all-zero parent
        "00-" + "ab" * 16 + "-01",                    # missing segment
        "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01-extra",
    ])
    def test_parse_rejects_garbage(self, bad):
        assert reqctx.parse_traceparent(bad) is None

    def test_make_round_trips(self):
        parsed = reqctx.parse_traceparent(reqctx.make_traceparent())
        assert parsed is not None
        trace_id, span_id, flags = parsed
        assert len(trace_id) == 32 and len(span_id) == 16
        assert flags == "01"

    def test_make_honours_given_ids(self):
        header = reqctx.make_traceparent("ab" * 16, "cd" * 8)
        assert header == "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01"


class TestRequestContext:
    def test_continues_an_incoming_trace(self):
        header = "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01"
        ctx = reqctx.RequestContext(traceparent=header)
        assert ctx.trace_id == "ab" * 16
        assert ctx.parent_id == "cd" * 8
        assert ctx.traceparent_in == header
        # The outgoing header continues the trace with the request id
        # as the new parent.
        assert reqctx.parse_traceparent(ctx.traceparent) == \
            (ctx.trace_id, ctx.request_id, "01")

    def test_mints_fresh_ids_on_invalid_header(self):
        ctx = reqctx.RequestContext(traceparent="not-a-traceparent")
        assert ctx.traceparent_in is None
        assert ctx.parent_id is None
        assert len(ctx.trace_id) == 32
        assert reqctx.parse_traceparent(ctx.traceparent) is not None

    def test_spans_route_to_context_and_carry_stamp(self):
        trace.enable()
        ctx = reqctx.RequestContext()
        with reqctx.activate(ctx):
            with trace.span("inside", extra=1):
                pass
        with trace.span("outside"):
            pass
        assert [span.name for span in ctx.tracer.roots] == ["inside"]
        inside = ctx.tracer.roots[0]
        assert inside.attrs["request_id"] == ctx.request_id
        assert inside.attrs["trace_id"] == ctx.trace_id
        assert inside.attrs["extra"] == 1
        # The ambient tracer saw only the span opened outside.
        assert [span.name for span in trace.get_trace()] == ["outside"]
        assert "request_id" not in trace.get_trace()[0].attrs

    def test_bus_events_stamped_and_collected(self):
        ctx = reqctx.RequestContext()
        with reqctx.activate(ctx):
            bus.emit_event("ctx.fact", foo=1)
        assert len(ctx.events) == 1
        event = ctx.events[0]
        assert event.attrs == {"foo": 1,
                               "request_id": ctx.request_id,
                               "trace_id": ctx.trace_id}
        # Still visible on the global ring too.
        assert bus.get_bus().recent_events("ctx.fact")

    def test_events_outside_context_are_unstamped(self):
        event = bus.emit_event("ambient.fact")
        assert "request_id" not in event.attrs

    def test_note_updates_active_context_only(self):
        ctx = reqctx.RequestContext()
        reqctx.note(orphan=True)  # no active context: a no-op
        with reqctx.activate(ctx):
            reqctx.note(backend="laminar-c")
            reqctx.note(cache_hit=True)
        assert ctx.info == {"backend": "laminar-c", "cache_hit": True}
        assert reqctx.current() is None

    def test_activation_nests_and_restores(self):
        outer = reqctx.RequestContext()
        inner = reqctx.RequestContext()
        with reqctx.activate(outer):
            assert reqctx.current() is outer
            with reqctx.activate(inner):
                assert reqctx.current() is inner
            assert reqctx.current() is outer
        assert reqctx.current() is None


class TestOpenMetricsLabels:
    def test_label_pairs_rendered_sorted(self):
        registry = metrics.MetricsRegistry()
        registry.counter("serve.requests", status="200",
                         route="/run").inc(7)
        text = sinks.to_openmetrics(registry)
        assert ('repro_serve_requests_total'
                '{route="/run",status="200"} 7') in text

    def test_label_values_escaped(self):
        registry = metrics.MetricsRegistry()
        registry.gauge("weird", path='a\\b"c\nd').set(1)
        text = sinks.to_openmetrics(registry)
        assert 'path="a\\\\b\\"c\\nd"' in text

    def test_help_text_escaped(self):
        registry = metrics.MetricsRegistry()
        registry.counter("odd\nname").inc()
        text = sinks.to_openmetrics(registry)
        assert "# HELP repro_odd_name odd\\nname" in text
        assert "\nodd" not in text  # the newline never leaks raw

    def test_unit_lines_for_seconds_and_bytes(self):
        registry = metrics.MetricsRegistry()
        registry.histogram("serve.request.seconds",
                           route="/run").observe(0.25)
        registry.gauge("cache.bytes").set(1024)
        registry.counter("plain").inc()
        text = sinks.to_openmetrics(registry)
        assert "# UNIT repro_serve_request_seconds seconds" in text
        assert "# UNIT repro_cache_bytes bytes" in text
        assert "# UNIT repro_plain" not in text

    def test_one_metadata_block_per_labeled_family(self):
        registry = metrics.MetricsRegistry()
        registry.counter("hits", route="/a").inc()
        registry.counter("hits", route="/b").inc(2)
        text = sinks.to_openmetrics(registry)
        assert text.count("# TYPE repro_hits counter") == 1
        assert 'repro_hits_total{route="/a"} 1' in text
        assert 'repro_hits_total{route="/b"} 2' in text

    def test_histogram_quantile_merges_with_labels(self):
        registry = metrics.MetricsRegistry()
        hist = registry.histogram("lat.seconds", route="/run")
        for value in range(1, 11):
            hist.observe(float(value))
        text = sinks.to_openmetrics(registry)
        assert 'repro_lat_seconds{route="/run",quantile="0.5"} 5.0' in text
        assert 'repro_lat_seconds_count{route="/run"} 10' in text
        assert 'repro_lat_seconds_sum{route="/run"} 55.0' in text
