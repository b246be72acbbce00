"""Tests for op-level provenance, attribution, and runtime profiling."""

import pytest

from repro import compile_source
from repro.backend.laminar_c import generate_laminar_c
from repro.backend.runner import compile_and_run
from repro.frontend.types import FLOAT
from repro.fuzz.generator import generate_program
from repro.lir import (BinOp, CallOp, PrintOp, Program, Provenance, Temp,
                       VerificationError, attribute_program, steady_share,
                       verify)
from repro.lir.attribution import UNATTRIBUTED
from repro.lir.ops import PROVENANCE_KINDS, PROVENANCE_PHASES
from repro.obs import export, metrics, trace
from repro.opt import OptOptions, optimize
from tests.conftest import requires_cc

SPLITJOIN_PROGRAM = """
void->float filter Src() {
  float x;
  work push 1 { push(x); x = x + 1; }
}

float->float filter Scale(float k) {
  work push 1 pop 1 { push(pop() * k); }
}

float->void filter Sink() {
  work pop 1 { println(pop()); }
}

void->void pipeline Top {
  add Src();
  add splitjoin {
    split duplicate;
    add Scale(2.0);
    add Scale(3.0);
    join roundrobin;
  };
  add Sink();
}
"""


@pytest.fixture(scope="module")
def sj_stream():
    return compile_source(SPLITJOIN_PROGRAM, "sj.str")


class TestProvenanceStamping:
    def test_every_lowered_op_is_stamped(self, sj_stream):
        program = sj_stream.lower().program
        for title, ops in program.sections():
            for op in ops:
                assert op.prov, f"unstamped op in {title}: {op}"
                primary = op.prov[0]
                assert isinstance(primary, Provenance)
                assert primary.filter
                assert primary.kind in PROVENANCE_KINDS
                assert primary.phase in PROVENANCE_PHASES

    def test_phase_matches_section(self, sj_stream):
        program = sj_stream.lower().program
        for title, ops in program.sections():
            for op in ops:
                assert op.prov[0].phase == title

    def test_program_records_tokens_firings_kinds(self, sj_stream):
        program = sj_stream.lower().program
        assert program.filter_tokens
        assert program.filter_firings
        # Every counted vertex has a kind, and at least the filters of
        # the source program appear.
        for name in program.filter_firings:
            assert program.filter_kinds[name] in PROVENANCE_KINDS
        kinds = set(program.filter_kinds.values())
        assert "filter" in kinds

    def test_hand_built_programs_carry_no_provenance(self):
        t = Temp(FLOAT)
        program = Program(name="bare")
        program.steady = [
            CallOp(result=t, name="randf", args=[], pure=False),
            PrintOp(result=None, value=t),
        ]
        for op in program.steady:
            assert op.prov == ()
        optimize(program)
        verify(program)

    # These mutate the program, so each lowers its own rather than the
    # shared fixture's cached one.
    def test_verify_rejects_a_cleared_stamp(self):
        program = compile_source(SPLITJOIN_PROGRAM).lower().program
        verify(program)
        program.steady[0].prov = ()
        with pytest.raises(VerificationError, match="lost its provenance"):
            verify(program)

    @pytest.mark.parametrize("entry", [
        "Src", Provenance(""), Provenance("Src", kind="actor"),
        Provenance("Src", phase="prologue")],
        ids=["not-a-provenance", "no-filter", "bad-kind", "bad-phase"])
    def test_verify_rejects_a_malformed_stamp(self, entry):
        program = compile_source(SPLITJOIN_PROGRAM).lower().program
        op = program.steady[0]
        op.prov = (entry,) + op.prov
        with pytest.raises(VerificationError, match="malformed provenance"):
            verify(program)


class TestAttribution:
    def test_op_counts_sum_to_section_totals(self, sj_stream):
        program = sj_stream.lower().program
        rows = attribute_program(program)
        assert sum(r.setup_ops for r in rows) == len(program.setup)
        assert sum(r.init_ops for r in rows) == len(program.init)
        assert sum(r.steady_ops for r in rows) == len(program.steady)

    def test_steady_share_sums_to_one(self, sj_stream):
        rows = attribute_program(sj_stream.lower().program)
        shares = steady_share(rows)
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_unattributed_row_for_bare_program(self):
        t = Temp(FLOAT)
        program = Program(name="bare")
        program.steady = [
            CallOp(result=t, name="randf", args=[], pure=False),
            PrintOp(result=None, value=t),
        ]
        rows = attribute_program(program)
        assert [r.name for r in rows] == [UNATTRIBUTED]
        assert rows[0].steady_ops == 2


class TestCseProvenanceMerge:
    def test_surviving_op_records_merged_provenance(self):
        program = Program(name="merge")
        a, b = Temp(FLOAT), Temp(FLOAT)
        x, y = Temp(FLOAT), Temp(FLOAT)
        prov_a = (Provenance("A"),)
        prov_b = (Provenance("B"),)
        program.steady = [
            CallOp(result=a, name="randf", args=[], pure=False,
                   prov=prov_a),
            BinOp(result=x, op="+", lhs=a, rhs=a, prov=prov_a),
            BinOp(result=y, op="+", lhs=a, rhs=a, prov=prov_b),
            PrintOp(result=None, value=x, prov=prov_a),
            PrintOp(result=None, value=y, prov=prov_b),
        ]
        optimize(program, OptOptions(pipeline=("cse", "dce")))
        adds = [op for op in program.steady if isinstance(op, BinOp)]
        assert len(adds) == 1
        assert adds[0].prov == (Provenance("A"), Provenance("B"))
        rows = {r.name: r for r in attribute_program(program)}
        assert rows["A"].merged_from == {"B"}


class TestFuzzProvenanceProperty:
    ITERATIONS = 4

    @pytest.mark.parametrize("seed", range(25))
    def test_provenance_and_token_attribution(self, seed):
        source = generate_program(f"prov:{seed}")
        stream = compile_source(source, f"prov_{seed}.str")
        lowered = stream.lower()
        program = lowered.program
        verify(program)
        for title, ops in program.sections():
            for op in ops:
                assert op.prov, f"seed {seed}: unstamped op in {title}"
                assert op.prov[0].filter
                assert op.prov[0].kind in PROVENANCE_KINDS
        fifo = stream.run_fifo(self.ITERATIONS)
        expected = {name: per_iter * self.ITERATIONS
                    for name, per_iter in program.filter_tokens.items()}
        assert fifo.filter_tokens == expected, f"seed {seed}"
        laminar = stream.run_laminar(self.ITERATIONS)
        assert laminar.filter_tokens == fifo.filter_tokens, f"seed {seed}"
        assert laminar.filter_firings == fifo.filter_firings, f"seed {seed}"


class TestProfiledCodegen:
    def test_disabled_profile_is_byte_identical(self, tiny_stream):
        program = tiny_stream.lower().program
        assert generate_laminar_c(program) \
            == generate_laminar_c(program, profile=False)
        assert "REPRO_PROFILE" not in generate_laminar_c(program)

    def test_profiled_codegen_is_instrumented(self, tiny_stream):
        program = tiny_stream.lower().program
        code = generate_laminar_c(program, profile=True)
        assert "REPRO_PROFILE" in code
        assert "repro_prof_dump" in code
        assert "repro_prof_note_iter" in code

    @requires_cc
    def test_native_profile_is_bit_exact(self, tiny_stream):
        program = tiny_stream.lower().program
        plain = compile_and_run(generate_laminar_c(program), 6,
                                name="prof_plain")
        profiled = compile_and_run(
            generate_laminar_c(program, profile=True), 6,
            name="prof_instr")
        assert profiled.checksum == plain.checksum
        assert profiled.output_count == plain.output_count
        assert plain.profile is None
        assert profiled.profile is not None
        assert profiled.profile["iterations"] == 6
        assert sum(profiled.profile["hist"]) == 6
        names = {entry["name"] for entry in profiled.profile["filters"]}
        assert names  # at least one attributed filter
        for entry in profiled.profile["filters"]:
            assert entry["ns"] >= 0
            assert entry["ops"] > 0
            assert entry["calls"] > 0


class TestHistogramPercentiles:
    def test_percentiles_in_summary(self):
        hist = metrics.Histogram("h")
        for value in range(1, 101):
            hist.observe(float(value))
        summary = hist.summary()
        assert summary["p50"] == pytest.approx(50, abs=2)
        assert summary["p90"] == pytest.approx(90, abs=2)
        assert summary["p99"] == pytest.approx(99, abs=2)

    def test_reservoir_is_bounded_and_deterministic(self):
        first = metrics.Histogram("a")
        second = metrics.Histogram("b")
        for value in range(10_000):
            first.observe(float(value))
            second.observe(float(value))
        assert len(first._samples) <= metrics.Histogram.MAX_SAMPLES
        assert first.summary() == second.summary()
        assert first.summary()["p50"] == pytest.approx(5000, rel=0.05)

    def test_empty_histogram_has_no_percentiles(self):
        assert "p50" not in metrics.Histogram("h").summary()


class TestChromeTraceFilterTracks:
    @pytest.fixture(autouse=True)
    def clean_tracer(self):
        trace.disable()
        trace.reset()
        yield
        trace.disable()
        trace.reset()

    def test_counter_tracks_and_thread_metadata(self):
        trace.enable()
        with trace.span("root"):
            pass
        roots = trace.get_trace()
        payload = export.to_chrome_trace(roots, metrics={
            "interp.fifo.filter.A.tokens": 6,
            "interp.fifo.filter.B.tokens": 2,
            "interp.fifo.filter.A.firings": 3,
            "interp.fifo.steady.total_ops": 99,  # not a filter family
        })
        events = payload["traceEvents"]
        meta = {e["name"] for e in events if e["ph"] == "M"}
        assert {"process_name", "thread_name", "thread_sort_index"} <= meta
        thread_names = [e["args"]["name"] for e in events
                        if e["name"] == "thread_name"]
        assert thread_names[0] == "main"
        counters = {e["name"]: e["args"] for e in events
                    if e["ph"] == "C"}
        assert counters["interp.fifo.tokens"] == {"A": 6, "B": 2}
        assert counters["interp.fifo.firings"] == {"A": 3}
        assert "interp.fifo.steady.total_ops" not in counters

    def test_without_metrics_only_spans_and_metadata(self):
        trace.enable()
        with trace.span("root"):
            pass
        events = export.to_chrome_trace(trace.get_trace())["traceEvents"]
        assert all(e["ph"] in ("X", "M") for e in events)
