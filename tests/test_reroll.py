"""Loop regions over unrolled firings: rolled as the program is lowered.

Covers the shapes the lowering rolls (runs of firings, a firing's own
unrolled loop, a field carried from trip to trip, an if-converted
body), the operand classifications (invariant, internal, carried,
affine, gather/scatter), interaction with the pass manager, both
interpreters, per-filter attribution, and the C backend's counted-loop
emission.  The property the whole file leans on: a program with
regions is bit-exact with its fully-unrolled twin on every route.
"""

import pytest

from repro import compile_source
from repro.backend.laminar_c import generate_laminar_c
from repro.lir import lower
from repro.lir.lower import Lowerer
from repro.lir.ops import LoopRegion
from repro.opt import OptOptions, optimize
from repro.suite import load_benchmark

from .conftest import requires_cc

# The default pass list without its reroll entry: the unrolled build.
UNROLLED = OptOptions(pipeline="cp,promote,fold,carry,cse,dce,schedule")

# A peek-window filter fired 8x per steady iteration (Src pushes 8,
# Snk pops 8): the runs are long, the bodies are meaty, and the gather
# columns chain onto the array Src's region scatters to — the shape
# regions profit on.  (Thin bodies whose gather/scatter overhead would
# match the body size are correctly rejected by the profitability
# guard.)
REPEAT_SOURCE = """
void->float filter Src() {
  float t;
  init { t = 0.0; }
  work push 8 { for (int i = 0; i < 8; i++) { push(t); t = t + 1.0; } }
}
float->float filter Fir() {
  work push 1 pop 1 peek 4 {
    float s = 0.0;
    for (int i = 0; i < 4; i++) { s = s + peek(i) * 0.5; }
    push(s);
    pop();
  }
}
float->void filter Snk() {
  work pop 8 { for (int i = 0; i < 8; i++) println(pop()); }
}
void->void pipeline P { add Src(); add Fir(); add Snk(); }
"""

# An accumulator across firings: the region must thread it as a
# loop-carried value, not a gather.
CARRY_SOURCE = """
void->float filter Src() {
  float t;
  init { t = 1.0; }
  work push 8 { for (int i = 0; i < 8; i++) { push(t); t = t + 0.5; } }
}
float->float filter Acc {
  float acc;
  init { acc = 0.0; }
  work push 1 pop 1 { acc = acc + pop(); push(acc); }
}
float->void filter Snk() {
  work pop 8 { for (int i = 0; i < 8; i++) println(pop()); }
}
void->void pipeline P { add Src(); add Acc(); add Snk(); }
"""


# CARRY_SOURCE's accumulator with a body that pays for a region there:
# one add per firing does not, as each trip's token is gathered in and
# its sum scattered out.
ACCUMULATE_SOURCE = """
void->float filter Src() { work push 1 { push(randf()); } }
float->float filter Acc {
  float acc;
  init { acc = 0.0; }
  work push 1 pop 1 {
    float x = pop();
    acc = acc * 0.5 + x * 0.25 + x * x;
    push(acc);
  }
}
float->void filter Snk() {
  work pop 16 { for (int i = 0; i < 16; i++) println(pop()); }
}
void->void pipeline P { add Src(); add Acc(); add Snk(); }
"""

# A field written through a select whose condition reads a table: the
# if-converted body is templated, and its region carries the field.
HOLD_SOURCE = """
void->float filter Src() { work push 1 { push(randf()); } }
float->float filter Hold() {
  float acc;
  int[1] on;
  init { acc = 0.0; on[0] = 1; }
  work push 1 pop 1 {
    float x = pop();
    acc = on[0] > 0 ? x * 2.0 : acc;
    push(acc + x);
  }
}
float->void filter Snk() {
  work pop 16 { for (int i = 0; i < 16; i++) println(pop()); }
}
void->void pipeline P { add Src(); add Hold(); add Snk(); }
"""


def _regions(program) -> list[LoopRegion]:
    return [op for _title, ops in program.sections() for op in ops
            if isinstance(op, LoopRegion)]


def _lower(stream, opt: OptOptions | None = None):
    """``stream`` lowered as ``opt``'s pipeline lowers it."""
    return lower(stream.schedule, stream.source,
                 **(opt or OptOptions()).lowering_flags())


class TestRegionFormation:
    def test_repeat_run_rerolled(self):
        stream = compile_source(REPEAT_SOURCE)
        program = _lower(stream)
        stats = optimize(program)
        assert stats.regions_rerolled >= 1
        regions = _regions(program)
        assert regions
        assert all(region.trips >= 2 for region in regions)

    def test_reroll_off_leaves_unrolled(self):
        stream = compile_source(REPEAT_SOURCE)
        program = _lower(stream, UNROLLED)
        stats = optimize(program, UNROLLED)
        assert stats.regions_rerolled == 0
        assert not _regions(program)

    def test_min_repeat_threshold_respected(self):
        stream = compile_source(REPEAT_SOURCE)
        # No run repeats 100 times; nothing may roll.
        program = lower(stream.schedule, stream.source, demand=True,
                        region_min_repeat=100)
        assert optimize(program).regions_rerolled == 0

    def test_trips_times_body_matches_expanded_count(self):
        stream = compile_source(REPEAT_SOURCE)
        unrolled = _lower(stream, UNROLLED)
        optimize(unrolled, UNROLLED)
        rerolled = _lower(stream)
        optimize(rerolled)
        # The structural count shrinks; the expanded count is what the
        # interpreter executes (gather/scatter may add a bounded
        # overhead, never the reverse blow-up).
        static = sum(1 + len(op.body) if isinstance(op, LoopRegion)
                     else 1 for op in rerolled.steady)
        assert static < len(unrolled.steady)

    def test_regions_execute_directly_bit_exact(self):
        stream = compile_source(REPEAT_SOURCE)
        on = stream.run_laminar(5)
        off = stream.run_laminar(5, opt=UNROLLED)
        assert on.outputs == off.outputs

    def test_carried_accumulator_bit_exact(self):
        stream = compile_source(CARRY_SOURCE)
        on = stream.run_laminar(5)
        off = stream.run_laminar(5, opt=UNROLLED)
        assert on.outputs == off.outputs

    def test_fifo_route_agrees(self):
        stream = compile_source(CARRY_SOURCE)
        fifo = stream.run_fifo(4)
        laminar = stream.run_laminar(4)
        assert fifo.outputs == laminar.outputs

    def test_lowering_returns_region_count(self):
        stream = compile_source(REPEAT_SOURCE)
        lowerer = Lowerer(stream.schedule, stream.source,
                          **OptOptions().lowering_flags())
        program = lowerer.lower()
        assert lowerer.regions_formed == len(_regions(program))
        assert lowerer.regions_formed >= 1

    @pytest.mark.parametrize("source,filter_name", [
        (ACCUMULATE_SOURCE, "Acc"), (HOLD_SOURCE, "Hold")],
        ids=["accumulate", "hold"])
    def test_field_becomes_a_carry(self, source, filter_name):
        stream = compile_source(source)
        program = _lower(stream)
        carried = [region for region in _regions(program)
                   if region.prov[0].filter == filter_name
                   and region.carry_params]
        assert carried
        optimize(program)
        assert stream.run_laminar(16).outputs == \
            stream.run_laminar(16, opt=UNROLLED).outputs \
            == stream.run_fifo(16).outputs


class TestPassManagerIntegration:
    def test_index_valid_with_regions(self):
        from repro.lir.verify import verify
        stream = compile_source(REPEAT_SOURCE)
        program = _lower(stream)
        stats = optimize(program)
        assert stats.regions_rerolled >= 1
        verify(program)

    def test_worklist_passes_converge_with_regions(self):
        stream = compile_source(REPEAT_SOURCE)
        program = _lower(stream)
        stats = optimize(program)
        assert stats.converged

    def test_verifier_accepts_optimized_program(self):
        from repro.lir.verify import verify
        stream = compile_source(CARRY_SOURCE)
        program = _lower(stream)
        optimize(program)
        verify(program)  # raises on any malformed region

    def test_folded_carry_next_is_rewritten(self):
        # The carried field's next value is a select that folds only
        # after promotion (its condition reads a table): folding must
        # rewrite the region's carry list, not just the body.
        from repro.lir.verify import verify
        stream = compile_source(HOLD_SOURCE)
        program = _lower(stream)
        optimize(program)
        verify(program)
        assert any(region.carry_params for region in _regions(program))
        assert stream.run_laminar(16).outputs == \
            stream.run_fifo(16).outputs

    def test_benchmark_rerolls_and_verifies(self):
        from repro.lir.verify import verify
        stream = load_benchmark("filterbank")
        lowered = stream.lower()
        assert lowered.opt_stats.regions_rerolled >= 1
        verify(lowered.program)

    def test_attribution_rows_sum_to_expanded_totals(self):
        from repro.lir.attribution import attribute_program
        stream = load_benchmark("filterbank")
        program = stream.lower().program
        rows = attribute_program(program)
        assert program.steady_op_count_expanded > len(program.steady)
        assert sum(row.steady_ops for row in rows) \
            == program.steady_op_count_expanded

    def test_all_sections_eligible(self):
        # filterbank's init schedule dwarfs its steady section; the
        # lowering must collapse both, not just the steady state.
        stream = load_benchmark("filterbank")
        program = stream.lower().program
        assert any(isinstance(op, LoopRegion) for op in program.init)
        assert any(isinstance(op, LoopRegion) for op in program.steady)


class TestCodegen:
    def test_counted_loop_emitted(self):
        stream = load_benchmark("filterbank")
        program = stream.lower().program
        code = generate_laminar_c(program)
        assert "restrict" in code
        assert "#pragma omp simd" in code

    def test_rerolled_c_is_smaller(self):
        stream = load_benchmark("filterbank")
        rerolled = generate_laminar_c(stream.lower().program)
        unrolled = generate_laminar_c(
            stream.lower(opt=UNROLLED).program)
        assert len(rerolled) < len(unrolled)

    def test_lir_dump_prints_regions(self):
        stream = compile_source(REPEAT_SOURCE)
        program = _lower(stream)
        optimize(program)
        text = program.dump()
        assert "loop " in text

    @requires_cc
    def test_native_checksums_match_unrolled(self):
        from repro.backend.runner import compile_and_run
        stream = load_benchmark("autocor")
        on = compile_and_run(
            generate_laminar_c(stream.lower().program), iterations=4)
        off = compile_and_run(
            generate_laminar_c(
                stream.lower(opt=UNROLLED).program),
            iterations=4)
        assert on.checksum == off.checksum
        assert on.output_count == off.output_count

    @requires_cc
    def test_profile_rows_survive_rerolling(self):
        from repro.backend.runner import compile_and_run
        stream = load_benchmark("autocor")
        lowered = stream.lower()
        assert lowered.opt_stats.regions_rerolled >= 1
        run = compile_and_run(
            generate_laminar_c(lowered.program, profile=True),
            iterations=4)
        assert run.profile is not None
        # Per-filter op attribution accumulates per trip, so profiled
        # op counts reflect the *expanded* work, matching the
        # attribution rows of the re-rolled program.
        from repro.lir.attribution import attribute_program
        expected = {row.name: row.steady_ops
                    for row in attribute_program(lowered.program)
                    if row.steady_ops}
        profiled = {entry["name"]: entry["ops"]
                    for entry in run.profile["filters"]
                    if entry["ops"]}
        iterations = run.profile["iterations"]
        assert profiled == {name: ops * iterations
                            for name, ops in expected.items()}
