"""Loop regions formed at lowering from the schedule's firing runs.

With ``LoweringOptions.regions`` on (the default), the lowering
collapses each run of firings that replayed one firing template into a
:class:`LoopRegion` when the template's loop unit repeats
``REGION_MIN_REPEAT`` times or more.  Covers when a region forms, that
the lowering alone turns it on, which filters of the suite it rolls,
the promotion of coefficient tables a body reads, and that every route
stays bit-exact.
"""

import importlib
from unittest import mock

import pytest

from repro import LoweringOptions, compile_source
from repro.backend import checksum_outputs
from repro.interp import LaminarInterpreter
from repro.lir import verify
from repro.lir.lower import REGION_MIN_REPEAT, Lowerer
from repro.lir.ops import BinOp, Const, LoadOp, LoopRegion, fresh_temp_ids
from repro.opt import OptOptions, optimize, promote_state
from repro.suite import benchmark_names, load_benchmark
from tests.conftest import function_text

# Src fires once per token Fir pops and Fir once per token Snk pops, so
# Snk's pop rate sets the length of the runs in the steady state.
FIR_SOURCE = """
void->float filter Src() {
  work push 1 { push(randf() * 2.0 - 1.0); }
}
float->float filter Fir(int taps) {
  float[taps] coeff;
  init { for (int i = 0; i < taps; i++) coeff[i] = 1.0 / (i + 2); }
  work push 1 pop 1 peek taps {
    float sum = 0;
    for (int i = 0; i < taps; i++) sum += peek(i) * coeff[i];
    push(sum);
    pop();
  }
}
float->void filter Snk(int n) {
  work pop n { for (int i = 0; i < n; i++) println(pop()); }
}
void->void pipeline P { add Src(); add Fir(8); add Snk(%d); }
"""

# Fir fires 8 times per Down firing, and Down reads only the first of
# the 8 tokens it pops.
DOWN_SOURCE = FIR_SOURCE.replace(
    "void->void pipeline P { add Src(); add Fir(8); add Snk(%d); }", """
float->float filter Down(int n) {
  work push 1 pop n { push(pop()); for (int i = 1; i < n; i++) pop(); }
}
void->void pipeline P { add Src(); add Fir(8); add Down(8); add Snk(1); }
""")


# The module, which ``repro.lir.lower`` (the function) hides.
lowering = importlib.import_module("repro.lir.lower")

# The lowering without loop regions: the unrolled build.
UNROLLED = LoweringOptions(regions=False)


def _lowered(stream, options=None, demand=True,
             min_repeat=REGION_MIN_REPEAT):
    """``stream`` lowered as a default compile lowers it, unless told
    otherwise; ``min_repeat`` stands in for the region floor."""
    with fresh_temp_ids(), \
            mock.patch.object(lowering, "REGION_MIN_REPEAT", min_repeat):
        return Lowerer(stream.schedule, stream.source, options,
                       demand=demand).lower()


def _regions(program, section=None):
    return [op for title, ops in program.sections() for op in ops
            if isinstance(op, LoopRegion) and section in (None, title)]


def _filters(regions):
    return {region.prov[0].filter for region in regions}


class TestFormation:
    def test_run_becomes_one_region(self):
        program = _lowered(compile_source(FIR_SOURCE % 8))
        fir = [region for region in _regions(program, "steady")
               if region.prov[0].filter == "Fir"]
        assert [region.trips for region in fir] == [8]
        # Nothing of Fir's firings is left in the steady block but the
        # gather stores and scatter loads around its region.
        assert all(isinstance(op, (LoadOp, LoopRegion))
                   or op.slot.name.startswith("rr")
                   for op in program.steady if op.prov[0].filter == "Fir")

    def test_short_run_stays_straight_line(self):
        stream = compile_source(FIR_SOURCE % 3)
        program = _lowered(stream)
        assert "Fir" not in _filters(_regions(program, "steady"))
        program = _lowered(compile_source(FIR_SOURCE % 8), min_repeat=9)
        assert not _regions(program, "steady")

    def test_unrolled_lowering_forms_none(self):
        stream = load_benchmark("filterbank")
        assert not _regions(_lowered(stream, UNROLLED, demand=False))
        assert not _regions(_lowered(stream, UNROLLED))

    def test_dropped_firings_form_no_region(self):
        # Down reads one token in 8, so in the steady state only one of
        # Fir's 8 firings is emitted: lowered eagerly, all 8 roll.
        stream = compile_source(DOWN_SOURCE)
        assert "Fir" not in _filters(_regions(_lowered(stream), "steady"))
        assert "Fir" in _filters(_regions(_lowered(stream, demand=False),
                                          "steady"))

    def test_prints_counted_inside_regions(self):
        # FloatPrinter's 4 firings per iteration become one region.
        stream = load_benchmark("matrixmult")
        with_regions = _lowered(stream)
        assert "FloatPrinter" in _filters(_regions(with_regions, "steady"))
        assert with_regions.prints_per_iteration == \
            _lowered(stream, UNROLLED, demand=False) \
            .prints_per_iteration == 16

    def test_outputs_match_without_regions(self):
        stream = compile_source(FIR_SOURCE % 8)
        with_regions = _lowered(stream)
        assert _regions(with_regions, "steady")
        without = _lowered(stream, UNROLLED)
        outputs = []
        for program in (with_regions, without):
            optimize(program)
            outputs.append(LaminarInterpreter(program).run(6).outputs)
        assert outputs[0] == outputs[1] == stream.run_fifo(6).outputs


class TestWiring:
    def test_default_pipeline_flags(self):
        # A default compile lowers demand-driven, forming loop regions
        # of REGION_MIN_REPEAT trips or more.
        assert OptOptions().prunes_dead_code()
        assert LoweringOptions().regions
        assert REGION_MIN_REPEAT == 4

    @pytest.mark.parametrize("flags", [
        {"options": UNROLLED}, {"min_repeat": 100},
    ], ids=["no-reroll", "min-repeat-100"])
    def test_no_regions_at_lowering(self, flags):
        stream = load_benchmark("filterbank")
        assert not _regions(_lowered(stream, **flags))

    @pytest.mark.parametrize("pipeline", ["", "cp,promote,fold,cse,dce"],
                             ids=["empty", "no-carry-no-schedule"])
    def test_pass_list_leaves_regions_on(self, pipeline):
        # The pass list lists only passes: the empty one ("no
        # optimizer") runs over the default lowering, regions and all.
        lowered = load_benchmark("filterbank").lower(
            opt=OptOptions(pipeline=pipeline))
        assert _regions(lowered.program, "steady")
        assert lowered.opt_stats.regions_rerolled == \
            len(_regions(lowered.program))


class TestRolledAtLowering:
    @pytest.mark.parametrize("name,filter_name", [
        ("fft", "FFTSource"), ("dct", "BlockSource"),
        ("matrixmult", "MatrixSource"), ("matrixmult", "MultiplyTransposed"),
        ("matrixmult", "FloatPrinter"), ("tde", "PulseSource"),
        ("beamformer", "ChannelSource"), ("channel_vocoder", "Rectifier"),
        ("rate_convert", "AudioSource"),
    ])
    def test_in_a_region_after_lowering(self, name, filter_name):
        # A single firing's unrolled loop becomes unit trips (the
        # sources; MultiplyTransposed's peek rows are trip columns),
        # FloatPrinter chains onto the array MultiplyTransposed's region
        # scatters to, Rectifier's body is if-converted, and
        # AudioSource's phase is carried from trip to trip.
        program = _lowered(load_benchmark(name), demand=False)
        assert filter_name in _filters(_regions(program))

    @pytest.mark.parametrize("name,regions", [
        ("autocor", 1), ("beamformer", 14), ("channel_vocoder", 17),
        ("dct", 3), ("fft", 1), ("filterbank", 2), ("fm_radio", 3),
        ("matrixmult", 3), ("rate_convert", 1), ("tde", 1),
        ("tea_cipher", 2)])
    def test_no_fewer_regions_than_a_separate_pass_formed(self, name,
                                                          regions):
        # The counts a re-roll pass after the optimizer's promotion
        # reached, before the lowering formed every region itself.
        # filterbank's FIR runs no longer roll: their peek windows hold
        # the upsampler's zeros, which a steady region does not gather,
        # so they stay unrolled and fold (docs/LOWERING.md §4b).
        program = load_benchmark(name).lower().program
        assert len(_regions(program)) >= regions


# Up pushes each token followed by three zeros, so the token Mix pops
# is a constant in three firings of every four.
PERIOD_SOURCE = """
void->float filter Src() {
  work push 1 { push(randf()); }
}
float->float filter Up(int n) {
  work pop 1 push n {
    push(pop());
    for (int i = 1; i < n; i++) push(0.0);
  }
}
float->float filter Mix() {
  work pop 1 push 1 {
    float x = pop();
    push(x * 2.0 + randf() * x + 1.5);
  }
}
float->void filter Snk(int n) {
  work pop n { for (int i = 0; i < n; i++) println(pop()); }
}
void->void pipeline P { add Src(); add Up(4); add Mix(); add Snk(64); }
"""

def _fir_ops(program):
    """Steady ops of the FirFilter instances, as executed."""
    return sum(op.trips * sum(inner.prov[0].filter.startswith("FirFilter")
                              for inner in op.body)
               if isinstance(op, LoopRegion)
               else op.prov[0].filter.startswith("FirFilter")
               for op in program.steady)


class TestConstantColumns:
    """A steady region gathers no constant: a column of constants is
    one literal or an affine index, or the trip grows until it is."""

    def test_period_of_constants_sets_the_units_per_trip(self):
        stream = compile_source(PERIOD_SOURCE)
        program = _lowered(stream)
        mix = [region for region in _regions(program, "steady")
               if region.prov[0].filter == "Mix"]
        # 64 firings, 4 per trip: each unit position sees one constant.
        assert [region.trips for region in mix] == [16]
        body = mix[0].body
        assert sum(isinstance(op, LoadOp) and op.slot.name.endswith("_g")
                   for op in body) == 1
        assert any(isinstance(op, BinOp) and isinstance(op.rhs, Const)
                   and op.rhs.value == 0.0 for op in body)
        optimize(program)
        assert LaminarInterpreter(program).run(3).outputs == \
            stream.run_fifo(3).outputs

    def test_init_still_gathers_constants(self):
        # The init section runs once: at scale 4, filterbank's init FIR
        # runs roll, gathering the upsampler's zeros.
        program = _lowered(load_benchmark("filterbank", scale=4))
        firs = [region for region in _regions(program, "init")
                if region.prov[0].filter.startswith("FirFilter")]
        assert len(firs) == 8
        assert not any(region.prov[0].filter.startswith("FirFilter")
                       for region in _regions(program, "steady"))

    @pytest.mark.parametrize("scale", [1, 4])
    def test_filterbank_firs_stay_unrolled_and_fold(self, scale):
        # No steady FIR region: the FIRs execute what the unrolled build
        # does (init, which runs once, still rolls them at scale 4,
        # gathering the zeros).  The program as a whole executes 16 ops
        # more: RandomSource's 8-trip steady region stores each token to
        # a scatter array and loads it back.
        stream = load_benchmark("filterbank", scale=scale)
        program = stream.lower().program
        assert not any(name.startswith("FirFilter")
                       for name in _filters(_regions(program, "steady")))
        unrolled = stream.lower(UNROLLED).program
        assert _fir_ops(program) <= _fir_ops(unrolled)
        assert program.steady_op_count_expanded - \
            unrolled.steady_op_count_expanded == 16

    @pytest.mark.parametrize("name,regions", [
        ("dct", [("steady", "BlockSource", 64), ("steady", "RowDCT", 8),
                 ("steady", "RowDCT_1", 8)]),
        ("beamformer", [("init", "ChannelSource", 224)]
         + [("init", f"BeamFirFilter{suffix}", 7)
            for suffix in ["", "_1", "_2", "_3", "_4", "_5", "_6", "_7"]]
         + [("init", f"BeamForm{suffix}", 7)
            for suffix in ["", "_1", "_2", "_3"]]
         + [("steady", "ChannelSource", 16)])])
    def test_regions_without_constant_columns_are_unchanged(self, name,
                                                            regions):
        program = _lowered(load_benchmark(name))
        assert [(title, region.prov[0].filter, region.trips)
                for title, ops in program.sections() for region in ops
                if isinstance(region, LoopRegion)] == regions


class TestPromotion:
    def test_body_loads_of_a_table_become_its_values(self):
        program = _lowered(compile_source(FIR_SOURCE % 8))
        assert promote_state(program)
        assert "Fir_coeff" not in {slot.name for slot in
                                   program.state_slots}
        for region in _regions(program):
            assert not any(isinstance(op, LoadOp)
                           and op.slot.name == "Fir_coeff"
                           for op in region.body)
        verify(program)

    def test_fir_coefficients_are_constants_in_the_body(self):
        program = load_benchmark("fm_radio").lower().program
        firs = [region for region in _regions(program)
                if region.prov[0].filter.startswith("LowPassFilter")]
        assert firs
        for region in firs:
            assert not any(isinstance(op, LoadOp)
                           and op.slot.name.endswith("_coeff")
                           for op in region.body)
            assert any(isinstance(op, BinOp) and op.op == "*"
                       and isinstance(op.rhs, Const) for op in region.body)


class TestPrologueEmission:
    """Run-once regions are plain loops; steady ones keep their
    ``restrict`` aliases and, when parallel, ``#pragma omp simd``."""

    @pytest.mark.parametrize("name,parallel_init", [
        ("beamformer", 12), ("filterbank", 0)])
    def test_only_steady_regions_carry_promises(self, name, parallel_init):
        stream = load_benchmark(name)
        program = stream.lower().program
        code = stream.laminar_c()
        init = function_text(code, "repro_init_schedule")
        steady = function_text(code, "repro_steady")
        regions = _regions(program, "init")
        assert init.count("for (") == len(regions) > 0
        # The IR still marks them parallel; only the text drops the
        # promises.
        assert sum(region.parallel for region in regions) == parallel_init
        assert "restrict" not in init
        assert "#pragma omp simd" not in init
        regions = _regions(program, "steady")
        assert steady.count("for (") == len(regions) > 0
        assert steady.count("*restrict ") >= len(regions)
        assert steady.count("#pragma omp simd") == \
            sum(region.parallel for region in regions)


ALL = benchmark_names(include_extras=True)


class TestBitExact:
    @pytest.mark.parametrize("name", ALL)
    def test_verify_analyses(self, name):
        # The verifier (provenance integrity included) accepts every
        # optimized suite program.
        verify(load_benchmark(name).lower().program)

    @pytest.mark.parametrize("name,scale", [(name, 2) for name in ALL] + [
        (name, 4) for name in ("beamformer", "channel_vocoder", "dct",
                               "filterbank", "fm_radio")])
    def test_scaled_suite_matches_fifo(self, name, scale):
        stream = load_benchmark(name, scale=scale)
        assert stream.run_laminar(1).outputs == stream.run_fifo(1).outputs

    @pytest.mark.parametrize("name", ALL)
    def test_steady_multiplier_two_matches_fifo(self, name):
        stream = load_benchmark(name)
        laminar = stream.run_laminar(
            4, lowering=LoweringOptions(steady_multiplier=2))
        assert checksum_outputs(laminar.outputs) == \
            checksum_outputs(stream.run_fifo(4).outputs)
