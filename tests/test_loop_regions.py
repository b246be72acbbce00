"""Loop regions formed at lowering from the schedule's firing runs.

With ``region_min_repeat`` set, the lowering collapses each run of
firings that replayed one firing template into a :class:`LoopRegion`
when the template's loop unit repeats that many times or more.  Covers
when a region forms, how the pipeline turns it on, which filters of the
suite it rolls, the promotion of coefficient tables a body reads, and
that every route stays bit-exact.
"""

import pytest

from repro import LoweringOptions, compile_source
from repro.backend import checksum_outputs
from repro.interp import LaminarInterpreter
from repro.lir import lower, verify
from repro.lir.lower import REGION_MIN_REPEAT
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


def _lowered(stream, **flags):
    with fresh_temp_ids():
        return lower(stream.schedule, stream.source, **flags)


def _regions(program, section=None):
    return [op for title, ops in program.sections() for op in ops
            if isinstance(op, LoopRegion) and section in (None, title)]


def _filters(regions):
    return {region.prov[0].filter for region in regions}


class TestFormation:
    def test_run_becomes_one_region(self):
        program = _lowered(compile_source(FIR_SOURCE % 8), demand=True,
                           region_min_repeat=4)
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
        program = _lowered(stream, demand=True, region_min_repeat=4)
        assert "Fir" not in _filters(_regions(program, "steady"))
        program = _lowered(compile_source(FIR_SOURCE % 8), demand=True,
                           region_min_repeat=9)
        assert not _regions(program, "steady")

    def test_default_lowering_forms_none(self):
        stream = load_benchmark("filterbank")
        assert not _regions(_lowered(stream))
        assert not _regions(_lowered(stream, demand=True))

    def test_dropped_firings_form_no_region(self):
        # DownSamp reads one token in 8, so in the steady state only one
        # firing in 8 of each analysis (even-numbered) FIR is emitted.
        program = _lowered(load_benchmark("filterbank"),
                           **OptOptions().lowering_flags())
        steady = _filters(_regions(program, "steady"))
        assert "FirFilter_1" in steady
        assert not steady & {"FirFilter", "FirFilter_2", "FirFilter_14"}

    def test_prints_counted_inside_regions(self):
        # FloatPrinter's 8 firings per iteration become one region.
        stream = load_benchmark("filterbank")
        with_regions = _lowered(stream, **OptOptions().lowering_flags())
        assert "FloatPrinter" in _filters(_regions(with_regions, "steady"))
        assert with_regions.prints_per_iteration == \
            _lowered(stream).prints_per_iteration == 8

    def test_outputs_match_without_regions(self):
        stream = compile_source(FIR_SOURCE % 8)
        with_regions = _lowered(stream, demand=True, region_min_repeat=4)
        assert _regions(with_regions, "steady")
        without = _lowered(stream, demand=True)
        outputs = []
        for program in (with_regions, without):
            optimize(program)
            outputs.append(LaminarInterpreter(program).run(6).outputs)
        assert outputs[0] == outputs[1] == stream.run_fifo(6).outputs


class TestWiring:
    def test_default_pipeline_flags(self):
        assert OptOptions().lowering_flags() == {
            "demand": True, "region_min_repeat": REGION_MIN_REPEAT}
        assert REGION_MIN_REPEAT == 4

    @pytest.mark.parametrize("flags", [
        OptOptions(pipeline="cp,promote,fold,carry,cse,dce,schedule")
        .lowering_flags(),
        {"demand": True, "region_min_repeat": 100},
        OptOptions(pipeline="cp,promote,fold,cse,dce").lowering_flags(),
    ], ids=["no-reroll", "min-repeat-100", "pipeline-without-reroll"])
    def test_no_regions_at_lowering(self, flags):
        stream = load_benchmark("filterbank")
        assert not _regions(_lowered(stream, **flags))


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
        program = _lowered(load_benchmark(name), region_min_repeat=4)
        assert filter_name in _filters(_regions(program))

    @pytest.mark.parametrize("name,regions", [
        ("autocor", 1), ("beamformer", 14), ("channel_vocoder", 17),
        ("dct", 3), ("fft", 1), ("filterbank", 12), ("fm_radio", 3),
        ("matrixmult", 3), ("rate_convert", 1), ("tde", 1),
        ("tea_cipher", 2)])
    def test_no_fewer_regions_than_a_separate_pass_formed(self, name,
                                                          regions):
        # The counts a re-roll pass after the optimizer's promotion
        # reached, before the lowering formed every region itself.
        program = load_benchmark(name).lower().program
        assert len(_regions(program)) >= regions


class TestPromotion:
    def test_body_loads_of_a_table_become_its_values(self):
        program = _lowered(compile_source(FIR_SOURCE % 8), demand=True,
                           region_min_repeat=4)
        assert promote_state(program)
        assert "Fir_coeff" not in {slot.name for slot in
                                   program.state_slots}
        for region in _regions(program):
            assert not any(isinstance(op, LoadOp)
                           and op.slot.name == "Fir_coeff"
                           for op in region.body)
        verify(program)

    def test_fir_coefficients_are_constants_in_the_body(self):
        program = load_benchmark("filterbank").lower().program
        firs = [region for region in _regions(program)
                if region.prov[0].filter.startswith("FirFilter")]
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
