"""Tests for the differential fuzzing subsystem (``repro.fuzz``) and
unit guards for the correctness fixes the fuzzer exposed."""

from pathlib import Path

import pytest

import repro.fuzz.driver
import repro.fuzz.oracle
from repro.api import CompiledStream, check_equivalence, compile_source
from repro.frontend.intrinsics import XorShift32
from repro.fuzz import (GeneratorOptions, fuzz_campaign, generate_program,
                        random_spec, render, run_source, shrink_spec)
from repro.fuzz.driver import FuzzFinding, write_reproducer
from repro.fuzz.generator import SplitJoinSpec
from repro.fuzz.oracle import Divergence, OracleReport, _token
from repro.lir.ops import LoopRegion
from repro.opt import OptOptions
from repro.suite import benchmark_source

CORPUS_DIR = Path(__file__).parent / "fuzz_corpus"


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

class TestGenerator:
    def test_deterministic(self):
        assert generate_program("d:1") == generate_program("d:1")
        assert generate_program("d:1") != generate_program("d:2")

    def test_every_spec_compiles(self):
        for i in range(25):
            source = generate_program(f"gen:{i}")
            compile_source(source, f"gen_{i}.str")

    def test_feature_coverage(self):
        """The generator must actually reach the surface it advertises."""
        features = set()
        for i in range(150):
            features |= random_spec(f"cov:{i}").features
        assert {"feedbackloop", "weight0-split", "weight0-join",
                "prework", "peeking-filter", "randi", "randf",
                "int-div", "array", "duplicate",
                "roundrobin-splitjoin", "push-loop", "wide-peek",
                "signed-zero", "shared-window"} <= features

    def test_options_gate_composites(self):
        options = GeneratorOptions(allow_feedback=False,
                                   allow_splitjoin=False)
        for i in range(40):
            spec = random_spec(f"flat:{i}", options)
            assert "feedbackloop" not in spec.features
            assert not any(isinstance(s, SplitJoinSpec)
                           for s in spec.stages)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

class TestOracle:
    def test_token_comparison_is_bit_exact(self):
        nan = float("nan")
        assert _token(nan) == _token(nan)
        assert _token(0.0) != _token(-0.0)
        assert _token(1) != _token(1.0)
        assert _token(True) == _token(1)

    def test_compile_error_is_a_divergence_kind(self):
        report = run_source("this is not streamit")
        assert report.divergence is not None
        assert report.divergence.kind == "compile-error"

    def test_oversized_schedule_is_skipped(self):
        source = generate_program("skip:0")
        report = run_source(source, iterations=2, max_steady_firings=0)
        assert report.divergence is None
        assert report.skipped is not None

    def test_clean_program_reports_ok(self):
        report = run_source(generate_program("ok:0"), iterations=3)
        assert report.ok
        assert report.output_count > 0

    def test_unoptimized_route_is_unrolled(self, monkeypatch):
        """laminar-interp runs the lowering without loop regions and no
        pass; laminar-opt runs the default lowering, regions and all."""
        programs = {}
        lower = CompiledStream.lower

        def spy(self, lowering=None, opt=None):
            lowered = lower(self, lowering, opt)
            programs[opt.pipeline] = lowered.program
            return lowered
        monkeypatch.setattr(CompiledStream, "lower", spy)
        report = run_source(benchmark_source("matrixmult"), iterations=2)
        assert report.ok
        regions = {pipeline: sum(isinstance(op, LoopRegion)
                                 for _title, ops in program.sections()
                                 for op in ops)
                   for pipeline, program in programs.items()}
        assert regions[()] == 0
        assert regions[OptOptions().pipeline] > 0

    def test_laminar_c_build_error_is_a_divergence(self, monkeypatch):
        """Building the LaminarIR C may fail only with the reference's
        own fault; here the reference runs cleanly."""
        def broken(self, *args, **kwargs):
            raise ValueError("no C mapping")
        monkeypatch.setattr(repro.fuzz.oracle, "find_compiler",
                            lambda: "cc")
        monkeypatch.setattr(CompiledStream, "laminar_c", broken)
        report = run_source(generate_program("ok:0"), iterations=3,
                            native=True)
        assert report.divergence == Divergence(
            kind="route-error", route="laminar-c",
            detail="ValueError: no C mapping; reference fifo-interp: "
                   "ran cleanly")


# ---------------------------------------------------------------------------
# shrinker
# ---------------------------------------------------------------------------

class TestShrink:
    def test_shrinks_to_smaller_spec(self):
        spec = None
        for i in range(80):
            spec = random_spec(f"sh:{i}")
            if any(isinstance(s, SplitJoinSpec) for s in spec.stages):
                break
        assert any(isinstance(s, SplitJoinSpec) for s in spec.stages)

        def keeps_splitjoin(candidate):
            if not any(isinstance(s, SplitJoinSpec)
                       for s in candidate.stages):
                return False
            try:
                compile_source(render(candidate), "<shrink>")
            except Exception:
                return False
            return True

        shrunk = shrink_spec(spec, keeps_splitjoin)
        assert keeps_splitjoin(shrunk)
        assert len(render(shrunk)) < len(render(spec))

    def test_invalid_candidates_are_rejected_not_fatal(self):
        spec = random_spec("sh:reject")
        # A predicate that only accepts the original program: shrinking
        # must terminate and hand the original back unchanged.
        original = render(spec)
        shrunk = shrink_spec(spec, lambda c: render(c) == original)
        assert render(shrunk) == original


# ---------------------------------------------------------------------------
# campaign driver
# ---------------------------------------------------------------------------

class TestDriver:
    def test_clean_campaign(self):
        result = fuzz_campaign(seed="unit", runs=10, iterations=3)
        assert result.ok
        assert result.programs == 10
        assert "type-int" in result.features or \
            "type-float" in result.features

    def test_divergence_is_recorded_and_written(self, tmp_path,
                                                monkeypatch):
        real = repro.fuzz.driver.run_source

        def flaky(source, **kwargs):
            if "Src1" in source and "FuzzTop" in source:
                report = real(source, **kwargs)
                if report.ok and not report.skipped:
                    return OracleReport(Divergence(
                        kind="output-mismatch", route="laminar-opt",
                        detail="synthetic"))
                return report
            return real(source, **kwargs)

        monkeypatch.setattr(repro.fuzz.driver, "run_source", flaky)
        result = fuzz_campaign(seed="inject", runs=2, iterations=2,
                               corpus_dir=tmp_path)
        assert not result.ok
        finding = result.findings[0]
        assert finding.divergence.kind == "output-mismatch"
        assert finding.reproducer is not None
        assert finding.reproducer.exists()
        text = finding.reproducer.read_text()
        assert "Shrunk fuzz reproducer" in text
        assert "FuzzTop" in text

    def test_write_reproducer_header(self, tmp_path):
        finding = FuzzFinding(
            seed="7:3",
            divergence=Divergence(kind="output-mismatch",
                                  route="laminar-opt", detail="token 0"),
            source="void->void pipeline P { }\n")
        path = write_reproducer(finding, tmp_path / "corpus")
        assert path.name == "fuzz_7_3_output-mismatch.str"
        assert "seed: 7:3" in path.read_text()


# ---------------------------------------------------------------------------
# unit guards for the fixes the fuzzer exposed
# ---------------------------------------------------------------------------

class TestSatelliteFixes:
    def test_randi_negative_bound_matches_c_cast(self):
        # C computes rng_next() % (uint32_t)bound and reinterprets the
        # result as i32; the Python intrinsic must mirror that exactly.
        raw = XorShift32(1234).next_u32()
        value = raw % ((-5) & 0xFFFFFFFF)
        if value >= 0x80000000:
            value -= 0x100000000
        assert XorShift32(1234).randi(-5) == value

    def test_randi_zero_bound_raises(self):
        with pytest.raises(ValueError):
            XorShift32(1).randi(0)

    def test_int_min_division_wraps(self):
        source = (CORPUS_DIR / "div_neg_intmin.str").read_text()
        stream = compile_source(source, "div.str")
        report = check_equivalence(stream, iterations=2)
        assert report.matches
        # INT_MIN / -1 wraps back to INT_MIN in every route.
        assert report.fifo.outputs[0] == -2147483648
        assert report.fifo.outputs[1] == 0   # INT_MIN % -1

    def test_weight0_roundrobin_ports(self):
        source = (CORPUS_DIR / "weight0_roundrobin.str").read_text()
        stream = compile_source(source, "w0.str")
        report = check_equivalence(stream, iterations=3)
        assert report.matches
        # First splitjoin interleaves doubled input with injected
        # 100, 101, …; the second doubles again and discards the
        # injected lane, leaving 4 * (0, 1, 2, 3).
        assert report.fifo.outputs[:4] == [0, 4, 8, 12]

    def test_prework_peek_window_schedules(self):
        source = (CORPUS_DIR / "prework_peek.str").read_text()
        stream = compile_source(source, "pre.str")
        report = check_equivalence(stream, iterations=3)
        assert report.matches
        # prework: peek(0) + peek(2) = 0 + 2 with nothing consumed.
        assert report.fifo.outputs[0] == 2

    def test_cse_never_merges_rand_calls(self):
        source = (CORPUS_DIR / "rand_cse.str").read_text()
        stream = compile_source(source, "cse.str")
        dump = stream.lower().program.dump()
        assert dump.count("randi") == 4
        assert check_equivalence(stream, iterations=3).matches

    def test_c_backends_route_int_division_through_helpers(self):
        source = (CORPUS_DIR / "div_neg_intmin.str").read_text()
        stream = compile_source(source, "div.str")
        for code in (stream.fifo_c(), stream.laminar_c()):
            assert "repro_div_i32(" in code
            assert "repro_mod_i32(" in code
