"""Tests for the public facade (repro.api) and the evaluation records."""

import pytest

from repro import (CompileError, LoweringOptions, OptOptions,
                   check_equivalence, compile_file, compile_source)
from repro.evaluation import (evaluate_stream, format_table,
                              geometric_mean)
from repro.machine import I7_2600K, PLATFORMS


class TestCompiledStream:
    def test_name(self, demo_stream):
        assert demo_stream.name == "Demo"

    def test_stats_keys(self, demo_stream):
        stats = demo_stream.stats()
        for key in ("filters", "splitters", "joiners", "channels",
                    "peeking_filters", "steady_firings", "init_firings"):
            assert key in stats

    def test_lower_is_cached(self, demo_stream):
        first = demo_stream.lower()
        second = demo_stream.lower()
        assert first is second

    def test_lower_cache_respects_options(self, demo_stream):
        default = demo_stream.lower()
        ablated = demo_stream.lower(
            LoweringOptions(eliminate_splitjoin=False))
        assert default is not ablated

    def test_lower_cache_keys_on_field_values(self, demo_stream):
        # Equal-valued but distinct option instances share one entry...
        first = demo_stream.lower(LoweringOptions(), OptOptions())
        second = demo_stream.lower(LoweringOptions(), OptOptions())
        assert first is second
        # ...and None means "defaults", hitting the same entry.
        assert demo_stream.lower() is first

    def test_lower_cache_survives_repr_collisions(self, demo_stream):
        # Options whose repr hides their fields must not alias distinct
        # configurations: the key is the field values, not the repr.
        import dataclasses

        @dataclasses.dataclass(repr=False)
        class StealthOptions(OptOptions):
            def __repr__(self):
                return "OptOptions()"

        folded = StealthOptions(pipeline="fold")
        bare = StealthOptions(pipeline=())
        assert repr(folded) == repr(bare)
        assert demo_stream.lower(None, folded) is not \
            demo_stream.lower(None, bare)

    def test_lower_cache_accepts_container_valued_options(
            self, demo_stream):
        # Regression: _options_key hashed raw field values, so a
        # list-valued pipeline raised "unhashable type: 'list'".
        listed = demo_stream.lower(None, OptOptions(
            pipeline=["fold", "cse"]))
        tupled = demo_stream.lower(None, OptOptions(
            pipeline=("constant_folding", "cse")))
        assert listed is tupled

    @pytest.mark.parametrize("spelling", [
        "cp,promote,carry,fold,cse,dce,schedule",
        ["cp", "promote", "carry", "fold", "cse", "dce", "schedule"],
        ("copy_propagation", "promote_state", "carries",
         "constant_folding", "common_subexpression_elimination",
         "dead_code_elimination", "schedule_for_pressure"),
    ], ids=["aliases-string", "aliases-list", "canonical-tuple"])
    def test_one_key_per_pass_list(self, demo_stream, spelling):
        """Alias and canonical spellings of one pass list, as a string,
        a list or a tuple, share one lowering-cache entry and one
        artifact-cache fingerprint: the default's."""
        from repro.api import options_fingerprint

        opt = OptOptions(pipeline=spelling)
        assert options_fingerprint(None, opt) == options_fingerprint()
        assert demo_stream.lower(None, opt) is demo_stream.lower()

    def test_options_fingerprint_is_stable_and_distinct(self):
        from repro.api import options_fingerprint

        assert options_fingerprint() == options_fingerprint()
        assert options_fingerprint(None, OptOptions(pipeline="fold")) \
            != options_fingerprint()

    def test_compile_file(self, tmp_path):
        path = tmp_path / "p.str"
        path.write_text(
            "void->int filter S() { work push 1 { push(7); } }"
            "int->void filter P() { work pop 1 { println(pop()); } }"
            "void->void pipeline Top { add S(); add P(); }")
        stream = compile_file(path)
        assert stream.run_fifo(2).outputs == [7, 7]

    def test_compile_error_is_catchable(self):
        with pytest.raises(CompileError):
            compile_source("void->void pipeline P { }")

    def test_equivalence_report(self, demo_stream):
        report = check_equivalence(demo_stream, iterations=3)
        assert report.matches
        assert report.output_count == len(report.fifo.outputs)
        assert report.checksum != 0


class TestEvaluation:
    @pytest.fixture(scope="class")
    def record(self, demo_stream):
        return evaluate_stream("demo", demo_stream, iterations=4)

    def test_outputs_match(self, record):
        assert record.outputs_match

    def test_memory_reduction_in_range(self, record):
        assert 0.0 <= record.memory_reduction <= 1.0

    def test_speedups_above_one(self, record):
        for model in PLATFORMS.values():
            assert record.speedup(model) > 1.0

    def test_energy_saving_in_range(self, record):
        for model in PLATFORMS.values():
            assert 0.0 < record.energy_saving(model) < 1.0

    def test_modeled_memory_includes_spills(self, record):
        raw = record.laminar_counters.memory_accesses
        modeled = record.memory_accesses_modeled(I7_2600K, laminar=True)
        assert modeled >= raw

    def test_comm_reduction_positive_for_splitjoin(self, record):
        assert record.comm.reduction > 0.0

    def test_spills_per_platform(self, record):
        assert set(record.spills) == {m.name for m in PLATFORMS.values()}


class TestHelpers:
    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0
        assert geometric_mean([5.0]) == pytest.approx(5.0)

    def test_format_table_alignment(self):
        text = format_table(["name", "x"], [["a", "1"], ["bb", "22"]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[1].startswith("name")
        assert len(lines) == 5  # title, header, rule, two rows
