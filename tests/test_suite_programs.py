"""Structural and behavioural tests for the 12 suite benchmarks."""

import math

import pytest

from repro.suite import (BENCHMARKS, benchmark_names, benchmark_source,
                         load_benchmark)

EXPECTED_NAMES = {
    "autocor", "beamformer", "bitonic_sort", "channel_vocoder", "dct",
    "fft", "filterbank", "fm_radio", "lattice", "matrixmult",
    "rate_convert", "tde",
}


class TestRegistry:
    def test_all_twelve_present(self):
        assert set(benchmark_names()) == EXPECTED_NAMES

    def test_sources_load(self):
        for name in benchmark_names():
            source = benchmark_source(name)
            assert "pipeline" in source

    def test_descriptions_nonempty(self):
        for info in BENCHMARKS.values():
            assert info.description
            assert info.domain

    def test_static_variant_strips_rng(self):
        for name in benchmark_names():
            source = benchmark_source(name, static_input=True)
            assert "randf()" not in source
            assert "randi(" not in source

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            load_benchmark("nope")


class TestStructure:
    def test_splitjoin_benchmarks_have_splitters(self):
        for name in ("fm_radio", "beamformer", "dct", "filterbank",
                     "channel_vocoder", "autocor", "matrixmult"):
            stats = load_benchmark(name).stats()
            assert stats["splitters"] >= 1, name
            assert stats["joiners"] >= 1, name

    def test_linear_benchmarks_have_none(self):
        for name in ("bitonic_sort", "lattice", "rate_convert", "fft",
                     "tde"):
            stats = load_benchmark(name).stats()
            assert stats["splitters"] == 0, name

    def test_peeking_present_where_expected(self):
        # (autocor peeks exactly its pop window, so it has no surplus)
        for name in ("fm_radio", "filterbank",
                     "channel_vocoder", "rate_convert"):
            stats = load_benchmark(name).stats()
            assert stats["peeking_filters"] >= 1, name

    def test_filter_counts(self):
        stats = load_benchmark("filterbank").stats()
        # source + 8 bands x 5 stages + adder + printer
        assert stats["filters"] == 1 + 8 * 5 + 1 + 1

    def test_rate_convert_repetition_vector(self):
        stream = load_benchmark("rate_convert")
        reps = {v.name: r for v, r in stream.schedule.reps.items()}
        # U=3, D=2: expander fires 2x producing 6, compressor fires 3x
        assert reps["Expander"] == 2
        assert reps["Compressor"] == 3


class TestBehaviour:
    def test_bitonic_sorts(self):
        stream = load_benchmark("bitonic_sort")
        outputs = stream.run_fifo(3).outputs
        for block in range(3):
            chunk = outputs[block * 16:(block + 1) * 16]
            assert chunk == sorted(chunk)

    def test_fft_parseval(self):
        # Parseval: sum |x|^2 == (1/N) sum |X|^2 for our forward FFT.
        stream = load_benchmark("fft")
        laminar = stream.run_laminar(1)
        spectrum = laminar.outputs
        n = 16
        energy_freq = sum(spectrum[2 * k] ** 2 + spectrum[2 * k + 1] ** 2
                          for k in range(n))
        # recompute the input the source generated
        from repro.frontend.intrinsics import XorShift32
        rng = XorShift32()
        inputs = [rng.randf() * 2.0 - 1.0 for _ in range(2 * n)]
        energy_time = sum(inputs[2 * k] ** 2 + inputs[2 * k + 1] ** 2
                          for k in range(n))
        assert energy_freq / n == pytest.approx(energy_time, rel=1e-9)

    def test_tde_is_invertible_shape(self):
        # TDE output count equals input count (FFT -> scale -> IFFT).
        stream = load_benchmark("tde")
        result = stream.run_fifo(2)
        assert len(result.outputs) == 2 * 2 * 16

    def test_dct_transpose_is_routing_only(self):
        stream = load_benchmark("dct")
        # transpose branches are identity filters: the laminar program
        # should contain exactly 2 RowDCT instances worth of arithmetic
        program = stream.lower().program
        from repro.lir import MoveOp
        assert not any(isinstance(op, MoveOp) for op in program.steady)

    def test_dct_constant_input_gives_dc_only(self):
        source = benchmark_source("dct", static_input=True)
        from repro import compile_source
        stream = compile_source(source)
        outputs = stream.run_fifo(1).outputs
        # flat input: every 2-D coefficient except DC is ~0
        assert abs(outputs[0]) > 1.0
        assert all(abs(v) < 1e-9 for v in outputs[1:])

    def test_lattice_state_promoted(self):
        stream = load_benchmark("lattice")
        lowered = stream.lower()
        assert sum(stat.changes for stat in lowered.opt_stats.pass_stats
                   if stat.name == "promote_state") >= 10
        assert lowered.program.state_slots == []

    def test_matrixmult_against_reference(self):
        stream = load_benchmark("matrixmult")
        outputs = stream.run_laminar(1).outputs
        from repro.frontend.intrinsics import XorShift32
        rng = XorShift32()
        m, n, p = 4, 6, 4
        data = [rng.randf() * 4.0 - 2.0 for _ in range(m * n + n * p)]
        a = [data[i * n:(i + 1) * n] for i in range(m)]
        b = [data[m * n + i * p:m * n + (i + 1) * p] for i in range(n)]
        expected = [sum(a[r][k] * b[k][c] for k in range(n))
                    for r in range(m) for c in range(p)]
        assert outputs == pytest.approx(expected, rel=1e-12)

    def test_autocor_lag_zero_largest(self):
        stream = load_benchmark("autocor")
        outputs = stream.run_fifo(4).outputs
        # outputs interleave lags 0..7; lag 0 is the signal energy and
        # dominates the others for white noise
        for i in range(0, len(outputs), 8):
            row = outputs[i:i + 8]
            assert row[0] >= max(row[1:])

    def test_filterbank_delay_prework(self):
        stream = load_benchmark("filterbank")
        assert any(f.prework for f in stream.schedule.init)

    @pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
    def test_static_variant_runs(self, name):
        stream = load_benchmark(name, static_input=True)
        fifo = stream.run_fifo(2)
        laminar = stream.run_laminar(2)
        assert fifo.outputs == laminar.outputs


class TestScaling:
    def test_scaled_fft_still_correct(self):
        stream = load_benchmark("fft", scale=2)
        from repro import check_equivalence
        assert check_equivalence(stream, iterations=2).matches

    def test_scaled_bitonic_still_sorts(self):
        stream = load_benchmark("bitonic_sort", scale=2)
        outputs = stream.run_laminar(1).outputs
        assert outputs == sorted(outputs)
        assert len(outputs) == 32

    def test_scale_grows_steady_state(self):
        small = load_benchmark("fft", scale=1)
        large = load_benchmark("fft", scale=4)
        assert len(large.lower().program.steady) > \
            len(small.lower().program.steady)

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            load_benchmark("fft", scale=3)

    def test_every_benchmark_has_scale_template(self):
        from repro.suite import benchmark_source
        for name in benchmark_names():
            source = benchmark_source(name, scale=2)
            assert source != benchmark_source(name)


class TestExtras:
    def test_extras_not_in_paper_set(self):
        assert "tea_cipher" not in benchmark_names()
        assert "tea_cipher" in benchmark_names(include_extras=True)
        assert len(benchmark_names(include_extras=True)) == 14

    def test_tea_roundtrip(self):
        from repro.frontend.intrinsics import XorShift32
        from repro.lir import wrap_i32
        stream = load_benchmark("tea_cipher")
        outputs = stream.run_laminar(4).outputs
        rng = XorShift32()

        def word():
            hi = rng.randi(65536)
            lo = rng.randi(65536)
            return wrap_i32(hi * 65536 + lo)

        for block in range(4):
            plain = (word(), word())
            decrypted = (outputs[block * 4], outputs[block * 4 + 1])
            cipher = (outputs[block * 4 + 2], outputs[block * 4 + 3])
            assert decrypted == plain
            assert cipher != plain  # the cipher actually does something

    def test_tea_equivalence(self):
        from repro import check_equivalence
        assert check_equivalence(load_benchmark("tea_cipher"), 3).matches

    def test_histogram_counts_are_exact(self):
        from repro.frontend.intrinsics import XorShift32
        stream = load_benchmark("histogram")
        outputs = stream.run_fifo(1).outputs
        rng = XorShift32()
        samples = [rng.randi(16) for _ in range(64)]
        expected = [samples.count(b) for b in range(16)]
        assert outputs[:16] == expected
        assert outputs[16] == max(expected)  # the peak branch

    def test_histogram_keeps_memory_state(self):
        # dynamic binning blocks promotion: residual loads/stores remain
        stream = load_benchmark("histogram")
        program = stream.lower().program
        assert len(program.state_slots) >= 2
        result = stream.run_laminar(2)
        assert result.steady_counters.memory_accesses > 0

    def test_extras_scale(self):
        from repro import check_equivalence
        stream = load_benchmark("histogram", scale=2)
        assert check_equivalence(stream, 2).matches
