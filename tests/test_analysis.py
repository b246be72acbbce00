"""Property tests: the whole optimizer on fuzzed and suite programs.

Each test lowers a program, runs the optimizer and checks that the
result passes :func:`repro.lir.verify` — SSA, carry lists, state slots,
region invariants and provenance integrity — and that the pass
manager's fixpoint converged.
"""

import pytest

from repro import compile_source
from repro.frontend.errors import CompileError
from repro.fuzz import generate_program
from repro.lir import lower, verify
from repro.opt import OptOptions, optimize


class TestIncrementalMatchesRebuild:
    """The optimized program verifies after every pipeline shape.

    (The name dates from when these tests cross-checked an incremental
    def-use index against a rebuild; they now check the program itself.)
    """

    @pytest.mark.parametrize("seed", range(25))
    def test_fuzzed_programs(self, seed):
        source = generate_program(f"defuse:{seed}")
        try:
            stream = compile_source(source)
        except CompileError:
            pytest.skip("generator emitted a program the frontend rejects")
        program = lower(stream.schedule, stream.source)
        stats = optimize(program)
        verify(program)
        assert stats.converged

    def test_suite_benchmark(self):
        from repro.suite import load_benchmark
        stream = load_benchmark("rate_convert")
        program = lower(stream.schedule, stream.source)
        stats = optimize(program)
        verify(program)
        assert stats.converged

    def test_custom_pipeline_keeps_index_consistent(self):
        source = generate_program("defuse:pipeline")
        stream = compile_source(source)
        program = lower(stream.schedule, stream.source)
        stats = optimize(program, OptOptions(
            pipeline=("dce", "fold", "cse", "carry", "dce", "schedule")))
        verify(program)
        assert stats.converged
