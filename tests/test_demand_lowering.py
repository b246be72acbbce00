"""Demand-driven lowering against eager lowering (the oracle).

Demand-driven lowering replays a pure firing only when emitted code
reads one of its outputs.  It must leave out nothing but ops the
optimizer's dead-code pre-prune deletes anyway, so after the default
optimizer both lowerings agree byte for byte: the generated LaminarIR
C and the IR dump, temp ids included.
"""

from __future__ import annotations

import contextlib
import sys
import threading
from functools import lru_cache

import pytest

from repro import compile_source
from repro.backend.laminar_c import generate_laminar_c
from repro.frontend.errors import CompileError
from repro.frontend.types import INT
from repro.fuzz.generator import generate_program
from repro.lir import LoweringOptions, lower
from repro.lir.ops import (PrintOp, StoreOp, Temp, fresh_temp_ids,
                           reserve_temp_ids, reserved_temp_ids)
from repro.opt import OptOptions, optimize
from repro.suite import benchmark_names, load_benchmark

PROGRAMS = benchmark_names(include_extras=True)
# (scale, steady multiplier, split/join elimination)
CONFIGS = [(1, 1, True), (1, 3, True), (1, 1, False), (2, 1, True),
           (4, 1, True)]


def _ops(program) -> int:
    return sum(len(ops) for _, ops in program.sections())


def _lower(stream, options, demand, opt):
    """What the oracle compares, from one lowering in a fresh temp
    scope: the IR (dump, provenance, the next temp id), the ops lowered,
    and with ``opt`` the IR dump and C after the default optimizer."""
    with fresh_temp_ids():
        program = lower(stream.schedule, stream.source, options,
                        demand=demand)
        lowered = _ops(program)
        raw = (program.dump(),
               [(title, [op.prov for op in ops])
                for title, ops in program.sections()],
               Temp(INT).id)
        if not opt:
            return raw, lowered
        optimize(program)
        return (program.dump(), generate_laminar_c(program)), lowered


def _compare(stream, options=None):
    """Assert that eager and demand-driven lowering, each followed by
    the default optimizer, agree byte for byte; returns the ops each
    lowered.  When both lowerings build the same program, the optimizer
    is not run: it is deterministic, so its output would agree too."""
    eager, eager_ops = _lower(stream, options, False, opt=False)
    demand, demand_ops = _lower(stream, options, True, opt=False)
    if demand != eager:
        eager = _lower(stream, options, False, opt=True)[0]
        demand = _lower(stream, options, True, opt=True)[0]
        assert demand[0] == eager[0]
        assert demand[1] == eager[1]
    assert demand_ops <= eager_ops
    return eager_ops, demand_ops


@lru_cache(maxsize=None)
def _suite(name, scale, multiplier, eliminate):
    options = LoweringOptions(steady_multiplier=multiplier,
                              eliminate_splitjoin=eliminate)
    return _compare(load_benchmark(name, scale=scale), options)


class TestOracle:
    @pytest.mark.parametrize("name", PROGRAMS)
    @pytest.mark.parametrize("scale,multiplier,eliminate", CONFIGS)
    def test_suite_program(self, name, scale, multiplier, eliminate):
        _suite(name, scale, multiplier, eliminate)

    @pytest.mark.parametrize("seed", range(25))
    def test_fuzz_program(self, seed):
        # Exact, not merely up to temp renaming: a deferred firing
        # reserves exactly the temps its replay mints.
        _compare(compile_source(generate_program(seed), f"fuzz{seed}.str"))

    def test_unoptimized_lowering_is_eager(self):
        # Without dead-code elimination nothing would delete the dead
        # firings, so the unoptimized program keeps every op.
        stream = load_benchmark("filterbank")
        unoptimized = stream.lower(opt=OptOptions(pipeline=())).program
        with fresh_temp_ids():
            eager = lower(stream.schedule, stream.source)
        assert unoptimized.dump() == eager.dump()

    def test_demand_follows_the_pre_prune(self):
        assert OptOptions().prunes_dead_code()
        assert OptOptions(pipeline="cp,fold,dce").prunes_dead_code()
        assert not OptOptions(pipeline=()).prunes_dead_code()
        assert not OptOptions(
            pipeline="cp,promote,reroll,fold,carry,cse,schedule"
        ).prunes_dead_code()
        assert not OptOptions(pipeline="fold,cse").prunes_dead_code()
        assert not OptOptions(max_rounds=0).prunes_dead_code()


class TestOpCounts:
    def test_filterbank_x4_lowers_five_times_fewer_ops(self):
        eager, demand = _suite("filterbank", 4, 1, True)
        assert demand * 5 <= eager, (eager, demand)

    def test_rate_convert_lowers_fewer_ops(self):
        eager, demand = _suite("rate_convert", 1, 1, True)
        assert demand < eager

    def test_compiled_stream_lowers_on_demand(self):
        # Without re-roll on both sides: runs of firings collapse into
        # loop regions at lowering when it is on, and eager lowering
        # has longer runs to collapse.
        stream = load_benchmark("rate_convert")
        lowered = [sum(stream.lower(opt=opt).opt_stats.ops_before.values())
                   for opt in (
                       OptOptions(pipeline="cp,promote,fold,carry,cse,dce,"
                                           "schedule"),
                       OptOptions(pipeline="cp,promote,fold,carry,cse,"
                                           "schedule"))]
        assert lowered[0] < lowered[1]


# Every firing of the middle filter feeds a sink that drops its token.
DISCARDED = """
void->int filter Src() {{ work push 1 {{ push({value}); }} }}
{middle}
int->void filter Drop() {{ work pop 1 {{ pop(); }} }}
void->void pipeline P {{ add Src(); add {name}(); add Drop(); }}
"""


def _discarded(middle, name, value="3"):
    return compile_source(DISCARDED.format(value=value, middle=middle,
                                           name=name))


def _raised(stream):
    errors = []
    for demand in (False, True):
        with pytest.raises(CompileError) as info:
            with fresh_temp_ids():
                lower(stream.schedule, stream.source, demand=demand)
        errors.append(info.value)
    assert str(errors[1]) == str(errors[0])
    return errors[1]


class TestEffectsAndErrors:
    def test_constant_division_by_zero_still_raises(self):
        stream = _discarded(
            "int->int filter Div() { work push 1 pop 1 {\n"
            "  int d = pop();\n"
            "  push(100 / d); } }", "Div", value="0")
        error = _raised(stream)
        assert "division by zero" in str(error)
        assert error.loc.line == 5

    def test_constant_index_out_of_bounds_still_raises(self):
        stream = _discarded(
            "int->int filter Pick() { int[4] t; work push 1 pop 1 {\n"
            "  push(t[pop()]); } }", "Pick", value="9")
        error = _raised(stream)
        assert "out of bounds" in str(error)
        assert error.loc.line == 4

    def test_print_with_unused_output_is_emitted(self):
        stream = _discarded(
            "int->int filter Show() { work push 1 pop 1 {\n"
            "  int v = pop() * 2; println(v); push(v); } }", "Show")
        with fresh_temp_ids():
            program = lower(stream.schedule, stream.source, demand=True)
        assert any(isinstance(op, PrintOp) for op in program.steady)
        assert stream.run_laminar(4).outputs == stream.run_fifo(4).outputs

    def test_store_with_unused_output_is_emitted(self):
        stream = _discarded(
            "int->int filter Acc() { int acc; work push 1 pop 1 {\n"
            "  int v = pop(); acc = acc + v; push(v * 2); } }", "Acc")
        counts = []
        for demand in (False, True):
            with fresh_temp_ids():
                program = lower(stream.schedule, stream.source,
                                demand=demand)
            counts.append(sum(isinstance(op, StoreOp)
                              for op in program.steady))
        assert counts[1] == counts[0] > 0


class TestReservedTempIds:
    @pytest.mark.parametrize("scoped", [True, False])
    def test_block_is_skipped_and_minted_in_order(self, scoped):
        with fresh_temp_ids() if scoped else contextlib.nullcontext():
            before = Temp(INT).id
            base = reserve_temp_ids(3)
            after = Temp(INT).id
            with reserved_temp_ids(base, 3):
                inside = [Temp(INT).id for _ in range(3)]
        assert before < base and after == base + 3
        assert inside == [base, base + 1, base + 2]

    def test_overflowing_the_block_asserts(self):
        with fresh_temp_ids():
            base = reserve_temp_ids(1)
            with pytest.raises(AssertionError, match="block of 1"):
                with reserved_temp_ids(base, 1):
                    Temp(INT), Temp(INT)


class TestForcing:
    def test_deep_pure_chain_forces_without_recursion(self):
        # 300 pure stages, all deferred, forced at once by the printing
        # sink, under a recursion limit far below the chain's length.
        stages = "".join("add Inc();" for _ in range(300))
        stream = compile_source(
            "void->int filter Count() { int n; work push 1 {"
            " push(n); n = n + 1; } }\n"
            "int->int filter Inc() { work push 1 pop 1 {"
            " push(pop() + 1); } }\n"
            "int->void filter Show() { work pop 1 { println(pop()); } }\n"
            f"void->void pipeline P {{ add Count(); {stages} add Show(); }}")
        limit = sys.getrecursionlimit()
        depth = 0
        frame = sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        sys.setrecursionlimit(depth + 100)
        try:
            with fresh_temp_ids():
                program = lower(stream.schedule, stream.source,
                                demand=True)
        finally:
            sys.setrecursionlimit(limit)
        assert _ops(program) > 300
        assert stream.run_laminar(2).outputs == stream.run_fifo(2).outputs

    def test_threads_match_sequential_lowerings(self):
        names = ("filterbank", "rate_convert")
        sequential = [load_benchmark(name).laminar_c() for name in names]
        results: dict[str, str] = {}

        def work(name):
            results[name] = load_benchmark(name).laminar_c()

        threads = [threading.Thread(target=work, args=(name,))
                   for name in names]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert [results[name] for name in names] == sequential
