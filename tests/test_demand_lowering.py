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
from repro.lir.lower import REGION_MIN_REPEAT, Lowerer
from repro.lir.ops import (LoopRegion, PrintOp, StoreOp, Temp,
                           fresh_temp_ids, reserve_temp_ids,
                           reserved_temp_ids)
from repro.lir.template import FiringTemplate
from repro.opt import OptOptions, optimize
from repro.suite import benchmark_names, load_benchmark

PROGRAMS = benchmark_names(include_extras=True)
# (scale, steady multiplier, split/join elimination)
CONFIGS = [(1, 1, True), (1, 3, True), (1, 1, False), (2, 1, True),
           (4, 1, True)]


def _ops(program) -> int:
    return sum(len(ops) for _, ops in program.sections())


# The lowering the oracle compares: fully unrolled, so that eager and
# demand-driven lowering build the same firings.
UNROLLED = LoweringOptions(regions=False)


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


def _compare(stream, options=UNROLLED):
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
                              eliminate_splitjoin=eliminate, regions=False)
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
            pipeline="cp,promote,fold,carry,cse,schedule"
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
        # Without loop regions on both sides: runs of firings collapse
        # into loop regions at lowering when they are on, and eager
        # lowering has longer runs to collapse.
        stream = load_benchmark("rate_convert")
        lowered = [sum(stream.lower(UNROLLED, opt)
                       .opt_stats.ops_before.values())
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
                lower(stream.schedule, stream.source, UNROLLED,
                      demand=demand)
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
            program = lower(stream.schedule, stream.source, UNROLLED,
                            demand=True)
        assert any(isinstance(op, PrintOp) for op in program.steady)
        assert stream.run_laminar(4).outputs == stream.run_fifo(4).outputs

    def test_store_with_unused_output_is_emitted(self):
        stream = _discarded(
            "int->int filter Acc() { int acc; work push 1 pop 1 {\n"
            "  int v = pop(); acc = acc + v; push(v * 2); } }", "Acc")
        counts = []
        for demand in (False, True):
            with fresh_temp_ids():
                program = lower(stream.schedule, stream.source, UNROLLED,
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
                program = lower(stream.schedule, stream.source, UNROLLED,
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


# A templated firing whose replay raises, then a per-firing one that
# raises when it fires: Bad's loop bound comes from a token, so its body
# is not templated.
ORDERED = """
void->int filter Zero() {{ work push 1 {{ push(0); }} }}
{templated}
int->int filter Bad() {{ work push 1 pop 1 {{
  int n = pop(); int s = 0;
  for (int i = 0; i < n + 1; i++) s += 7 / n;
  push(s); }} }}
int->void filter Sink() {{ work pop 2 {{ println(pop() + pop()); }} }}
void->void pipeline P {{
  add Zero();
  add splitjoin {{ split duplicate; add {name}(); add Bad();
                  join roundrobin; }};
  add Sink();
}}
"""

RAISING = {
    "Div": ("int->int filter Div() { work push 1 pop 1 {\n"
            "  push(100 / pop()); } }", "division by zero"),
    "Pick": ("int->int filter Pick() { int[4] t; work push 1 pop 1 {\n"
             "  push(t[pop() + 9]); } }", "out of bounds"),
    "Shift": ("int->int filter Shift() { work push 1 pop 1 {\n"
              "  push(1 << (pop() - 1)); } }", "negative shift count"),
}

# A's eight firings form one region; F, lowered per firing, reads the
# first one's token while the section is still firing.
FORCED = """
void->float filter Src() { float x; work push 8 {
  for (int i = 0; i < 8; i++) { push(x); x = x + 0.25; } } }
float->float filter A() { work push 1 pop 1 {
  float v = pop(); float s = v;
  for (int i = 0; i < 8; i++) s = s * 0.5 + v;
  push(s); } }
float->float filter F() {
  float clamp(float x) { if (x > 0.5) return 0.5; return x; }
  work push 1 pop 1 { push(clamp(pop())); } }
float->float filter G() { work push 1 pop 1 { push(pop() + 1.0); } }
float->void filter Show() { work pop 1 { println(pop()); } }
void->void pipeline P {
  add Src(); add A();
  add splitjoin { split roundrobin(1, 7); add F(); add G();
                  join roundrobin(1, 7); };
  add Show();
}
"""

# The steady section is one firing of sixteen unit copies.
COUNT = """
void->void filter Count() { int n; work {
  for (int i = 0; i < 16; i++) { println(n); n = n + 3; } } }
void->void pipeline P { add Count(); }
"""


def _lowerer(stream, demand=True):
    with fresh_temp_ids():
        lowerer = Lowerer(stream.schedule, stream.source, demand=demand)
        lowerer.lower()
    return lowerer


def _regions(program):
    return [(op.trips, len(op.body)) for op in program.steady
            if isinstance(op, LoopRegion)]


class TestRecords:
    @pytest.mark.parametrize("name", sorted(RAISING))
    @pytest.mark.parametrize("demand", [False, True])
    @pytest.mark.parametrize("regions", [None, REGION_MIN_REPEAT])
    def test_first_error_in_schedule_order(self, name, demand, regions):
        # Div's (or Pick's) firing is replayed only when the section
        # ends, yet its error, not Bad's, is the one reported.
        templated, message = RAISING[name]
        stream = compile_source(ORDERED.format(templated=templated,
                                               name=name))
        with pytest.raises(CompileError) as info:
            with fresh_temp_ids():
                lower(stream.schedule, stream.source,
                      LoweringOptions(regions=regions is not None),
                      demand=demand)
        assert message in str(info.value)
        assert info.value.loc.line == 4

    def test_region_over_a_forced_firing(self):
        stream = compile_source(FORCED)
        lowerer = _lowerer(stream)
        assert lowerer.firings_fallback == 1
        assert lowerer.regions_formed == 1
        assert _regions(lowerer.program) == [(8, 18)]
        assert stream.run_laminar(8).outputs == stream.run_fifo(8).outputs

    def test_region_run_is_built_once(self, monkeypatch):
        replayed = []
        replay = FiringTemplate.replay

        def counting(template, *args):
            replayed.append(template)
            return replay(template, *args)

        monkeypatch.setattr(FiringTemplate, "replay", counting)
        stream = compile_source(COUNT)
        lowerer = _lowerer(stream)
        assert _regions(lowerer.program) == [(16, 3)]
        # Only the unit is replayed, once, into the region's body.
        template = lowerer._templates[stream.schedule.steady[0].vertex,
                                      False]
        assert replayed == [template.unit.template]
        assert lowerer.firings_replayed == 1
        monkeypatch.undo()
        assert stream.run_laminar(4).outputs == stream.run_fifo(4).outputs
