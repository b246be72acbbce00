"""Firing templates against per-firing symbolic execution (the oracle).

Per-firing execution is forced by replacing the template recorder with
one that never produces a template, which is exactly the lowering's own
fallback path.  Both lowerings must agree byte for byte: the IR dump
(temp ids included), every op's provenance, the per-filter token and
firing counts, and the generated LaminarIR C.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import compile_source
from repro.backend.laminar_c import generate_laminar_c
from repro.frontend.errors import CompileError
from repro.fuzz.generator import generate_program
from repro.lir import LoweringOptions
from repro.lir import template as firing_template
from repro.lir.lower import Lowerer
from repro.lir.ops import fresh_temp_ids
from repro.opt import optimize
from repro.suite import benchmark_names, load_benchmark

SRC = Path(__file__).resolve().parent.parent / "src"
PROGRAMS = benchmark_names(include_extras=True)
# Per-firing lowering of these takes over 5 s each; they match as well,
# but the unit suite leaves them out.
SLOW = {("dct", 4, 1), ("dct", 4, 3), ("filterbank", 4, 1),
        ("filterbank", 4, 3)}
# Where the generated C is compared as well.  Elsewhere equal IR implies
# equal C: the optimizer and code generator are deterministic, and both
# lowerings leave the temp counter at the same value.
WITH_C = {(1, 1)}


def _lower(stream, options, templated, monkeypatch, with_c=False):
    """Everything the oracle compares, from one lowering, without loop
    regions: only a template forms one."""
    options = dataclasses.replace(options or LoweringOptions(),
                                  regions=False)
    with monkeypatch.context() as patch:
        if not templated:
            patch.setattr(firing_template, "record",
                          lambda *args, **kwargs: None)
        with fresh_temp_ids():
            lowerer = Lowerer(stream.schedule, stream.source, options)
            program = lowerer.lower()
            observed = {
                "dump": program.dump(),
                "prov": [(title, [op.prov for op in ops])
                         for title, ops in program.sections()],
                "tokens": program.filter_tokens,
                "firings": program.filter_firings,
                "kinds": program.filter_kinds,
            }
            if with_c:
                optimize(program)
                observed["c"] = generate_laminar_c(program)
    return observed, lowerer


def _assert_same(stream, options, monkeypatch, with_c=False):
    oracle, _ = _lower(stream, options, False, monkeypatch, with_c)
    got, lowerer = _lower(stream, options, True, monkeypatch, with_c)
    for key in oracle:
        assert got[key] == oracle[key], key
    return lowerer


def _configs():
    for name in PROGRAMS:
        for scale in (1, 2, 4):
            for multiplier in (1, 3):
                if (name, scale, multiplier) not in SLOW:
                    yield name, scale, multiplier


class TestOracle:
    @pytest.mark.parametrize("name,scale,multiplier", list(_configs()))
    def test_suite_program(self, name, scale, multiplier, monkeypatch):
        stream = load_benchmark(name, scale=scale)
        _assert_same(stream, LoweringOptions(steady_multiplier=multiplier),
                     monkeypatch, with_c=(scale, multiplier) in WITH_C)

    @pytest.mark.parametrize("seed", range(25))
    def test_fuzz_program(self, seed, monkeypatch):
        stream = compile_source(generate_program(seed), f"fuzz{seed}.str")
        _assert_same(stream, None, monkeypatch, with_c=True)

    def test_templates_do_the_work(self, monkeypatch):
        lowerer = _assert_same(load_benchmark("filterbank"), None,
                               monkeypatch)
        assert lowerer.templates_built > 0
        assert lowerer.firings_fallback == 0
        assert lowerer.firings_replayed > 10 * lowerer.templates_built


# Sources for the fallback triggers: Src emits random floats, Const3 the
# constant 3 (a token the lowering knows at compile time).
PREAMBLE = """
void->float filter Src() { work push 1 { push(randf()); } }
void->int filter Const3() { work push 1 { push(3); } }
float->void filter Snk() { work pop 1 { println(pop()); } }
int->void filter ISnk() { work pop 1 { println(pop()); } }
"""

# Data-dependent control whose decisions stay non-constant: Src's
# tokens are random, so every firing takes the recorded if-converted
# path, and the template replays it.
SELECTS = {
    "if-conversion":
        "float->float filter F() { work push 1 pop 1 { float v = pop(); "
        "float r = 0; if (v > 0.5) r = v; push(r); } }"
        "void->void pipeline P { add Src(); add F(); add Snk(); }",
    "dynamic ?:":
        "float->float filter F() { work push 1 pop 1 { float v = pop(); "
        "push(v > 0.5 ? v : 0.0); } }"
        "void->void pipeline P { add Src(); add F(); add Snk(); }",
    "dynamic &&":
        "float->float filter F() { work push 1 pop 1 { float v = pop(); "
        "boolean b = v > 0.25 && v < 0.75; push(b ? v : 0.0); } }"
        "void->void pipeline P { add Src(); add F(); add Snk(); }",
    "dynamic ||":
        "float->float filter F() { work push 1 pop 1 { float v = pop(); "
        "boolean b = v < 0.25 || v > 0.75; push(b ? v : 0.0); } }"
        "void->void pipeline P { add Src(); add F(); add Snk(); }",
    # m is never zero, but only the firing before knows it: a recorded
    # body sees m as an input, so the division by it is masked either
    # way, like the division by d.
    "masked division":
        "float->float filter F() { int m; init { m = 1; } "
        "work push 1 pop 1 { int d = (int) (pop() * 4.0); "
        "push(d != 0 ? 1.0 * (100 / d + 100 % m) : 0.0); m = d | 1; } }"
        "void->void pipeline P { add Src(); add F(); add Snk(); }",
}

# The same decisions on Const3's tokens fold when a template replays
# them: per-firing execution takes one branch only, so F falls back.
FALLBACKS = {
    "if-conversion":
        "int->int filter F() { work push 1 pop 1 { int v = pop(); "
        "int r = 0; if (v > 1) r = v; push(r); } }"
        "void->void pipeline P { add Const3(); add F(); add ISnk(); }",
    "dynamic ?:":
        "int->int filter F() { work push 1 pop 1 { int v = pop(); "
        "push(v > 1 ? v : 0); } }"
        "void->void pipeline P { add Const3(); add F(); add ISnk(); }",
    "dynamic &&":
        "int->int filter F() { work push 1 pop 1 { int v = pop(); "
        "boolean b = v > 1 && v < 5; push(b ? v : 0); } }"
        "void->void pipeline P { add Const3(); add F(); add ISnk(); }",
    "dynamic ||":
        "int->int filter F() { work push 1 pop 1 { int v = pop(); "
        "boolean b = v < 1 || v > 5; push(b ? v : 0); } }"
        "void->void pipeline P { add Const3(); add F(); add ISnk(); }",
    "predicated return":
        "float->float filter F() { "
        "float clamp(float x) { if (x > 0.5) return 0.5; return x; } "
        "work push 1 pop 1 { push(clamp(pop())); } }"
        "void->void pipeline P { add Src(); add F(); add Snk(); }",
    "loop bound from a token":
        "int->int filter F() { work push 1 pop 1 { int n = pop(); "
        "int s = 0; for (int i = 0; i < n; i++) s += i * i; push(s); } }"
        "void->void pipeline P { add Const3(); add F(); add ISnk(); }",
    "peek offset from a token":
        "int->int filter F() { work push 1 pop 4 { "
        "push(peek(peek(0))); for (int i = 0; i < 4; i++) pop(); } }"
        "void->void pipeline P { add Const3(); add F(); add ISnk(); }",
}


class TestSelectTemplates:
    @pytest.mark.parametrize("shape", sorted(SELECTS))
    def test_if_converted_body_is_templated(self, shape, monkeypatch):
        stream = compile_source(PREAMBLE + SELECTS[shape])
        lowerer = _assert_same(stream, LoweringOptions(steady_multiplier=3),
                               monkeypatch, with_c=True)
        assert lowerer.firings_fallback == 0
        assert lowerer.program.filter_firings["F"] == 3


class TestFallback:
    @pytest.mark.parametrize("trigger", sorted(FALLBACKS))
    def test_trigger_falls_back(self, trigger, monkeypatch):
        stream = compile_source(PREAMBLE + FALLBACKS[trigger])
        lowerer = _assert_same(stream, LoweringOptions(steady_multiplier=3),
                               monkeypatch, with_c=True)
        # F is lowered per firing; the sources and sinks are templated.
        firings = lowerer.program.filter_firings["F"]
        assert lowerer.firings_fallback >= firings
        assert lowerer.firings_replayed > 0

    def test_failed_recording_is_paid_once(self, monkeypatch):
        calls = []
        record = firing_template.record

        def counting(*args, **kwargs):
            calls.append(args[0].node.name)
            return record(*args, **kwargs)

        monkeypatch.setattr(firing_template, "record", counting)
        stream = compile_source(PREAMBLE + FALLBACKS["predicated return"])
        with fresh_temp_ids():
            Lowerer(stream.schedule, stream.source,
                    LoweringOptions(steady_multiplier=4)).lower()
        assert calls.count("F") == 1

    def test_constant_division_by_zero_keeps_its_location(self,
                                                          monkeypatch):
        # The divisor is a placeholder when the body is recorded and
        # the constant 0 when it is replayed: the fold must still fail,
        # at the division.
        source = (
            "void->int filter Zero() { work push 1 { push(0); } }\n"
            "int->int filter Div() { work push 1 pop 1 {\n"
            "  int d = pop();\n"
            "  push(100 / d); } }\n"
            "int->void filter ISnk() { work pop 1 { println(pop()); } }\n"
            "void->void pipeline P { add Zero(); add Div(); add ISnk(); }")
        stream = compile_source(source)
        errors = []
        for templated in (False, True):
            with pytest.raises(CompileError) as info:
                _lower(stream, None, templated, monkeypatch)
            errors.append(info.value)
        assert errors[0].loc.line == 4
        assert "division by zero" in str(errors[1])
        assert str(errors[1]) == str(errors[0])

    def test_replayed_constant_index_is_bounds_checked(self, monkeypatch):
        source = (
            "void->int filter Nine() { work push 1 { push(9); } }\n"
            "int->int filter Pick() { int[4] t; work push 1 pop 1 {\n"
            "  push(t[pop()]); } }\n"
            "int->void filter ISnk() { work pop 1 { println(pop()); } }\n"
            "void->void pipeline P { add Nine(); add Pick(); add ISnk(); }")
        stream = compile_source(source)
        errors = []
        for templated in (False, True):
            with pytest.raises(CompileError) as info:
                _lower(stream, None, templated, monkeypatch)
            errors.append(info.value)
        assert "out of bounds" in str(errors[1])
        assert str(errors[1]) == str(errors[0])


class TestTempNumbering:
    def test_same_c_as_a_fresh_process(self):
        script = ("import sys\n"
                  "from repro.suite import load_benchmark\n"
                  "sys.stdout.write(load_benchmark('bitonic_sort', "
                  "scale=4).laminar_c())\n")
        fresh = subprocess.run(
            [sys.executable, "-c", script], check=True, text=True,
            capture_output=True,
            env={**os.environ, "PYTHONPATH": str(SRC)}).stdout
        load_benchmark("filterbank").laminar_c()
        assert load_benchmark("bitonic_sort", scale=4).laminar_c() == fresh
