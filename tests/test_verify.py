"""Tests for the LaminarIR verifier and the DOT exporter."""

import pytest

from repro import compile_source
from repro.frontend.types import FLOAT, INT
from repro.graph import to_dot
from repro.lir import (BinOp, CallOp, LoadOp, PrintOp, Program, StateSlot,
                       StoreOp, Temp, VerificationError, const_float,
                       const_int, verify)
from repro.lir.ops import LoopRegion
from repro.suite import benchmark_names, load_benchmark


class TestVerifier:
    def test_valid_programs_pass(self, demo_stream):
        verify(demo_stream.lower().program)

    def test_suite_programs_pass(self):
        for name in ("fft", "bitonic_sort", "fm_radio"):
            verify(load_benchmark(name).lower().program)

    def test_use_before_def(self):
        program = Program(name="bad")
        dangling = Temp(FLOAT)
        program.steady = [PrintOp(result=None, value=dangling)]
        with pytest.raises(VerificationError, match="undefined value"):
            verify(program)

    def test_double_definition(self):
        program = Program(name="bad")
        t = Temp(INT)
        op1 = BinOp(result=t, op="+", lhs=const_int(1), rhs=const_int(2))
        op2 = BinOp(result=t, op="+", lhs=const_int(3), rhs=const_int(4))
        program.steady = [op1, op2]
        with pytest.raises(VerificationError, match="defined twice"):
            verify(program)

    def test_unknown_slot(self):
        program = Program(name="bad")
        rogue = StateSlot("ghost", FLOAT)
        program.steady = [StoreOp(result=None, slot=rogue,
                                  value=const_float(1.0))]
        with pytest.raises(VerificationError, match="unknown state slot"):
            verify(program)

    def test_indexed_scalar_access(self):
        program = Program(name="bad")
        slot = StateSlot("s", FLOAT)
        program.state_slots = [slot]
        program.steady = [StoreOp(result=None, slot=slot,
                                  index=const_int(0),
                                  value=const_float(1.0))]
        with pytest.raises(VerificationError, match="indexed access"):
            verify(program)

    def test_constant_index_bounds(self):
        program = Program(name="bad")
        slot = StateSlot("arr", FLOAT, size=4)
        program.state_slots = [slot]
        program.steady = [LoadOp(result=Temp(FLOAT), slot=slot,
                                 index=const_int(9))]
        with pytest.raises(VerificationError, match="out of bounds"):
            verify(program)

    def test_carry_length_mismatch(self):
        program = Program(name="bad")
        program.carry_params = [Temp(FLOAT)]
        program.carry_inits = []
        program.carry_nexts = []
        with pytest.raises(VerificationError, match="mismatched lengths"):
            verify(program)

    def test_steady_cannot_feed_init(self):
        # carry inits must come from setup/init, never from steady temps
        program = Program(name="bad")
        late = Temp(FLOAT)
        program.steady = [BinOp(result=late, op="+",
                                lhs=const_float(1.0),
                                rhs=const_float(2.0))]
        program.carry_params = [Temp(FLOAT)]
        program.carry_inits = [late]
        program.carry_nexts = [program.carry_params[0]]
        with pytest.raises(VerificationError, match="undefined value"):
            verify(program)

    def test_verifier_runs_after_every_opt_config(self, demo_stream):
        from repro.opt import OptOptions
        for opt in (OptOptions(pipeline=()), OptOptions(),
                    OptOptions(pipeline="cp,reroll,fold,carry,cse,dce,"
                                        "schedule")):
            verify(demo_stream.lower(opt=opt).program)


def _region_program(body_for, parallel=True, carried=False):
    """One steady loop region over 4 trips, gathering from ``src`` and
    scattering to ``dst``; ``body_for(trip, src, dst)`` builds its body."""
    src = StateSlot("src", FLOAT, size=8)
    dst = StateSlot("dst", FLOAT, size=8)
    program = Program(name="region")
    program.state_slots = [src, dst]
    trip = Temp(INT, hint="trip")
    region = LoopRegion(result=None, trips=4, index=trip,
                        body=body_for(trip, src, dst), parallel=parallel)
    if carried:
        param = Temp(FLOAT)
        region.carry_params = [param]
        region.carry_inits = [const_float(0.0)]
        region.carry_nexts = [param]
    program.steady = [region]
    return program


def _scatter(trip, src, dst, index=None):
    """Load src[trip + 1], store it to dst[index or trip]."""
    offset, value = Temp(INT), Temp(FLOAT)
    return [BinOp(result=offset, op="+", lhs=const_int(1), rhs=trip),
            LoadOp(result=value, slot=src, index=offset),
            StoreOp(result=None, slot=dst,
                    index=trip if index is None else index, value=value)]


class TestParallelRegions:
    def test_independent_trips_pass(self):
        verify(_region_program(_scatter))

    def test_affine_store_index_passes(self):
        def body(trip, src, dst):
            scaled, shifted = Temp(INT), Temp(INT)
            return [BinOp(result=scaled, op="*", lhs=const_int(2),
                          rhs=trip),
                    BinOp(result=shifted, op="-", lhs=scaled,
                          rhs=const_int(-1))] + \
                _scatter(trip, src, dst, shifted)
        verify(_region_program(body))

    def test_carries(self):
        with pytest.raises(VerificationError, match="loop-carried"):
            verify(_region_program(_scatter, carried=True))
        verify(_region_program(_scatter, parallel=False, carried=True))

    def test_print(self):
        def body(trip, src, dst):
            ops = _scatter(trip, src, dst)
            return ops + [PrintOp(result=None, value=ops[1].result)]
        with pytest.raises(VerificationError, match="ordered effect"):
            verify(_region_program(body))
        verify(_region_program(body, parallel=False))

    def test_impure_call(self):
        def body(trip, src, dst):
            return _scatter(trip, src, dst) + [
                CallOp(result=Temp(FLOAT), name="randf", args=[],
                       pure=False)]
        with pytest.raises(VerificationError, match="ordered effect"):
            verify(_region_program(body))

    @pytest.mark.parametrize("index", ["scalar", "constant", "stride 0",
                                       "not affine"])
    def test_store_not_injective_in_the_trip(self, index):
        def body(trip, src, dst):
            if index == "scalar":
                scalar = StateSlot("acc", FLOAT)
                ops = _scatter(trip, src, dst)
                return ops + [StoreOp(result=None, slot=scalar,
                                      value=ops[1].result)]
            if index == "constant":
                return _scatter(trip, src, dst, const_int(3))
            derived = Temp(INT)
            op = ("-", trip) if index == "stride 0" else ("*", trip)
            return [BinOp(result=derived, op=op[0], lhs=trip,
                          rhs=op[1])] + _scatter(trip, src, dst, derived)
        program = _region_program(body)
        program.state_slots.append(StateSlot("acc", FLOAT))
        with pytest.raises(VerificationError, match="stride"):
            verify(program)

    def test_slot_loaded_and_stored(self):
        def body(trip, src, dst):
            return _scatter(trip, src, src)
        with pytest.raises(VerificationError, match="loads and stores"):
            verify(_region_program(body))
        verify(_region_program(body, parallel=False))

    @pytest.mark.parametrize("name", benchmark_names(include_extras=True))
    def test_suite_regions_verify(self, name):
        program = load_benchmark(name, scale=2).lower().program
        verify(program)


class TestDot:
    def test_structure(self, demo_stream):
        dot = to_dot(demo_stream.graph, demo_stream.schedule.reps)
        assert dot.startswith('digraph "Demo"')
        assert dot.rstrip().endswith("}")
        assert dot.count("->") == len(demo_stream.graph.channels)
        assert "shape=box" in dot
        assert "shape=triangle" in dot  # the splitter

    def test_repetition_annotations(self, demo_stream):
        dot = to_dot(demo_stream.graph, demo_stream.schedule.reps)
        assert "x2" in dot or "x1" in dot

    def test_feedback_edge_dashed(self):
        stream = compile_source("""
            void->float filter Src() { work push 1 { push(randf()); } }
            float->void filter Snk() { work pop 1 { println(pop()); } }
            float->float filter Mix() { work push 2 pop 2 {
              float a = pop(); float b = pop();
              push(a + b); push(a - b); } }
            float->float filter Id() { work push 1 pop 1 { push(pop()); } }
            void->void pipeline P {
              add Src();
              add feedbackloop { join roundrobin(1, 1); body Mix();
                loop Id(); split roundrobin(1, 1); enqueue 0.0; };
              add Snk();
            }""")
        dot = to_dot(stream.graph)
        assert "style=dashed" in dot
        assert "1 init" in dot

    def test_names_escaped(self, demo_stream):
        dot = to_dot(demo_stream.graph)
        # labels are well-formed quoted strings: even number of quotes
        assert dot.count('"') % 2 == 0
