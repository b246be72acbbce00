"""Interpreter for lowered LaminarIR programs.

Executes the three straight-line sections with exact operation counting.
Tokens and intermediate values live in a register file (a dict keyed by
temp id) — only ``load``/``store`` ops touch the memory counters, which is
precisely the paper's point: after lowering, the steady state's memory
traffic is whatever state could not be promoted to registers.

Outputs must match :class:`repro.interp.fifo.FifoInterpreter` exactly for
the same program and iteration count (the equivalence experiment E8 and a
large part of the test suite rely on this).
"""

from __future__ import annotations

import time

from repro.frontend.errors import InterpError
from repro.frontend.intrinsics import INTRINSICS, XorShift32
from repro.frontend.values import coerce_runtime, default_value, \
    runtime_binary, runtime_call, runtime_unary
from repro.interp.counters import Counters, RunResult
from repro.lir.attribution import attribute_program
from repro.lir.ops import (BinOp, CallOp, CastOp, Const, LoadOp, LoopRegion,
                           MoveOp, Op, PrintOp, SelectOp, StoreOp, Temp,
                           UnOp, Value)
from repro.lir.program import Program
from repro.obs import metrics as obs_metrics
from repro.obs import trace


class LaminarInterpreter:
    def __init__(self, program: Program,
                 rng_seed: int = XorShift32.DEFAULT_SEED):
        self.program = program
        self.counters = Counters()
        self.rng = XorShift32(rng_seed)
        self.outputs: list[object] = []
        self.registers: dict[int, object] = {}
        self.state: dict[str, object] = {}
        for slot in program.state_slots:
            if slot.is_array:
                assert slot.size is not None
                self.state[slot.name] = [default_value(slot.ty)] * slot.size
            else:
                self.state[slot.name] = default_value(slot.ty)

    # -- public API -----------------------------------------------------------

    def run(self, iterations: int) -> RunResult:
        self._run_ops(self.program.setup)
        self._run_ops(self.program.init)
        carries = [self._value(v) for v in self.program.carry_inits]
        steady_start = self.counters.snapshot()
        params = self.program.carry_params
        timing = trace.is_enabled()
        iter_seconds = obs_metrics.histogram("interp.laminar.iter_seconds")
        for _ in range(iterations):
            began = time.perf_counter() if timing else 0.0
            for param, value in zip(params, carries):
                self.registers[param.id] = value
                self.counters.alu += 1  # loop-carried register move
            self._run_ops(self.program.steady)
            carries = [self._value(v) for v in self.program.carry_nexts]
            if timing:
                iter_seconds.observe(time.perf_counter() - began)
        steady = self.counters.delta_since(steady_start)
        obs_metrics.publish_counters("interp.laminar.steady", steady)
        # The laminar route has no run-time queues, so per-filter totals
        # are derived statically: the lowering's per-iteration counts
        # scaled by the iteration count.  The fuzz property tests assert
        # these agree with the FIFO interpreter's run-time counts.
        filter_tokens = {name: per_iter * iterations
                         for name, per_iter
                         in self.program.filter_tokens.items()}
        filter_firings = {name: per_iter * iterations
                          for name, per_iter
                          in self.program.filter_firings.items()}
        if timing:
            for row in attribute_program(self.program):
                obs_metrics.gauge(
                    f"interp.laminar.filter.{row.name}.ops").set(
                        row.steady_ops)
            for name, tokens in filter_tokens.items():
                obs_metrics.gauge(
                    f"interp.laminar.filter.{name}.tokens").set(tokens)
        return RunResult(outputs=list(self.outputs),
                         counters=self.counters.snapshot(),
                         steady_counters=steady, iterations=iterations,
                         filter_tokens=filter_tokens,
                         filter_firings=filter_firings)

    # -- execution ---------------------------------------------------------------

    def _value(self, value: Value) -> object:
        if isinstance(value, Const):
            return value.value
        assert isinstance(value, Temp)
        try:
            return self.registers[value.id]
        except KeyError:
            raise InterpError(f"use of undefined value {value}") from None

    def _set(self, temp: Temp | None, value: object) -> None:
        assert temp is not None
        self.registers[temp.id] = value

    def _run_ops(self, ops: list[Op]) -> None:
        for op in ops:
            self._run_op(op)

    def _run_op(self, op: Op) -> None:
        if isinstance(op, BinOp):
            result = runtime_binary(op.op, self._value(op.lhs),
                                    self._value(op.rhs))
            self.counters.count_binary(op.op)
            self._set(op.result, result)
        elif isinstance(op, UnOp):
            self.counters.alu += 1
            self._set(op.result, runtime_unary(op.op,
                                               self._value(op.operand)))
        elif isinstance(op, CastOp):
            assert op.result is not None
            self.counters.alu += 1
            self._set(op.result,
                      coerce_runtime(self._value(op.operand), op.result.ty))
        elif isinstance(op, SelectOp):
            self.counters.select += 1
            chosen = op.then if self._value(op.cond) else op.otherwise
            self._set(op.result, self._value(chosen))
        elif isinstance(op, CallOp):
            self._run_call(op)
        elif isinstance(op, LoadOp):
            self._run_load(op)
        elif isinstance(op, StoreOp):
            self._run_store(op)
        elif isinstance(op, MoveOp):
            # Only present when splitter/joiner elimination is disabled:
            # models the routing copy the baseline performs.
            self.counters.alu += 1
            self.counters.token_transfers += 1
            self._set(op.result, self._value(op.src))
        elif isinstance(op, PrintOp):
            self.counters.prints += 1
            self.outputs.append(self._value(op.value))
        elif isinstance(op, LoopRegion):
            self._run_region(op)
        else:  # pragma: no cover
            raise AssertionError(type(op).__name__)

    def _run_region(self, region: LoopRegion) -> None:
        """Execute a loop region directly: counters accumulate per
        trip, exactly as the unrolled form would have counted."""
        carries = [self._value(v) for v in region.carry_inits]
        params = region.carry_params
        for trip in range(region.trips):
            self.registers[region.index.id] = trip
            for param, value in zip(params, carries):
                self.registers[param.id] = value
                self.counters.alu += 1  # loop-carried register move
            for op in region.body:
                self._run_op(op)
            if params:
                carries = [self._value(v) for v in region.carry_nexts]

    def _run_call(self, op: CallOp) -> None:
        self.counters.intrinsic += 1
        args = [self._value(a) for a in op.args]
        if op.name == "randf":
            self._set(op.result, self.rng.randf())
            return
        if op.name == "randi":
            try:
                self._set(op.result,
                          self.rng.randi(int(args[0])))  # type: ignore
            except ValueError as error:
                raise InterpError(str(error)) from None
            return
        self._set(op.result, runtime_call(INTRINSICS[op.name], args))

    def _element(self, op: LoadOp | StoreOp) -> tuple[list, int]:
        array = self.state[op.slot.name]
        assert isinstance(array, list)
        assert op.index is not None
        index = self._value(op.index)
        assert isinstance(index, int)
        self.counters.alu += 1  # address arithmetic
        if not 0 <= index < len(array):
            raise InterpError(
                f"index {index} out of bounds for slot {op.slot.name}"
                f"[{len(array)}]")
        return array, index

    def _run_load(self, op: LoadOp) -> None:
        self.counters.loads += 1
        if op.index is None:
            self._set(op.result, self.state[op.slot.name])
            return
        array, index = self._element(op)
        self._set(op.result, array[index])

    def _run_store(self, op: StoreOp) -> None:
        self.counters.stores += 1
        value = coerce_runtime(self._value(op.value), op.slot.ty)
        if op.index is None:
            self.state[op.slot.name] = value
            return
        array, index = self._element(op)
        array[index] = value
