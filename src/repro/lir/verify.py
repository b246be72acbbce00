"""LaminarIR well-formedness verifier.

Checks the structural invariants every pass must preserve:

* SSA: each temp is defined at most once, and every use is dominated by
  its definition (sections execute setup → init → steady; carry params
  are defined at the top of steady; carry inits may use setup/init
  values; carry nexts may use anything);
* the three carry lists have equal length and element-wise compatible
  types;
* loads/stores reference registered state slots, with indices only on
  array slots;
* operand types are consistent for typed ops;
* a loop region marked ``parallel`` (which the C backend vectorizes
  with ``#pragma omp simd``) has independent trips: no carries, no
  print or impure call, every store indexed ``base + stride * trip``
  with ``stride != 0``, and no slot both loaded and stored in its body.

The test suite runs the verifier after lowering and after every
optimizer configuration; it is also handy when developing new passes.
"""

from __future__ import annotations

from repro.frontend.types import FLOAT, INT
from repro.lir.ops import (BinOp, CallOp, CastOp, Const, LoadOp,
                           LoopRegion, Op, PrintOp, SelectOp, StateSlot,
                           StoreOp, Temp, Value, wrap_i32)
from repro.lir.program import Program


class VerificationError(AssertionError):
    """Raised when a LaminarIR program violates an invariant."""


def _fail(message: str) -> None:
    raise VerificationError(message)


class _Verifier:
    def __init__(self, program: Program):
        self.program = program
        self.defined: set[int] = set()
        self.slots: dict[str, StateSlot] = {}

    def run(self) -> None:
        for slot in self.program.state_slots:
            if slot.name in self.slots:
                _fail(f"duplicate state slot {slot.name!r}")
            self.slots[slot.name] = slot

        if not (len(self.program.carry_params)
                == len(self.program.carry_inits)
                == len(self.program.carry_nexts)):
            _fail("carry lists have mismatched lengths: "
                  f"{len(self.program.carry_params)} params, "
                  f"{len(self.program.carry_inits)} inits, "
                  f"{len(self.program.carry_nexts)} nexts")

        self._walk(self.program.setup, "setup")
        self._walk(self.program.init, "init")
        for param, init in zip(self.program.carry_params,
                               self.program.carry_inits):
            self._check_use(init, "carry.init")
            if param.ty != init.ty and not (
                    {param.ty, init.ty} == {INT, FLOAT}):
                _fail(f"carry init type mismatch: {param} <- {init}")
        for param in self.program.carry_params:
            self._define(param, "carry parameters")
        self._walk(self.program.steady, "steady")
        for param, nxt in zip(self.program.carry_params,
                              self.program.carry_nexts):
            self._check_use(nxt, "carry.next")

    # -- helpers ------------------------------------------------------------

    def _define(self, temp: Temp, where: str) -> None:
        if temp.id in self.defined:
            _fail(f"{where}: {temp} defined twice")
        self.defined.add(temp.id)

    def _check_use(self, value: Value, where: str) -> None:
        if isinstance(value, Temp) and value.id not in self.defined:
            _fail(f"{where}: use of undefined value {value}")

    def _walk(self, ops: list[Op], section: str) -> None:
        for position, op in enumerate(ops):
            where = f"{section}[{position}] ({op})"
            if isinstance(op, LoopRegion):
                self._check_region(op, where)
                continue
            for operand in op.operands():
                self._check_use(operand, where)
            self._check_op(op, where)
            if op.result is not None:
                self._define(op.result, where)

    def _check_region(self, region: LoopRegion, where: str) -> None:
        if region.trips < 1:
            _fail(f"{where}: loop region with {region.trips} trips")
        if region.index.ty != INT:
            _fail(f"{where}: non-int trip counter {region.index}")
        if region.result is not None:
            _fail(f"{where}: loop region carries a result (outputs must "
                  "flow through scatter slots)")
        if not (len(region.carry_params) == len(region.carry_inits)
                == len(region.carry_nexts)):
            _fail(f"{where}: region carry lists have mismatched lengths")
        for param, init in zip(region.carry_params, region.carry_inits):
            self._check_use(init, f"{where} carry.init")
            if param.ty != init.ty and not (
                    {param.ty, init.ty} == {INT, FLOAT}):
                _fail(f"{where}: region carry init type mismatch: "
                      f"{param} <- {init}")
        # Index, carry params and body results are defined afresh each
        # trip; their ids are scoped to the region.
        scoped: list[Temp] = [region.index] + list(region.carry_params)
        self._define(region.index, where)
        for param in region.carry_params:
            self._define(param, f"{where} carry parameters")
        for position, op in enumerate(region.body):
            inner_where = f"{where} body[{position}] ({op})"
            if isinstance(op, LoopRegion):
                _fail(f"{inner_where}: nested loop regions are not "
                      "supported")
            for operand in op.operands():
                self._check_use(operand, inner_where)
            self._check_op(op, inner_where)
            if op.result is not None:
                self._define(op.result, inner_where)
                scoped.append(op.result)
        for nxt in region.carry_nexts:
            self._check_use(nxt, f"{where} carry.next")
        for param, nxt in zip(region.carry_params, region.carry_nexts):
            if param.ty != nxt.ty and not (
                    {param.ty, nxt.ty} == {INT, FLOAT}):
                _fail(f"{where}: region carry type mismatch: "
                      f"{param} <- {nxt}")
        for temp in scoped:
            self.defined.discard(temp.id)
        if region.parallel:
            _check_parallel(region, where)

    def _check_op(self, op: Op, where: str) -> None:
        if isinstance(op, (LoadOp, StoreOp)):
            slot = self.slots.get(op.slot.name)
            if slot is None:
                _fail(f"{where}: unknown state slot {op.slot.name!r}")
            if op.index is not None and not slot.is_array:
                _fail(f"{where}: indexed access to scalar slot "
                      f"{slot.name!r}")
            if op.index is None and slot.is_array:
                _fail(f"{where}: scalar access to array slot "
                      f"{slot.name!r}")
            if op.index is not None and op.index.ty != INT:
                _fail(f"{where}: non-int index")
            if isinstance(op.index, Const):
                assert slot is not None and slot.size is not None
                if not 0 <= op.index.value < slot.size:  # type: ignore
                    _fail(f"{where}: constant index {op.index.value} out "
                          f"of bounds for {slot}")
        elif isinstance(op, BinOp):
            if op.op in ("%", "&", "|", "^", "<<", ">>") \
                    and FLOAT in (op.lhs.ty, op.rhs.ty):
                _fail(f"{where}: float operand on int-only operator")
        elif isinstance(op, SelectOp):
            if op.then.ty != op.otherwise.ty:
                _fail(f"{where}: select branches disagree on type")
        elif isinstance(op, CastOp):
            if op.result is None:
                _fail(f"{where}: cast without result")


def _affine(value: Value, forms: dict[int, tuple[int, int]]
            ) -> tuple[int, int] | None:
    """``(stride, base)`` when ``value`` is ``base + stride * trip``."""
    if isinstance(value, Const):
        return (0, value.value) if value.ty == INT else None  # type: ignore
    return forms.get(value.id)  # type: ignore[union-attr]


def _affine_binop(op: BinOp, forms: dict[int, tuple[int, int]]
                  ) -> tuple[int, int] | None:
    lhs, rhs = _affine(op.lhs, forms), _affine(op.rhs, forms)
    if lhs is None or rhs is None:
        return None
    if op.op == "+":
        return wrap_i32(lhs[0] + rhs[0]), wrap_i32(lhs[1] + rhs[1])
    if op.op == "-":
        return wrap_i32(lhs[0] - rhs[0]), wrap_i32(lhs[1] - rhs[1])
    if op.op == "*" and 0 in (lhs[0], rhs[0]):
        factor, form = (lhs[1], rhs) if lhs[0] == 0 else (rhs[1], lhs)
        return wrap_i32(form[0] * factor), wrap_i32(form[1] * factor)
    return None


def _check_parallel(region: LoopRegion, where: str) -> None:
    """Re-derive the trip independence that ``parallel`` promises."""
    if region.carry_params:
        _fail(f"{where}: parallel loop region has loop-carried values")
    forms = {region.index.id: (1, 0)}
    loaded: set[str] = set()
    stored: set[str] = set()
    for op in region.body:
        if isinstance(op, PrintOp) \
                or (isinstance(op, CallOp) and op.has_side_effect):
            _fail(f"{where}: parallel loop region has an ordered effect "
                  f"({op})")
        if isinstance(op, BinOp):
            form = _affine_binop(op, forms)
            if form is not None:
                forms[op.result.id] = form  # type: ignore[union-attr]
        elif isinstance(op, LoadOp):
            loaded.add(op.slot.name)
        elif isinstance(op, StoreOp):
            form = None if op.index is None else _affine(op.index, forms)
            if form is None or form[0] == 0:
                _fail(f"{where}: parallel loop region stores to "
                      f"{op.slot.name!r} at an index that is not "
                      "base + stride * trip with stride != 0")
            stored.add(op.slot.name)
    both = loaded & stored
    if both:
        _fail(f"{where}: parallel loop region both loads and stores "
              f"{sorted(both)}")


def verify(program: Program) -> Program:
    """Raise :class:`VerificationError` if ``program`` is malformed."""
    _Verifier(program).run()
    return program


def verify_index(program: Program, index) -> None:
    """Check an incrementally-maintained index against a fresh rebuild.

    ``index`` is a :class:`repro.lir.analysis.ProgramIndex`.  The check
    compacts the index (so the section lists reflect every erasure) and
    compares its normalized snapshot against one built from scratch —
    any drift means a pass updated the program without telling the
    index, or vice versa.  Used by the optimizer's ``verify_analyses``
    mode and the analysis property tests.
    """
    from repro.lir.analysis import ProgramIndex

    index.compact()
    stamped, missing, malformed = index.provenance_report()
    if malformed:
        _fail(f"provenance integrity: {len(malformed)} op(s) carry a "
              f"malformed provenance entry, e.g. {malformed[0]} "
              f"({malformed[0].prov!r})")
    if stamped and missing:
        _fail(f"provenance integrity: {len(missing)} op(s) lost their "
              f"provenance while {stamped} kept it, e.g. {missing[0]}")
    fresh = ProgramIndex(program)
    mine = index.snapshot()
    theirs = fresh.snapshot()
    if mine == theirs:
        return
    for key in theirs:
        if mine.get(key) != theirs[key]:
            ours, ref = mine.get(key), theirs[key]
            if isinstance(ours, dict) and isinstance(ref, dict):
                missing = sorted(set(ref) - set(ours))
                extra = sorted(set(ours) - set(ref))
                stale = sorted(k for k in set(ours) & set(ref)
                               if ours[k] != ref[k])
                _fail(f"analysis index mismatch in {key!r}: "
                      f"missing={missing} extra={extra} stale={stale}")
            _fail(f"analysis index mismatch in {key!r}")
    _fail("analysis index mismatch")
