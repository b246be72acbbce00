"""State promotion: mem2reg / scalar replacement of aggregates for LaminarIR.

Because LaminarIR sections are straight-line and every state access is an
explicit ``load``/``store`` on a named slot, the classic LLVM promotions
(mem2reg for scalars, SROA for small arrays) become simple forward sweeps:

* a slot whose accesses all use compile-time indices is replaced by one
  SSA value per element;
* elements written during the steady section become additional loop-carried
  values (they are genuinely live across iterations — e.g. a source
  filter's phase accumulator or a delay line);
* elements only written during setup/init feed their last stored value
  directly into later uses — for constant coefficient tables this folds
  filter arithmetic down to constants, which is exactly the paper's
  "partial results computed at compile time" effect on static input;
* a loop region's body may read a promoted slot at constant indices
  (a filter's coefficient table, read by every trip): each such load
  becomes the element's value where the region starts.

This pass models what LLVM does to the generated C; running it on the IR
makes the effect measurable in interpreter op counts.
"""

from __future__ import annotations

from repro.frontend.types import FLOAT, INT
from repro.lir.ops import (Const, LoadOp, LoopRegion, Op, StateSlot, StoreOp,
                           Temp, Value, const_bool, const_float, const_int)
from repro.lir.program import Program


# Arrays larger than this are never promoted.
MAX_ARRAY_ELEMENTS = 4096
# Arrays written during steady become per-element loop carries; cap the
# carry blow-up separately (hot delay lines are typically small).
MAX_CARRIED_ELEMENTS = 256


def _zero(slot: StateSlot) -> Const:
    if slot.ty == INT:
        return const_int(0)
    if slot.ty == FLOAT:
        return const_float(0.0)
    return const_bool(False)


def _classify(program: Program) -> tuple[set[str], set[str]]:
    """(promotable slot names, slot names stored during steady)."""
    promotable = {slot.name for slot in program.state_slots
                  if not slot.is_array
                  or (slot.size or 0) <= MAX_ARRAY_ELEMENTS}
    steady_stored: set[str] = set()
    for title, ops in program.sections():
        for op in ops:
            if isinstance(op, LoopRegion):
                # A body may read an element at a constant index, which
                # the sweep rewrites to the element's value on entry
                # (the body does not store it).  Any other access —
                # indexed by the trip counter, or a store — keeps the
                # slot in memory.
                for inner in op.body:
                    if isinstance(inner, StoreOp):
                        promotable.discard(inner.slot.name)
                    elif isinstance(inner, LoadOp) \
                            and inner.index is not None \
                            and not isinstance(inner.index, Const):
                        promotable.discard(inner.slot.name)
                continue
            if not isinstance(op, (LoadOp, StoreOp)):
                continue
            slot = op.slot
            if op.index is not None and not isinstance(op.index, Const):
                promotable.discard(slot.name)
            if isinstance(op, StoreOp) and title == "steady":
                steady_stored.add(slot.name)
    for slot in program.state_slots:
        if slot.name in steady_stored and slot.is_array \
                and (slot.size or 0) > MAX_CARRIED_ELEMENTS:
            promotable.discard(slot.name)
    return promotable, steady_stored


def promote_state(program: Program) -> int:
    """Promote eligible state slots to SSA values.  Returns #slots."""
    promotable, steady_stored = _classify(program)
    if not promotable:
        return 0

    slots = {s.name: s for s in program.state_slots if s.name in promotable}
    current: dict[str, list[Value]] = {
        name: [_zero(slot)] * (slot.size or 1)
        for name, slot in slots.items()}
    # Elements of steady-stored slots that actually get a carry param; maps
    # (slot, element) -> position in the carry lists, filled lazily below.
    subst: dict[Temp, Value] = {}

    def resolve(value: Value) -> Value:
        while isinstance(value, Temp) and value in subst:
            value = subst[value]
        return value

    def element_index(op: LoadOp | StoreOp) -> int:
        if op.index is None:
            return 0
        index = resolve(op.index)
        assert isinstance(index, Const) and isinstance(index.value, int)
        return index.value

    def sweep_body(region: LoopRegion) -> None:
        # Promoted loads leave the body first, so that mapping the
        # region's outer operands reaches the uses of their results.
        kept: list[Op] = []
        for op in region.body:
            if isinstance(op, LoadOp) and op.slot.name in promotable:
                element = element_index(op)
                if 0 <= element < len(current[op.slot.name]):
                    assert op.result is not None
                    subst[op.result] = current[op.slot.name][element]
                    continue
            kept.append(op)
        region.body[:] = kept
        region.map_operands(resolve)

    def sweep(ops: list[Op]) -> None:
        kept: list[Op] = []
        for op in ops:
            if isinstance(op, LoopRegion):
                sweep_body(op)
                kept.append(op)
                continue
            op.map_operands(resolve)
            if isinstance(op, (LoadOp, StoreOp)) \
                    and op.slot.name in promotable:
                element = element_index(op)
                if not 0 <= element < len(current[op.slot.name]):
                    # Out-of-range constant index: leave it to fail at run
                    # time in the interpreter rather than mis-promote.
                    kept.append(op)
                    continue
                if isinstance(op, LoadOp):
                    assert op.result is not None
                    subst[op.result] = current[op.slot.name][element]
                else:
                    current[op.slot.name][element] = op.value
                continue
            kept.append(op)
        ops[:] = kept

    sweep(program.setup)
    sweep(program.init)

    program.carry_inits = [resolve(v) for v in program.carry_inits]

    # Steady-stored promoted elements become loop carries.
    carried: list[tuple[str, int]] = []
    for name in sorted(steady_stored & promotable):
        for element in range(len(current[name])):
            param = Temp(slots[name].ty, hint=f"state_{name}_")
            program.carry_params.append(param)
            program.carry_inits.append(current[name][element])
            carried.append((name, element))
            current[name][element] = param

    sweep(program.steady)

    program.carry_nexts = [resolve(v) for v in program.carry_nexts]
    for name, element in carried:
        program.carry_nexts.append(current[name][element])

    program.state_slots = [s for s in program.state_slots
                           if s.name not in promotable]
    return len(slots)
