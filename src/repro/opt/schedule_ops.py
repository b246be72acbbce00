"""Register-pressure-aware instruction scheduling.

Aggressive unrolling is LaminarIR's cost: a fully flattened steady state
can keep hundreds of tokens live at once, and anything beyond the
register file spills (see :func:`repro.machine.platforms.estimate_spills`).
The lowering emits ops in schedule order — producer firings first, all of
their tokens live until the consumer fires much later.  This pass
re-schedules each straight-line section to shorten value lifetimes:

* a dependence graph is built over the section (data edges, plus ordering
  edges that keep effects — stores, prints, RNG calls — in their original
  relative order and loads on the correct side of stores to the same
  slot);
* a greedy list scheduler repeatedly emits the ready op with the best
  *pressure delta* — preferring ops that kill the last use of operands
  over ops that only create new values, breaking ties by original
  position (so the result is deterministic and close to source order).

The transformation never reorders observable effects, so outputs are
bit-identical; only liveness (and therefore modeled spill traffic)
changes.
"""

from __future__ import annotations

import heapq
from collections import defaultdict

from repro.lir.ops import LoadOp, LoopRegion, Op, StoreOp, Temp
from repro.lir.program import Program


def _is_effect(op: Op) -> bool:
    # Stores, prints, impure calls — and whole loop regions, which carry
    # their body's effects.
    return op.has_side_effect


def _build_dependences(ops: list[Op],
                       reads: list[list[int]]) -> list[set[int]]:
    """preds[i] = indices that must execute before op i, which reads the
    temp ids ``reads[i]``."""
    preds: list[set[int]] = [set() for _ in ops]
    last_def: dict[int, int] = {}
    last_effect: int | None = None
    last_store_to: dict[str, int] = {}
    loads_since_store: dict[str, list[int]] = defaultdict(list)

    for index, op in enumerate(ops):
        for temp_id in reads[index]:
            if temp_id in last_def:
                preds[index].add(last_def[temp_id])
        if isinstance(op, LoopRegion):
            # A region reads and writes whatever its body touches: treat
            # it as a load of every body-loaded slot and a store to every
            # body-stored slot so outer accesses stay on the right side.
            stored = {slot.name for slot in op.body_slot_stores()}
            loaded = {slot.name for slot in op.body_slot_loads()}
            for name in sorted(loaded - stored):
                if name in last_store_to:
                    preds[index].add(last_store_to[name])
                loads_since_store[name].append(index)
            for name in sorted(stored):
                for load_index in loads_since_store[name]:
                    preds[index].add(load_index)
                loads_since_store[name] = []
                if name in last_store_to:
                    preds[index].add(last_store_to[name])
                last_store_to[name] = index
        if isinstance(op, LoadOp):
            if op.slot.name in last_store_to:
                preds[index].add(last_store_to[op.slot.name])
            loads_since_store[op.slot.name].append(index)
        if isinstance(op, StoreOp):
            # stores wait for earlier loads of the same slot (anti-dep)
            for load_index in loads_since_store[op.slot.name]:
                preds[index].add(load_index)
            loads_since_store[op.slot.name] = []
            if op.slot.name in last_store_to:
                preds[index].add(last_store_to[op.slot.name])
            last_store_to[op.slot.name] = index
        if _is_effect(op):
            if last_effect is not None:
                preds[index].add(last_effect)
            last_effect = index
        if op.result is not None:
            last_def[op.result.id] = index
    return preds


def _schedule_section(ops: list[Op], live_out: set[int]) -> list[Op]:
    """Greedy minimum-pressure list scheduling of one section."""
    count = len(ops)
    if count < 3:
        return ops
    # The temp ids each op reads, in full and once each: collected once,
    # as a region's operands walk its whole body.
    operand_ids = [[operand.id for operand in op.operands()
                    if operand.__class__ is Temp] for op in ops]
    reads = [list(dict.fromkeys(ids)) for ids in operand_ids]
    preds = _build_dependences(ops, reads)
    succs: list[list[int]] = [[] for _ in ops]
    indegree = [0] * count
    for index, pred_set in enumerate(preds):
        indegree[index] = len(pred_set)
        for pred in pred_set:
            succs[pred].append(index)

    # remaining uses per temp id (including live-out as a permanent use)
    uses_left: dict[int, int] = defaultdict(int)
    for ids in operand_ids:
        for temp_id in ids:
            uses_left[temp_id] += 1
    for temp_id in live_out:
        uses_left[temp_id] += 1

    def pressure_delta(index: int) -> int:
        delta = 1 if ops[index].result is not None else 0
        return delta - sum(uses_left[temp_id] == 1
                           for temp_id in reads[index])

    ready: list[tuple[int, int]] = []  # (pressure delta, original index)
    for index in range(count):
        if indegree[index] == 0:
            heapq.heappush(ready, (pressure_delta(index), index))

    result: list[Op] = []
    emitted = [False] * count
    while ready:
        # deltas go stale as uses are consumed; lazily revalidate
        delta, index = heapq.heappop(ready)
        if emitted[index]:
            continue
        current = pressure_delta(index)
        if current != delta:
            heapq.heappush(ready, (current, index))
            continue
        emitted[index] = True
        result.append(ops[index])
        for temp_id in operand_ids[index]:
            uses_left[temp_id] -= 1
        for succ in succs[index]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heapq.heappush(ready, (pressure_delta(succ), succ))

    assert len(result) == count, "scheduler dropped ops (cyclic deps?)"
    return result


def schedule_for_pressure(program: Program) -> None:
    """Reorder each section to reduce peak register pressure in place."""
    live_out_setup: set[int] = set()
    live_out_init = {v.id for v in program.carry_inits
                     if isinstance(v, Temp)}
    live_out_steady = {v.id for v in program.carry_nexts
                       if isinstance(v, Temp)}
    # cross-section uses keep setup/init values alive; collect them
    used_later: set[int] = set(live_out_init) | set(live_out_steady)
    for ops in (program.init, program.steady):
        for op in ops:
            for operand in op.operands():
                if isinstance(operand, Temp):
                    used_later.add(operand.id)
    program.setup[:] = _schedule_section(program.setup,
                                         live_out_setup | used_later)
    program.init[:] = _schedule_section(program.init,
                                        live_out_init | used_later)
    program.steady[:] = _schedule_section(program.steady, live_out_steady)
