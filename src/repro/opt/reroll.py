"""Re-roll the unrolled steady state into counted :class:`LoopRegion`\\ s.

Full unrolling is what gives LaminarIR direct token naming, but a large
steady schedule repeats the *same* filter body hundreds of times.  This
pass detects those repeats — consecutive runs of ops stamped with the
same filter provenance (PR 4) — fingerprints them for a structural
period, and collapses ``K >= min_repeat`` repeats into one
:class:`LoopRegion` executed ``K`` times.

For each operand position across the ``K`` instances the pass classifies
how the value varies:

* **invariant** — the same temp/const in every instance: referenced
  directly from the body;
* **internal** — the result of the op at the same relative position in
  the *same* instance: becomes a body-local reference;
* **loop-carried** (distance 1) — the result of the previous instance:
  becomes a region-level carry (init from the value instance 0 saw);
* **affine** — int constants in arithmetic progression: rematerialized
  as ``base + stride * trip`` (bit-exact under i32 wraparound; float
  progressions are never folded this way);
* **gather** — anything else defined before the run: spilled to a fresh
  gather array indexed ``trip + offset``.  Overlapping peek windows are
  packed into one shared array, and a gather whose values are themselves
  constant-indexed loads of a single array (e.g. an upstream region's
  scatter array) is *chained*: the body loads that array directly at
  ``base + stride * trip`` and no copy is materialized.

Results consumed outside the run are *scattered*: the body stores every
trip's value to a fresh array at ``trip``, and constant-index loads
after the region rebind the original temps (so downstream ops — and the
program carry lists — are untouched).  Downstream runs then chain on
those arrays, which is how back-to-back filter runs turn into
array-to-array loop nests with no per-token temps left in between.

Token indices are plain ``base + stride * trip`` — never modulo — so the
emitted C stays scalar-replaceable and autovectorizable; bodies with no
carries and no ordered effects are marked ``parallel`` for
``#pragma omp simd``.

A run is only rewritten when it *shrinks*: the static op count of the
replacement (gather stores + body + scatter loads + the region) must be
smaller than the unrolled run, and the dynamic op count must not blow up
(re-rolling is a size/compile-time optimization first).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace
from typing import Iterable

from repro.frontend.types import INT
from repro.lir.ops import (BinOp, CallOp, CastOp, Const, LoadOp, LoopRegion,
                           MoveOp, Op, PrintOp, Provenance, SelectOp,
                           StateSlot, StoreOp, Temp, Value, const_int,
                           wrap_i32)
from repro.lir.program import Program

__all__ = ["reroll_steady"]


def _value_key(value: Value) -> tuple:
    if isinstance(value, Temp):
        return ("t", value.id)
    assert isinstance(value, Const)
    return ("c", str(value.ty), type(value.value).__name__,
            repr(value.value))


def _shape_key(op: Op) -> tuple:
    """Structural identity modulo operands: two ops may occupy the same
    body position across trips iff their keys are equal.  Keys are
    precomputed once per run so periodicity checks reduce to list
    slicing (``keys[p:] == keys[:-p]``), not pairwise comparisons."""
    ty = str(op.result.ty) if op.result is not None else ""
    kind = type(op).__name__
    if isinstance(op, BinOp):
        extra: object = op.op
    elif isinstance(op, CallOp):
        extra = (op.name, op.pure, len(op.args))
    elif isinstance(op, (LoadOp, StoreOp)):
        extra = (id(op.slot), op.index is None)
    elif isinstance(op, MoveOp):
        extra = op.routing
    elif isinstance(op, PrintOp):
        extra = op.newline
    elif isinstance(op, LoopRegion):
        extra = id(op)  # unique — never re-roll across a region
    else:
        # UnOp carries its operator; CastOp/SelectOp are fully
        # described by type + result ty.
        extra = getattr(op, "op", None)
    return (kind, extra, ty)


# -- operand classifications -----------------------------------------------------


@dataclass
class _Invariant:
    value: Value


@dataclass
class _Internal:
    rel: int  # body position whose fresh result to reference


@dataclass
class _Carried:
    rel: int      # body position producing the next value
    init: Value   # what instance 0 saw


@dataclass
class _Affine:
    base: int
    stride: int


@dataclass
class _Gather:
    values: list[Value]
    ty: object


@dataclass
class _GatherArray:
    """A shared gather array under construction (stride-1 packing)."""

    values: list[Value] = field(default_factory=list)
    keys: list[tuple] = field(default_factory=list)
    positions: dict[tuple, list[int]] = field(default_factory=dict)
    recs: list[dict] = field(default_factory=list)  # {"offset": int, ...}

    def append(self, value: Value) -> None:
        key = _value_key(value)
        self.positions.setdefault(key, []).append(len(self.values))
        self.values.append(value)
        self.keys.append(key)

    def prepend(self, values: list[Value], keys: list[tuple]) -> None:
        shift = len(values)
        self.values[:0] = values
        self.keys[:0] = keys
        self.positions = {}
        for position, key in enumerate(self.keys):
            self.positions.setdefault(key, []).append(position)
        for rec in self.recs:
            rec["offset"] += shift

    def try_align(self, vals: list[Value],
                  keys: list[tuple]) -> int | None:
        """Find offset ``o`` with ``vals[i] == self.values[o+i]`` on the
        overlap, extending either end; returns the final offset.
        ``keys`` is the caller-precomputed ``_value_key`` list for
        ``vals`` — one gather probes many arrays, so keying once
        outside keeps this probe cheap."""
        candidates: list[int] = list(self.positions.get(keys[0], ()))
        head = self.keys[0]
        for d in range(1, len(vals)):
            if keys[d] == head:
                candidates.append(-d)
        for o in candidates:
            ok = True
            for i, key in enumerate(keys):
                p = o + i
                if 0 <= p < len(self.keys):
                    if self.keys[p] != key:
                        ok = False
                        break
            if not ok:
                continue
            if o < 0:
                self.prepend(vals[:-o], keys[:-o])
                o = 0
            tail = o + len(vals) - len(self.values)
            for i in range(len(vals) - tail, len(vals)):
                self.append(vals[i])
            return o
        return None


class _Rewriter:
    """Assembles one section's new op list, tracking what chaining needs."""

    def __init__(self):
        self.new_steady: list[Op] = []
        self.def_pos: dict[int, int] = {}
        self.def_op: dict[int, Op] = {}
        self.last_store: dict[str, int] = {}

    def append(self, op: Op) -> None:
        position = len(self.new_steady)
        self.new_steady.append(op)
        if isinstance(op, LoopRegion):
            for slot in op.body_slot_stores():
                self.last_store[slot.name] = position
            return
        if op.result is not None:
            self.def_pos[op.result.id] = position
            self.def_op[op.result.id] = op
        if isinstance(op, StoreOp):
            self.last_store[op.slot.name] = position


def reroll_steady(program: Program, min_repeat: int = 4) -> int:
    """Collapse repeated firing runs into loop regions; returns regions.

    Every section is processed — the init schedule of a deeply-pipelined
    graph is often *larger* than one steady iteration (it primes every
    peek window), and it repeats firings exactly the same way.  Chaining
    state is per section, so a gather never chains on a load from an
    earlier section (those temps reach the body as gathered values
    instead).
    """
    if min_repeat < 2:
        min_repeat = 2

    # Use counts over the whole program plus the carry lists, for the
    # "is this result consumed outside its run?" test.
    uses = _use_counts(op for _title, ops in program.sections()
                       for op in ops)
    carry_used = {v.id for v in list(program.carry_inits)
                  + list(program.carry_nexts) if isinstance(v, Temp)}

    builder = _RegionBuilder(program, uses, carry_used, min_repeat)
    regions = 0
    for _title, ops in program.sections():
        regions += _reroll_section(ops, builder, min_repeat)
    return regions


def _use_counts(ops: Iterable[Op]) -> dict[int, int]:
    """How many operand slots of ``ops`` read each temp id."""
    uses: dict[int, int] = {}
    for op in ops:
        for operand in op.operands():
            if isinstance(operand, Temp):
                uses[operand.id] = uses.get(operand.id, 0) + 1
    return uses


def _reroll_section(section: list[Op], builder: _RegionBuilder,
                    min_repeat: int) -> int:
    if len(section) < 2 * min_repeat:
        return 0
    rewriter = _Rewriter()
    builder.rewriter = rewriter
    regions = 0
    position = 0
    while position < len(section):
        op = section[position]
        key = op.prov[0].filter if op.prov else None
        if key is None or isinstance(op, LoopRegion):
            rewriter.append(op)
            position += 1
            continue
        end = position
        while end < len(section) and section[end].prov \
                and not isinstance(section[end], LoopRegion) \
                and section[end].prov[0].filter == key:
            end += 1
        run = section[position:end]
        replacement = builder.try_reroll(run)
        if replacement is None:
            for kept in run:
                rewriter.append(kept)
        else:
            for new_op in replacement:
                rewriter.append(new_op)
            regions += 1
        position = end

    if regions:
        section[:] = rewriter.new_steady
    return regions


class _RegionBuilder:
    def __init__(self, program: Program,
                 uses: dict[int, int], carry_used: set[int],
                 min_repeat: int):
        self.program = program
        self.rewriter: _Rewriter = None  # set per section
        self.uses = uses
        self.carry_used = carry_used
        self.min_repeat = min_repeat
        self.slot_names = {slot.name for slot in program.state_slots}
        self.counter = 0

    def try_reroll(self, run: list[Op]) -> list[Op] | None:
        length = len(run)
        if length < 2 * self.min_repeat:
            return None
        run_def = {op.result.id: p for p, op in enumerate(run)
                   if op.result is not None}
        shape_keys = [_shape_key(op) for op in run]
        for period in range(1, length // self.min_repeat + 1):
            if length % period:
                continue
            # C-speed periodicity test on the precomputed shape keys.
            if shape_keys[period:] != shape_keys[:-period]:
                continue
            plan = self._match_period(run, period, run_def)
            if plan is None:
                continue
            built = self._build(run, period, plan, run_def)
            if built is not None:
                return built
        return None

    # -- fingerprinting -----------------------------------------------------

    def _match_period(self, run: list[Op], period: int,
                      run_def: dict[int, int]) -> list[list[object]] | None:
        length = len(run)
        trips = length // period
        plan: list[list[object]] = []
        for j in range(period):
            operand_rows = [list(run[i * period + j].operands())
                            for i in range(trips)]
            width = len(operand_rows[0])
            if any(len(row) != width for row in operand_rows):
                return None
            slots: list[object] = []
            for k in range(width):
                vals = [operand_rows[i][k] for i in range(trips)]
                classified = self._classify(vals, period, run_def)
                if classified is None:
                    return None
                slots.append(classified)
            plan.append(slots)
        return plan

    def _classify(self, vals: list[Value], period: int,
                  run_def: dict[int, int]) -> object | None:
        trips = len(vals)
        if any(v.ty != vals[0].ty for v in vals[1:]):
            # A mixed-type column cannot become one body operand (the
            # carry param / gather slot would have to change type).
            return None
        hits = [(i, run_def[v.id]) for i, v in enumerate(vals)
                if isinstance(v, Temp) and v.id in run_def]
        if hits:
            pairs = {(i - pos // period, pos % period) for i, pos in hits}
            if len(pairs) != 1:
                return None
            distance, rel = next(iter(pairs))
            if distance == 0:
                if len(hits) != trips:
                    return None
                return _Internal(rel)
            if distance == 1 and len(hits) == trips - 1 \
                    and hits[0][0] == 1:
                init = vals[0]
                if isinstance(init, Temp) and init.id in run_def:
                    return None
                return _Carried(rel, init)
            return None
        first_key = _value_key(vals[0])
        if all(_value_key(v) == first_key for v in vals[1:]):
            return _Invariant(vals[0])
        if all(isinstance(v, Const) for v in vals) and vals[0].ty == INT:
            base = vals[0].value
            stride = wrap_i32(vals[1].value - base)
            if all(v.value == wrap_i32(base + stride * i)
                   for i, v in enumerate(vals)):
                return _Affine(base, stride)
        return _Gather(list(vals), vals[0].ty)

    # -- construction -------------------------------------------------------

    def _build(self, run: list[Op], period: int,
               plan: list[list[object]],
               run_def: dict[int, int]) -> list[Op] | None:
        trips = len(run) // period
        prov = (run[0].prov[0],)
        slot_mark = len(self.program.state_slots)
        index = Temp(INT, hint="trip")
        prelude: list[Op] = []
        body: list[Op] = []
        affine_cache: dict[tuple[int, int], Value] = {}
        chain_cache: dict[tuple[str, int, int], Temp] = {}
        gather_cache: dict[tuple[int, int], Temp] = {}
        arrays: list[_GatherArray] = []
        carries: dict[int, tuple[Temp, Value]] = {}
        run_stores = {op.slot.name for op in run if isinstance(op, StoreOp)}

        def affine_value(base: int, stride: int) -> Value:
            if stride == 0:
                return const_int(base)
            key = (base, stride)
            if key in affine_cache:
                return affine_cache[key]
            value: Value = index
            if stride != 1:
                scaled = Temp(INT, hint="ridx")
                prelude.append(BinOp(result=scaled, prov=prov, op="*",
                                     lhs=const_int(stride), rhs=index))
                value = scaled
            if base != 0:
                shifted = Temp(INT, hint="ridx")
                prelude.append(BinOp(result=shifted, prov=prov, op="+",
                                     lhs=const_int(base), rhs=value))
                value = shifted
            affine_cache[key] = value
            return value

        def chain_value(gather: _Gather) -> Temp | None:
            """Load an existing array directly instead of copying it."""
            defs = []
            for v in gather.values:
                if not isinstance(v, Temp):
                    return None
                def_op = self.rewriter.def_op.get(v.id)
                if not isinstance(def_op, LoadOp) \
                        or not isinstance(def_op.index, Const):
                    return None
                defs.append(def_op)
            slot = defs[0].slot
            if any(d.slot is not slot for d in defs):
                return None
            if slot.name in run_stores:
                return None
            indices = [d.index.value for d in defs]
            stride = indices[1] - indices[0]
            if any(indices[i] != indices[0] + stride * i
                   for i in range(len(indices))):
                return None
            min_def = min(self.rewriter.def_pos[v.id]
                          for v in gather.values)
            if self.rewriter.last_store.get(slot.name, -1) >= min_def:
                return None
            key = (slot.name, indices[0], stride)
            if key in chain_cache:
                return chain_cache[key]
            result = Temp(slot.ty, hint="rg")
            prelude.append(LoadOp(result=result, prov=prov, slot=slot,
                                  index=affine_value(indices[0], stride)))
            chain_cache[key] = result
            return result

        def gather_value(gather: _Gather) -> Temp:
            keys = [_value_key(v) for v in gather.values]
            for array in arrays:
                if array.values and array.values[0].ty == gather.ty:
                    offset = array.try_align(gather.values, keys)
                    if offset is not None:
                        return gather_load(array, offset, gather.ty)
            array = _GatherArray()
            for v in gather.values:
                array.append(v)
            arrays.append(array)
            return gather_load(array, 0, gather.ty)

        def gather_load(array: _GatherArray, offset: int, ty) -> Temp:
            for rec in array.recs:
                if rec["offset"] == offset:
                    return rec["temp"]
            result = Temp(ty, hint="rg")
            rec = {"offset": offset, "temp": result}
            array.recs.append(rec)
            return result

        body_results: list[Temp | None] = []
        cloned_effects = False
        for j in range(period):
            template = run[j]
            if isinstance(template, (StoreOp, PrintOp)) \
                    or (isinstance(template, CallOp)
                        and template.has_side_effect):
                cloned_effects = True
            replacements: list[Value] = []
            for slot_plan in plan[j]:
                if isinstance(slot_plan, _Invariant):
                    replacements.append(slot_plan.value)
                elif isinstance(slot_plan, _Internal):
                    replacements.append(body_results[slot_plan.rel])
                elif isinstance(slot_plan, _Carried):
                    if slot_plan.rel in carries:
                        replacements.append(carries[slot_plan.rel][0])
                    else:
                        param = Temp(slot_plan.init.ty, hint="rc")
                        carries[slot_plan.rel] = (param, slot_plan.init)
                        replacements.append(param)
                elif isinstance(slot_plan, _Affine):
                    replacements.append(
                        affine_value(slot_plan.base, slot_plan.stride))
                else:
                    assert isinstance(slot_plan, _Gather)
                    chained = chain_value(slot_plan)
                    replacements.append(chained if chained is not None
                                        else gather_value(slot_plan))
            clone = dc_replace(template)
            if template.result is not None:
                fresh = Temp(template.result.ty, hint=template.result.hint)
                clone.result = fresh
                body_results.append(fresh)
            else:
                body_results.append(None)
            iterator = iter(replacements)
            clone.map_operands(lambda _v: next(iterator))
            body.append(clone)

        # Scatter: results consumed outside the run survive in arrays.
        # A result is read outside when it has more uses in the whole
        # program than in the run, or when a carry list reads it.
        scatter_loads: list[Op] = []
        run_uses = _use_counts(run)
        for j in range(period):
            if run[j].result is None:
                continue
            used: list[int] = []
            for i in range(trips):
                temp = run[i * period + j].result
                assert temp is not None
                outside = temp.id in self.carry_used or \
                    self.uses.get(temp.id, 0) > run_uses.get(temp.id, 0)
                if outside:
                    used.append(i)
            if not used:
                continue
            slot = self._fresh_slot("s", run[j].result.ty, trips)
            body.append(StoreOp(result=None, prov=prov, slot=slot,
                                index=index, value=body_results[j]))
            for i in used:
                scatter_loads.append(
                    LoadOp(result=run[i * period + j].result, prov=prov,
                           slot=slot, index=const_int(i)))

        # Finalize gather arrays: emit the copy-in stores and the body
        # loads (offsets are stable now).
        gather_stores: list[Op] = []
        for array in arrays:
            if not array.recs:
                continue
            slot = self._fresh_slot("g", array.values[0].ty,
                                    len(array.values))
            for p, value in enumerate(array.values):
                gather_stores.append(
                    StoreOp(result=None, prov=prov, slot=slot,
                            index=const_int(p), value=value))
            for rec in array.recs:
                prelude.append(
                    LoadOp(result=rec["temp"], prov=prov, slot=slot,
                           index=affine_value(rec["offset"], 1)))

        body = prelude + body
        carry_params = [carries[r][0] for r in sorted(carries)]
        carry_inits: list[Value] = [carries[r][1] for r in sorted(carries)]
        carry_nexts: list[Value] = [body_results[r] for r in sorted(carries)]

        static_new = (len(gather_stores) + len(body)
                      + len(scatter_loads) + 1)
        executed_new = (len(gather_stores) + len(scatter_loads)
                        + trips * (len(body) + len(carry_params)))
        length = len(run)
        # Static shrink is the point; the dynamic budget tolerates the
        # gather/scatter/index overhead (roughly one extra op per body
        # op for peek-window filters) but rejects pathological cases
        # where the overhead dwarfs the body.
        budget = max(2 * length + trips, length * 9 // 4)
        if static_new >= length or executed_new > budget:
            # Not profitable: roll back the scatter/gather slots this
            # attempt registered.
            for slot in self.program.state_slots[slot_mark:]:
                self.slot_names.discard(slot.name)
            del self.program.state_slots[slot_mark:]
            return None

        region = LoopRegion(result=None, prov=prov, trips=trips,
                            index=index, body=body,
                            carry_params=carry_params,
                            carry_inits=carry_inits,
                            carry_nexts=carry_nexts,
                            parallel=not cloned_effects and not carries)
        return gather_stores + [region] + scatter_loads

    def _fresh_slot(self, kind: str, ty, size: int) -> StateSlot:
        while True:
            name = f"rr{self.counter}_{kind}"
            self.counter += 1
            if name not in self.slot_names:
                break
        self.slot_names.add(name)
        slot = StateSlot(name=name, ty=ty, size=size)
        self.program.state_slots.append(slot)
        return slot
