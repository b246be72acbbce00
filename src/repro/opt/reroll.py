"""Re-roll the unrolled steady state into counted :class:`LoopRegion`\\ s.

Full unrolling is what gives LaminarIR direct token naming, but a large
schedule repeats the *same* filter body many times.  The lowering
already collapses runs of firings that replayed one firing template
(:mod:`repro.lir.lower`); this pass finds the repetition the schedule
does not state: periods inside a single firing (a source's unrolled
loop), untemplated bodies, runs the lowering declined, and any program
lowered without regions.  It scans consecutive runs of ops stamped with
the same filter provenance, fingerprints them for a structural
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
* **gather** — anything else defined before the run: chained onto an
  array it was loaded from, or packed into a gather array.

Results consumed outside the run are *scattered*.  Gathering, chaining,
scattering and the profitability test are
:class:`repro.lir.regions.RegionAssembly`'s, shared with the lowering.

Token indices are plain ``base + stride * trip`` — never modulo — so the
emitted C stays scalar-replaceable and autovectorizable; bodies with no
carries and no ordered effects are marked ``parallel`` for
``#pragma omp simd``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Iterable

from repro.frontend.types import INT
from repro.lir.ops import (BinOp, CallOp, Const, LoadOp, LoopRegion,
                           MoveOp, Op, PrintOp, StateSlot, StoreOp, Temp,
                           Value, const_int, wrap_i32)
from repro.lir.program import Program
from repro.lir.regions import (RegionAssembly, SlotAllocator, profitable,
                               strided_loads, value_key)

__all__ = ["reroll_steady"]


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


class _Rewriter:
    """Assembles one section's new op list, tracking what chaining needs."""

    def __init__(self):
        self.new_steady: list[Op] = []
        self.def_pos: dict[int, int] = {}
        self.def_op: dict[int, Op] = {}
        self.last_store: dict[str, int] = {}
        # Slots stored only at constant indices, each index once:
        # index -> the value stored.
        self.const_stores: dict[str, dict[int, Value]] = {}
        self.other_stores: set[str] = set()

    def append(self, op: Op) -> None:
        position = len(self.new_steady)
        self.new_steady.append(op)
        if isinstance(op, LoopRegion):
            _forward_gathers(op, self)
            for slot in op.body_slot_stores():
                self.last_store[slot.name] = position
                self.other_stores.add(slot.name)
            return
        if op.result is not None:
            self.def_pos[op.result.id] = position
            self.def_op[op.result.id] = op
        if isinstance(op, StoreOp):
            name = op.slot.name
            self.last_store[name] = position
            stores = self.const_stores.setdefault(name, {})
            if isinstance(op.index, Const) and op.index.value not in stores:
                stores[op.index.value] = op.value
            else:
                self.other_stores.add(name)

    def strided_source(self, slot: StateSlot, stored: set[str]
                       ) -> tuple[StateSlot, int, int] | None:
        """``(source, base, stride)`` when every element ``k`` of ``slot``
        was stored from a load of ``source[base + stride * k]`` that
        nothing stored since; ``stored`` names slots stored after."""
        values = self.const_stores.get(slot.name)
        if slot.name in self.other_stores or values is None \
                or sorted(values) != list(range(slot.size or 0)):
            return None
        loads = [self.def_op.get(value.id) if isinstance(value, Temp)
                 else None for _, value in sorted(values.items())]
        if not all(isinstance(load, LoadOp)
                   and isinstance(load.index, Const) for load in loads):
            return None
        source = loads[0].slot
        base = loads[0].index.value
        stride = loads[1].index.value - base if len(loads) > 1 else 1
        if any(load.slot is not source
               or load.index.value != base + stride * k
               for k, load in enumerate(loads)) \
                or source.name in stored:
            return None
        first = min(self.def_pos[load.result.id] for load in loads)
        if self.last_store.get(source.name, -1) >= first:
            return None
        return source, base, stride


def _forward_gathers(region: LoopRegion, rewriter: _Rewriter) -> None:
    """Point a region's loads of a gather array straight at the array
    its elements were loaded from.

    The lowering forms a region before this pass rolls the single
    firing that feeds it, so its inputs were gathered one by one; once
    that firing is a region, they are loads of its scatter array, and
    the copy can go (dead-code elimination drops it).
    """
    index = region.index
    stored = {slot.name for slot in region.body_slot_stores()}
    offsets: dict[int, int] = {index.id: 0}
    for op in region.body:
        if isinstance(op, BinOp) and op.op == "+" and op.rhs is index \
                and isinstance(op.lhs, Const) and op.lhs.ty == INT:
            offsets[op.result.id] = op.lhs.value
    body: list[Op] = []
    affine: dict[tuple[int, int], Value] = {}
    sources: dict[str, tuple[StateSlot, int, int] | None] = {}
    for op in region.body:
        source = None
        if isinstance(op, LoadOp) and isinstance(op.index, Temp) \
                and op.index.id in offsets and op.slot.name not in stored:
            if op.slot.name not in sources:
                sources[op.slot.name] = rewriter.strided_source(op.slot,
                                                                stored)
            source = sources[op.slot.name]
        if source is None:
            body.append(op)
            continue
        slot, base, stride = source
        key = (base + stride * offsets[op.index.id], stride)
        value = affine.get(key)
        if value is None:
            value = index
            if stride != 1:
                value = Temp(INT, hint="ridx")
                body.append(BinOp(result=value, prov=op.prov, op="*",
                                  lhs=const_int(stride), rhs=index))
            if key[0] != 0:
                shifted = Temp(INT, hint="ridx")
                body.append(BinOp(result=shifted, prov=op.prov, op="+",
                                  lhs=const_int(key[0]), rhs=value))
                value = shifted
            affine[key] = value
        body.append(LoadOp(result=op.result, prov=op.prov, slot=slot,
                           index=value))
    region.body[:] = body


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

    # The arrays the program's regions gather from and scatter to: runs
    # that only fill or read those belong to their regions.
    arrays: set[StateSlot] = set()
    for _title, ops in program.sections():
        for op in ops:
            if isinstance(op, LoopRegion):
                arrays.update(inner.slot for inner in op.body
                              if isinstance(inner, StoreOp)
                              or isinstance(inner, LoadOp)
                              and not isinstance(inner.index, Const))

    builder = _RegionBuilder(program, uses, carry_used, min_repeat, arrays)
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
                 min_repeat: int, arrays: set[StateSlot]):
        self.program = program
        self.rewriter: _Rewriter = None  # set per section
        self.uses = uses
        self.carry_used = carry_used
        self.min_repeat = min_repeat
        self.arrays = arrays
        self.slots = SlotAllocator(program)

    def try_reroll(self, run: list[Op]) -> list[Op] | None:
        length = len(run)
        if length < 2 * self.min_repeat \
                or all(isinstance(op, (LoadOp, StoreOp))
                       and op.slot in self.arrays for op in run):
            return None
        run_def = {op.result.id: p for p, op in enumerate(run)
                   if op.result is not None}
        shape_keys = [_shape_key(op) for op in run]
        run_uses: dict[int, int] | None = None
        for period in range(1, length // self.min_repeat + 1):
            if length % period:
                continue
            # C-speed periodicity test on the precomputed shape keys.
            if shape_keys[period:] != shape_keys[:-period]:
                continue
            plan = self._match_period(run, period, run_def)
            if plan is None:
                continue
            if run_uses is None:
                run_uses = _use_counts(run)
            rebinds = self._escaping(run, period, run_uses)
            if self._cannot_pay(run, period, plan, rebinds):
                continue
            built = self._build(run, period, plan, rebinds)
            if built is not None:
                return built
        return None

    def _escaping(self, run: list[Op], period: int,
                  run_uses: dict[int, int]) -> list[list[tuple[int, Temp]]]:
        """Per body position, each trip whose result is read outside the
        run, with that result: it has more uses in the whole program
        than in the run, or a carry list reads it."""
        trips = len(run) // period
        rebinds: list[list[tuple[int, Temp]]] = []
        for j in range(period):
            rebind = []
            if run[j].result is not None:
                for i in range(trips):
                    temp = run[i * period + j].result
                    assert temp is not None
                    if temp.id in self.carry_used or self.uses.get(
                            temp.id, 0) > run_uses.get(temp.id, 0):
                        rebind.append((i, temp))
            rebinds.append(rebind)
        return rebinds

    def _cannot_pay(self, run: list[Op], period: int,
                    plan: list[list[object]],
                    rebinds: list[list[tuple[int, Temp]]]) -> bool:
        """Whether a lower bound on the region's cost already fails the
        profitability test, so building it is wasted.  Each distinct
        gathered column costs the body a load, and each distinct value
        of a column that cannot chain costs a gather store."""
        loads: set[tuple] = set()
        stored: set[tuple] = set()
        carried: set[int] = set()
        for slots in plan:
            for slot_plan in slots:
                if isinstance(slot_plan, _Carried):
                    carried.add(slot_plan.rel)
                elif isinstance(slot_plan, _Gather):
                    source = strided_loads(slot_plan.values,
                                           self.rewriter.def_op.get)
                    if source is not None:
                        loads.add((source[0].name,) + source[1:])
                        continue
                    keys = tuple(value_key(v) for v in slot_plan.values)
                    loads.add(keys)
                    stored.update(keys)
        scattered = [rebind for rebind in rebinds if rebind]
        return not profitable(
            len(run), len(run) // period,
            len(stored) + sum(len(rebind) for rebind in scattered),
            period + len(loads) + len(scattered), len(carried))

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
        ty = vals[0].ty
        if any(v.ty is not ty and v.ty != ty for v in vals):
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
        first_key = value_key(vals[0])
        if all(value_key(v) == first_key for v in vals[1:]):
            return _Invariant(vals[0])
        if all(isinstance(v, Const) for v in vals) and vals[0].ty == INT:
            base = vals[0].value
            stride = wrap_i32(vals[1].value - base)
            if all(v.value == wrap_i32(base + stride * i)
                   for i, v in enumerate(vals)):
                return _Affine(base, stride)
        return _Gather(list(vals))

    # -- construction -------------------------------------------------------

    def _build(self, run: list[Op], period: int,
               plan: list[list[object]],
               rebinds: list[list[tuple[int, Temp]]]) -> list[Op] | None:
        trips = len(run) // period
        rewriter = self.rewriter
        run_stores = {op.slot.name for op in run if isinstance(op, StoreOp)}

        def may_chain(slot: StateSlot, values: list[Value]) -> bool:
            if slot.name in run_stores:
                return False
            first = min(rewriter.def_pos[v.id] for v in values)
            return rewriter.last_store.get(slot.name, -1) < first

        assembly = RegionAssembly(self.slots, trips, (run[0].prov[0],),
                                  rewriter.def_op.get, may_chain)
        body: list[Op] = []
        carries: dict[int, tuple[Temp, Value]] = {}
        body_results: list[Temp | None] = []
        for j in range(period):
            template = run[j]
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
                        assembly.affine(slot_plan.base, slot_plan.stride))
                else:
                    assert isinstance(slot_plan, _Gather)
                    replacements.append(assembly.gather(slot_plan.values))
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
        for result, rebind in zip(body_results, rebinds):
            if rebind:
                assembly.scatter(result, rebind)

        order = sorted(carries)
        return assembly.finish(
            body, len(run),
            ([carries[r][0] for r in order], [carries[r][1] for r in order],
             [body_results[r] for r in order]))
