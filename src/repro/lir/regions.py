"""Loop-region assembly for the lowering.

A :class:`~repro.lir.ops.LoopRegion` replaces ``trips`` repetitions of
the same ops.  The lowering (:mod:`repro.lir.lower`) knows the
repetition from the firing templates, and describes what the body reads
in each trip as a *column* (one value per trip) and which of its results
later code reads; :class:`RegionAssembly` builds the region from them:

* a column that is the same value every trip is that value;
* an **affine** column of int constants becomes ``base + stride * trip``
  in the body's prelude (bit-exact under i32 wraparound);
* any other column is *chained* when its values are constant-index
  loads of one array in arithmetic progression (an upstream region's
  scatter array): the body loads that array at ``base + stride * trip``
  and nothing is copied.  Otherwise it is packed into a gather array
  indexed ``trip + offset``, stored before the region; columns whose
  values overlap (the windows of a peeking filter) share one array;
* a **scattered** result is stored by the body to a fresh array at
  ``trip``, and constant-index loads after the region rebind the temps
  that later code reads, so that code and the program's carry lists stay
  as they are.

:meth:`RegionAssembly.finish` keeps the region only when it pays
(:func:`profitable`) and otherwise rolls back the arrays it reserved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.frontend.types import INT
from repro.lir.ops import (BinOp, CallOp, Const, LoadOp, LoopRegion, Op,
                           PrintOp, Provenance, StateSlot, StoreOp, Temp,
                           Value, const_int, wrap_i32)
from repro.lir.program import Program


def value_key(value: Value) -> tuple:
    """Identity of a value for column comparisons: temps by id,
    constants by type and exact value (so ``0.0`` and ``-0.0`` differ)."""
    if isinstance(value, Temp):
        return ("t", value.id)
    assert isinstance(value, Const)
    return ("c", str(value.ty), type(value.value).__name__,
            repr(value.value))


def profitable(length: int, trips: int, outside: int, body: int,
               carries: int) -> bool:
    """Whether a region pays for the ``length`` ops it replaces.

    ``outside`` counts the gather stores and scatter loads around the
    region, ``body`` the ops of one trip.  Static shrink is the point;
    the dynamic budget tolerates the gather/scatter/index overhead
    (roughly one extra op per body op for peek-window filters) but
    rejects regions whose overhead dwarfs the body.
    """
    static = outside + body + 1
    executed = outside + trips * (body + carries)
    budget = max(2 * length + trips, length * 9 // 4)
    return static < length and executed <= budget


class SlotAllocator:
    """Names and registers a program's gather and scatter arrays."""

    def __init__(self, program: Program):
        self.program = program
        self.names = {slot.name for slot in program.state_slots}
        self.counter = 0

    def fresh(self, kind: str, ty, size: int) -> StateSlot:
        while True:
            name = f"rr{self.counter}_{kind}"
            self.counter += 1
            if name not in self.names:
                break
        self.names.add(name)
        slot = StateSlot(name=name, ty=ty, size=size)
        self.program.state_slots.append(slot)
        return slot

    def rollback(self, mark: tuple[int, int]) -> None:
        """Unregister the arrays made since ``mark`` — how many slots
        there were, and the name counter — and reuse their names."""
        slots, self.counter = mark
        for slot in self.program.state_slots[slots:]:
            self.names.discard(slot.name)
        del self.program.state_slots[slots:]


@dataclass
class _GatherArray:
    """A shared gather array under construction (stride-1 packing)."""

    values: list[Value] = field(default_factory=list)
    keys: list[tuple] = field(default_factory=list)
    positions: dict[tuple, list[int]] = field(default_factory=dict)
    # (offset, body temp) of each load the body makes from the array.
    loads: list[list] = field(default_factory=list)

    def append(self, value: Value, key: tuple) -> None:
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
        for load in self.loads:
            load[0] += shift

    def try_align(self, values: list[Value],
                  keys: list[tuple]) -> int | None:
        """Find offset ``o`` with ``values[i] == self.values[o+i]`` on the
        overlap, extending either end; returns the final offset.
        ``keys`` are the ``value_key``\\ s of ``values``: one column
        probes many arrays, so it is keyed once."""
        candidates: list[int] = list(self.positions.get(keys[0], ()))
        head = self.keys[0]
        for d in range(1, len(values)):
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
                self.prepend(values[:-o], keys[:-o])
                o = 0
            tail = o + len(values) - len(self.values)
            for i in range(len(values) - tail, len(values)):
                self.append(values[i], keys[i])
            return o
        return None

    def load(self, offset: int, ty) -> Temp:
        for load in self.loads:
            if load[0] == offset:
                return load[1]
        result = Temp(ty, hint="rg")
        self.loads.append([offset, result])
        return result


class RegionAssembly:
    """One loop region under construction.

    ``def_of(temp_id)`` returns the op defining a temp where chaining
    may look, else ``None``: loads of arrays nothing stores to between
    them and the region.
    """

    def __init__(self, slots: SlotAllocator, trips: int,
                 prov: tuple[Provenance, ...],
                 def_of: Callable[[int], Op | None]):
        self.slots = slots
        self.trips = trips
        self.prov = prov
        self.def_of = def_of
        self.mark = (len(slots.program.state_slots), slots.counter)
        self.index = Temp(INT, hint="trip")
        self.prelude: list[Op] = []
        self.scatter_stores: list[Op] = []
        self.scatter_loads: list[Op] = []
        self._affine: dict[tuple[int, int], Value] = {}
        self._chains: dict[tuple[str, int, int], Temp] = {}
        self._arrays: list[_GatherArray] = []

    def column(self, values: list[Value],
               gather_consts: bool) -> Value | None:
        """The body value that takes ``values[trip]`` in each trip, or
        ``None`` when that would gather a constant and ``gather_consts``
        is off: a constant is then either the same literal every trip
        or part of an affine index."""
        head = values[0]
        # A temp is equal only to itself; equal constants may be
        # distinct objects.
        if head.__class__ is Temp:
            if all(value is head for value in values):
                return head
        elif all(value.__class__ is Const for value in values):
            key = value_key(head)
            if all(value_key(value) == key for value in values):
                return head
            if head.ty == INT:
                stride = wrap_i32(values[1].value - head.value)
                if all(value.value == wrap_i32(head.value + stride * trip)
                       for trip, value in enumerate(values)):
                    return self.affine(head.value, stride)
        if not gather_consts and any(value.__class__ is Const
                                     for value in values):
            return None
        return self._gather(values)

    def affine(self, base: int, stride: int) -> Value:
        """The body value ``base + stride * trip``."""
        if stride == 0:
            return const_int(base)
        key = (base, stride)
        if key in self._affine:
            return self._affine[key]
        value: Value = self.index
        if stride != 1:
            scaled = Temp(INT, hint="ridx")
            self.prelude.append(BinOp(result=scaled, prov=self.prov,
                                      op="*", lhs=const_int(stride),
                                      rhs=self.index))
            value = scaled
        if base != 0:
            shifted = Temp(INT, hint="ridx")
            self.prelude.append(BinOp(result=shifted, prov=self.prov,
                                      op="+", lhs=const_int(base),
                                      rhs=value))
            value = shifted
        self._affine[key] = value
        return value

    def _gather(self, values: list[Value]) -> Temp:
        """The body value that is ``values[trip]``: chained, or packed."""
        chained = self._chain(values)
        if chained is not None:
            return chained
        ty = values[0].ty
        keys = [value_key(v) for v in values]
        for array in self._arrays:
            if array.values and array.values[0].ty == ty:
                offset = array.try_align(values, keys)
                if offset is not None:
                    return array.load(offset, ty)
        array = _GatherArray()
        for value, key in zip(values, keys):
            array.append(value, key)
        self._arrays.append(array)
        return array.load(0, ty)

    def _chain(self, values: list[Value]) -> Temp | None:
        """Load an existing array directly instead of copying it, when
        ``values[trip]`` is each a load of ``slot[base + stride * trip]``
        for one ``slot``."""
        loads = [self.def_of(value.id) if value.__class__ is Temp
                 else None for value in values]
        first = loads[0]
        if first.__class__ is not LoadOp \
                or first.index.__class__ is not Const:
            return None
        slot, base = first.slot, first.index.value
        stride = loads[1].index.value - base \
            if loads[1].__class__ is LoadOp \
            and loads[1].index.__class__ is Const else 0
        if not all(load.__class__ is LoadOp and load.slot is slot
                   and load.index.__class__ is Const
                   and load.index.value == base + stride * trip
                   for trip, load in enumerate(loads)):
            return None
        key = (slot.name, base, stride)
        if key in self._chains:
            return self._chains[key]
        result = Temp(slot.ty, hint="rg")
        self.prelude.append(LoadOp(result=result, prov=self.prov, slot=slot,
                                   index=self.affine(base, stride)))
        self._chains[key] = result
        return result

    def scatter(self, value: Temp, rebind: list[tuple[int, Temp]]) -> None:
        """Store ``value`` every trip; after the region, load trip ``i``'s
        into ``temp`` for each ``(i, temp)`` of ``rebind``."""
        slot = self.slots.fresh("s", value.ty, self.trips)
        self.scatter_stores.append(StoreOp(result=None, prov=self.prov,
                                           slot=slot, index=self.index,
                                           value=value))
        for trip, temp in rebind:
            self.scatter_loads.append(LoadOp(result=temp, prov=self.prov,
                                             slot=slot,
                                             index=const_int(trip)))

    def finish(self, ops: list[Op], length: int,
               carries: list[tuple[Temp, Value, Value]],
               cost: int) -> list[Op] | None:
        """The region with ``ops`` as its per-trip work and ``carries``
        as its (param, init, next) triples, wrapped in its gather stores
        and scatter loads — or ``None``, releasing its arrays, when it
        does not pay for the ``length`` ops it replaces.  ``cost`` counts
        the ops of ``ops`` that the optimizer will not remove anyway."""
        gather_stores: list[Op] = []
        for array in self._arrays:
            slot = self.slots.fresh("g", array.values[0].ty,
                                    len(array.values))
            for p, value in enumerate(array.values):
                gather_stores.append(
                    StoreOp(result=None, prov=self.prov, slot=slot,
                            index=const_int(p), value=value))
            for offset, temp in array.loads:
                self.prelude.append(
                    LoadOp(result=temp, prov=self.prov, slot=slot,
                           index=self.affine(offset, 1)))
        outside = len(gather_stores) + len(self.scatter_loads)
        if not profitable(length, self.trips, outside, len(self.prelude)
                          + cost + len(self.scatter_stores), len(carries)):
            self.slots.rollback(self.mark)
            return None
        body = self.prelude + ops + self.scatter_stores
        effects = any(isinstance(op, (StoreOp, PrintOp))
                      or (isinstance(op, CallOp) and op.has_side_effect)
                      for op in ops)
        region = LoopRegion(result=None, prov=self.prov, trips=self.trips,
                            index=self.index, body=body,
                            carry_params=[param for param, _, _ in carries],
                            carry_inits=[init for _, init, _ in carries],
                            carry_nexts=[nxt for _, _, nxt in carries],
                            parallel=not effects and not carries)
        return gather_stores + [region] + self.scatter_loads
