"""Def-use analysis over LaminarIR programs.

:class:`ProgramIndex` is the shared analysis layer the optimizer passes
consume: for every temp it records the defining op and the set of using
ops (plus uses from the carry lists), and for every state slot the loads
and stores that touch it.  The index is maintained *incrementally*
through the two mutations passes perform —
:meth:`ProgramIndex.replace_all_uses` (eager rewrite of every user) and
:meth:`ProgramIndex.erase` (mark an op dead) — so a pass can push only
the *affected* ops onto a sparse worklist instead of rescanning the
whole program each fixpoint round.

Erasure is mark-and-sweep: ``erase`` only marks the op (an O(1)
operation) and :meth:`ProgramIndex.compact` later filters the section
lists in one pass.  Anything that walks the raw ``program.setup`` /
``init`` / ``steady`` lists (the scheduler, promotion, codegen, the
verifier) must run after ``compact``.

Determinism note: ops hash by identity, so a ``set`` of ops would
iterate in an address-dependent order and make optimization output
depend on the allocator.  Every op collection here is a ``dict`` used
as an ordered set (insertion order), which keeps pass behavior
reproducible run to run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.lir.ops import (LoadOp, LoopRegion, Op, PROVENANCE_KINDS,
                           PROVENANCE_PHASES, Provenance, StoreOp, Temp,
                           Value)
from repro.lir.program import Program


class OpWorklist:
    """A FIFO worklist of ops with O(1) duplicate suppression."""

    def __init__(self) -> None:
        self._queue: deque[Op] = deque()
        self._pending: set[Op] = set()

    def push(self, op: Op) -> None:
        if op not in self._pending:
            self._pending.add(op)
            self._queue.append(op)

    def push_all(self, ops) -> None:
        for op in ops:
            self.push(op)

    def pop(self) -> Op | None:
        if not self._queue:
            return None
        op = self._queue.popleft()
        self._pending.discard(op)
        return op

    def clear(self) -> None:
        self._queue.clear()
        self._pending.clear()

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)


@dataclass
class EraseEffects:
    """What an :meth:`ProgramIndex.erase` freed up, for worklist seeding.

    ``dead_defs`` are ops whose result just lost its last use;
    ``dead_stores`` are stores to a slot that just lost its last load.
    Both are *candidates* — dead-code elimination re-checks them.
    """

    dead_defs: list[Op] = field(default_factory=list)
    dead_stores: list[Op] = field(default_factory=list)
    erased_store: bool = False
    dead_carry_params: bool = False


class ProgramIndex:
    """Incrementally-maintained def-use index of a :class:`Program`.

    Op ids are assigned in program order (setup, then init, then steady)
    at build time and are strictly increasing within each section for as
    long as no op is *inserted* — none of the worklist passes insert
    ops, so within one fixpoint run ``op_id`` gives the dominance order
    of two ops in the same section.  Passes that restructure sections
    (state promotion, pressure scheduling) invalidate the index; the
    pass manager rebuilds it, renumbering in the new program order.
    """

    def __init__(self, program: Program):
        self.program = program
        self._build()

    # -- construction -------------------------------------------------------

    def _build(self) -> None:
        self._op_ids: dict[Op, int] = {}
        self._section_of: dict[Op, str] = {}
        self._defs: dict[int, Op] = {}
        self._uses: dict[int, dict[Op, None]] = {}
        self._slot_loads: dict[str, dict[Op, None]] = {}
        self._slot_stores: dict[str, dict[Op, None]] = {}
        self._erased: set[Op] = set()
        # Ops already swept out of the section lists by compact().  They
        # must stay observably erased: pass state (CSE tables, worklists)
        # may still hold references across a mid-run compact.
        self._tombstones: set[Op] = set()
        # Enclosing LoopRegion for ops living inside a region body.
        self._region_of: dict[Op, LoopRegion] = {}
        self._next_id = 0
        for title, ops in self.program.sections():
            for op in ops:
                self._index_op(op, title)
        self.rebuild_carries()

    def _index_op(self, op: Op, title: str,
                  region: LoopRegion | None = None) -> None:
        self._op_ids[op] = self._next_id
        self._next_id += 1
        self._section_of[op] = title
        if region is not None:
            self._region_of[op] = region
        if isinstance(op, LoopRegion):
            # The region op *defines* its trip counter and carry params
            # (fresh each trip) and *uses* the temps its carry lists
            # reference; body ops are indexed individually so the
            # worklist passes can fold/CSE/DCE inside the body.
            self._defs[op.index.id] = op
            for param in op.carry_params:
                self._defs[param.id] = op
            for value in list(op.carry_inits) + list(op.carry_nexts):
                if isinstance(value, Temp):
                    self._uses.setdefault(value.id, {})[op] = None
            for inner in op.body:
                self._index_op(inner, title, op)
            return
        if op.result is not None:
            self._defs[op.result.id] = op
        for operand in op.operands():
            if isinstance(operand, Temp):
                self._uses.setdefault(operand.id, {})[op] = None
        if isinstance(op, LoadOp):
            self._slot_loads.setdefault(op.slot.name, {})[op] = None
        elif isinstance(op, StoreOp):
            self._slot_stores.setdefault(op.slot.name, {})[op] = None

    def rebuild_carries(self) -> None:
        """Recompute the carry-list use map (after carry lists changed)."""
        self._carry_uses: dict[int, dict[tuple[str, int], None]] = {}
        self.carry_param_ids = {p.id for p in self.program.carry_params}
        for kind, values in (("init", self.program.carry_inits),
                             ("next", self.program.carry_nexts)):
            for position, value in enumerate(values):
                if isinstance(value, Temp):
                    self._carry_uses.setdefault(
                        value.id, {})[(kind, position)] = None

    def rebuild(self) -> None:
        """From-scratch rebuild (after a pass that restructured sections)."""
        self.compact()
        self._build()

    def region_of(self, op: Op) -> LoopRegion | None:
        """The enclosing :class:`LoopRegion`, or None for top-level ops."""
        return self._region_of.get(op)

    # -- queries ------------------------------------------------------------

    def op_id(self, op: Op) -> int:
        return self._op_ids[op]

    def section_of(self, op: Op) -> str:
        return self._section_of[op]

    def is_erased(self, op: Op) -> bool:
        return op in self._erased or op in self._tombstones

    def live_ops(self):
        """Yield every non-erased op in program order (region bodies
        nested right after their region op)."""
        for _title, ops in self.program.sections():
            for op in ops:
                if op in self._erased:
                    continue
                yield op
                if isinstance(op, LoopRegion):
                    for inner in op.body:
                        if inner not in self._erased:
                            yield inner

    def def_of(self, temp_id: int) -> Op | None:
        return self._defs.get(temp_id)

    def op_use_count(self, temp_id: int) -> int:
        """Uses by ops only (excludes the carry lists)."""
        users = self._uses.get(temp_id)
        return len(users) if users else 0

    def use_count(self, temp_id: int) -> int:
        """Total uses: ops plus carry-list entries."""
        carries = self._carry_uses.get(temp_id)
        return self.op_use_count(temp_id) + (len(carries) if carries else 0)

    def users_of(self, temp_id: int) -> list[Op]:
        users = self._uses.get(temp_id)
        return list(users) if users else []

    def slot_load_count(self, name: str) -> int:
        loads = self._slot_loads.get(name)
        return len(loads) if loads else 0

    def slot_touched(self, name: str) -> bool:
        return bool(self._slot_loads.get(name)
                    or self._slot_stores.get(name))

    # -- mutations ----------------------------------------------------------

    def replace_all_uses(self, temp: Temp,
                         new: Value) -> tuple[list[Op], bool]:
        """Rewrite every use of ``temp`` to ``new``, eagerly.

        Returns the affected ops (in insertion order) and whether any
        carry-list entry was rewritten.  The caller is responsible for
        pushing the affected ops onto its worklists.
        """
        assert not (isinstance(new, Temp) and new.id == temp.id)
        users = self._uses.pop(temp.id, None) or {}
        affected = list(users)

        def swap(value: Value) -> Value:
            if isinstance(value, Temp) and value.id == temp.id:
                return new
            return value

        for op in affected:
            op.map_operands(swap)
            if isinstance(op, LoopRegion):
                # A carry's next value may be a body result, which
                # map_operands (outer operands only) leaves alone.
                op.carry_nexts = [swap(value) for value in op.carry_nexts]
        if isinstance(new, Temp) and affected:
            bucket = self._uses.setdefault(new.id, {})
            for op in affected:
                bucket[op] = None

        carry_entries = self._carry_uses.pop(temp.id, None) or {}
        for kind, position in carry_entries:
            target = self.program.carry_inits if kind == "init" \
                else self.program.carry_nexts
            target[position] = new
        if isinstance(new, Temp) and carry_entries:
            bucket = self._carry_uses.setdefault(new.id, {})
            for entry in carry_entries:
                bucket[entry] = None
        return affected, bool(carry_entries)

    def erase(self, op: Op) -> EraseEffects:
        """Mark ``op`` dead and release its operand uses.

        The op's result (if any) must have no remaining uses — run
        :meth:`replace_all_uses` first.  The section lists still contain
        the op until :meth:`compact`.
        """
        assert not self.is_erased(op), "op erased twice"
        assert not isinstance(op, LoopRegion), \
            "regions are effects; passes never erase them"
        if op.result is not None:
            assert self.use_count(op.result.id) == 0, \
                f"erasing {op} whose result is still used"
            self._defs.pop(op.result.id, None)
            self._uses.pop(op.result.id, None)
        self._erased.add(op)
        effects = EraseEffects()
        seen: set[int] = set()
        for operand in op.operands():
            if not isinstance(operand, Temp) or operand.id in seen:
                continue
            seen.add(operand.id)
            users = self._uses.get(operand.id)
            if users is not None:
                users.pop(op, None)
            if self.use_count(operand.id) == 0:
                def_op = self._defs.get(operand.id)
                if def_op is not None:
                    effects.dead_defs.append(def_op)
                elif operand.id in self.carry_param_ids:
                    effects.dead_carry_params = True
        if isinstance(op, LoadOp):
            loads = self._slot_loads.get(op.slot.name)
            if loads is not None:
                loads.pop(op, None)
                if not loads:
                    effects.dead_stores.extend(
                        self._slot_stores.get(op.slot.name, {}))
        elif isinstance(op, StoreOp):
            stores = self._slot_stores.get(op.slot.name)
            if stores is not None:
                stores.pop(op, None)
            effects.erased_store = True
        return effects

    def compact(self) -> None:
        """Sweep erased ops out of the section lists."""
        if not self._erased:
            return
        for _title, ops in self.program.sections():
            for op in ops:
                if isinstance(op, LoopRegion) and op not in self._erased:
                    op.body[:] = [inner for inner in op.body
                                  if inner not in self._erased]
            ops[:] = [op for op in ops if op not in self._erased]
        for op in self._erased:
            self._op_ids.pop(op, None)
            self._section_of.pop(op, None)
            self._region_of.pop(op, None)
        self._tombstones |= self._erased
        self._erased.clear()

    # -- verification support -----------------------------------------------

    def provenance_report(self) -> tuple[int, list[Op], list[Op]]:
        """Provenance integrity over the live ops.

        Returns ``(stamped, missing, malformed)``: how many live ops
        carry provenance, which carry none, and which carry an entry
        that is not a well-formed :class:`Provenance` (wrong type, empty
        filter name, unknown kind/phase).  Integrity is all-or-nothing
        per program — hand-built programs legitimately carry none, but a
        lowered program must never *lose* stamps to a pass, so ``stamped
        and missing`` is the failure condition ``verify_index`` checks.
        """
        stamped = 0
        missing: list[Op] = []
        malformed: list[Op] = []
        for op in self.live_ops():
            if not op.prov:
                missing.append(op)
                continue
            stamped += 1
            for entry in op.prov:
                if not isinstance(entry, Provenance) or not entry.filter \
                        or entry.kind not in PROVENANCE_KINDS \
                        or entry.phase not in PROVENANCE_PHASES:
                    malformed.append(op)
                    break
        return stamped, missing, malformed

    def snapshot(self) -> dict:
        """A normalized view for comparison against a fresh rebuild.

        Op ids are excluded: a rebuild renumbers, and ids carry no
        semantic content beyond relative order.
        """
        return {
            "defs": dict(self._defs),
            "uses": {tid: frozenset(users)
                     for tid, users in self._uses.items() if users},
            "carry_uses": {tid: frozenset(entries)
                           for tid, entries in self._carry_uses.items()
                           if entries},
            "loads": {name: frozenset(ops)
                      for name, ops in self._slot_loads.items() if ops},
            "stores": {name: frozenset(ops)
                       for name, ops in self._slot_stores.items() if ops},
            "carry_params": frozenset(self.carry_param_ids),
            "region_of": dict(self._region_of),
        }
