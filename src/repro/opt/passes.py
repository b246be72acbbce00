"""Scalar optimization passes over LaminarIR.

These model the "enabling effect" the paper reports: once FIFO indirection
is gone, classic scalar optimizations (constant propagation, copy
propagation, CSE, dead-code elimination) see through the dataflow.  In the
paper LLVM performs them on the generated C; here we also run them on the
IR itself so the effect is *measurable* in op counts and drives the
platform cost models.

The passes consume a shared :class:`repro.lir.analysis.ProgramIndex` and
communicate through :class:`FixpointState`: rewriting an op's operands
pushes exactly that op back onto the folding and CSE worklists, and
erasing an op pushes the ops it just made dead onto the DCE worklist.
After the initial full sweeps, each fixpoint round therefore only
touches ops something actually changed — the sparse-worklist scheme that
replaces the old rescan-everything rounds.

The public one-argument functions (``copy_propagation(program)`` etc.)
keep their original standalone contract: build a private index, run the
single pass, sweep, return the change count.
"""

from __future__ import annotations

from repro.frontend.errors import UNKNOWN_LOCATION
from repro.graph.builder import apply_binary
from repro.frontend.intrinsics import INTRINSICS
from repro.frontend.types import BOOLEAN, FLOAT, INT
from repro.lir.analysis import EraseEffects, OpWorklist, ProgramIndex
from repro.lir.ops import (BinOp, CallOp, CastOp, Const, LoadOp, LoopRegion,
                           MoveOp, Op, SelectOp, StoreOp, Temp, UnOp, Value,
                           const_bool, const_float, const_int)
from repro.lir.program import Program

_CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")


class FixpointState:
    """Shared worklists and dirty flags for one optimizer fixpoint run.

    The CSE bookkeeping lives here too: ``_cse_available`` maps a
    (section, expression-key) pair to the op currently representing that
    expression, ``_cse_key_of`` is its reverse (so a rewritten op's
    stale table entry can be evicted), and ``_cse_load_version`` caches
    each load's store-version from the last full scan.  ``cse_full``
    forces a full rescan — set initially and whenever a store is erased
    (erasing a store shifts every later load's version).
    """

    def __init__(self, program: Program, index: ProgramIndex):
        self.program = program
        self.index = index
        self.fold = OpWorklist()
        self.dce = OpWorklist()
        self.cse_candidates = OpWorklist()
        # Full-sweep flags: the first folding/DCE run visits every live
        # op directly (cheaper than queueing the whole program), after
        # which only the worklists drive them.
        self.fold_all = True
        self.dce_all = True
        self.cse_full = True
        self.carry_dirty = True
        self._cse_available: dict[tuple, Op] = {}
        self._cse_key_of: dict[Op, tuple] = {}
        self._cse_load_version: dict[Op, int] = {}

    def pending_fold(self) -> bool:
        return self.fold_all or bool(self.fold)

    def pending_dce(self) -> bool:
        return self.dce_all or bool(self.dce)

    def note_rewritten(self, affected: list[Op],
                       carries_touched: bool) -> None:
        """An operand rewrite touched ``affected``: requeue them."""
        for op in affected:
            self.fold.push(op)
            key = self._cse_key_of.pop(op, None)
            if key is not None and self._cse_available.get(key) is op:
                del self._cse_available[key]
            self.cse_candidates.push(op)
        if carries_touched:
            self.carry_dirty = True

    def note_erased(self, effects: EraseEffects) -> None:
        """An erasure freed these candidates: requeue them for DCE."""
        self.dce.push_all(effects.dead_defs)
        self.dce.push_all(effects.dead_stores)
        if effects.erased_store:
            self.cse_full = True
        if effects.dead_carry_params:
            self.carry_dirty = True


# -- copy propagation ---------------------------------------------------------


def _apply_subst(program: Program, subst: dict[Temp, Value]) -> None:
    """Rewrite every operand through ``subst`` (chased to a fixpoint)."""
    if not subst:
        return

    def resolve(value: Value) -> Value:
        seen = 0
        while isinstance(value, Temp) and value in subst:
            value = subst[value]
            seen += 1
            assert seen < 1_000_000, "substitution cycle"
        return value

    for _title, ops in program.sections():
        for op in ops:
            op.map_operands(resolve)
    program.carry_inits = [resolve(v) for v in program.carry_inits]
    program.carry_nexts = [resolve(v) for v in program.carry_nexts]


def _copy_source(op: Op) -> Value | None:
    if isinstance(op, MoveOp) and op.result is not None and not op.routing:
        return op.src
    if isinstance(op, CastOp) and op.result is not None \
            and op.operand.ty == op.result.ty:
        return op.operand
    return None


def propagate_copies(state: FixpointState) -> int:
    """Forward ``move`` results (and no-op casts) to their sources.

    A single forward scan: each rewrite is eager, so move chains resolve
    within one call (by the time ``c = move b`` is visited, ``b`` has
    already been replaced by ``a``).
    """
    index = state.index
    removed = 0
    for op in list(index.live_ops()):
        source = _copy_source(op)
        if source is None:
            continue
        assert op.result is not None
        affected, carries = index.replace_all_uses(op.result, source)
        state.note_rewritten(affected, carries)
        state.note_erased(index.erase(op))
        removed += 1
    return removed


def propagate_copies_dense(program: Program) -> int:
    """Index-free copy propagation: one sweep plus a substitution pass.

    The pass manager uses this form when no def-use index exists yet
    (copy propagation sits at the head of the default pipeline, right
    before ``promote_state`` invalidates any index) — building a
    program-wide index only to throw it away would dominate the pass.
    """
    subst: dict[Temp, Value] = {}
    removed = 0
    for _title, ops in program.sections():
        kept: list[Op] = []
        for op in ops:
            source = _copy_source(op)
            if source is None:
                kept.append(op)
                continue
            assert op.result is not None
            subst[op.result] = source
            removed += 1
        ops[:] = kept
    _apply_subst(program, subst)
    return removed


def copy_propagation(program: Program) -> int:
    """Standalone entry point: forward copies and drop the moves."""
    return propagate_copies_dense(program)


# -- constant folding ---------------------------------------------------------


def _fold_op(op: Op) -> Value | None:
    """Return a replacement value if ``op`` folds, else None."""
    if isinstance(op, BinOp) and isinstance(op.lhs, Const) \
            and isinstance(op.rhs, Const):
        value = apply_binary(op.op, op.lhs.value, op.rhs.value,
                             UNKNOWN_LOCATION, "")
        if op.op in _CMP_OPS:
            return const_bool(bool(value))
        if op.lhs.ty == INT and op.rhs.ty == INT:
            return const_int(int(value))  # type: ignore[arg-type]
        if op.lhs.ty == BOOLEAN:
            return const_bool(bool(value))
        return const_float(float(value))  # type: ignore[arg-type]
    if isinstance(op, BinOp):
        return _fold_algebraic(op)
    if isinstance(op, UnOp) and isinstance(op.operand, Const):
        if op.op == "-":
            if op.operand.ty == INT:
                return const_int(-op.operand.value)  # type: ignore
            return const_float(-op.operand.value)  # type: ignore
        if op.op == "!":
            return const_bool(not op.operand.value)
        if op.op == "~":
            return const_int(~op.operand.value)  # type: ignore[operator]
    if isinstance(op, CastOp) and isinstance(op.operand, Const):
        assert op.result is not None
        if op.result.ty == INT:
            return const_int(int(op.operand.value))  # type: ignore
        if op.result.ty == FLOAT:
            return const_float(float(op.operand.value))  # type: ignore
        return const_bool(bool(op.operand.value))
    if isinstance(op, SelectOp) and isinstance(op.cond, Const):
        return op.then if op.cond.value else op.otherwise
    if isinstance(op, SelectOp) and op.then is op.otherwise:
        return op.then
    if isinstance(op, CallOp) and op.pure \
            and INTRINSICS[op.name].pure \
            and all(isinstance(a, Const) for a in op.args):
        intrinsic = INTRINSICS[op.name]
        assert intrinsic.impl is not None
        value = intrinsic.impl(*[a.value for a in op.args])  # type: ignore
        assert op.result is not None
        if op.result.ty == INT:
            return const_int(int(value))
        return const_float(float(value))
    return None


def _fold_algebraic(op: BinOp) -> Value | None:
    """Exact algebraic identities.

    Float rules are restricted to transformations that are bit-exact for
    every input (so ``x + 0.0`` is *not* folded: it changes ``-0.0``).
    """
    lhs, rhs = op.lhs, op.rhs
    is_int = lhs.ty == INT and rhs.ty == INT
    is_bool = lhs.ty == BOOLEAN and rhs.ty == BOOLEAN

    def const_is(value: Value, number: object) -> bool:
        return isinstance(value, Const) and value.value == number \
            and type(value.value) is type(number)

    if is_bool and op.op == "&":
        if const_is(lhs, True):
            return rhs
        if const_is(rhs, True):
            return lhs
        if const_is(lhs, False) or const_is(rhs, False):
            return const_bool(False)
    if is_bool and op.op == "|":
        if const_is(lhs, False):
            return rhs
        if const_is(rhs, False):
            return lhs
        if const_is(lhs, True) or const_is(rhs, True):
            return const_bool(True)

    if op.op == "+" and is_int:
        if const_is(lhs, 0):
            return rhs
        if const_is(rhs, 0):
            return lhs
    if op.op == "-" and is_int and const_is(rhs, 0):
        return lhs
    if op.op == "*":
        if is_int and (const_is(lhs, 0) or const_is(rhs, 0)):
            return const_int(0)
        if const_is(rhs, 1) or const_is(rhs, 1.0):
            return lhs
        if const_is(lhs, 1) or const_is(lhs, 1.0):
            return rhs
    if op.op == "/" and (const_is(rhs, 1) or const_is(rhs, 1.0)):
        return lhs
    if op.op in ("<<", ">>") and const_is(rhs, 0):
        return lhs
    if op.op == "&" and is_int:
        if const_is(lhs, 0) or const_is(rhs, 0):
            return const_int(0)
    if op.op in ("|", "^") and is_int:
        if const_is(lhs, 0):
            return rhs
        if const_is(rhs, 0):
            return lhs
    return None


def _try_fold(state: FixpointState, op: Op) -> int:
    index = state.index
    if index.is_erased(op) or op.result is None:
        return 0
    if index.use_count(op.result.id) == 0:
        return 0  # already dead; erasing it is DCE's job
    replacement = _fold_op(op)
    if replacement is None:
        return 0
    affected, carries = index.replace_all_uses(op.result, replacement)
    state.note_rewritten(affected, carries)
    state.note_erased(index.erase(op))
    return 1


def fold_constants(state: FixpointState) -> int:
    """Fold everything once (first call), then drain the worklist.

    Folding an op replaces its uses eagerly, which pushes exactly the
    affected users back onto the worklist — cascades resolve within one
    drain without revisiting untouched ops.
    """
    folded = 0
    if state.fold_all:
        state.fold_all = False
        for op in list(state.index.live_ops()):
            folded += _try_fold(state, op)
        # Every op queued during the sweep sits after its rewriter in
        # program order, so the sweep itself already revisited it.
        state.fold.clear()
    while (op := state.fold.pop()) is not None:
        folded += _try_fold(state, op)
    return folded


def constant_folding(program: Program) -> int:
    """Standalone entry point: fold ops whose operands are constants."""
    index = ProgramIndex(program)
    state = FixpointState(program, index)
    folded = fold_constants(state)
    index.compact()
    return folded


# -- common subexpression elimination ----------------------------------------


def _vkey(value: Value) -> tuple:
    """A hashable identity for CSE: constants by value, temps by id."""
    if isinstance(value, Const):
        return ("c", value.ty.name, type(value.value).__name__, value.value)
    assert isinstance(value, Temp)
    return ("t", value.id)


def _cse_key(op: Op) -> tuple | None:
    if isinstance(op, BinOp):
        lhs, rhs = _vkey(op.lhs), _vkey(op.rhs)
        if op.op in ("+", "*", "&", "|", "^", "==", "!="):
            lhs, rhs = min(lhs, rhs), max(lhs, rhs)  # commutative
        return ("bin", op.op, lhs, rhs)
    if isinstance(op, UnOp):
        return ("un", op.op, _vkey(op.operand))
    if isinstance(op, CastOp):
        assert op.result is not None
        return ("cast", op.result.ty.name, _vkey(op.operand))
    if isinstance(op, SelectOp):
        return ("select", _vkey(op.cond), _vkey(op.then),
                _vkey(op.otherwise))
    if isinstance(op, CallOp):
        # Never deduplicate an effectful call: two `randi(n)` calls must
        # advance the RNG twice even with identical operands.  Belt and
        # suspenders — check both the op's own flag and the intrinsic
        # table, so a CallOp constructed with the default ``pure=True``
        # for an impure intrinsic still cannot be merged.
        intrinsic = INTRINSICS.get(op.name)
        if op.has_side_effect or (intrinsic is not None
                                  and not intrinsic.pure):
            return None
        return ("call", op.name, tuple(_vkey(a) for a in op.args))
    return None


def _load_key(op: LoadOp, version: int) -> tuple:
    return ("load", op.slot.name,
            _vkey(op.index) if op.index is not None else None, version)


def _dedupe(state: FixpointState, rep: Op, dup: Op) -> None:
    """Replace ``dup`` (dominated) with ``rep`` and erase it."""
    assert rep.result is not None and dup.result is not None
    # The survivor absorbs the duplicate's provenance set so attribution
    # still knows every filter the merged computation came from (the
    # survivor's own provenance stays primary).
    if dup.prov:
        rep.prov = rep.prov + tuple(
            entry for entry in dup.prov if entry not in rep.prov)
    affected, carries = state.index.replace_all_uses(dup.result, rep.result)
    state.note_rewritten(affected, carries)
    state.note_erased(state.index.erase(dup))
    key = state._cse_key_of.pop(dup, None)
    if key is not None and state._cse_available.get(key) is dup:
        del state._cse_available[key]


def _cse_full_scan(state: FixpointState) -> int:
    """Rebuild the available-expression table with one ordered sweep.

    Loads are versioned per slot by the number of preceding stores, so a
    load never dedupes across a store.  The sweep also compacts the
    section lists for free (it rebuilds them anyway).
    """
    index = state.index
    state.cse_full = False
    state._cse_available = {}
    state._cse_key_of = {}
    state._cse_load_version = {}
    removed = 0
    for title, ops in state.program.sections():
        versions: dict[str, int] = {}
        kept: list[Op] = []
        for op in ops:
            if index.is_erased(op):
                continue
            if isinstance(op, LoopRegion):
                # The whole region acts as a clobber for every slot its
                # body stores: later loads must not merge with loads
                # hoisted above the region.  The body itself is scoped
                # separately (incremental CSE keys body ops by region).
                for slot in op.body_slot_stores():
                    versions[slot.name] = versions.get(slot.name, 0) + 1
                kept.append(op)
                continue
            if isinstance(op, StoreOp):
                versions[op.slot.name] = versions.get(op.slot.name, 0) + 1
                kept.append(op)
                continue
            if isinstance(op, LoadOp):
                version = versions.get(op.slot.name, 0)
                state._cse_load_version[op] = version
                key = _load_key(op, version)
            else:
                key = _cse_key(op)
            if key is None or op.result is None:
                kept.append(op)
                continue
            if index.use_count(op.result.id) == 0:
                # Dead ops are DCE's job; never let one become (or match)
                # a representative — redirecting uses to it would only
                # resurrect work DCE is about to delete.
                kept.append(op)
                continue
            skey = (title, None, key)
            existing = state._cse_available.get(skey)
            if existing is not None and not index.is_erased(existing):
                _dedupe(state, existing, op)
                removed += 1
                continue
            state._cse_available[skey] = op
            state._cse_key_of[op] = skey
            kept.append(op)
        ops[:] = kept
    # The sweep re-keyed every live op (including the ones its own
    # rewrites touched, which all sit later in program order), so any
    # queued candidates are stale.
    state.cse_candidates.clear()
    return removed


def _cse_incremental(state: FixpointState) -> int:
    """Re-key only the candidate ops (those whose operands changed)."""
    index = state.index
    removed = 0
    while (op := state.cse_candidates.pop()) is not None:
        if index.is_erased(op) or op.result is None:
            continue
        if isinstance(op, StoreOp) or index.use_count(op.result.id) == 0:
            continue
        if isinstance(op, LoadOp):
            version = state._cse_load_version.get(op)
            if version is None:
                continue  # never keyed by a full scan; leave it alone
            key = _load_key(op, version)
        else:
            key = _cse_key(op)
        if key is None:
            continue
        # Scope by enclosing region: a body temp is only in scope inside
        # its own region, so merging across the region boundary (either
        # direction) would break SSA or hoist per-trip values.
        skey = (index.section_of(op), index.region_of(op), key)
        existing = state._cse_available.get(skey)
        if existing is not None and index.is_erased(existing):
            existing = None
        if existing is None or existing is op:
            state._cse_available[skey] = op
            state._cse_key_of[op] = skey
            continue
        # Keep whichever op comes first in the section: its result
        # dominates every use of the other's.
        if index.op_id(existing) < index.op_id(op):
            _dedupe(state, existing, op)
        else:
            state._cse_available[skey] = op
            state._cse_key_of[op] = skey
            _dedupe(state, op, existing)
        removed += 1
    return removed


def eliminate_common_subexpressions(state: FixpointState) -> int:
    """Deduplicate pure ops; loads are versioned per state slot."""
    if state.cse_full:
        return _cse_full_scan(state)
    return _cse_incremental(state)


def common_subexpression_elimination(program: Program) -> int:
    """Standalone entry point: one full available-expression sweep."""
    index = ProgramIndex(program)
    state = FixpointState(program, index)
    removed = _cse_full_scan(state)
    index.compact()
    return removed


# -- dead code elimination ----------------------------------------------------


def _ops_with_bodies(program: Program):
    """Every op in every section, with region body ops included."""
    for _title, ops in program.sections():
        for op in ops:
            yield op
            if isinstance(op, LoopRegion):
                yield from op.body


def _result_id_span(program: Program) -> tuple[int, int]:
    """Smallest and largest result id of any section-level op."""
    ids = [op.result.id for _title, ops in program.sections() for op in ops
           if op.result is not None]
    return min(ids, default=0), max(ids, default=-1)


def _try_remove(state: FixpointState, op: Op) -> int:
    index = state.index
    if index.is_erased(op):
        return 0
    if isinstance(op, StoreOp):
        if index.slot_load_count(op.slot.name) == 0:
            state.note_erased(index.erase(op))
            return 1
        return 0
    if op.has_side_effect:
        return 0
    if op.result is not None and index.use_count(op.result.id) > 0:
        return 0
    state.note_erased(index.erase(op))
    return 1


def eliminate_dead_code(state: FixpointState) -> int:
    """Sweep everything backwards once (first call), then drain the
    worklist.

    Erasing an op reports which defs lost their last use; those flow
    straight back onto this worklist, so transitive chains die in one
    drain.  Stores to slots that are never loaded anywhere are dead
    effects; when the last load of a slot dies, its stores are requeued
    (they may sit anywhere in program order, so the drain after the
    backward sweep picks up the ones the sweep already passed).
    """
    program, index = state.program, state.index
    removed = 0
    if state.dce_all:
        state.dce_all = False
        for op in reversed(list(index.live_ops())):
            removed += _try_remove(state, op)
    while (op := state.dce.pop()) is not None:
        removed += _try_remove(state, op)
    # Drop state slots that no remaining op touches.
    program.state_slots = [s for s in program.state_slots
                           if index.slot_touched(s.name)]
    return removed


def eliminate_dead_code_dense(program: Program) -> int:
    """Index-free DCE: one backward liveness sweep over the raw lists.

    Straight-line sections mean a single backward pass removes whole
    transitively-dead chains (an op's uses always follow its def, so by
    the time the sweep reaches a def, every surviving user has marked
    it).  The pass manager runs this *before* any pass that would build
    or restructure the def-use index: unreferenced dataflow (decimators
    that pop tokens nobody reads) can dwarf the live program, and
    promoting/indexing it first only to delete it later dominated
    optimize time on the large-scale benchmarks.

    Stores whose loads all die within this same sweep survive it; the
    indexed fixpoint DCE picks those up.

    Liveness is one byte per temp id between the smallest and largest
    section-level result id: ids are dense within a lowering (see
    :func:`~repro.lir.ops.fresh_temp_ids`), so the table stays a few
    hundred KiB where a set of ids took megabytes.  Only op results are
    ever looked up, so uses of ids outside that span go unmarked.
    """
    lo, hi = _result_id_span(program)
    live = bytearray(hi - lo + 1)

    def mark(value: Value) -> None:
        if isinstance(value, Temp) and lo <= value.id <= hi:
            live[value.id - lo] = 1

    for value in program.carry_inits:
        mark(value)
    for value in program.carry_nexts:
        mark(value)

    # Stores to slots that are never loaded anywhere are dead effects.
    # Region bodies count: a slot may only ever be read inside a loop.
    loaded_slots = {
        op.slot.name
        for op in _ops_with_bodies(program)
        if isinstance(op, LoadOp)}

    removed = 0
    sections = [ops for _t, ops in program.sections()]
    for ops in reversed(sections):
        kept_rev: list[Op] = []
        for op in reversed(ops):
            if isinstance(op, StoreOp) and op.slot.name not in loaded_slots:
                removed += 1
                continue
            needed = op.has_side_effect or (
                op.result is not None and live[op.result.id - lo])
            if not needed:
                removed += 1
                continue
            for operand in op.operands():
                mark(operand)
            kept_rev.append(op)
        kept_rev.reverse()
        ops[:] = kept_rev
    # Drop state slots that no remaining op touches.
    used_slots = {
        op.slot.name
        for op in _ops_with_bodies(program)
        if isinstance(op, (LoadOp, StoreOp))}
    program.state_slots = [s for s in program.state_slots
                           if s.name in used_slots]
    return removed


def dead_code_elimination(program: Program) -> int:
    """Standalone entry point: remove pure ops whose results are unused.

    Liveness flows backwards across all three sections plus the carry
    lists (carry values are live by definition: they feed the next
    iteration or the steady block parameters).
    """
    index = ProgramIndex(program)
    state = FixpointState(program, index)
    removed = eliminate_dead_code(state)
    index.compact()
    return removed
