"""Scalar optimization passes over LaminarIR.

These model the "enabling effect" the paper reports: once FIFO indirection
is gone, classic scalar optimizations (constant propagation, copy
propagation, CSE, dead-code elimination) see through the dataflow.  In the
paper LLVM performs them on the generated C; here we also run them on the
IR itself so the effect is *measurable* in op counts and drives the
platform cost models.

Every pass is a plain ``Program -> int`` function that returns how many
changes it made, and each is one linear sweep over the sections (region
bodies included).  Forward passes rewrite operands through a
substitution as they go, so a cascade — a fold enabling the next fold, a
merge enabling the next merge — resolves within the one sweep; the
backward dead-code sweep likewise removes whole dead chains.  The pass
manager (``repro.opt.pipeline``) repeats the group until a round
changes nothing.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.frontend.errors import UNKNOWN_LOCATION
from repro.frontend.intrinsics import INTRINSICS
from repro.frontend.types import BOOLEAN, FLOAT, INT
from repro.frontend.values import fold_binary, runtime_call, runtime_unary
from repro.lir.ops import (BinOp, CallOp, CastOp, Const, LoadOp, LoopRegion,
                           MoveOp, Op, SelectOp, StoreOp, Temp, UnOp, Value,
                           const_bool, const_int, const_of, may_fault,
                           never_zero)
from repro.lir.program import Program


# -- substitution -------------------------------------------------------------


def resolver(subst: dict[int, Value]) -> Callable[[Value], Value]:
    """Map a value through ``subst`` (keyed by temp id), chasing chains."""

    def resolve(value: Value) -> Value:
        steps = 0
        while isinstance(value, Temp):
            new = subst.get(value.id)
            if new is None:
                break
            value = new
            steps += 1
            assert steps <= len(subst), "substitution cycle"
        return value

    return resolve


def apply_subst(program: Program, subst: dict[int, Value]) -> None:
    """Rewrite every operand and carry-list entry through ``subst``."""
    if not subst:
        return
    resolve = resolver(subst)
    for _title, ops in program.sections():
        for op in ops:
            op.map_operands(resolve)
    _resolve_carries(program, resolve)


def _resolve_carries(program: Program,
                     resolve: Callable[[Value], Value]) -> None:
    """Rewrite the program's carry inits and nexts through ``resolve``."""
    program.carry_inits = [resolve(v) for v in program.carry_inits]
    program.carry_nexts = [resolve(v) for v in program.carry_nexts]


def ops_with_bodies(program: Program):
    """Every op in every section, with region body ops included."""
    for _title, ops in program.sections():
        for op in ops:
            yield op
            if isinstance(op, LoopRegion):
                yield from op.body


# -- copy propagation ---------------------------------------------------------


def _copy_source(op: Op) -> Value | None:
    if isinstance(op, MoveOp) and op.result is not None and not op.routing:
        return op.src
    if isinstance(op, CastOp) and op.result is not None \
            and op.operand.ty == op.result.ty:
        return op.operand
    return None


def copy_propagation(program: Program) -> int:
    """Forward ``move`` results (and no-op casts) to their sources.

    One sweep drops the moves and records what each stood for; one
    substitution pass then rewrites the uses (chasing move chains).
    """
    subst: dict[int, Value] = {}
    removed = 0
    for _title, ops in program.sections():
        kept: list[Op] = []
        for op in ops:
            source = _copy_source(op)
            if source is None:
                kept.append(op)
                continue
            assert op.result is not None
            subst[op.result.id] = source
            removed += 1
        ops[:] = kept
    apply_subst(program, subst)
    return removed


# -- constant folding ---------------------------------------------------------


def _fold_op(op: Op, no_neg_zero: set[int]) -> Value | None:
    """Return a replacement value if ``op`` folds, else None.
    ``no_neg_zero`` holds the ids of the float temps known never to be
    ``-0.0`` (see :func:`_never_neg_zero`)."""
    if isinstance(op, BinOp) and isinstance(op.lhs, Const) \
            and isinstance(op.rhs, Const):
        assert op.result is not None
        return const_of(fold_binary(op.op, op.lhs.value, op.rhs.value,
                                    UNKNOWN_LOCATION, ""), op.result.ty)
    if isinstance(op, BinOp):
        return _fold_algebraic(op, no_neg_zero)
    if isinstance(op, UnOp) and isinstance(op.operand, Const):
        assert op.result is not None
        return const_of(runtime_unary(op.op, op.operand.value),
                        op.result.ty)
    if isinstance(op, CastOp) and isinstance(op.operand, Const):
        assert op.result is not None
        return const_of(op.operand.value, op.result.ty)
    if isinstance(op, SelectOp) and isinstance(op.cond, Const):
        return op.then if op.cond.value else op.otherwise
    if isinstance(op, SelectOp) and op.then is op.otherwise:
        return op.then
    if isinstance(op, CallOp) and op.pure \
            and INTRINSICS[op.name].pure \
            and all(isinstance(a, Const) for a in op.args):
        assert op.result is not None
        return const_of(runtime_call(INTRINSICS[op.name],
                                     [a.value for a in op.args]),
                        op.result.ty)
    return None


def _is_zero(value: Value, sign: float) -> bool:
    """Whether ``value`` is the float constant ``0.0`` of ``sign``'s sign."""
    return value.__class__ is Const and value.ty == FLOAT \
        and value.value == 0.0 \
        and math.copysign(1.0, value.value) == sign  # type: ignore[arg-type]


def _never_neg_zero(value: Value, no_neg_zero: set[int]) -> bool:
    """Whether float ``value`` is known never to be ``-0.0``: a constant
    other than ``-0.0``, or a temp in ``no_neg_zero``."""
    if value.__class__ is Const:
        return not _is_zero(value, -1.0)
    return value.id in no_neg_zero  # type: ignore[union-attr]


def _note_no_neg_zero(op: BinOp, no_neg_zero: set[int]) -> None:
    """Add ``op``'s result to ``no_neg_zero`` when it is never ``-0.0``.
    Under round-to-nearest ``a + b`` is ``-0.0`` only when both are,
    and ``a - b`` only when ``a`` is ``-0.0`` and ``b`` is ``+0.0``."""
    lhs, rhs = op.lhs, op.rhs
    if lhs.ty != FLOAT or rhs.ty != FLOAT:
        return
    if op.op == "+" and (_never_neg_zero(lhs, no_neg_zero)
                         or _never_neg_zero(rhs, no_neg_zero)) \
            or op.op == "-" and (_never_neg_zero(lhs, no_neg_zero)
                                 or rhs.__class__ is Const
                                 and not _is_zero(rhs, 1.0)):
        no_neg_zero.add(op.result.id)  # type: ignore[union-attr]


def _fold_algebraic(op: BinOp, no_neg_zero: set[int]) -> Value | None:
    """Exact algebraic identities.

    Float rules are restricted to transformations that are bit-exact for
    every input, NaN and infinities included.  ``x + -0.0``, ``-0.0 + x``
    and ``x - 0.0`` are ``x`` for every ``x``; ``x + 0.0``, ``0.0 + x``
    and ``x - -0.0`` turn ``-0.0`` into ``0.0``, so they fold only when
    ``x`` is known never to be ``-0.0`` (its id is in ``no_neg_zero``).
    """
    lhs, rhs = op.lhs, op.rhs
    is_int = lhs.ty == INT and rhs.ty == INT
    is_bool = lhs.ty == BOOLEAN and rhs.ty == BOOLEAN

    def const_is(value: Value, number: object) -> bool:
        return isinstance(value, Const) and value.value == number \
            and type(value.value) is type(number)

    if lhs.ty == FLOAT and rhs.ty == FLOAT:
        if op.op == "+":
            if _is_zero(rhs, -1.0) or _is_zero(rhs, 1.0) \
                    and _never_neg_zero(lhs, no_neg_zero):
                return lhs
            if _is_zero(lhs, -1.0) or _is_zero(lhs, 1.0) \
                    and _never_neg_zero(rhs, no_neg_zero):
                return rhs
        if op.op == "-" and (_is_zero(rhs, 1.0) or _is_zero(rhs, -1.0)
                             and _never_neg_zero(lhs, no_neg_zero)):
            return lhs

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


def constant_folding(program: Program) -> int:
    """Fold ops whose operands are constants (plus exact identities).

    A forward sweep: each op's operands are first rewritten through the
    folds made so far, so a chain of constant ops folds in one call.
    Region bodies fold too; a folded body result also rewrites the
    region's carry nexts.  The sweep also notes which float temps can
    never be ``-0.0``, so that adding ``0.0`` to one of them folds.
    """
    subst: dict[int, Value] = {}
    resolve = resolver(subst)
    no_neg_zero: set[int] = set()  # float temps never -0.0
    folded = 0

    def sweep(ops: list[Op]) -> list[Op]:
        nonlocal folded
        kept: list[Op] = []
        for op in ops:
            if isinstance(op, LoopRegion):
                if subst:
                    op.carry_inits = [resolve(v) for v in op.carry_inits]
                op.body[:] = sweep(op.body)
                if subst:
                    op.carry_nexts = [resolve(v) for v in op.carry_nexts]
                kept.append(op)
                continue
            if subst:
                op.map_operands(resolve)
            replacement = None if op.result is None \
                else _fold_op(op, no_neg_zero)
            if replacement is None:
                kept.append(op)
                if op.__class__ is BinOp:
                    _note_no_neg_zero(op,  # type: ignore[arg-type]
                                      no_neg_zero)
                continue
            subst[op.result.id] = replacement  # type: ignore[union-attr]
            folded += 1
        return kept

    for _title, ops in program.sections():
        ops[:] = sweep(ops)
    # The recursive sweep refers to itself: unbound, it and the tables
    # it holds go now, not at the next collection (a compile pauses
    # the collector).
    del sweep
    if subst:
        _resolve_carries(program, resolve)
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


def read_temp_ids(program: Program) -> set[int]:
    """Ids of the temps some op reads.

    A region reads its own carry lists; its body ops count in their own
    right.  The program's carry lists are not included.
    """
    return {value.id for op in ops_with_bodies(program)
            for value in (op.carry_inits + op.carry_nexts
                          if isinstance(op, LoopRegion) else op.operands())
            if isinstance(value, Temp)}


def common_subexpression_elimination(program: Program) -> int:
    """Deduplicate pure ops; loads are versioned per state slot.

    One forward sweep per section keeps a table of available
    expressions.  A load's key includes the number of stores to its
    slot seen so far, so a load never merges across a store; a loop
    region counts as a store to every slot its body stores.  The first
    op of a kind in program order survives and absorbs the duplicate's
    provenance, so attribution still knows every filter the merged
    computation came from (the survivor's own provenance stays primary).
    Uses of a duplicate are rewritten everywhere, region bodies
    included; ops inside a body are not merged.
    """
    used = read_temp_ids(program)
    used.update(v.id for v in program.carry_inits + program.carry_nexts
                if isinstance(v, Temp))
    subst: dict[int, Value] = {}
    resolve = resolver(subst)
    removed = 0
    for _title, ops in program.sections():
        available: dict[tuple, Op] = {}
        versions: dict[str, int] = {}
        kept: list[Op] = []
        for op in ops:
            if subst:
                op.map_operands(resolve)
            if isinstance(op, LoopRegion):
                for slot in op.body_slot_stores():
                    versions[slot.name] = versions.get(slot.name, 0) + 1
                kept.append(op)
                continue
            if isinstance(op, StoreOp):
                versions[op.slot.name] = versions.get(op.slot.name, 0) + 1
                kept.append(op)
                continue
            if isinstance(op, LoadOp):
                key = _load_key(op, versions.get(op.slot.name, 0))
            else:
                key = _cse_key(op)
            # Dead ops are dead-code elimination's job; never let one
            # become (or match) a survivor, which would resurrect it.
            if key is None or op.result is None \
                    or op.result.id not in used:
                kept.append(op)
                continue
            existing = available.get(key)
            if existing is None:
                available[key] = op
                kept.append(op)
                continue
            if op.prov:
                existing.prov = existing.prov + tuple(
                    entry for entry in op.prov
                    if entry not in existing.prov)
            subst[op.result.id] = existing.result  # type: ignore[assignment]
            removed += 1
        ops[:] = kept
    if subst:
        _resolve_carries(program, resolve)
    return removed


# -- dead code elimination ----------------------------------------------------


def _result_id_span(program: Program) -> tuple[int, int]:
    """Smallest and largest result id of any op, region bodies included."""
    ids = [op.result.id for op in ops_with_bodies(program)
           if op.result is not None]
    return min(ids, default=0), max(ids, default=-1)


def dead_code_elimination(program: Program) -> int:
    """Remove pure ops whose results are unused, and stores to slots
    that are never loaded.

    A backward liveness sweep over the three sections: carry values are
    live by definition (they feed the next iteration or the steady
    block parameters), effects and ops that may fault
    (:func:`~repro.lir.ops.may_fault`) are roots, and an op's uses
    always follow its def, so by the time the sweep reaches a def every
    surviving user has marked it — one sweep removes whole transitively
    dead chains.
    The sweep enters loop-region bodies: a region's carry nexts are
    marked first, then its body is swept backwards.  When dead loads
    were the last reads of a slot, the slot's stores die too, and the
    sweep repeats until no more slots lose their last load.

    Liveness is one byte per temp id between the smallest and largest
    result id: ids are dense within a lowering (see
    :func:`~repro.lir.ops.fresh_temp_ids`), so the table stays small
    where a set of ids would not.  Only op results are ever looked up,
    so uses of ids outside that span go unmarked.
    """
    lo, hi = _result_id_span(program)
    loaded_slots: set[str] = set()
    nonzero: set[int] = set()  # temps a division by cannot fault
    for op in ops_with_bodies(program):
        if op.__class__ is LoadOp:
            loaded_slots.add(op.slot.name)  # type: ignore[attr-defined]
        elif op.__class__ is BinOp and op.op == "|" \
                and never_zero(op):  # type: ignore[attr-defined]
            nonzero.add(op.result.id)  # type: ignore[union-attr]
    removed = 0
    while True:
        live = bytearray(hi - lo + 1)

        def mark(value: Value) -> None:
            if isinstance(value, Temp) and lo <= value.id <= hi:
                live[value.id - lo] = 1

        still_loaded: set[str] = set()
        touched: set[str] = set()

        def sweep(ops: list[Op]) -> list[Op]:
            nonlocal removed
            kept_rev: list[Op] = []
            for op in reversed(ops):
                if isinstance(op, LoopRegion):
                    for value in op.carry_nexts:
                        mark(value)
                    op.body[:] = sweep(op.body)
                    for value in op.carry_inits:
                        mark(value)
                    kept_rev.append(op)
                    continue
                if isinstance(op, StoreOp) \
                        and op.slot.name not in loaded_slots:
                    removed += 1
                    continue
                if not (op.has_side_effect or (
                        op.result is not None and live[op.result.id - lo])
                        or op.__class__ is BinOp
                        and may_fault(op, nonzero)):
                    removed += 1
                    continue
                for operand in op.operands():  # mark(), inlined: hot
                    if isinstance(operand, Temp) and lo <= operand.id <= hi:
                        live[operand.id - lo] = 1
                if isinstance(op, (LoadOp, StoreOp)):
                    touched.add(op.slot.name)
                    if isinstance(op, LoadOp):
                        still_loaded.add(op.slot.name)
                kept_rev.append(op)
            kept_rev.reverse()
            return kept_rev

        for value in program.carry_inits:
            mark(value)
        for value in program.carry_nexts:
            mark(value)
        for _title, ops in reversed(program.sections()):
            ops[:] = sweep(ops)
        if not (loaded_slots - still_loaded) & touched:
            break  # no surviving store lost the last load of its slot
        loaded_slots = still_loaded
    del sweep  # it refers to itself (see constant_folding)
    # Drop state slots that no remaining op touches.
    program.state_slots = [s for s in program.state_slots
                           if s.name in touched]
    return removed
