"""Constant loop-carry specialization and dead-carry removal.

A loop-carried token whose initial value is a constant and whose
next-iteration value is (a) the same constant or (b) the carry itself is
invariant: every iteration sees the same value.  Replacing the carry
parameter with the constant exposes the rest of the steady body to
constant folding — with static input this is what lets whole benchmarks
collapse to precomputed output streams (experiment E6), mirroring what
LLVM does to the paper's static-input programs.

Specializing one carry can make another invariant: in a peek window of
zeros, each carry's next value is the previous carry's parameter.
:func:`specialize_constant_carries` therefore substitutes along the
carry lists until nothing changes, and only then rewrites the ops once,
so a window of any depth goes in one call rather than one link per
optimizer round.

Comparison is bit-exact (``-0.0`` is not ``0.0``; ``True`` is not ``1``)
so the substitution never changes observable output.
"""

from __future__ import annotations

from repro.lir.ops import Const, Temp, Value
from repro.lir.program import Program
from repro.opt.passes import apply_subst, read_temp_ids, resolver


def _same_const(left: Value, right: Value) -> bool:
    if not (isinstance(left, Const) and isinstance(right, Const)):
        return False
    if left.ty != right.ty:
        return False
    if type(left.value) is not type(right.value):
        return False
    return repr(left.value) == repr(right.value)


def _keep_carries(program: Program, keep: list[int]) -> None:
    program.carry_params = [program.carry_params[i] for i in keep]
    program.carry_inits = [program.carry_inits[i] for i in keep]
    program.carry_nexts = [program.carry_nexts[i] for i in keep]


def specialize_constant_carries(program: Program) -> int:
    """Replace invariant constant carries with their constants.

    Returns the number of carries removed.  The parameter-to-constant
    rewrites happen *before* the carry lists are filtered, so every
    dropped init/next entry is a constant by then — no op use is
    orphaned.
    """
    params = program.carry_params
    subst: dict[int, Value] = {}
    resolve = resolver(subst)
    changed = True
    while changed:
        changed = False
        for position, param in enumerate(params):
            if param.id in subst:
                continue
            init = resolve(program.carry_inits[position])
            nxt = resolve(program.carry_nexts[position])
            if _same_const(init, nxt) \
                    or (isinstance(init, Const) and nxt is param):
                subst[param.id] = init
                changed = True
    if not subst:
        return 0
    apply_subst(program, subst)
    _keep_carries(program, [i for i, param in enumerate(params)
                            if param.id not in subst])
    return len(subst)


def eliminate_dead_carries(program: Program) -> int:
    """Remove loop carries that never influence an observable effect.

    A carry is *live* if its parameter is used by any op, or if it feeds
    the next value of another live carry.  Dead carries arise when a
    consumer pops tokens it never reads (decimators) or when earlier
    passes fold away every use; removing them shrinks the loop-carried
    footprint that dominates register pressure.  Returns the number of
    carries removed; the ops that computed their init and next values
    are left to dead-code elimination.
    """
    params = program.carry_params
    if not params:
        return 0
    index_of = {param.id: i for i, param in enumerate(params)}
    used = read_temp_ids(program)
    live = [param.id in used for param in params]
    changed = True
    while changed:
        changed = False
        for i, nxt in enumerate(program.carry_nexts):
            if live[i] and isinstance(nxt, Temp) \
                    and nxt.id in index_of and not live[index_of[nxt.id]]:
                live[index_of[nxt.id]] = True
                changed = True
    if all(live):
        return 0
    _keep_carries(program, [i for i, is_live in enumerate(live) if is_live])
    return len(params) - sum(live)
