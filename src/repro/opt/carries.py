"""The loop carries: drop the dead ones, then merge the congruent ones
and specialize the constant ones.

A loop-carried token whose initial value is a constant and whose
next-iteration value is the same constant, or the carry itself, or
another such carry, is invariant: every iteration sees the same value.
Replacing the carry parameter with the constant exposes the rest of the
steady body to constant folding — with static input this is what lets
whole benchmarks collapse to precomputed output streams (experiment
E6), mirroring what LLVM does to the paper's static-input programs.

Consumers of a duplicate splitter read the producer's tokens by name,
but each still carries its own copy of its peek window across the
steady loop's back edge.  Carries that hold equal values on every
iteration are congruent (Alpern, Wegman and Zadeck, POPL 1988); keeping
one of each kind lets CSE merge the filters that read one window.

Both are one partition: a constant is one more class, a pseudo-member
whose next is itself (Click and Cooper, TOPLAS 1995).  So a window of
zeros of any depth, or a ring of carries that feed each other, resolves
in one call rather than one link per optimizer round.  Comparison is
bit-exact (``-0.0`` is not ``0.0``; ``True`` is not ``1``), so the
rewrite never changes observable output.
"""

from __future__ import annotations

from repro.lir.ops import Const, Temp, Value
from repro.lir.program import Program
from repro.lir.regions import value_key
from repro.opt.passes import resolver


def _keep_carries(program: Program, keep: list[int]) -> None:
    program.carry_params = [program.carry_params[i] for i in keep]
    program.carry_inits = [program.carry_inits[i] for i in keep]
    program.carry_nexts = [program.carry_nexts[i] for i in keep]


def _drop_dead_carries(program: Program) -> int:
    """Drop the carries no observable effect depends on.

    A carry is live if a steady op reads its parameter (a region's body
    and carry lists count) or if a live carry's next is its parameter.
    Dead carries arise when a consumer pops tokens it never reads
    (decimators) or when earlier passes fold away every use.  The ops
    that computed their init and next values are left to dead-code
    elimination.
    """
    params = program.carry_params
    index_of = {param.id: i for i, param in enumerate(params)}
    live = [False] * len(params)
    work = [index_of[value.id] for op in program.steady
            for value in op.operands()
            if value.__class__ is Temp and value.id in index_of]
    while work:
        i = work.pop()
        if not live[i]:
            live[i] = True
            nxt = program.carry_nexts[i]
            if nxt.__class__ is Temp and nxt.id in index_of:
                work.append(index_of[nxt.id])
    _keep_carries(program, [i for i, is_live in enumerate(live) if is_live])
    return len(params) - len(program.carry_params)


def carries(program: Program) -> int:
    """Drop dead carries, then merge congruent and specialize constant
    ones.  Returns the number of carries removed.

    Dead carries go first: merging them first would let a dead carry be
    the group member kept.  Two carries are congruent when their inits
    are the same value (bit-exact, :func:`~repro.lir.regions.value_key`)
    and their nexts are the same non-carry value or congruent carries.
    Each distinct constant init adds a pseudo-member whose next is
    itself, and a constant next is that pseudo-member.  The partition
    starts from the groups of equal type and init and splits each group
    by the group of its members' nexts until no group splits: the
    coarsest stable partition.  A group that holds a pseudo-member holds
    its constant on every iteration, so its carries become their inits;
    any other group's carries become its first member.

    Only the steady section and the carry nexts are rewritten:
    :func:`repro.lir.verify.verify` rejects a setup or init op that
    reads a carry parameter, since the parameters are defined only in
    the steady section.
    """
    if not program.carry_params:
        return 0
    dropped = _drop_dead_carries(program)
    params = program.carry_params
    inits = program.carry_inits
    index_of = {param.id: i for i, param in enumerate(params)}
    members = [(str(param.ty), value_key(init))
               for param, init in zip(params, inits)]
    # Pseudo-members follow the carries, one per distinct constant init;
    # each one's next is itself.  A next that is neither a carry nor a
    # pseudo-member splits by its own key.
    pseudo: dict[tuple, int] = {}
    for key, init in zip(members, inits):
        if isinstance(init, Const):
            pseudo.setdefault(key, len(params) + len(pseudo))
    nexts = [index_of.get(value.id) if isinstance(value, Temp)
             else pseudo.get((str(param.ty), value_key(value)))
             for param, value in zip(params, program.carry_nexts)]
    nexts += pseudo.values()
    foreign = [value_key(value) for value in program.carry_nexts]
    members += pseudo
    keys: dict[tuple, int] = {}
    group = [keys.setdefault(key, len(keys)) for key in members]
    # Split until a round splits no group, or every member stands alone.
    count = 0
    while count < len(keys) < len(members):
        count = len(keys)
        keys = {}
        group = [keys.setdefault(
            (group[i], foreign[i] if nexts[i] is None
             else ("carry", group[nexts[i]])), len(keys))
            for i in range(len(members))]
    constant = {group[i] for i in pseudo.values()}
    first: dict[int, Temp] = {}
    subst: dict[int, Value] = {}
    for param, init, number in zip(params, inits, group):
        if number in constant:
            subst[param.id] = init
        elif first.setdefault(number, param) is not param:
            subst[param.id] = first[number]
    if not subst:
        return dropped
    resolve = resolver(subst)
    for op in program.steady:
        op.map_operands(resolve)
    program.carry_nexts = [resolve(value) for value in program.carry_nexts]
    _keep_carries(program, [i for i, param in enumerate(params)
                            if param.id not in subst])
    return dropped + len(subst)
