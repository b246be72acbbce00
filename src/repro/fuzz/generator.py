"""Seeded random-program generator for differential fuzzing.

Programs are generated in two phases: :func:`random_spec` draws a
structured :class:`ProgramSpec` (so the shrinker can edit it), and
:func:`render` turns a spec into StreamIt source text.  Every generated
program is well-typed and schedulable by construction:

* the top-level ``void->void`` pipeline is the **last** declaration
  (StreamIt picks the last stream in the file as the top);
* effectful operations (``rand``, ``push``/``pop``, prints) never sit
  under a data-dependent condition — ternaries keep their branches
  pure — so the symbolic LaminarIR lowering accepts every program;
* integer division/modulo denominators are forced odd via ``| 1``
  (never zero, and ``-1`` deliberately remains reachable to exercise
  the wrap-around paths);
* no float→int casts are emitted (out-of-range double→int conversion
  is undefined in C), and float magnitudes stay bounded so ``inf``/
  ``NaN`` cannot appear.

Covered surface: pipelines, splitjoins (duplicate and weighted
round-robin including weight-0 ports), feedbackloops, peeking filters
(some with windows 12-40 tokens wider than their pop rate, which the C
backend carries as shifted arrays, and duplicate splitjoins whose
branches share one window), prework (with rates different from
steady rates), int/float/array state, the ``randf``/``randi``
intrinsics, and work bodies that push from a static ``for`` loop
(peeking at offsets affine in its index), which the lowering rolls back
into loop regions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

__all__ = ["BodySpec", "FeedbackSpec", "FilterSpec", "GeneratorOptions",
           "ProgramSpec", "SplitJoinSpec", "generate_program",
           "random_spec", "render"]

INT, FLOAT = "int", "float"

# How much wider than its pop rate a wide peek window is: wide enough
# that the C backend carries the window as an array shifted once per
# iteration (``repro.backend.laminar_c.WINDOW_MIN_KEPT``).
WIDE_PEEK = (12, 40)


# ---------------------------------------------------------------------------
# spec model
# ---------------------------------------------------------------------------

@dataclass
class BodySpec:
    """One work/prework body: declared rates plus generated statements."""

    push: int
    pop: int
    peek: int                      # declared peek window (>= pop)
    stmts: list[str] = field(default_factory=list)   # droppable compute
    push_exprs: list[str] = field(default_factory=list)
    prints: bool = False           # sinks print every popped token


@dataclass
class FilterSpec:
    name: str
    in_ty: str | None              # None == void
    out_ty: str | None
    work: BodySpec
    prework: BodySpec | None = None
    fields: list[tuple[str, str, int | None]] = field(default_factory=list)
    init_stmts: list[str] = field(default_factory=list)
    counter: bool = False          # sources carry an auto-incremented `t`


@dataclass
class SplitJoinSpec:
    kind: str                      # "duplicate" | "roundrobin"
    split_weights: list[int]       # empty for duplicate
    join_weights: list[int]
    branches: list[list[FilterSpec]]   # each branch: 1..2 chained filters


@dataclass
class FeedbackSpec:
    body: FilterSpec               # T->T, pop 2 push 2
    loop: FilterSpec               # T->T, pop 1 push 1
    enqueue: str                   # literal for the seeded back edge


Stage = "FilterSpec | SplitJoinSpec | FeedbackSpec"


@dataclass
class ProgramSpec:
    stages: list[object]           # Source filter ... Sink filter
    features: set[str] = field(default_factory=set)


@dataclass(frozen=True)
class GeneratorOptions:
    max_stages: int = 4            # interior stages between source and sink
    max_rate: int = 3
    allow_feedback: bool = True
    allow_splitjoin: bool = True
    # Fraction of specs drawn in "large-repeat" mode: rate declarations
    # are boosted past ``max_rate`` and splitjoins widen, so the steady
    # schedule repeats filters many times in a row — the shape the
    # lowering collapses into loop regions (and the shape most likely
    # to expose its bugs).
    large_repeat_bias: float = 0.25
    large_rate_factor: int = 3     # boosted rate cap = max_rate * this
    wide_splitjoin_max: int = 5    # branch cap in large-repeat mode


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

_INT_BIN = ("+", "-", "*", "&", "|", "^")
_FLOAT_BIN = ("+", "-", "*")
_CMP = ("==", "!=", "<", "<=", ">", ">=")


class _Exprs:
    """Typed random expression builder over a set of in-scope atoms."""

    def __init__(self, rng: random.Random, ints: list[str],
                 floats: list[str], features: set[str]):
        self.rng = rng
        self.ints = ints
        self.floats = floats
        self.features = features

    def _int_const(self) -> str:
        value = self.rng.choice(
            [0, 1, 2, 3, 5, 7, -1, -2, -3, 13, 255,
             self.rng.randint(-64, 64)])
        return str(value) if value >= 0 else f"(0 - {-value})"

    def _float_const(self) -> str:
        value = round(self.rng.uniform(-8.0, 8.0), 3)
        text = f"{abs(value)!r}"
        if "." not in text and "e" not in text:
            text += ".0"
        return text if value >= 0 else f"(0.0 - {text})"

    def gen(self, ty: str, depth: int, impure: bool) -> str:
        if ty == INT:
            return self._int(depth, impure)
        return self._float(depth, impure)

    def _atom(self, ty: str) -> str:
        pool = self.ints if ty == INT else self.floats
        if pool and self.rng.random() < 0.75:
            return self.rng.choice(pool)
        return self._int_const() if ty == INT else self._float_const()

    def _cond(self, depth: int) -> str:
        ty = INT if (self.ints or not self.floats) else FLOAT
        lhs = self.gen(ty, depth, False)
        rhs = self.gen(ty, depth, False)
        return f"({lhs} {self.rng.choice(_CMP)} {rhs})"

    def _int(self, depth: int, impure: bool) -> str:
        if depth <= 0:
            return self._atom(INT)
        roll = self.rng.random()
        if roll < 0.40:
            op = self.rng.choice(_INT_BIN)
            return (f"({self._int(depth - 1, impure)} {op} "
                    f"{self._int(depth - 1, impure)})")
        if roll < 0.50:
            shift = self.rng.randint(0, 7)
            op = self.rng.choice(("<<", ">>"))
            return f"({self._int(depth - 1, impure)} {op} {shift})"
        if roll < 0.62:
            # Odd denominator: never zero, and -1 stays reachable so the
            # INT_MIN wrap-around division paths get exercised.
            op = self.rng.choice(("/", "%"))
            num = self._int(depth - 1, impure)
            den = f"({self._int(depth - 1, False)} | 1)"
            self.features.add("int-div")
            return f"({num} {op} {den})"
        if roll < 0.72 and impure:
            bound = self.rng.choice(
                [self.rng.randint(1, 100), self.rng.randint(1, 100),
                 f"(0 - {self.rng.randint(1, 20)})"])
            self.features.add("randi")
            return f"randi({bound})"
        if roll < 0.82:
            fn = self.rng.choice(("min", "max"))
            return (f"{fn}({self._int(depth - 1, impure)}, "
                    f"{self._int(depth - 1, impure)})")
        if roll < 0.92:
            self.features.add("ternary")
            return (f"({self._cond(depth - 1)} ? "
                    f"{self._int(depth - 1, False)} : "
                    f"{self._int(depth - 1, False)})")
        return f"(- {self._int(depth - 1, impure)})"

    def _float(self, depth: int, impure: bool) -> str:
        if depth <= 0:
            return self._atom(FLOAT)
        roll = self.rng.random()
        if roll < 0.40:
            op = self.rng.choice(_FLOAT_BIN)
            operands = [self._float(depth - 1, impure),
                        self._float(depth - 1, impure)]
            # A literal signed zero added or subtracted: constant folding
            # drops some of these, and only where the sign is kept.
            if op != "*" and self.rng.random() < 0.2:
                self.features.add("signed-zero")
                operands[self.rng.randrange(2)] = self.rng.choice(
                    ("0.0", "(- 0.0)"))
            return f"({operands[0]} {op} {operands[1]})"
        if roll < 0.52:
            den = self._float(depth - 1, False)
            return (f"({self._float(depth - 1, impure)} / "
                    f"(({den}) * ({den}) + 1.0))")
        if roll < 0.64 and impure:
            self.features.add("randf")
            return "randf()"
        if roll < 0.76:
            fn = self.rng.choice(("sin", "cos", "atan"))
            self.features.add("transcendental")
            return f"{fn}({self._float(depth - 1, impure)})"
        if roll < 0.84 and self.ints:
            self.features.add("int-to-float")
            return f"((float) {self._int(depth - 1, impure)})"
        if roll < 0.94:
            self.features.add("ternary")
            return (f"({self._cond(depth - 1)} ? "
                    f"{self._float(depth - 1, False)} : "
                    f"{self._float(depth - 1, False)})")
        return f"(0.0 - {self._float(depth - 1, impure)})"


# ---------------------------------------------------------------------------
# filter generation
# ---------------------------------------------------------------------------

class _Gen:
    def __init__(self, rng: random.Random, options: GeneratorOptions):
        self.rng = rng
        self.options = options
        self.counter = 0
        self.features: set[str] = set()
        # Set per spec by random_spec: bias rates/widths upward so the
        # steady schedule contains long same-filter firing runs.
        self.large_repeat = False

    def name(self, prefix: str = "F") -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def _rate(self) -> int:
        """One rate declaration draw, honoring large-repeat mode."""
        rng = self.rng
        if self.large_repeat and rng.random() < 0.8:
            cap = self.options.max_rate * self.options.large_rate_factor
            return rng.randint(2, max(2, cap))
        return rng.randint(1, self.options.max_rate)

    def _body(self, in_ty: str | None, out_ty: str | None, push: int,
              pop: int, peek: int, atoms_seed: list[tuple[str, str]],
              prints: bool = False, loop: bool = False) -> BodySpec:
        """Generate one body.  ``atoms_seed`` are (name, ty) pairs of
        fields already in scope; with ``loop`` the body may push from a
        ``for`` loop instead of one push statement per token."""
        rng = self.rng
        ints = [n for n, t in atoms_seed if t == INT]
        floats = [n for n, t in atoms_seed if t == FLOAT]
        stmts: list[str] = []
        # Peek reads come first (offsets measured before any pop moves
        # the read pointer), then the pops.
        # A wide window's first peek reads its last token and its first
        # push adds it, so every carried token of the window stays live.
        wide = in_ty is not None and peek - pop >= WIDE_PEEK[0]
        if in_ty is not None and peek > pop and (wide or rng.random() < 0.9):
            for k in range(rng.randint(1, 2)):
                offset = peek - 1 if wide and k == 0 \
                    else rng.randint(0, peek - 1)
                stmts.append(f"{in_ty} pk{k} = peek({offset});")
                (ints if in_ty == INT else floats).append(f"pk{k}")
                self.features.add("peek")
        looped = loop and out_ty is not None and push > 1 \
            and rng.random() < 0.3
        if looped:
            stmts.append(self._push_loop(in_ty, out_ty, push, peek, ints,
                                         floats))
        for i in range(pop):
            stmts.append(f"{in_ty} x{i} = pop();")
            (ints if in_ty == INT else floats).append(f"x{i}")
        exprs = _Exprs(rng, ints, floats, self.features)
        for j in range(rng.randint(0, 2)):
            ty = rng.choice([INT, FLOAT])
            stmts.append(
                f"{ty} y{j} = {exprs.gen(ty, rng.randint(1, 3), True)};")
            (ints if ty == INT else floats).append(f"y{j}")
        push_exprs = []
        if out_ty is not None and not looped:
            for _ in range(push):
                push_exprs.append(exprs.gen(out_ty, self.rng.randint(1, 2),
                                            True))
            if wide and push and out_ty == in_ty:
                push_exprs[0] = f"({push_exprs[0]}) + pk0"
        return BodySpec(push=push, pop=pop, peek=peek, stmts=stmts,
                        push_exprs=push_exprs, prints=prints)

    def _push_loop(self, in_ty: str | None, out_ty: str, push: int,
                   peek: int, ints: list[str], floats: list[str]) -> str:
        """A loop pushing once per trip: its expression may read the
        index ``i``, peek at offsets affine in ``i`` (before any pop, so
        within the whole window) and call ``randf``."""
        rng = self.rng
        ints = ints + ["i"]
        floats = list(floats)
        if in_ty is not None:
            for _ in range(rng.randint(1, 2)):
                stride = rng.choice([step for step in (0, 1, 2)
                                     if step * (push - 1) < peek])
                offset = rng.randint(0, peek - 1 - stride * (push - 1))
                (ints if in_ty == INT else floats).append(
                    f"peek({stride} * i + {offset})")
        self.features.add("push-loop")
        expr = _Exprs(rng, ints, floats, self.features).gen(
            out_ty, rng.randint(1, 3), True)
        return f"for (int i = 0; i < {push}; i++) {{ push({expr}); }}"

    def _maybe_array_field(self, fields, init_stmts, atoms) -> None:
        if self.rng.random() >= 0.3:
            return
        ty = self.rng.choice([INT, FLOAT])
        size = self.rng.randint(2, 4)
        fields.append(("a0", ty, size))
        start = "1.0" if ty == FLOAT else "1"
        step = "0.5" if ty == FLOAT else "2"
        init_stmts.append(f"for (int i = 0; i < {size}; i++) "
                          f"{{ a0[i] = {start} + i * {step}; }}")
        atoms.append((f"a0[{self.rng.randint(0, size - 1)}]", ty))
        self.features.add("array")

    def source(self, out_ty: str) -> FilterSpec:
        rng = self.rng
        push = rng.randint(1, 2)
        fields = [("t", INT, None)]
        init_stmts = [f"t = {rng.randint(0, 5)};"]
        atoms: list[tuple[str, str]] = [("t", INT)]
        self._maybe_array_field(fields, init_stmts, atoms)
        body = self._body(None, out_ty, push, 0, 0, atoms, loop=True)
        spec = FilterSpec(name=self.name("Src"), in_ty=None, out_ty=out_ty,
                          work=body, fields=fields, init_stmts=init_stmts,
                          counter=True)
        if rng.random() < 0.25:
            pre = self._body(None, out_ty, rng.randint(1, 2), 0, 0, atoms)
            spec.prework = pre
            self.features.add("prework")
        return spec

    def sink(self, in_ty: str) -> FilterSpec:
        pop = self.rng.randint(1, 2)
        body = BodySpec(push=0, pop=pop, peek=pop,
                        stmts=[f"{in_ty} x{i} = pop();" for i in range(pop)],
                        prints=True)
        return FilterSpec(name=self.name("Sink"), in_ty=in_ty, out_ty=None,
                          work=body)

    def mid_filter(self, in_ty: str, out_ty: str, pop: int | None = None,
                   push: int | None = None, allow_prework: bool = True,
                   allow_peek: bool = True,
                   peek: int | None = None) -> FilterSpec:
        """A filter with the given rates, drawn where ``None``; a given
        ``peek`` is used as is."""
        rng = self.rng
        pop = self._rate() if pop is None else pop
        push = self._rate() if push is None else push
        if peek is not None:
            self.features.add("peeking-filter")
        elif allow_peek and pop > 0 and rng.random() < 0.35:
            if rng.random() < 0.3:
                peek = pop + rng.randint(*WIDE_PEEK)
                self.features.add("wide-peek")
            else:
                peek = pop + rng.randint(1, 2)
            self.features.add("peeking-filter")
        else:
            peek = pop
        fields: list[tuple[str, str, int | None]] = []
        init_stmts: list[str] = []
        atoms: list[tuple[str, str]] = []
        if rng.random() < 0.5 and out_ty is not None:
            fields.append(("acc", out_ty, None))
            zero = "0.0" if out_ty == FLOAT else "0"
            init_stmts.append(f"acc = {zero};")
            atoms.append(("acc", out_ty))
        self._maybe_array_field(fields, init_stmts, atoms)
        body = self._body(in_ty, out_ty, push, pop, peek, atoms, loop=True)
        if atoms and rng.random() < 0.6 and atoms[0][0] == "acc":
            exprs = _Exprs(rng,
                           [a for a, t in atoms if t == INT]
                           + [f"x{i}" for i in range(pop)
                              if in_ty == INT],
                           [a for a, t in atoms if t == FLOAT]
                           + [f"x{i}" for i in range(pop)
                              if in_ty == FLOAT],
                           self.features)
            body.stmts.append(
                f"acc = {exprs.gen(out_ty, 1, True)};")
        spec = FilterSpec(name=self.name(), in_ty=in_ty, out_ty=out_ty,
                          work=body, fields=fields, init_stmts=init_stmts)
        if allow_prework and rng.random() < 0.3:
            pre_pop = rng.randint(0, pop)
            pre_peek = max(pre_pop, rng.randint(0, peek + 1))
            pre_push = rng.randint(0, 2)
            spec.prework = self._body(in_ty, out_ty, pre_push, pre_pop,
                                      pre_peek, atoms)
            self.features.add("prework")
            if (pre_push, pre_pop, pre_peek) != (body.push, body.pop,
                                                 body.peek):
                self.features.add("prework-rates-differ")
        return spec

    def inject_filter(self, in_ty: str, out_ty: str) -> FilterSpec:
        """A weight-0 split branch: typed input, consumes nothing."""
        rng = self.rng
        fields = [("k", out_ty, None)]
        start = "2.0" if out_ty == FLOAT else str(rng.randint(1, 9))
        init_stmts = [f"k = {start};"]
        body = self._body(in_ty, out_ty, rng.randint(1, 2), 0, 0,
                          [("k", out_ty)])
        return FilterSpec(name=self.name("Inj"), in_ty=in_ty,
                          out_ty=out_ty, work=body, fields=fields,
                          init_stmts=init_stmts)

    def discard_filter(self, in_ty: str, out_ty: str) -> FilterSpec:
        """A weight-0 join branch: consumes tokens, produces nothing."""
        pop = self.rng.randint(1, 2)
        body = BodySpec(push=0, pop=pop, peek=pop,
                        stmts=[f"{in_ty} x{i} = pop();"
                               for i in range(pop)])
        return FilterSpec(name=self.name("Drop"), in_ty=in_ty,
                          out_ty=out_ty, work=body)

    # -- composite stages ---------------------------------------------------

    def splitjoin(self, in_ty: str, out_ty: str) -> SplitJoinSpec:
        rng = self.rng
        wide = self.large_repeat and self.options.wide_splitjoin_max > 3
        n = rng.randint(2, self.options.wide_splitjoin_max if wide else 3)
        if n > 3:
            self.features.add("wide-splitjoin")
        duplicate = rng.random() < 0.4
        if duplicate:
            split_weights: list[int] = []
        else:
            while True:
                split_weights = [rng.randint(0, 3) for _ in range(n)]
                if sum(split_weights) > 0:
                    break
        while True:
            join_weights = [rng.randint(0, 3) for _ in range(n)]
            if sum(join_weights) == 0:
                continue
            ok = False
            for i in range(n):
                s = 1 if duplicate else split_weights[i]
                if s == 0 and join_weights[i] == 0:
                    ok = False   # branch would be rate-unconstrained
                    break
                if s > 0 and join_weights[i] > 0:
                    ok = True    # at least one branch must bridge the
                                 # splitter to the joiner, or the graph
                                 # falls into two rate-independent halves
            if ok:
                break
        # A duplicate splitjoin whose branches pop the same tokens and
        # peek the same distance past them carries one window per
        # branch, all congruent: the optimizer keeps one of them.
        shared: tuple[int, int] | None = None
        if duplicate and rng.random() < 0.5:
            m = rng.randint(1, 2)
            past = rng.randint(*WIDE_PEEK) if rng.random() < 0.3 \
                else rng.randint(1, 2)
            shared = (m, m + past)
        sharing = 0
        # The diamond is over-constrained: branch i's repetition ratio
        # implied by the split side (w_i / pop_i) times its push/join
        # ratio (push_i / v_i) must match across branches.  Tying the
        # rates to the weights — pop_i = w_i * m, push_i = v_i * m for a
        # per-branch multiplier m — makes every branch's ratio exactly 1,
        # so any weight vector yields a consistent graph.
        branches: list[list[FilterSpec]] = []
        for i in range(n):
            s = 1 if duplicate else split_weights[i]
            j = join_weights[i]
            if s == 0:
                branches.append([self.inject_filter(in_ty, out_ty)])
                self.features.add("weight0-split")
            elif j == 0:
                branches.append([self.discard_filter(in_ty, out_ty)])
                self.features.add("weight0-join")
            elif shared is not None:
                m, peek = shared
                branches.append([self.mid_filter(in_ty, out_ty, pop=m,
                                                 push=j * m,
                                                 allow_prework=False,
                                                 peek=peek)])
                sharing += 1
            elif rng.random() < 0.3 and in_ty == out_ty:
                m = rng.randint(1, 2)
                mid = rng.randint(1, 3)
                branches.append([
                    self.mid_filter(in_ty, in_ty, pop=s * m, push=mid,
                                    allow_prework=False),
                    self.mid_filter(in_ty, out_ty, pop=mid, push=j * m,
                                    allow_prework=False)])
            else:
                m = rng.randint(1, 2)
                branches.append([self.mid_filter(in_ty, out_ty, pop=s * m,
                                                 push=j * m,
                                                 allow_prework=False)])
        if sharing >= 2:
            self.features.add("shared-window")
        self.features.add("duplicate" if duplicate else
                          "roundrobin-splitjoin")
        return SplitJoinSpec(kind="duplicate" if duplicate else "roundrobin",
                             split_weights=split_weights,
                             join_weights=join_weights, branches=branches)

    def feedback(self, ty: str) -> FeedbackSpec:
        # No peeking inside the loop: a peek window on the cycle would
        # make the init demands circular (the back edge only carries the
        # enqueued tokens before the first body firing).
        body = self.mid_filter(ty, ty, pop=2, push=2, allow_prework=False,
                               allow_peek=False)
        loop = self.mid_filter(ty, ty, pop=1, push=1, allow_prework=False,
                               allow_peek=False)
        if self.rng.random() < 0.5:
            seed = "0.0" if ty == FLOAT else "0"
            loop.prework = BodySpec(push=1, pop=0, peek=0,
                                    push_exprs=[seed])
            self.features.add("prework")
        enqueue = "1.0" if ty == FLOAT else "1"
        self.features.add("feedbackloop")
        return FeedbackSpec(body=body, loop=loop, enqueue=enqueue)


def random_spec(seed: int | str,
                options: GeneratorOptions | None = None) -> ProgramSpec:
    """Draw a random program spec.  Same seed → identical spec."""
    options = options or GeneratorOptions()
    rng = random.Random(str(seed))
    gen = _Gen(rng, options)
    gen.large_repeat = rng.random() < options.large_repeat_bias
    if gen.large_repeat:
        gen.features.add("large-repeat")

    ty = rng.choice([INT, FLOAT])
    stages: list[object] = [gen.source(ty)]
    for _ in range(rng.randint(1, options.max_stages)):
        nxt = FLOAT if (ty == INT and rng.random() < 0.25) else ty
        roll = rng.random()
        if roll < 0.22 and options.allow_splitjoin:
            stages.append(gen.splitjoin(ty, nxt))
        elif roll < 0.32 and options.allow_feedback:
            stages.append(gen.feedback(ty))
            nxt = ty
        else:
            stages.append(gen.mid_filter(ty, nxt))
        ty = nxt
    stages.append(gen.sink(ty))
    gen.features.add(f"type-{ty}")
    return ProgramSpec(stages=stages, features=set(gen.features))


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _render_body(body: BodySpec, keyword: str, in_ty: str | None,
                 out_ty: str | None) -> list[str]:
    decl = [keyword]
    if out_ty is not None:
        decl.append(f"push {body.push}")
    if in_ty is not None:
        decl.append(f"pop {body.pop}")
        if body.peek > body.pop:
            decl.append(f"peek {body.peek}")
    lines = ["  " + " ".join(decl) + " {"]
    for stmt in body.stmts:
        lines.append(f"    {stmt}")
    for expr in body.push_exprs:
        lines.append(f"    push({expr});")
    if body.prints:
        for i in range(body.pop):
            lines.append(f"    println(x{i});")
    lines.append("  }")
    return lines


def _render_filter(spec: FilterSpec) -> str:
    in_ty = spec.in_ty or "void"
    out_ty = spec.out_ty or "void"
    lines = [f"{in_ty}->{out_ty} filter {spec.name}() {{"]
    for name, ty, size in spec.fields:
        suffix = f"[{size}]" if size is not None else ""
        lines.append(f"  {ty} {name}{suffix};")
    init = list(spec.init_stmts)
    if init:
        lines.append("  init {")
        for stmt in init:
            lines.append(f"    {stmt}")
        lines.append("  }")
    if spec.prework is not None:
        lines.extend(_render_body(spec.prework, "prework", spec.in_ty,
                                  spec.out_ty))
    work = spec.work
    if spec.counter:
        work = replace(work, stmts=list(work.stmts) + ["t = t + 1;"])
    lines.extend(_render_body(work, "work", spec.in_ty, spec.out_ty))
    lines.append("}")
    return "\n".join(lines)


def _stage_filters(stage: object) -> list[FilterSpec]:
    if isinstance(stage, FilterSpec):
        return [stage]
    if isinstance(stage, SplitJoinSpec):
        return [f for branch in stage.branches for f in branch]
    assert isinstance(stage, FeedbackSpec)
    return [stage.body, stage.loop]


def _render_stage_add(stage: object) -> list[str]:
    if isinstance(stage, FilterSpec):
        return [f"  add {stage.name}();"]
    if isinstance(stage, SplitJoinSpec):
        lines = ["  add splitjoin {"]
        if stage.kind == "duplicate":
            lines.append("    split duplicate;")
        else:
            weights = ", ".join(str(w) for w in stage.split_weights)
            lines.append(f"    split roundrobin({weights});")
        for branch in stage.branches:
            if len(branch) == 1:
                lines.append(f"    add {branch[0].name}();")
            else:
                lines.append("    add pipeline {")
                for f in branch:
                    lines.append(f"      add {f.name}();")
                lines.append("    };")
        weights = ", ".join(str(w) for w in stage.join_weights)
        lines.append(f"    join roundrobin({weights});")
        lines.append("  };")
        return lines
    assert isinstance(stage, FeedbackSpec)
    return ["  add feedbackloop {",
            "    join roundrobin(1, 1);",
            f"    body {stage.body.name}();",
            f"    loop {stage.loop.name}();",
            "    split roundrobin(1, 1);",
            f"    enqueue {stage.enqueue};",
            "  };"]


def render(spec: ProgramSpec) -> str:
    """Render a spec to StreamIt source.  The top pipeline comes last —
    the frontend treats the final declaration as the top-level stream."""
    chunks = []
    for stage in spec.stages:
        for f in _stage_filters(stage):
            chunks.append(_render_filter(f))
    top = ["void->void pipeline FuzzTop {"]
    for stage in spec.stages:
        top.extend(_render_stage_add(stage))
    top.append("}")
    chunks.append("\n".join(top))
    return "\n\n".join(chunks) + "\n"


def generate_program(seed: int | str,
                     options: GeneratorOptions | None = None) -> str:
    """Random well-typed StreamIt source for ``seed`` (deterministic)."""
    return render(random_spec(seed, options))
