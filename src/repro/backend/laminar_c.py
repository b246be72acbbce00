"""The LaminarIR C backend.

Emits the lowered program as straight-line C: every token is a local
scalar, state slots are statics, and loop-carried tokens are statics
updated at the end of each steady iteration.  A carried peek window (a
run of carries that moves ``s`` places each iteration) is one static
array, shifted once per iteration; every other carry is a static scalar
renamed two-phase.  This is the code whose dataflow is fully visible to
the downstream C compiler — the paper's "enabling effect" measured
natively in experiment E3.

Temps referenced outside their defining section (possible after state
promotion, e.g. a coefficient computed during setup and used every
iteration) are emitted as statics; everything else is a block-local.

Only the steady section is timed.  Setup and the init schedule run once,
so they form a *prologue* compiled for compile time: each is a
``REPRO_PROLOGUE`` function (``noinline``, and at ``-O1`` under gcc) and
its loop regions are plain counted loops.
"""

from __future__ import annotations

from repro.backend.common import (C_MAIN, C_PRELUDE, C_SHIFT_RUNTIME,
                                  INTRINSIC_C_NAMES, c_float_literal,
                                  c_int_literal, c_profile_runtime, c_shift,
                                  c_type)
from repro.frontend.types import FLOAT, INT
from repro.lir.ops import (BinOp, CallOp, CastOp, Const, LoadOp, LoopRegion,
                           MoveOp, Op, PrintOp, SelectOp, StoreOp, Temp,
                           UnOp, Value)
from repro.lir.program import Program

_SECTION_NAMES = ("repro_setup", "repro_init_schedule", "repro_steady")

# The run-once sections' attribute.  noinline keeps them out of main()
# (where the inlined steady loop is compiled at -O3); gcc's per-function
# optimize("O1") keeps the command line's -fwrapv.  Not `cold`: that makes
# gcc compile all of main(), the steady loop included, for size.
PROLOGUE_MACRO = """\
#if defined(__GNUC__) && !defined(__clang__)
#define REPRO_PROLOGUE __attribute__((noinline, optimize("O1")))
#else
#define REPRO_PROLOGUE __attribute__((noinline))
#endif"""


# A carried peek window is emitted as one static array, shifted once per
# steady iteration, when the shift keeps at least this many tokens.
# Shorter windows stay scalars: on gcc 12 -O3 (2-vCPU x86-64, min of 9
# runs) the array form ran rate_convert's (11, 2) window in 0.078 s
# against its scalars' 0.059 s, and channel_vocoder's (7, 1) windows
# slower too, while beamformer's (14, 2) windows ran faster.
WINDOW_MIN_KEPT = 12


def carry_windows(params: list[Temp], nexts: list[Value]
                  ) -> list[tuple[int, int, int]]:
    """The carried peek windows that take the array form, as
    ``(start, n, s)`` over the carry lists.

    A window is a maximal run of ``n`` consecutive carry params whose
    first ``n - s`` nexts are the params ``s`` places on (one shift by
    ``s`` per iteration) and whose last ``s`` nexts are not params of the
    run (the fresh tokens).  The lowering appends one channel's queue
    positions in order, so a peeking channel forms one window.  Only
    windows keeping at least :data:`WINDOW_MIN_KEPT` tokens are returned.
    """
    position = {param.id: index for index, param in enumerate(params)}

    def target(index: int) -> int | None:
        value = nexts[index]
        return position.get(value.id) if isinstance(value, Temp) else None

    windows: list[tuple[int, int, int]] = []
    start, count = 0, len(params)
    while start < count:
        first = target(start)
        shift = first - start if first is not None else 0
        end = start
        while shift > 0 and end + shift < count \
                and target(end) == end + shift:
            end += 1
        size = end - start + shift
        run = range(start, start + size)
        if end > start \
                and all(target(index) not in run
                        for index in range(end, start + size)) \
                and len({c_type(params[index].ty) for index in run}) == 1:
            if end - start >= WINDOW_MIN_KEPT:
                windows.append((start, size, shift))
            start += size
        else:
            start += 1
    return windows


def _expanded_count(ops: list[Op]) -> int:
    """Ops as executed: a loop region counts trips × body ops."""
    return sum(op.trips * len(op.body) if isinstance(op, LoopRegion) else 1
               for op in ops)


class LaminarCBackend:
    def __init__(self, program: Program, profile: bool = False):
        self.program = program
        self.profile = profile
        self.cross_section: set[int] = set()
        self.declared: set[int] = set()
        # Filter name -> row index in the profiling accumulator tables,
        # in first-seen steady order (profile mode only).
        self.prof_index: dict[str, int] = {}
        # slot name -> restrict-qualified local alias, active while a
        # loop-region body is being emitted.
        self._slot_alias: dict[str, str] = {}
        # temp id -> inlined C expression for single-use pure body ops
        # (region emission folds them into their one use site).
        self._inline: dict[int, str] = {}
        # carry param id -> its element of a carried-window array.
        self._window_element: dict[int, str] = {}
        # Whether a shift needs C_SHIFT_RUNTIME.
        self.checked_shifts = False

    # -- value naming ---------------------------------------------------------

    def _name(self, temp: Temp) -> str:
        element = self._window_element.get(temp.id)
        return element if element is not None else f"t{temp.id}"

    def _value(self, value: Value) -> str:
        if isinstance(value, Const):
            if value.ty == INT:
                return c_int_literal(value.value)  # type: ignore[arg-type]
            if value.ty == FLOAT:
                return c_float_literal(value.value)  # type: ignore
            return "1" if value.value else "0"
        assert isinstance(value, Temp)
        inlined = self._inline.get(value.id)
        if inlined is not None:
            return inlined
        return self._name(value)

    # -- cross-section analysis --------------------------------------------------

    def _analyze(self) -> None:
        defined_in: dict[int, int] = {}
        for param in self.program.carry_params:
            self.cross_section.add(param.id)
        for section, (_title, ops) in enumerate(self.program.sections()):
            for op in ops:
                if op.result is not None:
                    defined_in[op.result.id] = section

        def check_use(value: Value, section: int) -> None:
            if isinstance(value, Temp) \
                    and defined_in.get(value.id, -1) not in (-1, section):
                self.cross_section.add(value.id)

        for section, (_title, ops) in enumerate(self.program.sections()):
            for op in ops:
                for operand in op.operands():
                    check_use(operand, section)
        for value in self.program.carry_inits:
            check_use(value, 1)  # assigned at the end of init
        for value in self.program.carry_nexts:
            check_use(value, 2)

    # -- generation ------------------------------------------------------------------

    def _steady_runs(self) -> list[tuple[str | None, list[Op]]]:
        """Contiguous runs of steady ops sharing a primary filter.

        The key is ``op.prov[0].filter`` (``None`` for unstamped ops,
        e.g. hand-built programs); each run is timed as one unit so the
        instrumentation cost is amortized over the whole run.
        """
        runs: list[tuple[str | None, list[Op]]] = []
        for op in self.program.steady:
            key = op.prov[0].filter if op.prov else None
            if runs and runs[-1][0] == key:
                runs[-1][1].append(op)
            else:
                runs.append((key, [op]))
        return runs

    def generate(self) -> str:
        self._analyze()
        chunks = [C_PRELUDE, PROLOGUE_MACRO]

        steady_runs: list[tuple[str | None, list[Op]]] = []
        if self.profile:
            steady_runs = self._steady_runs()
            for key, _run_ops in steady_runs:
                if key is not None and key not in self.prof_index:
                    self.prof_index[key] = len(self.prof_index)
            chunks.append(c_profile_runtime(list(self.prof_index)))

        for slot in self.program.state_slots:
            ty = c_type(slot.ty)
            if slot.is_array:
                chunks.append(f"static {ty} {slot.name}[{slot.size}];")
            else:
                chunks.append(f"static {ty} {slot.name} = 0;")

        params = self.program.carry_params
        windows = carry_windows(params, self.program.carry_nexts)
        shifted: set[int] = set()
        for number, (start, size, shift) in enumerate(windows):
            chunks.append(f"static {c_type(params[start].ty)} "
                          f"cw{number}[{size}];")
            for k in range(size):
                self._window_element[params[start + k].id] = \
                    f"cw{number}[{k}]"
            shifted.update(range(start, start + size - shift))

        statics = sorted(self.cross_section - self._window_element.keys())
        types: dict[int, str] = {}
        for param in self.program.carry_params:
            types[param.id] = c_type(param.ty)
        for _title, ops in self.program.sections():
            for op in ops:
                if op.result is not None:
                    types[op.result.id] = c_type(op.result.ty)
        for temp_id in statics:
            chunks.append(f"static {types[temp_id]} t{temp_id};")

        for section, (title, ops) in enumerate(self.program.sections()):
            prologue = section != 2  # setup and init run once
            header = f"static void {_SECTION_NAMES[section]}(void)"
            lines = [f"REPRO_PROLOGUE {header}" if prologue else header, "{"]
            if self.profile and section == 2:
                lines.append("    repro_prof_t_iter = repro_now();")
                for key, run_ops in steady_runs:
                    if key is None:
                        lines.extend(self._emit_ops(run_ops))
                        continue
                    # No braces around the run: its temps stay visible
                    # to later runs (cross-run uses are the norm).
                    row = self.prof_index[key]
                    lines.append("    repro_prof_t0 = repro_now();")
                    lines.extend(self._emit_ops(run_ops))
                    lines.append(f"    repro_prof_ns[{row}] += "
                                 f"(repro_now() - repro_prof_t0) * 1e9;")
                    # Attribute loop regions by *executed* ops (trips ×
                    # body), so per-filter shares stay comparable with
                    # the fully-unrolled build.
                    lines.append(f"    repro_prof_ops[{row}] += "
                                 f"{_expanded_count(run_ops)};")
                    lines.append(f"    repro_prof_calls[{row}]++;")
            else:
                lines.extend(self._emit_ops(ops, prologue=prologue))
            if section == 1:
                for param, value in zip(self.program.carry_params,
                                        self.program.carry_inits):
                    lines.append(
                        f"    {self._name(param)} = {self._value(value)};")
            if section == 2 and params:
                # Capture every next that is not a shift first (it may
                # read a window), then shift each window once, then store.
                lines.append("    /* rotate loop-carried tokens */")
                for index, value in enumerate(self.program.carry_nexts):
                    if index not in shifted:
                        lines.append(f"    {c_type(params[index].ty)} "
                                     f"n{index} = {self._value(value)};")
                for number, (_start, size, shift) in enumerate(windows):
                    lines.append(f"    memmove(cw{number}, cw{number} + "
                                 f"{shift}, {size - shift} * "
                                 f"sizeof *cw{number});")
                for index, param in enumerate(params):
                    if index not in shifted:
                        lines.append(
                            f"    {self._name(param)} = n{index};")
            if self.profile and section == 2:
                lines.append("    repro_prof_note_iter("
                             "repro_now() - repro_prof_t_iter);")
            lines.append("}")
            chunks.append("\n".join(lines))

        if self.checked_shifts:
            chunks.insert(1, C_SHIFT_RUNTIME)
        chunks.append(C_MAIN)
        return "\n".join(chunks)

    # -- op translation ----------------------------------------------------------------

    def _emit_ops(self, ops: list[Op], indent: str = "    ",
                  prologue: bool = False) -> list[str]:
        lines: list[str] = []
        for op in ops:
            if isinstance(op, LoopRegion):
                lines.extend(self._region(op, indent, prologue))
            else:
                lines.append(indent + self._op(op))
        return lines

    def _region(self, region: LoopRegion, indent: str,
                prologue: bool = False) -> list[str]:
        """Emit a loop region as a counted ``for`` loop.

        In the steady section the body's gather/scatter arrays get
        ``restrict``-qualified local aliases (read-only ones also
        ``const``) so the C compiler can prove the per-trip accesses
        independent; data-parallel bodies get ``#pragma omp simd``
        (activated by ``-fopenmp-simd``).  A ``prologue`` region runs
        once and is emitted as a plain loop, with neither.
        """
        inner = indent + "    "
        lines = [indent + "{"]
        stored = {slot.name for slot in region.body_slot_stores()}
        aliased: list[str] = []
        slots = [] if prologue else \
            list(region.body_slot_loads()) + list(region.body_slot_stores())
        for slot in slots:
            if slot.name in self._slot_alias or not slot.is_array:
                continue
            alias = f"rr_{slot.name}"
            qual = "" if slot.name in stored else "const "
            lines.append(f"{inner}{qual}{c_type(slot.ty)} *restrict "
                         f"{alias} = {slot.name};")
            self._slot_alias[slot.name] = alias
            aliased.append(slot.name)
        for param, init in zip(region.carry_params, region.carry_inits):
            lines.append(f"{inner}{c_type(param.ty)} {self._name(param)} "
                         f"= {self._value(init)};")
        if region.parallel and not prologue:
            lines.append(f"{inner}#pragma omp simd")
        counter = self._name(region.index)
        lines.append(f"{inner}for (i32 {counter} = 0; "
                     f"{counter} < {region.trips}; {counter}++) {{")
        body_indent = inner + "    "
        # Tree-style emission: a pure body op whose result has exactly
        # one body use folds into that use site as a parenthesized
        # expression.  The expression tree (and so FP evaluation order)
        # is unchanged — this only removes single-use temp declarations,
        # which dominate emitted bytes for wide peek-window bodies.
        use_counts: dict[int, int] = {}
        for op in region.body:
            for value in op.operands():
                if isinstance(value, Temp):
                    use_counts[value.id] = use_counts.get(value.id, 0) + 1
        pinned = {value.id for value in region.carry_nexts
                  if isinstance(value, Temp)}
        for op in region.body:
            if op.result is not None \
                    and op.result.id not in pinned \
                    and use_counts.get(op.result.id) == 1 \
                    and self._inlinable(op, stored):
                self._inline[op.result.id] = f"({self._rhs(op)})"
                continue
            lines.append(body_indent + self._op(op))
        if region.carry_params:
            lines.append(body_indent + "/* rotate region carries */")
            for position, value in enumerate(region.carry_nexts):
                ty = c_type(region.carry_params[position].ty)
                lines.append(f"{body_indent}{ty} rn{position} = "
                             f"{self._value(value)};")
            for position, param in enumerate(region.carry_params):
                lines.append(
                    f"{body_indent}{self._name(param)} = rn{position};")
        lines.append(inner + "}")
        for name in aliased:
            del self._slot_alias[name]
        self._inline.clear()
        lines.append(indent + "}")
        return lines

    def _inlinable(self, op: Op, stored_slots: set[str]) -> bool:
        """Safe to fold into the use site: pure, and (for loads) reading
        a slot the body never stores — folding moves evaluation later,
        which must not cross a write to the same memory."""
        if isinstance(op, LoadOp):
            return op.slot.name not in stored_slots
        if isinstance(op, (BinOp, UnOp, CastOp, SelectOp, MoveOp)):
            return True
        if isinstance(op, CallOp):
            return not op.has_side_effect
        return False

    def _slot_ref(self, slot) -> str:
        return self._slot_alias.get(slot.name, slot.name)

    def _define(self, temp: Temp, rhs: str) -> str:
        if temp.id in self.cross_section:
            return f"{self._name(temp)} = {rhs};"
        return f"{c_type(temp.ty)} {self._name(temp)} = {rhs};"

    def _rhs(self, op: Op) -> str:
        """The C expression computing ``op``'s result (ops with results)."""
        if isinstance(op, BinOp):
            assert op.result is not None
            if op.op in ("/", "%") and op.result.ty == INT:
                fn = "repro_div_i32" if op.op == "/" else "repro_mod_i32"
                return f"{fn}({self._value(op.lhs)}, {self._value(op.rhs)})"
            lhs, rhs = self._value(op.lhs), self._value(op.rhs)
            if op.op in ("<<", ">>"):
                checked = c_shift(op.op, lhs, rhs,
                                  op.rhs.value if isinstance(op.rhs, Const)
                                  else None)
                if checked is not None:
                    self.checked_shifts = True
                    return checked
            return f"{lhs} {op.op} {rhs}"
        if isinstance(op, UnOp):
            return f"{op.op}{self._value(op.operand)}"
        if isinstance(op, CastOp):
            assert op.result is not None
            return f"({c_type(op.result.ty)}){self._value(op.operand)}"
        if isinstance(op, SelectOp):
            return (f"{self._value(op.cond)} ? {self._value(op.then)} : "
                    f"{self._value(op.otherwise)}")
        if isinstance(op, CallOp):
            return self._call(op)
        if isinstance(op, LoadOp):
            if op.index is None:
                return self._slot_ref(op.slot)
            return f"{self._slot_ref(op.slot)}[{self._value(op.index)}]"
        if isinstance(op, MoveOp):
            return self._value(op.src)
        raise AssertionError(type(op).__name__)

    def _op(self, op: Op) -> str:
        if isinstance(op, StoreOp):
            target = self._slot_ref(op.slot)
            if op.index is not None:
                target = f"{target}[{self._value(op.index)}]"
            return f"{target} = {self._value(op.value)};"
        if isinstance(op, PrintOp):
            ty = op.value.ty
            fn = "repro_print_f64" if ty == FLOAT else "repro_print_i32"
            return f"{fn}({self._value(op.value)});"
        assert op.result is not None
        return self._define(op.result, self._rhs(op))

    def _call(self, op: CallOp) -> str:
        if op.name in ("abs", "min", "max"):
            all_int = all(a.ty == INT for a in op.args)
            if all_int:
                args = ", ".join(self._value(a) for a in op.args)
                return f"repro_{op.name}_i32({args})"
            args = ", ".join(f"(f64){self._value(a)}" for a in op.args)
            if op.name == "abs":
                return f"fabs({args})"
            return f"repro_{op.name}_f64({args})"
        c_name = INTRINSIC_C_NAMES[op.name]
        if op.name in ("randf", "randi"):
            args = ", ".join(self._value(a) for a in op.args)
        else:
            args = ", ".join(f"(f64){self._value(a)}" for a in op.args)
        return f"{c_name}({args})"


# Bump whenever this module changes the C it emits for the *same*
# program: the persistent artifact cache keys on codegen_fingerprint().
# 2: loop regions emitted as counted for-loops (restrict aliases,
#    optional ``#pragma omp simd``) instead of fully-unrolled bodies.
# 3: the lowering forms loop regions from the schedule's firing runs,
#    which changes the regions (and names) a program's C carries.
# 4: setup and init are REPRO_PROLOGUE (noinline, gcc -O1) functions whose
#    loop regions are plain loops; the steady section is unchanged.
# 5: the lowering forms every loop region (unit trips, if-converted
#    bodies, field carries), which changes the regions and names.
# 6: carried peek windows are static arrays shifted by one memmove per
#    iteration, and constant gather elements are stored once in setup.
# 7: steady loop regions gather no constants (such runs stay unrolled and
#    fold), and constant folding drops exact +-0.0 additions.
# 8: steady stores of a constant element stay in steady (no setup hoist).
# 9: the optimizer merges congruent carries, so the consumers of a
#    duplicate splitter share one carried window (same pass-list key).
CODEGEN_VERSION = 9


def codegen_fingerprint() -> str:
    """Deterministic identity of this code generator.

    Combines the backend's explicit :data:`CODEGEN_VERSION` with a
    digest of the shared C runtime, so both an intentional codegen bump
    and an edit to the common prelude/harness invalidate cached
    artifacts built by older generators.
    """
    from repro.backend.common import runtime_digest
    return f"laminar-c/{CODEGEN_VERSION}+{runtime_digest()}"


def generate_laminar_c(program: Program, profile: bool = False) -> str:
    """Generate the complete LaminarIR C program.

    With ``profile=True`` the steady section is instrumented with
    per-filter wall-clock accumulators and an iteration-latency
    histogram, dumped as a ``profile-json`` stderr line at exit.  With
    ``profile=False`` the output is byte-identical to what this module
    always produced — the instrumentation adds zero ops when disabled.
    """
    return LaminarCBackend(program, profile=profile).generate()
