"""The FIFO baseline C backend — the code shape the StreamIt compiler emits.

Every channel is a static circular buffer of exactly its buffer bound,
whose read/write indices wrap by ``%`` (the StreamIt compiler's buffer
management, which the paper's motivating example criticizes);
splitters and joiners are generated copy functions; each filter instance
gets specialized work/init (and prework) functions; the schedule is driven
by generated call sequences (runs of the same firing are compressed into
loops).  This is the baseline side of the native speedup experiment (E3).
"""

from __future__ import annotations

from repro.backend.c_ast import CAstPrinter, helper_function
from repro.backend.common import (C_MAIN, C_PRELUDE, C_SHIFT_RUNTIME,
                                  C_ZERO_SUB_RUNTIME, c_float_literal,
                                  c_int_literal, c_type, sanitize_ident)
from repro.frontend.types import ArrayType, ScalarType
from repro.graph.nodes import (Channel, FilterVertex, FlatGraph,
                               JoinerVertex, SplitterVertex, Vertex)
from repro.scheduling.schedule import Firing, Schedule


class FifoCBackend:
    def __init__(self, schedule: Schedule, source: str = ""):
        self.schedule = schedule
        self.graph: FlatGraph = schedule.graph
        self.source = source
        self.chunks: list[str] = []
        self._vertex_prefix: dict[Vertex, str] = {}
        # Whether a shift needs C_SHIFT_RUNTIME, and whether a
        # subtraction needs C_ZERO_SUB_RUNTIME.
        self.checked_shifts = False
        self.zero_subs = False

    def generate(self) -> str:
        self.chunks = [C_PRELUDE]
        self._name_vertices()
        for channel in self.graph.channels:
            self._emit_channel(channel)
        for vertex in self.graph.vertices:
            if isinstance(vertex, FilterVertex):
                self._emit_filter(vertex)
            elif isinstance(vertex, SplitterVertex):
                self._emit_splitter(vertex)
            else:
                assert isinstance(vertex, JoinerVertex)
                self._emit_joiner(vertex)
        self._emit_setup()
        self._emit_sequence("repro_init_schedule", self.schedule.init)
        self._emit_sequence("repro_steady", self.schedule.steady)
        if self.zero_subs:
            self.chunks.insert(1, C_ZERO_SUB_RUNTIME)
        if self.checked_shifts:
            self.chunks.insert(1, C_SHIFT_RUNTIME)
        self.chunks.append(C_MAIN)
        return "\n".join(self.chunks)

    # -- naming -------------------------------------------------------------------

    def _name_vertices(self) -> None:
        used: set[str] = set()
        for vertex in self.graph.vertices:
            base = "V" + sanitize_ident(vertex.name)
            name = base
            suffix = 0
            while name in used:
                suffix += 1
                name = f"{base}_{suffix}"
            used.add(name)
            self._vertex_prefix[vertex] = name

    def _prefix(self, vertex: Vertex) -> str:
        return self._vertex_prefix[vertex]

    # -- channels ------------------------------------------------------------------

    def _emit_channel(self, channel: Channel) -> None:
        name = channel.name
        ty = c_type(channel.ty)
        capacity = max(self.schedule.buffer_bounds[name], 1)
        self.chunks.append(f"""
/* {channel.src.name}[{channel.src_port}] -> \
{channel.dst.name}[{channel.dst_port}] */
static {ty} {name}_buf[{capacity}];
static int {name}_r = 0, {name}_w = 0;
static inline void {name}_push({ty} v) {{
    {name}_buf[{name}_w] = v;
    {name}_w = ({name}_w + 1) % {capacity};
}}
static inline {ty} {name}_pop(void) {{
    {ty} v = {name}_buf[{name}_r];
    {name}_r = ({name}_r + 1) % {capacity};
    return v;
}}
static inline {ty} {name}_peek(int i) {{
    return {name}_buf[({name}_r + i) % {capacity}];
}}""")

    # -- filters --------------------------------------------------------------------

    def _printer(self, vertex: FilterVertex) -> CAstPrinter:
        in_channel = vertex.inputs[0] if vertex.inputs else None
        out_channel = vertex.outputs[0] if vertex.outputs else None
        return CAstPrinter(
            vertex.filter, self._prefix(vertex),
            push_fn=f"{out_channel.name}_push" if out_channel else None,
            pop_fn=f"{in_channel.name}_pop" if in_channel else None,
            peek_fn=f"{in_channel.name}_peek" if in_channel else None,
            source=self.source)

    def _emit_filter(self, vertex: FilterVertex) -> None:
        node = vertex.filter
        prefix = self._prefix(vertex)
        printer = self._printer(vertex)

        for name, ty in node.field_types.items():
            if isinstance(ty, ArrayType):
                dims = "".join(f"[{d}]" for d in ty.dims())
                self.chunks.append(
                    f"static {c_type(ty.base)} {prefix}_{name}{dims};")
            else:
                assert isinstance(ty, ScalarType)
                self.chunks.append(
                    f"static {c_type(ty)} {prefix}_{name} = 0;")

        for helper in node.decl.helpers:
            self.chunks.append(helper_function(printer, helper))

        init_lines = [f"static void {prefix}_init(void)", "{"]
        for fld in node.decl.fields:
            if fld.init is not None:
                init_lines.append(
                    f"    {prefix}_{fld.name} = {printer.expr(fld.init)};")
        if node.decl.init is not None:
            init_lines.extend(printer.block(node.decl.init, 1))
        init_lines.append("}")
        self.chunks.append("\n".join(init_lines))

        assert node.decl.work is not None
        assert node.decl.work.body is not None
        work_lines = [f"static void {prefix}_work(void)"]
        work_lines.extend(printer.block(node.decl.work.body, 0))
        self.chunks.append("\n".join(work_lines))

        if node.decl.prework is not None:
            assert node.decl.prework.body is not None
            pre_lines = [f"static void {prefix}_prework(void)"]
            pre_lines.extend(printer.block(node.decl.prework.body, 0))
            self.chunks.append("\n".join(pre_lines))
        self.checked_shifts = self.checked_shifts or printer.checked_shifts
        self.zero_subs = self.zero_subs or printer.zero_subs

    # -- splitters / joiners -----------------------------------------------------------

    def _emit_splitter(self, vertex: SplitterVertex) -> None:
        prefix = self._prefix(vertex)
        in_name = vertex.inputs[0].name  # type: ignore[union-attr]
        ty = c_type(vertex.inputs[0].ty)  # type: ignore[union-attr]
        lines = [f"static void {prefix}_work(void)", "{"]
        if vertex.policy == "duplicate":
            lines.append(f"    {ty} v = {in_name}_pop();")
            for channel in vertex.outputs:
                assert channel is not None
                lines.append(f"    {channel.name}_push(v);")
        else:
            for port, channel in enumerate(vertex.outputs):
                assert channel is not None
                weight = vertex.weights[port]
                lines.append(f"    for (int i = 0; i < {weight}; i++)")
                lines.append(
                    f"        {channel.name}_push({in_name}_pop());")
        lines.append("}")
        self.chunks.append("\n".join(lines))

    def _emit_joiner(self, vertex: JoinerVertex) -> None:
        prefix = self._prefix(vertex)
        out_name = vertex.outputs[0].name  # type: ignore[union-attr]
        lines = [f"static void {prefix}_work(void)", "{"]
        for port, channel in enumerate(vertex.inputs):
            assert channel is not None
            weight = vertex.weights[port]
            lines.append(f"    for (int i = 0; i < {weight}; i++)")
            lines.append(f"        {out_name}_push({channel.name}_pop());")
        lines.append("}")
        self.chunks.append("\n".join(lines))

    # -- schedule driving ---------------------------------------------------------------

    def _emit_setup(self) -> None:
        lines = ["static void repro_setup(void)", "{"]
        for channel in self.graph.channels:
            for value in channel.initial:
                literal = (c_int_literal(int(value))  # type: ignore
                           if channel.ty.name in ("int", "boolean")
                           else c_float_literal(float(value)))  # type: ignore
                lines.append(f"    {channel.name}_push({literal});")
        for vertex in self.graph.vertices:
            if isinstance(vertex, FilterVertex):
                lines.append(f"    {self._prefix(vertex)}_init();")
        lines.append("}")
        self.chunks.append("\n".join(lines))

    def _emit_sequence(self, name: str, firings: list[Firing]) -> None:
        lines = [f"static void {name}(void)", "{"]
        index = 0
        while index < len(firings):
            firing = firings[index]
            run = 1
            while index + run < len(firings) \
                    and firings[index + run] == firing:
                run += 1
            suffix = "prework" if firing.prework else "work"
            call = f"{self._prefix(firing.vertex)}_{suffix}();"
            if run == 1:
                lines.append(f"    {call}")
            else:
                lines.append(f"    for (int i = 0; i < {run}; i++)")
                lines.append(f"        {call}")
            index += run
        lines.append("}")
        self.chunks.append("\n".join(lines))


# Bump whenever this module changes the C it emits for the *same*
# program: the persistent artifact cache keys on codegen_fingerprint().
CODEGEN_VERSION = 2


def codegen_fingerprint() -> str:
    """Deterministic identity of this code generator (see the laminar
    backend's twin for the rationale)."""
    from repro.backend.common import runtime_digest
    return f"fifo-c/{CODEGEN_VERSION}+{runtime_digest()}"


def generate_fifo_c(schedule: Schedule, source: str = "") -> str:
    """Generate the complete baseline C program."""
    return FifoCBackend(schedule, source).generate()
