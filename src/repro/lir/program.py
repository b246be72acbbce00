"""The LaminarIR program container.

A lowered program has three straight-line sections::

    setup:   runs once — field initializers and filter init blocks
    init:    runs once — the initialization schedule (prologue firings)
    steady:  runs every iteration — one unrolled steady-state iteration

Tokens that remain buffered across steady iterations are *loop-carried
values*: the steady section takes them as block parameters
(``carry_params``), the init section supplies their first values
(``carry_inits``), and the end of each steady iteration supplies the next
values (``carry_nexts``).  This is exactly the compile-time residue of the
FIFO queues — everything else about the queues has been resolved away.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lir.ops import LoopRegion, Op, StateSlot, Temp, Value


@dataclass
class Program:
    name: str
    state_slots: list[StateSlot] = field(default_factory=list)
    setup: list[Op] = field(default_factory=list)
    init: list[Op] = field(default_factory=list)
    steady: list[Op] = field(default_factory=list)
    carry_params: list[Temp] = field(default_factory=list)
    carry_inits: list[Value] = field(default_factory=list)
    carry_nexts: list[Value] = field(default_factory=list)
    # Number of tokens printed per steady iteration (for harness checksums).
    prints_per_iteration: int = 0
    # Per-vertex steady-state accounting recorded during lowering (both
    # per one LaminarIR iteration, i.e. including the steady multiplier):
    # tokens pushed into channels, and schedule firings.  Keyed by the
    # flat-graph vertex name; feeds the attribution tables and the
    # laminar interpreter's per-filter counters.
    filter_tokens: dict[str, int] = field(default_factory=dict)
    filter_firings: dict[str, int] = field(default_factory=dict)
    # Actor kind per vertex name ("filter" | "splitter" | "joiner") —
    # lets attribution label actors whose ops were all eliminated.
    filter_kinds: dict[str, str] = field(default_factory=dict)

    def sections(self) -> list[tuple[str, list[Op]]]:
        return [("setup", self.setup), ("init", self.init),
                ("steady", self.steady)]

    @property
    def steady_op_count(self) -> int:
        return len(self.steady)

    @property
    def steady_op_count_expanded(self) -> int:
        """Steady ops *as executed*: a :class:`LoopRegion`
        counts ``trips * len(body)`` instead of 1.  Equals
        ``steady_op_count`` for fully-unrolled programs."""
        total = 0
        for op in self.steady:
            if isinstance(op, LoopRegion):
                total += op.trips * len(op.body)
            else:
                total += 1
        return total

    def dump(self, max_ops_per_section: int | None = None) -> str:
        """Human-readable text form (used in docs, examples and tests)."""
        lines: list[str] = [f"program {self.name}"]
        if self.state_slots:
            lines.append("  state:")
            for slot in self.state_slots:
                lines.append(f"    {slot}: {slot.ty}")
        for title, ops in self.sections():
            header = f"  {title}:"
            if title == "steady" and self.carry_params:
                params = ", ".join(str(p) for p in self.carry_params)
                header = f"  {title}({params}):"
            lines.append(header)
            shown = ops if max_ops_per_section is None \
                else ops[:max_ops_per_section]
            for op in shown:
                if isinstance(op, LoopRegion):
                    lines.extend(_dump_region(op, indent="    "))
                else:
                    lines.append(f"    {op}")
            if max_ops_per_section is not None \
                    and len(ops) > max_ops_per_section:
                lines.append(f"    ... ({len(ops) - max_ops_per_section} "
                             "more)")
            if title == "init" and self.carry_inits:
                inits = ", ".join(str(v) for v in self.carry_inits)
                lines.append(f"    carry.init -> [{inits}]")
            if title == "steady" and self.carry_nexts:
                nexts = ", ".join(str(v) for v in self.carry_nexts)
                lines.append(f"    carry.next -> [{nexts}]")
        return "\n".join(lines)

    def op_counts(self) -> dict[str, dict[str, int]]:
        """Per-section op histogram (drives the cost/energy models).

        Loop-region bodies contribute their ops once each (structural
        counts, not trip-weighted) alongside a ``LoopRegion`` entry for
        the region itself.
        """
        out: dict[str, dict[str, int]] = {}
        for title, ops in self.sections():
            histogram: dict[str, int] = {}
            for op in ops:
                key = type(op).__name__
                histogram[key] = histogram.get(key, 0) + 1
                if isinstance(op, LoopRegion):
                    for inner in op.body:
                        inner_key = type(inner).__name__
                        histogram[inner_key] = \
                            histogram.get(inner_key, 0) + 1
            out[title] = histogram
        return out


def _dump_region(region: LoopRegion, indent: str) -> list[str]:
    simd = " simd" if region.parallel else ""
    lines = [f"{indent}loop {region.index} in 0..{region.trips}{simd} {{"]
    if region.carry_params:
        pairs = ", ".join(
            f"{p} = {i}" for p, i in
            zip(region.carry_params, region.carry_inits))
        lines.append(f"{indent}  carry [{pairs}]")
    for op in region.body:
        lines.append(f"{indent}  {op}")
    if region.carry_nexts:
        nexts = ", ".join(str(v) for v in region.carry_nexts)
        lines.append(f"{indent}  carry.next -> [{nexts}]")
    lines.append(f"{indent}}}")
    return lines
