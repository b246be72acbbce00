"""Per-filter attribution of a lowered LaminarIR program.

After lowering and optimization the steady state is one straight-line
block — the connection to the source filters survives only through the
:class:`~repro.lir.ops.Provenance` stamps on each op.  This module folds
those stamps back into per-filter rows: how many ops each filter
contributes to every section, and the steady-state tokens/firings the
lowering recorded.

Attribution is by *primary* provenance (``op.prov[0]``): CSE may merge
ops from several filters, but each surviving op is counted exactly once,
so the per-filter op counts always sum to the program's section totals
(the invariant the ``report --attribution`` table relies on).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lir.ops import LoopRegion, Op
from repro.lir.program import Program

UNATTRIBUTED = "<unattributed>"


@dataclass
class FilterAttribution:
    """One actor's share of a lowered program."""

    name: str
    kind: str = "filter"
    setup_ops: int = 0
    init_ops: int = 0
    steady_ops: int = 0
    # Steady-state movement per LaminarIR iteration, from the lowering.
    tokens_per_iter: int = 0
    firings_per_iter: int = 0
    # Secondary contributors CSE merged into this actor's surviving ops.
    merged_from: set[str] = field(default_factory=set)

    @property
    def total_ops(self) -> int:
        return self.setup_ops + self.init_ops + self.steady_ops


def _primary_name(op: Op) -> tuple[str, str]:
    if not op.prov:
        return UNATTRIBUTED, "filter"
    primary = op.prov[0]
    return primary.filter, primary.kind


def attribute_program(program: Program) -> list[FilterAttribution]:
    """Fold op provenance into per-actor rows, in first-seen order.

    Actors that moved tokens or fired in the steady schedule appear even
    when the optimizer deleted every op they emitted (their compute was
    folded away — still worth a row showing zero ops).
    """
    rows: dict[str, FilterAttribution] = {}

    def row(name: str, kind: str) -> FilterAttribution:
        entry = rows.get(name)
        if entry is None:
            entry = rows[name] = FilterAttribution(name=name, kind=kind)
        return entry

    def count(op: Op, title: str, weight: int) -> None:
        name, kind = _primary_name(op)
        entry = row(name, kind)
        if title == "setup":
            entry.setup_ops += weight
        elif title == "init":
            entry.init_ops += weight
        else:
            entry.steady_ops += weight
        for extra in op.prov[1:]:
            if extra.filter != name:
                entry.merged_from.add(extra.filter)

    for title, ops in program.sections():
        for op in ops:
            if isinstance(op, LoopRegion):
                # A loop region still *executes* trips × body ops per
                # iteration; attribute each body op per trip so the
                # rows keep summing to the expanded section totals.
                for inner in op.body:
                    count(inner, title, op.trips)
                continue
            count(op, title, 1)

    def kind_of(name: str) -> str:
        return program.filter_kinds.get(name, "filter")

    for name, tokens in program.filter_tokens.items():
        row(name, kind_of(name)).tokens_per_iter = tokens
    for name, firings in program.filter_firings.items():
        row(name, kind_of(name)).firings_per_iter = firings
    return list(rows.values())


def steady_share(rows: list[FilterAttribution]) -> dict[str, float]:
    """Each actor's fraction of the steady-state op count, by name."""
    total = sum(entry.steady_ops for entry in rows)
    if total == 0:
        return {entry.name: 0.0 for entry in rows}
    return {entry.name: entry.steady_ops / total for entry in rows}
