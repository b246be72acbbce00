"""The compile knobs, in one table for the command line and the daemon.

Each knob is a field of a serve request spec and a CLI flag.
:func:`compile_options` turns either side's values into the
``(LoweringOptions, OptOptions)`` pair, and a value either side may not
take raises the same ``ValueError`` on both: the daemon answers 400 with
it, the CLI exits 2 with it.  :func:`ledger_fields` turns the same
values into the run ledger's ``pipeline`` label and knob flags.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro.lir import LoweringOptions
from repro.opt import OptOptions
from repro.opt.pipeline import as_pipeline


@dataclass(frozen=True)
class Knob:
    """``key`` is the spec field and the CLI's argparse dest; ``check``
    validates a value (JSON from a spec, or ``text`` applied to a CLI
    argument, shown as ``metavar``) and returns the one to use.  An
    on/off flag has no ``text``."""

    key: str
    flag: str
    help: str
    check: Callable[[object], object]
    text: Callable[[str], object] | None = None
    metavar: str | None = None


def _pipeline(value: object) -> tuple[str, ...]:
    try:
        return as_pipeline(value)
    except TypeError as error:
        raise ValueError(str(error)) from None


KNOBS = (
    Knob("no_opt", "--no-opt", "disable the optimizer (the empty pass "
         "list)", bool),
    Knob("no_elim", "--no-elim", "disable splitter/joiner elimination",
         bool),
    Knob("pipeline", "--opt-pipeline",
         "comma-separated pass list, e.g. 'cp,promote,fold,cse,dce' "
         "(default: cp,promote,reroll,fold,carry,cse,dce,schedule)",
         _pipeline, text=str, metavar="PASSES"),
)


def _checked(values: Mapping[str, object]) -> dict[str, object]:
    return {knob.key: knob.check(values[knob.key]) for knob in KNOBS
            if values.get(knob.key) is not None}


def compile_options(values: Mapping[str, object]
                    ) -> tuple[LoweringOptions, OptOptions]:
    """``(LoweringOptions, OptOptions)`` from knob values by key; a
    missing or ``None`` value keeps the default.  Raises
    ``ValueError`` on a value its knob does not take, and on
    ``no_opt`` beside ``pipeline``: both say which passes run."""
    knobs = _checked(values)
    if knobs.get("no_opt") and "pipeline" in knobs:
        raise ValueError("'no_opt' cannot be combined with 'pipeline': "
                         "no_opt is the empty pass list")
    opt = OptOptions()
    if knobs.get("no_opt"):
        opt.pipeline = ()
    elif "pipeline" in knobs:
        opt.pipeline = knobs["pipeline"]
    lowering = LoweringOptions(
        eliminate_splitjoin=not knobs.get("no_elim", False))
    return lowering, opt


def ledger_fields(values: Mapping[str, object],
                  max_rounds: int | None = None
                  ) -> tuple[str, dict[str, object]]:
    """The run ledger's ``pipeline`` label and knob flags for knob
    values by key (as :func:`compile_options` takes them) and an
    optimizer round cap.  The label is the explicit pass list,
    ``"none"`` under ``no_opt``, else ``"default"``; every on/off knob
    that is on is a flag, and so is a round cap."""
    knobs = _checked(values)
    pipeline = knobs.pop("pipeline", None)
    flags: dict[str, object] = {key: True for key, value in knobs.items()
                                if value}
    if max_rounds is not None:
        flags["max_rounds"] = max_rounds
    if pipeline is not None:
        return ",".join(pipeline) or "none", flags
    return ("none" if knobs.get("no_opt") else "default"), flags
