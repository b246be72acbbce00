"""The compile knobs, in one table for the command line and the daemon.

Each knob is a field of a serve request spec and a CLI flag (two, for an
on/off pair).  :func:`compile_options` turns either side's values into
the ``(LoweringOptions, OptOptions)`` pair, and a value either side may
not take raises the same ``ValueError`` on both: the daemon answers 400
with it, the CLI exits 2 with it.  :func:`ledger_fields` turns the same
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
    on/off flag has no ``text``; a second flag is its negation."""

    key: str
    flags: tuple[str, ...]
    help: tuple[str, ...]
    check: Callable[[object], object]
    text: Callable[[str], object] | None = None
    metavar: str | None = None


def _pipeline(value: object) -> tuple[str, ...]:
    try:
        return as_pipeline(value)
    except TypeError as error:
        raise ValueError(str(error)) from None


def _reroll(value: object) -> bool:
    if not isinstance(value, bool):
        raise ValueError("'reroll' must be a boolean")
    return value


def _min_repeat(value: object) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 2:
        raise ValueError("'reroll_min_repeat' must be an integer >= 2")
    return value


def _integer_text(text: str) -> object:
    """An integer argument as an int; other text is left for the check
    to reject with its own message."""
    try:
        return int(text)
    except ValueError:
        return text


KNOBS = (
    Knob("no_opt", ("--no-opt",), ("disable the optimizer",), bool),
    Knob("no_elim", ("--no-elim",),
         ("disable splitter/joiner elimination",), bool),
    Knob("pipeline", ("--opt-pipeline",),
         ("comma-separated pass ordering, e.g. 'cp,promote,fold,cse,dce' "
          "(overrides the default pipeline)",), _pipeline, text=str,
         metavar="PASSES"),
    Knob("reroll", ("--reroll", "--no-reroll"),
         ("roll repeated firings and unrolled loop bodies into counted "
          "loop regions as the program is lowered (the default; see "
          "docs/LOWERING.md)",
          "keep the program fully unrolled"), _reroll),
    Knob("reroll_min_repeat", ("--reroll-min-repeat",),
         ("fewest trips a loop region may have: repeats of a firing, "
          "or of one unit of its unrolled loop (default 4, at least 2)",),
         _min_repeat, text=_integer_text, metavar="N"),
)


def _checked(values: Mapping[str, object]) -> dict[str, object]:
    return {knob.key: knob.check(values[knob.key]) for knob in KNOBS
            if values.get(knob.key) is not None}


def compile_options(values: Mapping[str, object]
                    ) -> tuple[LoweringOptions, OptOptions]:
    """``(LoweringOptions, OptOptions)`` from knob values by key; a
    missing or ``None`` value keeps the default.  Raises
    ``ValueError`` on a value its knob does not take, and on knobs that
    contradict each other: ``reroll`` beside ``pipeline`` (the
    pipeline's ``reroll`` entry decides), or ``reroll_min_repeat``
    where no loop regions form."""
    knobs = _checked(values)
    if "reroll" in knobs and "pipeline" in knobs:
        raise ValueError("'reroll' cannot be combined with 'pipeline': "
                         "the pipeline's 'reroll' entry decides whether "
                         "loop regions form")
    opt = OptOptions.none() if knobs.get("no_opt") else OptOptions()
    if "pipeline" in knobs:
        opt.pipeline = knobs["pipeline"]
    if "reroll" in knobs:
        opt.reroll = knobs["reroll"]
    if "reroll_min_repeat" in knobs:
        if opt.lowering_flags()["region_min_repeat"] is None:
            raise ValueError("'reroll_min_repeat' is set but no loop "
                             "regions form (reroll is off, or the "
                             "pipeline has no 'reroll' entry)")
        opt.reroll_min_repeat = knobs["reroll_min_repeat"]
    lowering = LoweringOptions(
        eliminate_splitjoin=not knobs.get("no_elim", False))
    return lowering, opt


def ledger_fields(values: Mapping[str, object],
                  max_rounds: int | None = None
                  ) -> tuple[str, dict[str, object]]:
    """The run ledger's ``pipeline`` label and knob flags for knob
    values by key (as :func:`compile_options` takes them) and an
    optimizer round cap.  The label is the explicit pass list,
    ``"none"`` under ``no_opt``, else ``"default"``; every other knob
    whose value differs from the one in effect without it is a flag,
    and so is a round cap."""
    knobs = _checked(values)
    pipeline = knobs.pop("pipeline", None)
    base = OptOptions.none() if knobs.get("no_opt") else OptOptions()
    defaults = {"no_opt": False, "no_elim": False, "reroll": base.reroll,
                "reroll_min_repeat": base.reroll_min_repeat}
    flags = {key: value for key, value in knobs.items()
             if value != defaults[key]}
    if max_rounds is not None:
        flags["max_rounds"] = max_rounds
    if pipeline:
        return ",".join(pipeline), flags
    return ("none" if knobs.get("no_opt") else "default"), flags
