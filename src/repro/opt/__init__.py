"""Scalar optimizations over LaminarIR (the measurable "enabling effect")."""

from repro.opt.passes import (common_subexpression_elimination,
                              constant_folding, copy_propagation,
                              dead_code_elimination)
from repro.opt.pipeline import (OptOptions, OptStats, PassManager, PassStat,
                                optimize, parse_pipeline)
from repro.opt.promote import promote_state
from repro.opt.schedule_ops import schedule_for_pressure

__all__ = [
    "OptOptions", "OptStats", "PassManager", "PassStat",
    "common_subexpression_elimination",
    "constant_folding", "copy_propagation", "dead_code_elimination",
    "optimize", "parse_pipeline",
    "promote_state", "schedule_for_pressure",
]
