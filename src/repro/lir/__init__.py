"""LaminarIR: the paper's token-named IR and the lowering that builds it."""

from repro.lir.attribution import (FilterAttribution, attribute_program,
                                   steady_share)
from repro.lir.lower import Lowerer, LoweringOptions, lower
from repro.lir.ops import (BinOp, CallOp, CastOp, Const, LoadOp, MoveOp, Op,
                           PrintOp, Provenance, SelectOp, StateSlot, StoreOp,
                           Temp, UnOp, Value, const_bool, const_float,
                           const_int, wrap_i32)
from repro.lir.program import Program
from repro.lir.verify import VerificationError, verify

__all__ = [
    "BinOp", "CallOp", "CastOp", "Const", "FilterAttribution", "LoadOp",
    "Lowerer", "LoweringOptions", "MoveOp", "Op", "PrintOp", "Program",
    "Provenance", "SelectOp", "StateSlot", "StoreOp", "Temp", "UnOp",
    "Value", "VerificationError", "attribute_program", "const_bool",
    "const_float", "const_int", "lower", "steady_share", "verify",
    "wrap_i32",
]
