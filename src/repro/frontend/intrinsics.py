"""Built-in functions shared by every stage of the pipeline.

The same table drives semantic checking (signatures), both interpreters
(Python implementations), constant folding (pure intrinsics only) and the C
backends (C spellings).  ``randf``/``randi`` are the deterministic xorshift32
stream used for the paper's *randomized input* experiment: the Python and C
implementations are bit-identical so outputs can be compared exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.frontend.types import FLOAT, INT, Type


@dataclass(frozen=True)
class Intrinsic:
    """Description of one built-in function."""

    name: str
    arity: int
    pure: bool
    c_name: str
    impl: Callable | None  # Python implementation (None for impure RNG ops)
    # Signature policy: "float" (numeric args -> float), "same" (one numeric
    # arg -> same type), "unify" (two numeric args -> unified type),
    # "randf" () -> float, "randi" (int) -> int.
    policy: str


def _float1(name: str, fn: Callable[[float], float],
            c_name: str | None = None) -> Intrinsic:
    return Intrinsic(name, 1, True, c_name or name, fn, "float")


def _float2(name: str, fn: Callable[[float, float], float]) -> Intrinsic:
    return Intrinsic(name, 2, True, name, fn, "float")


def _integral(fn: Callable[[float], int], x: float) -> float:
    """``floor`` or ``ceil`` as C computes it: an infinity or a NaN is
    its own result, and a zero result keeps the argument's sign."""
    if not math.isfinite(x):
        return x
    return math.copysign(float(fn(x)), x)


INTRINSICS: dict[str, Intrinsic] = {
    i.name: i for i in [
        _float1("sin", math.sin),
        _float1("cos", math.cos),
        _float1("tan", math.tan),
        _float1("asin", math.asin),
        _float1("acos", math.acos),
        _float1("atan", math.atan),
        _float1("sinh", math.sinh),
        _float1("cosh", math.cosh),
        _float1("tanh", math.tanh),
        _float1("exp", math.exp),
        _float1("log", math.log),
        _float1("log10", math.log10),
        _float1("sqrt", math.sqrt),
        _float1("floor", lambda x: _integral(math.floor, x)),
        _float1("ceil", lambda x: _integral(math.ceil, x)),
        _float1("round", lambda x: _integral(math.floor, x + 0.5)),
        _float2("atan2", math.atan2),
        _float2("pow", math.pow),
        _float2("fmod", math.fmod),
        Intrinsic("abs", 1, True, "abs", abs, "same"),
        # As the C runtime defines them: of two equal operands (0.0 and
        # -0.0), or with a NaN, the second is the result.
        Intrinsic("min", 2, True, "min", lambda a, b: a if a < b else b,
                  "unify"),
        Intrinsic("max", 2, True, "max", lambda a, b: a if a > b else b,
                  "unify"),
        Intrinsic("randf", 0, False, "repro_randf", None, "randf"),
        Intrinsic("randi", 1, False, "repro_randi", None, "randi"),
    ]
}


def result_type(intrinsic: Intrinsic, arg_types: list[Type]) -> Type:
    """The result type of ``intrinsic`` applied to ``arg_types``.

    Callers have already verified arity and numeric-ness.
    """
    if intrinsic.policy == "float":
        return FLOAT
    if intrinsic.policy == "same":
        return arg_types[0]
    if intrinsic.policy == "unify":
        return FLOAT if FLOAT in arg_types else INT
    if intrinsic.policy == "randf":
        return FLOAT
    if intrinsic.policy == "randi":
        return INT
    raise AssertionError(f"unknown policy {intrinsic.policy}")


def expects_int_args(intrinsic: Intrinsic) -> bool:
    return intrinsic.policy == "randi"


class XorShift32:
    """The deterministic RNG behind ``randf``/``randi``.

    The C runtime (see :mod:`repro.backend.common`) implements the identical
    recurrence so interpreter and native outputs agree exactly: ``randf``
    yields ``(state >> 8) / 2**24`` which is exactly representable in a
    double, and ``randi(n)`` yields ``state % n``.
    """

    DEFAULT_SEED = 0x12345678

    def __init__(self, seed: int = DEFAULT_SEED):
        if seed == 0:
            raise ValueError("xorshift32 state must be non-zero")
        self.state = seed & 0xFFFFFFFF

    def next_u32(self) -> int:
        x = self.state
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
        self.state = x
        return x

    def randf(self) -> float:
        return (self.next_u32() >> 8) / float(1 << 24)

    def randi(self, bound: int) -> int:
        # Mirrors the C runtime exactly: the bound is taken through
        # ``(uint32_t)bound``, so negative bounds reduce modulo their
        # 32-bit bit pattern and the result is reinterpreted as i32.
        if bound == 0:
            raise ValueError("randi bound must be non-zero")
        value = self.next_u32() % (bound & 0xFFFFFFFF)
        return value - 0x100000000 if value >= 0x80000000 else value
