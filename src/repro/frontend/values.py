"""Scalar semantics: the one operator table of every stage.

Elaboration, the lowering's and the optimizer's constant folds and both
interpreters evaluate operators, pure intrinsics and conversions here,
so the value the compiler folds to is the value the program computes at
run time.  ints are 32-bit two's complement and floats are doubles,
matching the C backends (compiled with ``-fwrapv``), so every execution
route produces the same output stream.
"""

from __future__ import annotations

import math
import operator

from repro.frontend.errors import (ElaborationError, InterpError,
                                   SourceLocation)
from repro.frontend.intrinsics import Intrinsic
from repro.frontend.types import ScalarType

# Binary operators on ints only, and those whose result is a boolean.
INT_ONLY_OPS = ("%", "&", "|", "^", "<<", ">>")
CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")


def wrap_i32(value: int) -> int:
    """Wrap a Python int to 32-bit two's complement."""
    value &= 0xFFFFFFFF
    return value - 0x100000000 if value >= 0x80000000 else value


def _divide(left, right):
    if left.__class__ is int and right.__class__ is int:
        quotient = abs(left) // abs(right)  # raises on a zero divisor
        return quotient if (left >= 0) == (right >= 0) else -quotient
    if right:
        return left / right
    # A float divided by zero is IEEE-754's, as in C: a signed infinity,
    # the dividend when it is a NaN, and for 0 / 0 the NaN this host's
    # floating-point unit computes.
    left = float(left)
    if left != left:
        return left
    if not left:
        return math.inf - math.inf
    return math.copysign(math.inf, left) * math.copysign(1.0, right)


def _remainder(left, right):
    magnitude = abs(left) % abs(right)  # raises on a zero divisor
    return magnitude if left >= 0 else -magnitude


# How each fault of the operator table begins.  A program may reach
# more than one, and an optimizer may evaluate independent operators in
# another order, so which of them a run reports first is not fixed.
OPERATOR_FAULTS = ("division by zero in ", "negative shift count in ",
                   "shift count ")


def _shift_count(op: str, count) -> None:
    if count < 0:
        raise InterpError(f"negative shift count in {op!r}")
    if count > 31:
        raise InterpError(f"shift count {count} above 31 in {op!r}")


def _shift_left(left, right):
    _shift_count("<<", right)
    return left << right


def _shift_right(left, right):
    _shift_count(">>", right)
    return left >> right


# Each binary operator on Python values, before an int result wraps.
_BINARY = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": _divide, "%": _remainder,
    "&": operator.and_, "|": operator.or_, "^": operator.xor,
    "<<": _shift_left, ">>": _shift_right,
    "==": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def runtime_binary(op: str, left: object, right: object) -> object:
    """Apply one binary operator with C-like semantics.

    int division truncates toward zero, as in C; an int divided by zero,
    or a shift count outside [0, 31] (undefined in C), raises
    :class:`InterpError`.  A float divided by zero is IEEE-754's.
    """
    try:
        result = _BINARY[op](left, right)
    except ZeroDivisionError:
        raise InterpError(f"division by zero in {op!r}") from None
    except KeyError:
        raise AssertionError(f"unknown operator {op}") from None
    if result.__class__ is int:
        return wrap_i32(result)
    return result


def fold_binary(op: str, left: object, right: object,
                loc: SourceLocation, source: str) -> object:
    """:func:`runtime_binary` at compile time: its error is reported at
    ``loc``, the operator's place in the source."""
    try:
        return runtime_binary(op, left, right)
    except InterpError as error:
        raise ElaborationError(error.message, loc, source) from None


def runtime_unary(op: str, value: object) -> object:
    if op == "-":
        result = -value  # type: ignore[operator]
        return wrap_i32(result) if isinstance(result, int) \
            and not isinstance(result, bool) else result
    if op == "!":
        return not value
    if op == "~":
        return wrap_i32(~value)  # type: ignore[operator]
    raise AssertionError(f"unknown unary operator {op}")


def runtime_call(intrinsic: Intrinsic, args: list) -> object:
    """A pure intrinsic applied to ``args`` with C's conversions: its
    result is a float when its policy is ``float`` or an argument is a
    float (every argument then converts to float), else a wrapped int."""
    assert intrinsic.impl is not None
    if intrinsic.policy == "float" or float in map(type, args):
        return float(intrinsic.impl(*map(float, args)))
    return wrap_i32(intrinsic.impl(*args))


def _to_i32(value: object) -> int:
    if value.__class__ is float \
            and not -2147483649.0 < value < 2147483648.0:  # type: ignore
        # A NaN, an infinity or a double past the i32 range: C leaves
        # the conversion undefined, and x86's cvttsd2si gives INT_MIN.
        return -0x80000000
    return wrap_i32(int(value))  # type: ignore[call-overload]


# Conversion to each scalar type, by type name: one dict lookup, since
# comparing ScalarTypes is a dataclass ``__eq__`` call.
_CONVERSIONS = {"int": _to_i32, "float": float, "boolean": bool}


def coerce_runtime(value: object, ty: ScalarType) -> object:
    """``value`` converted to ``ty`` as C converts it: an int wraps, a
    float truncates toward zero into an int, anything nonzero is true."""
    return _CONVERSIONS[ty.name](value)  # type: ignore[operator]


def default_value(ty: ScalarType) -> object:
    """The value of a ``ty`` variable nothing has assigned yet."""
    return coerce_runtime(0, ty)
