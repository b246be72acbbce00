"""Scalar semantics: the one operator table of every stage.

Elaboration, the lowering's and the optimizer's constant folds and both
interpreters evaluate operators, pure intrinsics and conversions here,
so the value the compiler folds to is the value the program computes at
run time.  ints are 32-bit two's complement and floats are doubles,
matching the C backends (compiled with ``-fwrapv``), so every execution
route produces the same output stream.
"""

from __future__ import annotations

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


def runtime_binary(op: str, left: object, right: object) -> object:
    """Apply one binary operator with C-like semantics.

    int division truncates toward zero, as in C; a zero divisor or a
    negative shift count raises :class:`InterpError`.
    """
    try:
        if op == "+":
            result = left + right  # type: ignore[operator]
        elif op == "-":
            result = left - right  # type: ignore[operator]
        elif op == "*":
            result = left * right  # type: ignore[operator]
        elif op == "/":
            if isinstance(left, int) and isinstance(right, int) \
                    and not isinstance(left, bool) \
                    and not isinstance(right, bool):
                quotient = abs(left) // abs(right)
                result = quotient if (left >= 0) == (right >= 0) \
                    else -quotient
            else:
                result = left / right  # type: ignore[operator]
        elif op == "%":
            magnitude = abs(left) % abs(right)  # type: ignore[arg-type]
            result = magnitude if left >= 0 else -magnitude  # type: ignore
        elif op == "&":
            result = left & right  # type: ignore[operator]
        elif op == "|":
            result = left | right  # type: ignore[operator]
        elif op == "^":
            result = left ^ right  # type: ignore[operator]
        elif op == "<<":
            # Shift counts must be in [0, 31]: larger is UB in C, and
            # negative raises below.
            result = left << right  # type: ignore[operator]
        elif op == ">>":
            result = left >> right  # type: ignore[operator]
        elif op == "==":
            return left == right
        elif op == "!=":
            return left != right
        elif op == "<":
            return left < right  # type: ignore[operator]
        elif op == "<=":
            return left <= right  # type: ignore[operator]
        elif op == ">":
            return left > right  # type: ignore[operator]
        elif op == ">=":
            return left >= right  # type: ignore[operator]
        else:
            raise AssertionError(f"unknown operator {op}")
    except ZeroDivisionError:
        raise InterpError(f"division by zero in {op!r}") from None
    except ValueError:  # only a shift by a negative count raises it
        raise InterpError(f"negative shift count in {op!r}") from None
    if isinstance(result, bool):
        return result
    if isinstance(result, int):
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
