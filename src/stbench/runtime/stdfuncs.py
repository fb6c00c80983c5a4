"""Built-in standard functions and X_TO_Y conversions, on raw values.

`builtin_impl` is looked up once per call site when a statement is
generated, and the generated code calls what it returns: a function of
the raw argument values whose result is already coerced to the call's
result type.

Float domain edge cases follow IEEE (LN(0) is -inf, SQRT(-1) is nan, like
the C functions a transpiling toolchain would call).  Explicit narrowing
conversions whose value does not fit the target range raise, which the
interpreter turns into a runtime fault at the active statement.
"""

from __future__ import annotations

import math
from typing import Callable

from ..frontend import builtins as bi
from ..frontend import types as T
from ..frontend.types import Kind, STType
from . import values as V


class BuiltinFuncError(Exception):
    """Raised for faults inside built-in functions (conversion overflow,
    bad substring arguments, negative shift counts)."""


def _conv_overflow(name: str, value) -> BuiltinFuncError:
    return BuiltinFuncError(f"{name}: value {value} out of range")


def builtin_impl(name: str, arg_types: list[STType], result_ty: STType) -> Callable[..., object]:
    """The raw implementation of a built-in call; arguments are already
    type-checked, so only their static types are consulted here."""
    conv = _conversion_impl(name, arg_types)
    if conv is not None:
        return conv
    co = V.coercer(result_ty)

    if name == "ABS":
        return lambda x: co(-x if x < 0 else x)
    if name == "MIN":
        return lambda a, b: co(min(a, b))
    if name == "MAX":
        return lambda a, b: co(max(a, b))
    if name == "LIMIT":
        return lambda mn, in_v, mx: co(min(max(in_v, mn), mx))
    if name == "SEL":
        return lambda g, in0, in1: co(in1 if g else in0)
    if name in ("SIN", "COS", "TAN"):
        f = {"SIN": math.sin, "COS": math.cos, "TAN": math.tan}[name]
        return lambda x: co(f(x))
    if name == "EXP":
        def exp(x):
            try:
                return co(math.exp(x))
            except OverflowError:
                return co(math.inf)
        return exp
    if name == "LN":
        def ln(x):
            if x > 0:
                return co(math.log(x))
            return co(-math.inf if x == 0 else math.nan)
        return ln
    if name == "SQRT":
        return lambda x: co(math.sqrt(x) if x >= 0 else math.nan)
    if name == "TRUNC":
        lo, hi = T.INT_RANGES[Kind.DINT]

        def trunc(x):
            if math.isnan(x) or math.isinf(x):
                raise _conv_overflow(name, x)
            raw = math.trunc(x)
            if not (lo <= raw <= hi):
                raise _conv_overflow(name, raw)
            return co(raw)
        return trunc
    if name in ("SHL", "SHR"):
        width = 8 if arg_types[0].kind is Kind.BYTE else 16
        left = name == "SHL"

        def shift(v, n):
            if n < 0:
                raise BuiltinFuncError(f"{name}: negative shift count {n}")
            if n >= width:
                return co(0)
            return co(v << n if left else v >> n)
        return shift
    if name == "CONCAT":
        return lambda *parts: co("".join(parts))
    if name == "LEN":
        return lambda s: co(len(s))
    if name == "MID":
        def mid(s, length, pos):
            if length < 0 or pos < 1:
                raise BuiltinFuncError(f"MID: invalid range L={length} P={pos}")
            return co(s[pos - 1 : pos - 1 + length])
        return mid
    raise TypeError(f"unknown builtin {name}")  # pragma: no cover


def _conversion_impl(name: str, arg_types: list[STType]) -> Callable[[object], object] | None:
    if bi.string_conversion_source(name) is not None:
        render = V.scalar_text(arg_types[0].kind)
        co = V.coercer(T.string())
        return lambda x: co(render(x))
    conv = bi.conversion_target(name)
    if conv is None:
        return None
    _src, dst = conv
    k = dst.kind
    co = V.coercer(dst)

    if k is Kind.BOOL:
        return lambda raw: raw != 0
    if k in T.INT_RANGES:
        lo, hi = T.INT_RANGES[k]

        def to_int(raw):
            if isinstance(raw, bool):
                return co(1 if raw else 0)
            if isinstance(raw, float):
                if math.isnan(raw) or math.isinf(raw):
                    raise _conv_overflow(name, raw)
                raw = round(raw)  # IEC rounding: nearest, ties to even
            raw = int(raw)
            if not (lo <= raw <= hi):
                raise _conv_overflow(name, raw)
            return co(raw)
        return to_int
    if k in (Kind.REAL, Kind.LREAL):
        return lambda raw: co(float(raw))
    if k is Kind.TIME:
        def to_time(raw):
            if raw < 0:
                raise BuiltinFuncError(f"{name}: negative duration {raw}")
            return co(int(raw))
        return to_time
    raise TypeError(f"unsupported conversion {name}")  # pragma: no cover

