"""Built-in standard functions and X_TO_Y conversions, on raw values.

`builtin_impl` is looked up once per call site when a statement is
generated, and the generated code calls what it returns: a function of
the raw argument values whose result is already of the call's result
type.  The implementation is picked from the call's static types, so it
does only the work those types leave open: its arguments are raw values
of their declared types, and a result is coerced only where its type
needs it (a REAL result is rounded to binary32, an INT or DINT ABS wraps,
an X_TO_STRING is truncated to its capacity; the result type of a SEL,
MID or CONCAT holds its whole value).  A conversion with a written-out
form (`conversion_form`: a widening, an exact or a binary32-rounding
conversion into REAL or LREAL, or an integer range check) is written
into the generated expression instead, which calls the function only to
raise a range fault; `builtin_impl` builds that conversion's function
from the same form.

A conversion is picked by its source family, which its name gives:
implicit widening only goes INT->DINT, BYTE->WORD and REAL->LREAL, so
the argument of an integer or TIME source is a python int, that of a REAL
or LREAL source a float and that of a BOOL source a bool.  An integer
conversion is then a range check on the value itself, an integer into
REAL is rounded to binary32, and only a float into an integer rounds.

Float domain edge cases follow IEEE (LN(0) is -inf, SQRT(-1) and SIN of
an infinity are nan, like the C functions a transpiling toolchain would
call).  Explicit narrowing conversions whose value does not fit the
target range raise, which the interpreter turns into a runtime fault at
the active statement.
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


def _same(x):
    return x


_f32 = V.f32
_TRIG = {"SIN": math.sin, "COS": math.cos, "TAN": math.tan}


def builtin_impl(name: str, arg_types: list[STType], result_ty: STType) -> Callable[..., object]:
    """The raw implementation of a built-in call; arguments are already
    type-checked, so only their static types are consulted here."""
    conv = _conversion_impl(name, arg_types)
    if conv is not None:
        return conv
    kind = result_ty.kind
    real32 = kind is Kind.REAL

    if name == "ABS":
        if kind in T.SIGNED_INT_KINDS:  # ABS of the most negative value wraps
            co = V.coercer(result_ty)
            return lambda x: co(-x) if x < 0 else x
        return lambda x: -x if x < 0 else x
    # MIN, MAX, LIMIT and SEL return an operand, already a value of the
    # result type: a common STRING type holds its longest operand
    if name == "MIN":
        return min
    if name == "MAX":
        return max
    if name == "LIMIT":
        return lambda mn, in_v, mx: min(max(in_v, mn), mx)
    if name == "SEL":
        return lambda g, in0, in1: in1 if g else in0
    if name in _TRIG:
        f = _TRIG[name]

        def trig(x):
            try:
                r = f(x)
            except ValueError:  # an infinite argument
                return math.nan
            return _f32(r) if real32 else r
        return trig
    if name == "EXP":
        def exp(x):
            try:
                r = math.exp(x)
            except OverflowError:
                return math.inf
            return _f32(r) if real32 else r
        return exp
    if name == "LN":
        def ln(x):
            if x > 0:
                r = math.log(x)
                return _f32(r) if real32 else r
            return -math.inf if x == 0 else math.nan
        return ln
    if name == "SQRT":
        def sqrt(x):
            if x >= 0:
                r = math.sqrt(x)
                return _f32(r) if real32 else r
            return math.nan
        return sqrt
    if name == "TRUNC":
        lo, hi = T.INT_RANGES[Kind.DINT]

        def trunc(x):
            if math.isnan(x) or math.isinf(x):
                raise _conv_overflow(name, x)
            raw = math.trunc(x)
            if not (lo <= raw <= hi):
                raise _conv_overflow(name, raw)
            return raw
        return trunc
    co = V.coercer(result_ty)
    if name in ("SHL", "SHR"):
        width = T.INT_RANGES[arg_types[0].kind][1].bit_length()  # BYTE or WORD
        left = name == "SHL"

        def shift(v, n):
            if n < 0:
                raise BuiltinFuncError(f"{name}: negative shift count {n}")
            if n >= width:
                return 0
            return co(v << n) if left else v >> n
        return shift
    if name == "CONCAT":
        return lambda *parts: "".join(parts)
    if name == "LEN":
        return lambda s: co(len(s))
    if name == "MID":
        def mid(s, length, pos):
            if length < 0 or pos < 1:
                raise BuiltinFuncError(f"MID: invalid range L={length} P={pos}")
            return s[pos - 1 : pos - 1 + length]
        return mid
    raise TypeError(f"unknown builtin {name}")  # pragma: no cover


# The forms of a conversion that the interpreter's generator writes into
# the expression (`conversion_form`)
SAME, FLOAT, ROUND32, RANGE = "same", "float", "round32", "range"


def conversion_form(name: str) -> tuple | None:
    """The written-out form of the X_TO_Y conversion `name`, or None for a
    call that has none (a BOOL source or target, or a float into an
    integer, which rounds):

    * (SAME,): the argument itself, as every source value fits;
    * (FLOAT,): float() of it, which is exact;
    * (ROUND32,): an LREAL or a DINT rounded to binary32, as `V.f32` does;
    * (RANGE, lo, hi): an integer that must lie in lo..hi (hi None: no
      upper bound), where `builtin_impl`'s function is called only to
      raise the fault for one that does not.

    `builtin_impl` builds each conversion's function from this form, so a
    written-out conversion and the call give the same value, raw type and
    fault.  The form depends on the name alone: a widened argument
    converts like its source."""
    conv = bi.conversion_target(name)
    if conv is None:
        return None
    src, dst = conv
    s, k = src.kind, dst.kind
    if k is Kind.TIME:  # from DINT
        return (RANGE, 0, None)
    if k in T.REAL_KINDS:
        if k is Kind.LREAL or s in (Kind.INT, Kind.BYTE, Kind.WORD, Kind.REAL):
            return (FLOAT,)  # exact: a REAL holds every value of these sources
        return (ROUND32,)  # from an LREAL or a DINT
    if k is Kind.BOOL or s not in T.INT_RANGES and s is not Kind.TIME:
        return None
    lo, hi = T.INT_RANGES[k]
    if s in T.INT_RANGES:
        src_lo, src_hi = T.INT_RANGES[s]
        if lo <= src_lo and src_hi <= hi:
            return (SAME,)
    return (RANGE, lo, hi)


def _conversion_impl(name: str, arg_types: list[STType]) -> Callable[[object], object] | None:
    if bi.string_conversion_source(name) is not None:
        render = V.scalar_text(arg_types[0].kind)
        co = V.coercer(T.string())
        return lambda x: co(render(x))
    form = conversion_form(name)
    if form is not None:
        return _form_impl(name, form)
    conv = bi.conversion_target(name)
    if conv is None:
        return None
    src, dst = conv
    if dst.kind is Kind.BOOL:
        return lambda raw: raw != 0
    if src.kind is Kind.BOOL:
        return lambda raw: 1 if raw else 0
    lo, hi = T.INT_RANGES[dst.kind]

    def float_to_int(raw):
        if math.isnan(raw) or math.isinf(raw):
            raise _conv_overflow(name, raw)
        raw = round(raw)  # IEC rounding: nearest, ties to even
        if lo <= raw <= hi:
            return raw
        raise _conv_overflow(name, raw)
    return float_to_int


def _form_impl(name: str, form: tuple) -> Callable[[object], object]:
    """The function computing the conversion `name` of this written-out
    form (`conversion_form`)."""
    tag = form[0]
    if tag == SAME:
        return _same
    if tag == FLOAT:
        return float
    if tag == ROUND32:
        return _f32
    _, lo, hi = form
    if hi is None:
        def to_time(raw):
            if raw < lo:
                raise BuiltinFuncError(f"{name}: negative duration {raw}")
            return raw
        return to_time

    def int_to_int(raw):
        if lo <= raw <= hi:
            return raw
        raise _conv_overflow(name, raw)
    return int_to_int
