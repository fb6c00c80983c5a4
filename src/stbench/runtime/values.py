"""Runtime values: a tagged union with exact-width integer semantics.

INT/DINT wrap two's-complement at 16/32 bits, BYTE/WORD wrap unsigned at
8/16 bits, REAL arithmetic is rounded to binary32 after every operation
(`f32`: Veltkamp's split for a result in binary32's normal range, which
relies on CPython's binary64 round-to-nearest-even, and a struct round
trip for zeros, subnormals, overflow, infinities and nan),
TIME is a signed millisecond count, STRING is truncated to its capacity.
Wrapping (not faulting) on integer overflow matches what C-transpiled PLC
code does and is what makes width-dependent bugs observable.

The interpreter keeps raw python values (bool, int, float, str, and a list
of raw elements for an ARRAY) and knows each one's type from its
declaration; `box` and `unbox` convert between that form and a `Value` at
the runtime's boundary.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from typing import Callable

from ..frontend import types as T
from ..frontend.types import Kind, STType

F32_MAX = 3.4028234663852886e38
# the least magnitude that rounds to an infinity: halfway between F32_MAX
# and 2**128, where a tie goes to the even neighbour, 2**128; every smaller
# one rounds to a finite value, as IEEE round-to-nearest (C's `(float)`,
# numpy's float32) has it
F32_OVERFLOW = 2.0**128 - 2.0**103
# Veltkamp's splitting constant, 2**(53 - 24) + 1, and the bounds on x*x
# between which `f32` rounds by splitting: x*x lies in [F32_MIN2, F32_OV2)
# exactly when |x| lies in [2**-126, F32_OVERFLOW), as rounding the square
# moves neither bound (both are exact in binary64, and no square of a
# double below either rounds up onto it)
F32_SPLIT = 2.0**29 + 1
F32_MIN2 = 2.0**-252
F32_OV2 = F32_OVERFLOW * F32_OVERFLOW
F32 = struct.Struct("<f")


def f32(x: float) -> float:
    """Round a python float (or int) to the nearest binary32 value, ties
    to even, as C's `(float)` does.

    A result in binary32's normal range, 2**-126 <= |x| < F32_OVERFLOW, is
    Veltkamp's split (Dekker, "A floating-point technique for extending
    the available precision", Numer. Math. 1971): with c = x * (2**29 + 1),
    c - (c - x) is x rounded to 53 - 29 = 24 significant bits, ties to
    even, in three float operations and no call.  That relies on binary64
    arithmetic rounding to nearest, ties to even, which CPython's floats
    do.  Every other value takes the struct round trip: a subnormal
    result has fewer than 24 significant bits, which the split cannot
    know; a zero of either sign, whose square is below the range, keeps
    its sign there; and struct would reject a value at or past the
    overflow bound, so it goes to its infinity, as an infinity stays and
    nan is returned.  The interpreter's generated code writes the same
    formula out (`interp._wrap`)."""
    if F32_MIN2 <= x * x < F32_OV2:
        c = x * F32_SPLIT
        return c - (c - x)
    if -F32_OVERFLOW < x < F32_OVERFLOW:
        return F32.unpack(F32.pack(x))[0]
    if x >= F32_OVERFLOW:
        return math.inf
    if x <= -F32_OVERFLOW:
        return -math.inf
    return x  # nan


def wrap_int(v: int, kind: Kind) -> int:
    """v wrapped into kind's range (`T.INT_RANGES`), two's complement for
    a signed kind: offset by -lo into [0, hi - lo], masked, offset back."""
    if kind not in T.INT_RANGES:
        raise TypeError(f"not an integer kind: {kind}")
    lo, hi = T.INT_RANGES[kind]
    return (v - lo & hi - lo) + lo


@dataclass(frozen=True, slots=True)
class Value:
    ty: STType
    v: object

    def __repr__(self) -> str:
        return f"Value({self.ty}, {self.v!r})"


def make(ty: STType, raw) -> Value:
    """Coerce a plain python value into a Value of the given type."""
    return Value(ty, coercer(ty)(raw))


def _wrapping(kind: Kind) -> Callable[[object], int]:
    lo, hi = T.INT_RANGES[kind]
    mask = hi - lo
    return lambda x: (int(x) - lo & mask) + lo


# the coercion of each fixed-size kind, built once
_COERCERS: dict[Kind, Callable[[object], object]] = {
    Kind.BOOL: bool,
    **{kind: _wrapping(kind) for kind in T.INT_RANGES},
    Kind.REAL: lambda x: f32(float(x)),
    Kind.LREAL: float,
    Kind.TIME: int,
}


@functools.lru_cache(maxsize=256)
def _truncating(cap: int) -> Callable[[object], str]:
    return lambda x: str(x)[:cap]


def coercer(ty: STType) -> Callable[[object], object]:
    """The coercion make applies to a raw value, as a function of it.

    The interpreter's statement generator applies it to each literal once,
    and passes it to the code it generates for a converting store, which
    applies it to raw python values.  No call builds a function: every
    type of a fixed-size kind shares its kind's, and every STRING type of
    one capacity shares one."""
    co = _COERCERS.get(ty.kind)
    if co is not None:
        return co
    if ty.kind is Kind.STRING:
        return _truncating(ty.cap)
    raise TypeError(f"cannot build scalar value of {ty}")


def zero(ty: STType):
    """The raw value a variable of type ty holds before its first store."""
    k = ty.kind
    if k is Kind.BOOL:
        return False
    if k in T.INT_RANGES or k is Kind.TIME:
        return 0
    if k in T.REAL_KINDS:
        return 0.0
    if k is Kind.STRING:
        return ""
    if k is Kind.ARRAY:
        return [zero(ty.elem) for _ in range(ty.hi - ty.lo + 1)]
    raise TypeError(f"no default for {ty}")


def default(ty: STType) -> Value:
    return box(ty, zero(ty))


def box(ty: STType, raw) -> Value:
    """The Value of a raw value already of type ty; an ARRAY's elements
    are boxed into a new list."""
    if ty.kind is Kind.ARRAY:
        return Value(ty, [box(ty.elem, x) for x in raw])
    return Value(ty, raw)


def unbox(val: Value):
    """The raw form of a Value; an ARRAY's elements go into a new list."""
    if val.ty.kind is Kind.ARRAY:
        return [unbox(x) for x in val.v]
    return val.v


def scalar_text(kind: Kind) -> Callable[[object], str]:
    """How a raw BOOL, integer, REAL/LREAL or TIME value of `kind` is
    spelled, both by `render` and by the X_TO_STRING conversions."""
    if kind is Kind.BOOL:
        return lambda v: "TRUE" if v else "FALSE"
    if kind is Kind.TIME:
        return lambda v: f"T#{v}ms"
    if kind in T.REAL_KINDS:
        return lambda v: repr(float(v))
    return str


def render(val: Value) -> str:
    """Stable human-readable rendering used in reports and monitor events."""
    k = val.ty.kind
    if k is Kind.STRING:
        return f"'{val.v}'"
    if k is Kind.ARRAY:
        return f"[{', '.join(render(x) for x in val.v)}]"
    return scalar_text(k)(val.v)
