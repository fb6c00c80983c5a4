"""Runtime values: a tagged union with exact-width integer semantics.

INT/DINT wrap two's-complement at 16/32 bits, BYTE/WORD wrap unsigned at
8/16 bits, REAL arithmetic is rounded to binary32 after every operation,
TIME is a signed millisecond count, STRING is truncated to its capacity.
Wrapping (not faulting) on integer overflow matches what C-transpiled PLC
code does and is what makes width-dependent bugs observable.

The interpreter keeps raw python values (bool, int, float, str, and a list
of raw elements for an ARRAY) and knows each one's type from its
declaration; `box` and `unbox` convert between that form and a `Value` at
the runtime's boundary.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Callable

from ..frontend import types as T
from ..frontend.types import Kind, STType

_F32_MAX = 3.4028234663852886e38
_F32 = struct.Struct("<f")


def f32(x: float) -> float:
    """Round a python float to the nearest binary32 value."""
    if -_F32_MAX <= x <= _F32_MAX:
        return _F32.unpack(_F32.pack(x))[0]
    if x > _F32_MAX:
        return math.inf
    if x < -_F32_MAX:
        return -math.inf
    return x  # nan


def wrap_int(v: int, kind: Kind) -> int:
    if kind is Kind.INT:
        return ((v + 0x8000) & 0xFFFF) - 0x8000
    if kind is Kind.DINT:
        return ((v + 0x8000_0000) & 0xFFFF_FFFF) - 0x8000_0000
    if kind is Kind.BYTE:
        return v & 0xFF
    if kind is Kind.WORD:
        return v & 0xFFFF
    raise TypeError(f"not an integer kind: {kind}")


@dataclass(frozen=True)
class Value:
    ty: STType
    v: object

    def __repr__(self) -> str:
        return f"Value({self.ty}, {self.v!r})"


def make(ty: STType, raw) -> Value:
    """Coerce a plain python value into a Value of the given type."""
    return Value(ty, coercer(ty)(raw))


def coercer(ty: STType) -> Callable[[object], object]:
    """The coercion make applies to a raw value, as a function of it.

    Compiled code looks it up once per expression or store and applies it
    to raw python values."""
    k = ty.kind
    if k is Kind.BOOL:
        return bool
    if k in T.INT_RANGES:
        return lambda x: wrap_int(int(x), k)
    if k is Kind.REAL:
        return lambda x: f32(float(x))
    if k is Kind.LREAL:
        return float
    if k is Kind.TIME:
        return int
    if k is Kind.STRING:
        cap = ty.cap
        return lambda x: str(x)[:cap]
    raise TypeError(f"cannot build scalar value of {ty}")


def zero(ty: STType):
    """The raw value a variable of type ty holds before its first store."""
    k = ty.kind
    if k is Kind.BOOL:
        return False
    if k in T.INT_RANGES or k is Kind.TIME:
        return 0
    if k in (Kind.REAL, Kind.LREAL):
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


def convert_for_store(val: Value, dst: STType) -> Value:
    """Implicit widening (or string truncation) when storing into a slot."""
    if val.ty == dst:
        return val
    if val.ty.kind is Kind.ARRAY or dst.kind is Kind.ARRAY:
        if val.ty == dst:
            return val
        raise TypeError(f"cannot store {val.ty} into {dst}")
    if val.ty.kind is dst.kind or (val.ty.kind, dst.kind) in T.WIDENS:
        return make(dst, val.v)
    raise TypeError(f"cannot store {val.ty} into {dst}")


def render(val: Value) -> str:
    """Stable human-readable rendering used in reports and monitor events."""
    k = val.ty.kind
    if k is Kind.BOOL:
        return "TRUE" if val.v else "FALSE"
    if k in (Kind.INT, Kind.DINT, Kind.BYTE, Kind.WORD):
        return str(val.v)
    if k in (Kind.REAL, Kind.LREAL):
        return repr(float(val.v))
    if k is Kind.TIME:
        return f"T#{val.v}ms"
    if k is Kind.STRING:
        return f"'{val.v}'"
    return f"[{', '.join(render(x) for x in val.v)}]"
