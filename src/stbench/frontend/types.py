"""The supported IEC 61131-3 elementary types and the implicit promotion lattice.

Fixed widths: INT is 16-bit signed, DINT 32-bit signed, BYTE/WORD are 8/16-bit
unsigned bit strings, REAL/LREAL are binary32/binary64, TIME is a signed
64-bit count of milliseconds, STRING is capacity-bounded (default 80 chars).
A STRING character is one byte (MAX_STRING_CHAR).  Implicit conversion
exists only along INT->DINT, REAL->LREAL and BYTE->WORD; everything else
needs an explicit X_TO_Y call.  The kind families (NUMERIC_KINDS,
ORDERED_KINDS and the rest) are named here and nowhere else.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Kind(enum.Enum):
    # members compare by identity; Enum.__hash__ would be a Python-level call
    __hash__ = object.__hash__

    BOOL = "BOOL"
    INT = "INT"
    DINT = "DINT"
    BYTE = "BYTE"
    WORD = "WORD"
    REAL = "REAL"
    LREAL = "LREAL"
    TIME = "TIME"
    STRING = "STRING"
    ARRAY = "ARRAY"


DEFAULT_STRING_CAP = 80
# a STRING character is one byte: its code point is at most U+00FF
MAX_STRING_CHAR = 0xFF


@dataclass(frozen=True, slots=True)
class STType:
    kind: Kind
    cap: int | None = None          # STRING capacity
    lo: int | None = None           # ARRAY lower bound
    hi: int | None = None           # ARRAY upper bound
    elem: "STType | None" = None    # ARRAY element type

    def __str__(self) -> str:
        if self.kind is Kind.STRING:
            if self.cap == DEFAULT_STRING_CAP:
                return "STRING"
            return f"STRING[{self.cap}]"
        if self.kind is Kind.ARRAY:
            return f"ARRAY[{self.lo}..{self.hi}] OF {self.elem}"
        return self.kind.value


BOOL = STType(Kind.BOOL)
INT = STType(Kind.INT)
DINT = STType(Kind.DINT)
BYTE = STType(Kind.BYTE)
WORD = STType(Kind.WORD)
REAL = STType(Kind.REAL)
LREAL = STType(Kind.LREAL)
TIME = STType(Kind.TIME)


def string(cap: int = DEFAULT_STRING_CAP) -> STType:
    return STType(Kind.STRING, cap=cap)


def array(lo: int, hi: int, elem: STType) -> STType:
    return STType(Kind.ARRAY, lo=lo, hi=hi, elem=elem)


SCALARS = {
    "BOOL": BOOL,
    "INT": INT,
    "DINT": DINT,
    "BYTE": BYTE,
    "WORD": WORD,
    "REAL": REAL,
    "LREAL": LREAL,
    "TIME": TIME,
}

# (lo, hi) inclusive for the integer kinds.
INT_RANGES = {
    Kind.INT: (-(2**15), 2**15 - 1),
    Kind.DINT: (-(2**31), 2**31 - 1),
    Kind.BYTE: (0, 2**8 - 1),
    Kind.WORD: (0, 2**16 - 1),
}

# The kind families; every other module names a family by these names.
SIGNED_INT_KINDS = (Kind.INT, Kind.DINT)
BIT_KINDS = (Kind.BYTE, Kind.WORD)
REAL_KINDS = (Kind.REAL, Kind.LREAL)
# the kinds of integer values: INT_RANGES holds each one's range
INTEGERISH_KINDS = SIGNED_INT_KINDS + BIT_KINDS
# the operands of arithmetic: + - * /, unary minus and ABS
NUMERIC_KINDS = SIGNED_INT_KINDS + REAL_KINDS
# the kinds of numbers, bit strings included: X_TO_Y converts among them
NUMBER_KINDS = INTEGERISH_KINDS + REAL_KINDS
# the operands of < <= > >=, MIN, MAX and LIMIT
ORDERED_KINDS = NUMBER_KINDS + (Kind.TIME,)
# the operands of NOT, AND, OR and XOR
BITWISE_KINDS = (Kind.BOOL,) + BIT_KINDS

# Widening-only implicit conversions.
WIDENS = {
    (Kind.INT, Kind.DINT),
    (Kind.REAL, Kind.LREAL),
    (Kind.BYTE, Kind.WORD),
}


def assignable(src: STType, dst: STType) -> bool:
    """Whether a value of type src may be assigned to a slot of type dst."""
    if src.kind is Kind.STRING and dst.kind is Kind.STRING:
        return True  # copies truncate to the destination capacity
    if src.kind is Kind.ARRAY or dst.kind is Kind.ARRAY:
        return src == dst
    return src.kind is dst.kind or (src.kind, dst.kind) in WIDENS


def unify(a: STType, b: STType) -> STType | None:
    """Common type of two operands under the promotion lattice, or None.
    Two STRINGs share the larger capacity, so neither value is cut."""
    if a.kind is Kind.STRING and b.kind is Kind.STRING:
        return a if a.cap >= b.cap else b
    if a is b or a == b:
        return a
    if (a.kind, b.kind) in WIDENS:
        return b
    if (b.kind, a.kind) in WIDENS:
        return a
    return None

