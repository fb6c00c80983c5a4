"""Interfaces of the built-in standard function blocks and functions.

These resolve without user declarations: the IEC timers and edge/counter
blocks, a practical set of standard functions, and the explicit X_TO_Y
conversions.  Only declarations live here; execution semantics are in the
runtime package.
"""

from __future__ import annotations

from . import types as T
from .nodes import Section

# name -> ordered {var: (type, section)}
BUILTIN_FBS: dict[str, dict[str, tuple[T.STType, Section]]] = {
    "TON": {
        "IN": (T.BOOL, Section.INPUT),
        "PT": (T.TIME, Section.INPUT),
        "Q": (T.BOOL, Section.OUTPUT),
        "ET": (T.TIME, Section.OUTPUT),
    },
    "TOF": {
        "IN": (T.BOOL, Section.INPUT),
        "PT": (T.TIME, Section.INPUT),
        "Q": (T.BOOL, Section.OUTPUT),
        "ET": (T.TIME, Section.OUTPUT),
    },
    "TP": {
        "IN": (T.BOOL, Section.INPUT),
        "PT": (T.TIME, Section.INPUT),
        "Q": (T.BOOL, Section.OUTPUT),
        "ET": (T.TIME, Section.OUTPUT),
    },
    "R_TRIG": {
        "CLK": (T.BOOL, Section.INPUT),
        "Q": (T.BOOL, Section.OUTPUT),
    },
    "F_TRIG": {
        "CLK": (T.BOOL, Section.INPUT),
        "Q": (T.BOOL, Section.OUTPUT),
    },
    "CTU": {
        "CU": (T.BOOL, Section.INPUT),
        "R": (T.BOOL, Section.INPUT),
        "PV": (T.INT, Section.INPUT),
        "Q": (T.BOOL, Section.OUTPUT),
        "CV": (T.INT, Section.OUTPUT),
    },
    "CTD": {
        "CD": (T.BOOL, Section.INPUT),
        "LD": (T.BOOL, Section.INPUT),
        "PV": (T.INT, Section.INPUT),
        "Q": (T.BOOL, Section.OUTPUT),
        "CV": (T.INT, Section.OUTPUT),
    },
}

_NUMERIC = (T.Kind.INT, T.Kind.DINT, T.Kind.REAL, T.Kind.LREAL)
_ORDERED = _NUMERIC + (T.Kind.BYTE, T.Kind.WORD, T.Kind.TIME)
_CONVERTIBLE = (
    T.Kind.BOOL,
    T.Kind.INT,
    T.Kind.DINT,
    T.Kind.BYTE,
    T.Kind.WORD,
    T.Kind.REAL,
    T.Kind.LREAL,
    T.Kind.TIME,
)


def conversion_target(name: str) -> tuple[T.STType, T.STType] | None:
    """Return (src, dst) types if name is a supported X_TO_Y conversion."""
    if "_TO_" not in name:
        return None
    left, _, right = name.partition("_TO_")
    src = T.SCALARS.get(left)
    dst = T.SCALARS.get(right)
    if src is None or dst is None:
        return None
    if src.kind not in _CONVERTIBLE:
        return None
    numericish = (T.Kind.INT, T.Kind.DINT, T.Kind.BYTE, T.Kind.WORD, T.Kind.REAL, T.Kind.LREAL)
    ok = (
        (src.kind in numericish and dst.kind in numericish)
        or (src.kind is T.Kind.BOOL and dst.kind in (T.Kind.INT, T.Kind.DINT, T.Kind.BYTE, T.Kind.WORD))
        or (dst.kind is T.Kind.BOOL and src.kind in (T.Kind.INT, T.Kind.DINT, T.Kind.BYTE, T.Kind.WORD))
        or (src.kind is T.Kind.TIME and dst.kind is T.Kind.DINT)
        or (src.kind is T.Kind.DINT and dst.kind is T.Kind.TIME)
    )
    return (src, dst) if ok else None


def string_conversion_source(name: str) -> T.STType | None:
    """Return the source type if name is a supported X_TO_STRING conversion."""
    if not name.endswith("_TO_STRING"):
        return None
    src = T.SCALARS.get(name[: -len("_TO_STRING")])
    if src is not None and src.kind in _CONVERTIBLE:
        return src
    return None


def is_builtin_function(name: str) -> bool:
    if name in _FIXED_FUNCS:
        return True
    return conversion_target(name) is not None or string_conversion_source(name) is not None


_FIXED_FUNCS = frozenset(
    "ABS MIN MAX LIMIT SEL SIN COS TAN EXP LN SQRT TRUNC SHL SHR CONCAT LEN MID".split()
)


def check_builtin_call(name: str, arg_types: list[T.STType]) -> T.STType | str:
    """Type a built-in call; returns the result type or an error message."""
    conv = conversion_target(name)
    if conv is not None:
        src, dst = conv
        if len(arg_types) != 1:
            return f"{name} takes exactly 1 argument"
        if not T.assignable(arg_types[0], src) and arg_types[0].kind is not src.kind:
            return f"{name} argument must be {src}, got {arg_types[0]}"
        return dst
    str_src = string_conversion_source(name)
    if str_src is not None:
        if len(arg_types) != 1:
            return f"{name} takes exactly 1 argument"
        if arg_types[0].kind is not str_src.kind:
            return f"{name} argument must be {str_src}, got {arg_types[0]}"
        return T.string()

    if name == "ABS":
        if len(arg_types) != 1 or arg_types[0].kind not in _NUMERIC:
            return "ABS takes one numeric argument"
        return arg_types[0]
    if name in ("MIN", "MAX"):
        if len(arg_types) != 2:
            return f"{name} takes 2 arguments"
        u = T.unify(arg_types[0], arg_types[1])
        if u is None or u.kind not in _ORDERED:
            return f"{name} arguments must share an ordered type"
        return u
    if name == "LIMIT":
        if len(arg_types) != 3:
            return "LIMIT takes (MN, IN, MX)"
        u = T.unify(arg_types[0], arg_types[1])
        u = T.unify(u, arg_types[2]) if u else None
        if u is None or u.kind not in _ORDERED:
            return "LIMIT arguments must share an ordered type"
        return u
    if name == "SEL":
        if len(arg_types) != 3:
            return "SEL takes (G, IN0, IN1)"
        if arg_types[0].kind is not T.Kind.BOOL:
            return "SEL selector must be BOOL"
        u = T.unify(arg_types[1], arg_types[2])
        if u is None:
            return "SEL alternatives must share a type"
        return u
    if name in ("SIN", "COS", "TAN", "EXP", "LN", "SQRT"):
        if len(arg_types) != 1 or arg_types[0].kind not in (T.Kind.REAL, T.Kind.LREAL):
            return f"{name} takes one REAL or LREAL argument"
        return arg_types[0]
    if name == "TRUNC":
        if len(arg_types) != 1 or arg_types[0].kind not in (T.Kind.REAL, T.Kind.LREAL):
            return "TRUNC takes one REAL or LREAL argument"
        return T.DINT
    if name in ("SHL", "SHR"):
        if (
            len(arg_types) != 2
            or arg_types[0].kind not in (T.Kind.BYTE, T.Kind.WORD)
            or arg_types[1].kind not in (T.Kind.INT, T.Kind.DINT)
        ):
            return f"{name} takes (BYTE|WORD, INT|DINT)"
        return arg_types[0]
    if name == "CONCAT":
        if len(arg_types) < 2 or any(t.kind is not T.Kind.STRING for t in arg_types):
            return "CONCAT takes 2 or more STRING arguments"
        return T.string(sum(t.cap for t in arg_types))
    if name == "LEN":
        if len(arg_types) != 1 or arg_types[0].kind is not T.Kind.STRING:
            return "LEN takes one STRING argument"
        return T.INT
    if name == "MID":
        if (
            len(arg_types) != 3
            or arg_types[0].kind is not T.Kind.STRING
            or arg_types[1].kind not in (T.Kind.INT, T.Kind.DINT)
            or arg_types[2].kind not in (T.Kind.INT, T.Kind.DINT)
        ):
            return "MID takes (STRING, L: INT, P: INT)"
        return arg_types[0]
    return f"unknown function {name}"
