"""Execution state machines for the built-in standard function blocks.

A built-in instance exposes the same store shape as a user FB instance:
each declared variable maps to its raw python value.  A block steps on
that store directly and relies on it holding raw values of the declared
types: a BOOL is a bool, and a TIME or INT an int.  Its inputs are
stored by the generated call, which converts each argument to the
input's type first, and it computes each output in its type (an ET is
capped at PT, a CV stays within INT), so neither side coerces.
Bookkeeping such as edge memory and start times lives in private
attributes.  All timing decisions use the scan's simulated `now`, passed
in by the interpreter at the moment the instance is invoked.
"""

from __future__ import annotations

from ..frontend import types as T
from ..frontend.builtins import BUILTIN_FBS
from . import values as V

_INT_MIN, _INT_MAX = T.INT_RANGES[T.Kind.INT]


class BuiltinInstance:
    __slots__ = ("fb_type", "store")

    def __init__(self, fb_type: str):
        self.fb_type = fb_type
        self.store: dict[str, object] = {
            name: V.zero(ty) for name, (ty, _sec) in BUILTIN_FBS[fb_type].items()
        }

    def step(self, now: int) -> None:
        raise NotImplementedError


class Ton(BuiltinInstance):
    __slots__ = ("_prev_in", "_start")

    def __init__(self):
        super().__init__("TON")
        self._prev_in = False
        self._start = 0

    def step(self, now: int) -> None:
        s = self.store
        in_v = s["IN"]
        if in_v:
            if not self._prev_in:
                self._start = now
            pt = s["PT"]
            et = now - self._start
            if et >= pt:
                s["ET"] = pt
                s["Q"] = True
            else:
                s["ET"] = et
                s["Q"] = False
        else:
            s["ET"] = 0
            s["Q"] = False
        self._prev_in = in_v


class Tof(BuiltinInstance):
    __slots__ = ("_prev_in", "_start", "_timing")

    def __init__(self):
        super().__init__("TOF")
        self._prev_in = False
        self._start = 0
        self._timing = False

    def step(self, now: int) -> None:
        s = self.store
        in_v = s["IN"]
        if in_v:
            self._timing = False
            et = 0
            q = True
        else:
            if self._prev_in:
                self._timing = True
                self._start = now
            if self._timing:
                pt = s["PT"]
                et = min(now - self._start, pt)
                q = et < pt
            else:
                et = 0
                q = False
        s["ET"] = et
        s["Q"] = q
        self._prev_in = in_v


class Tp(BuiltinInstance):
    __slots__ = ("_prev_in", "_start", "_running", "_et")

    def __init__(self):
        super().__init__("TP")
        self._prev_in = False
        self._start = 0
        self._running = False
        self._et = 0

    def step(self, now: int) -> None:
        s = self.store
        in_v = s["IN"]
        if not self._running:
            if in_v and not self._prev_in:
                self._running = True
                self._start = now
            elif not in_v:
                self._et = 0
        if self._running:
            pt = s["PT"]
            self._et = min(now - self._start, pt)
            if self._et >= pt:
                self._running = False
        s["ET"] = self._et
        s["Q"] = self._running
        self._prev_in = in_v


class RTrig(BuiltinInstance):
    __slots__ = ("_prev",)

    def __init__(self):
        super().__init__("R_TRIG")
        self._prev = False

    def step(self, now: int) -> None:
        clk = self.store["CLK"]
        self.store["Q"] = clk and not self._prev
        self._prev = clk


class FTrig(BuiltinInstance):
    """Falling-edge detector; no power-up pulse when CLK starts low."""

    __slots__ = ("_prev",)

    def __init__(self):
        super().__init__("F_TRIG")
        self._prev = False

    def step(self, now: int) -> None:
        clk = self.store["CLK"]
        self.store["Q"] = (not clk) and self._prev
        self._prev = clk


class Ctu(BuiltinInstance):
    __slots__ = ("_prev_cu",)

    def __init__(self):
        super().__init__("CTU")
        self._prev_cu = False

    def step(self, now: int) -> None:
        s = self.store
        cu = s["CU"]
        if s["R"]:
            s["CV"] = 0
        elif cu and not self._prev_cu and s["CV"] < _INT_MAX:
            s["CV"] += 1
        s["Q"] = s["CV"] >= s["PV"]
        self._prev_cu = cu


class Ctd(BuiltinInstance):
    __slots__ = ("_prev_cd",)

    def __init__(self):
        super().__init__("CTD")
        self._prev_cd = False

    def step(self, now: int) -> None:
        s = self.store
        cd = s["CD"]
        if s["LD"]:
            s["CV"] = s["PV"]
        elif cd and not self._prev_cd and s["CV"] > _INT_MIN:
            s["CV"] -= 1
        s["Q"] = s["CV"] <= 0
        self._prev_cd = cd


_FACTORIES = {
    "TON": Ton,
    "TOF": Tof,
    "TP": Tp,
    "R_TRIG": RTrig,
    "F_TRIG": FTrig,
    "CTU": Ctu,
    "CTD": Ctd,
}


def make_builtin(fb_type: str) -> BuiltinInstance:
    return _FACTORIES[fb_type]()
