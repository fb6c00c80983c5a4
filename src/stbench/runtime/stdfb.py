"""Execution state machines for the built-in standard function blocks.

A built-in instance exposes the same store shape as a user FB instance:
each declared variable maps to its raw python value, whose type `_SLOTS`
gives, and an output is coerced to its type when stored.  Bookkeeping
such as edge memory and start times lives in private attributes.  All
timing decisions use the scan's simulated `now`, passed in by the
interpreter at the moment the instance is invoked.
"""

from __future__ import annotations

from ..frontend import types as T
from ..frontend.builtins import BUILTIN_FBS
from . import values as V


# per block type: variable name -> (type, coercion of a raw value to it)
_SLOTS = {
    fb_type: {name: (ty, V.coercer(ty)) for name, (ty, _sec) in decls.items()}
    for fb_type, decls in BUILTIN_FBS.items()
}


class BuiltinInstance:
    kind = "builtin"

    def __init__(self, fb_type: str):
        self.fb_type = fb_type
        self._slots = _SLOTS[fb_type]
        self.store: dict[str, object] = {
            name: V.zero(ty) for name, (ty, _co) in self._slots.items()
        }

    def _b(self, name: str) -> bool:
        return bool(self.store[name])

    def _i(self, name: str) -> int:
        return int(self.store[name])

    def _set(self, name: str, raw) -> None:
        self.store[name] = self._slots[name][1](raw)

    def step(self, now: int) -> None:
        raise NotImplementedError


class Ton(BuiltinInstance):
    def __init__(self):
        super().__init__("TON")
        self._prev_in = False
        self._start = 0

    def step(self, now: int) -> None:
        in_v = self._b("IN")
        pt = self._i("PT")
        if in_v and not self._prev_in:
            self._start = now
        et = min(now - self._start, pt) if in_v else 0
        self._set("ET", et)
        self._set("Q", in_v and et >= pt)
        self._prev_in = in_v


class Tof(BuiltinInstance):
    def __init__(self):
        super().__init__("TOF")
        self._prev_in = False
        self._start = 0
        self._timing = False

    def step(self, now: int) -> None:
        in_v = self._b("IN")
        pt = self._i("PT")
        if in_v:
            self._timing = False
            et = 0
            q = True
        else:
            if self._prev_in:
                self._timing = True
                self._start = now
            if self._timing:
                et = min(now - self._start, pt)
                q = et < pt
            else:
                et = 0
                q = False
        self._set("ET", et)
        self._set("Q", q)
        self._prev_in = in_v


class Tp(BuiltinInstance):
    def __init__(self):
        super().__init__("TP")
        self._prev_in = False
        self._start = 0
        self._running = False
        self._et = 0

    def step(self, now: int) -> None:
        in_v = self._b("IN")
        pt = self._i("PT")
        if not self._running:
            if in_v and not self._prev_in:
                self._running = True
                self._start = now
            elif not in_v:
                self._et = 0
        if self._running:
            self._et = min(now - self._start, pt)
            if self._et >= pt:
                self._running = False
        self._set("ET", self._et)
        self._set("Q", self._running)
        self._prev_in = in_v


class RTrig(BuiltinInstance):
    def __init__(self):
        super().__init__("R_TRIG")
        self._prev = False

    def step(self, now: int) -> None:
        clk = self._b("CLK")
        self._set("Q", clk and not self._prev)
        self._prev = clk


class FTrig(BuiltinInstance):
    """Falling-edge detector; no power-up pulse when CLK starts low."""

    def __init__(self):
        super().__init__("F_TRIG")
        self._prev = False

    def step(self, now: int) -> None:
        clk = self._b("CLK")
        self._set("Q", (not clk) and self._prev)
        self._prev = clk


class Ctu(BuiltinInstance):
    def __init__(self):
        super().__init__("CTU")
        self._prev_cu = False

    def step(self, now: int) -> None:
        cu = self._b("CU")
        if self._b("R"):
            self._set("CV", 0)
        elif cu and not self._prev_cu:
            cv = self._i("CV")
            if cv < T.INT_RANGES[T.Kind.INT][1]:
                self._set("CV", cv + 1)
        self._set("Q", self._i("CV") >= self._i("PV"))
        self._prev_cu = cu


class Ctd(BuiltinInstance):
    def __init__(self):
        super().__init__("CTD")
        self._prev_cd = False

    def step(self, now: int) -> None:
        cd = self._b("CD")
        if self._b("LD"):
            self._set("CV", self._i("PV"))
        elif cd and not self._prev_cd:
            cv = self._i("CV")
            if cv > T.INT_RANGES[T.Kind.INT][0]:
                self._set("CV", cv - 1)
        self._set("Q", self._i("CV") <= 0)
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
