"""Independent brute-force re-simulation of function blocks.

Walks the resolved AST directly with plain python values, its own integer
wrapping and float32 rounding (numpy), and the hand-table timer references
from timer_reference.py.  Deliberately shares no execution code with the
runtime package: this is the oracle the interpreter is checked against.

Covers the corpus subset: scalar variables, assignments, IF/CASE/FOR/
WHILE/REPEAT/EXIT/RETURN, built-in functions, and built-in FB instances.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from stbench.frontend import nodes as N
from stbench.frontend import types as T
from stbench.frontend.nodes import PouKind, Section
from stbench.frontend.resolve import TypedProgram

from timer_reference import tof_table, ton_table, tp_table


class OracleFault(Exception):
    pass


class _ExitLoop(Exception):
    pass


class _Return(Exception):
    pass


def _wrap(v: int, kind: T.Kind) -> int:
    if kind is T.Kind.INT:
        return ((v & 0xFFFF) ^ 0x8000) - 0x8000
    if kind is T.Kind.DINT:
        return ((v & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000
    if kind is T.Kind.BYTE:
        return v & 0xFF
    if kind is T.Kind.WORD:
        return v & 0xFFFF
    return v


def _f32(x: float) -> float:
    return float(np.float32(x))


def _coerce(raw, ty: T.STType):
    k = ty.kind
    if k is T.Kind.BOOL:
        return bool(raw)
    if k in T.INT_RANGES:
        return _wrap(int(raw), k)
    if k is T.Kind.REAL:
        return _f32(float(raw))
    if k is T.Kind.LREAL:
        return float(raw)
    if k is T.Kind.TIME:
        return int(raw)
    if k is T.Kind.STRING:
        return str(raw)[: ty.cap]
    raise OracleFault(f"oracle cannot coerce {ty}")


def _default(ty: T.STType):
    if ty.kind is T.Kind.BOOL:
        return False
    if ty.kind in (T.Kind.REAL, T.Kind.LREAL):
        return 0.0
    if ty.kind is T.Kind.STRING:
        return ""
    if ty.kind is T.Kind.ARRAY:
        return [_default(ty.elem) for _ in range(ty.hi - ty.lo + 1)]
    return 0


def _trunc_div(a: int, b: int) -> int:
    return (abs(a) // abs(b)) * (1 if (a >= 0) == (b >= 0) else -1)


class _TimerOracle:
    """Re-derives a timer's outputs from the full invocation history."""

    def __init__(self, fb_type: str):
        self.fb_type = fb_type
        self.table = {"TON": ton_table, "TOF": tof_table, "TP": tp_table}[fb_type]
        self.history: list[tuple[int, bool]] = []
        self.pt = 0
        self.store = {"IN": False, "PT": 0, "Q": False, "ET": 0}

    def step(self, now: int) -> None:
        self.history.append((now, bool(self.store["IN"])))
        self.pt = int(self.store["PT"])
        et, q = self.table(self.history, self.pt)[-1]
        self.store["ET"] = et
        self.store["Q"] = q


class _EdgeOracle:
    def __init__(self, fb_type: str):
        self.fb_type = fb_type
        self.rising = fb_type == "R_TRIG"
        self.prev = False
        self.store = {"CLK": False, "Q": False}

    def step(self, now: int) -> None:
        clk = bool(self.store["CLK"])
        self.store["Q"] = (clk and not self.prev) if self.rising else (self.prev and not clk)
        self.prev = clk


class _CounterOracle:
    def __init__(self, fb_type: str):
        self.fb_type = fb_type
        self.up = fb_type == "CTU"
        self.prev = False
        if self.up:
            self.store = {"CU": False, "R": False, "PV": 0, "Q": False, "CV": 0}
        else:
            self.store = {"CD": False, "LD": False, "PV": 0, "Q": False, "CV": 0}

    def step(self, now: int) -> None:
        if self.up:
            clk = bool(self.store["CU"])
            if self.store["R"]:
                self.store["CV"] = 0
            elif clk and not self.prev and self.store["CV"] < 32767:
                self.store["CV"] += 1
            self.store["Q"] = self.store["CV"] >= self.store["PV"]
        else:
            clk = bool(self.store["CD"])
            if self.store["LD"]:
                self.store["CV"] = self.store["PV"]
            elif clk and not self.prev and self.store["CV"] > -32768:
                self.store["CV"] -= 1
            self.store["Q"] = self.store["CV"] <= 0
        self.prev = clk


def _make_builtin_oracle(fb_type: str):
    if fb_type in ("TON", "TOF", "TP"):
        return _TimerOracle(fb_type)
    if fb_type in ("R_TRIG", "F_TRIG"):
        return _EdgeOracle(fb_type)
    if fb_type in ("CTU", "CTD"):
        return _CounterOracle(fb_type)
    raise OracleFault(f"oracle has no builtin {fb_type}")


class OracleSim:
    def __init__(self, prog: TypedProgram, fb_name: str):
        self.prog = prog
        self.info = prog.lookup_pou(fb_name.upper())
        assert self.info is not None and self.info.kind is not PouKind.FUNCTION
        self.env: dict[str, object] = {}
        for var in self.info.vars.values():
            if var.init is None:
                self.env[var.name] = _default(var.ty)
            elif var.ty.kind is T.Kind.ARRAY:
                self.env[var.name] = [_coerce(x, var.ty.elem) for x in var.init]
            else:
                self.env[var.name] = _coerce(var.init, var.ty)
        self.insts = {
            name: _make_builtin_oracle(fb_type)
            for name, fb_type in self.info.fb_instances.items()
        }
        self.hits: Counter = Counter()
        self.now = 0

    # -- public ----------------------------------------------------------

    def scan(self, inputs: dict[str, object], now: int) -> dict[str, object]:
        for name, raw in inputs.items():
            var = self.info.vars[name.upper()]
            self.env[var.name] = _coerce(raw, var.ty)
        for var in self.info.vars.values():
            if var.section is Section.TEMP:
                self.env[var.name] = _default(var.ty)
        self.now = now
        try:
            self._body(self.info.decl.body)
        except _Return:
            pass
        return self.outputs()

    def outputs(self) -> dict[str, object]:
        return {
            v.name: self.env[v.name]
            for v in self.info.vars.values()
            if v.section is Section.OUTPUT
        }

    def coverage(self) -> Counter:
        return Counter(self.hits)

    # -- statements --------------------------------------------------------

    def _hit(self, node) -> None:
        self.hits[(self.info.name, node.sid)] += 1

    def _body(self, body) -> None:
        for st in body:
            self._stmt(st)

    def _stmt(self, st) -> None:
        if isinstance(st, N.Assign):
            self._hit(st)
            self._assign(st.target, self._eval(st.value))
        elif isinstance(st, N.FbCall):
            self._hit(st)
            inst = self.insts[st.instance]
            for p in st.params:
                if not p.is_output:
                    slot_ty = _builtin_slot_ty(inst, p.name)
                    inst.store[p.name] = _coerce(self._eval(p.expr), slot_ty)
            inst.step(self.now)
            for p in st.params:
                if p.is_output:
                    self._assign(p.expr, inst.store[p.name])
        elif isinstance(st, N.ExitStmt):
            self._hit(st)
            raise _ExitLoop()
        elif isinstance(st, N.ReturnStmt):
            self._hit(st)
            raise _Return()
        elif isinstance(st, N.IfStmt):
            for br in st.branches:
                self._hit(br)
                if self._eval(br.cond):
                    self._body(br.body)
                    return
            self._body(st.else_body)
        elif isinstance(st, N.CaseStmt):
            self._hit(st)
            sel = self._eval(st.selector)
            for br in st.branches:
                if any(lab.lo <= sel <= lab.hi for lab in br.labels):
                    self._body(br.body)
                    return
            self._body(st.else_body)
        elif isinstance(st, N.ForStmt):
            self._hit(st)
            ty = self.info.vars[st.var].ty
            cur = _coerce(self._eval(st.start), ty)
            stop = self._eval(st.stop)
            step = self._eval(st.step) if st.step is not None else 1
            while (cur <= stop) if step > 0 else (cur >= stop):
                self.env[st.var] = cur
                try:
                    self._body(st.body)
                except _ExitLoop:
                    return
                cur = _wrap(self.env[st.var] + step, ty.kind)
        elif isinstance(st, N.WhileStmt):
            while True:
                self._hit(st)
                if not self._eval(st.cond):
                    return
                try:
                    self._body(st.body)
                except _ExitLoop:
                    return
        elif isinstance(st, N.RepeatStmt):
            while True:
                try:
                    self._body(st.body)
                except _ExitLoop:
                    return
                self._hit(st)
                if self._eval(st.until):
                    return
        else:
            raise OracleFault(f"oracle cannot run {st!r}")

    def _assign(self, target, value) -> None:
        if isinstance(target, N.VarRef):
            self.env[target.name] = _coerce(value, self.info.vars[target.name].ty)
            return
        if isinstance(target, N.IndexRef):
            ty = self.info.vars[target.base.name].ty
            idx = self._eval(target.index)
            if not (ty.lo <= idx <= ty.hi):
                raise OracleFault(f"index {idx} out of bounds")
            self.env[target.base.name][idx - ty.lo] = _coerce(value, ty.elem)
            return
        raise OracleFault(f"oracle cannot assign to {target!r}")

    # -- expressions --------------------------------------------------------

    def _eval(self, e):
        if isinstance(e, N.Literal):
            return _coerce(e.value, e.ty)
        if isinstance(e, N.VarRef):
            return self.env[e.name]
        if isinstance(e, N.MemberRef):
            return self.insts[e.base.name].store[e.member]
        if isinstance(e, N.IndexRef):
            ty = self.info.vars[e.base.name].ty
            idx = self._eval(e.index)
            if not (ty.lo <= idx <= ty.hi):
                raise OracleFault(f"index {idx} out of bounds")
            return self.env[e.base.name][idx - ty.lo]
        if isinstance(e, N.Unary):
            v = self._eval(e.operand)
            if e.op is N.UnOp.NOT:
                return (not v) if e.ty.kind is T.Kind.BOOL else _wrap(~v, e.ty.kind)
            if e.op is N.UnOp.NEG:
                return _coerce(-v, e.ty)
            return v
        if isinstance(e, N.Binary):
            return self._binary(e)
        if isinstance(e, N.Call):
            return self._call(e)
        raise OracleFault(f"oracle cannot evaluate {e!r}")

    def _binary(self, e: N.Binary):
        a = self._eval(e.left)
        b = self._eval(e.right)
        op = e.op
        if op is N.BinOp.EQ:
            return a == b
        if op is N.BinOp.NE:
            return a != b
        if op is N.BinOp.LT:
            return a < b
        if op is N.BinOp.LE:
            return a <= b
        if op is N.BinOp.GT:
            return a > b
        if op is N.BinOp.GE:
            return a >= b
        if op in (N.BinOp.AND, N.BinOp.OR, N.BinOp.XOR):
            if e.ty.kind is T.Kind.BOOL:
                return {"AND": a and b, "OR": a or b, "XOR": bool(a) != bool(b)}[op.name]
            raw = {"AND": a & b, "OR": a | b, "XOR": a ^ b}[op.name]
            return _wrap(raw, e.ty.kind)
        if op is N.BinOp.ADD:
            return _coerce(a + b, e.ty)
        if op is N.BinOp.SUB:
            return _coerce(a - b, e.ty)
        if op is N.BinOp.MUL:
            return _coerce(a * b, e.ty)
        if op is N.BinOp.DIV:
            if e.ty.kind in (T.Kind.REAL, T.Kind.LREAL):
                if b == 0.0:
                    return math.nan if a == 0.0 else math.inf * math.copysign(1, a) * math.copysign(1, b)
                return _coerce(a / b, e.ty)
            if b == 0:
                raise OracleFault("division by zero")
            return _coerce(_trunc_div(a, b), e.ty)
        if op is N.BinOp.MOD:
            if b == 0:
                raise OracleFault("MOD by zero")
            return _coerce(a - _trunc_div(a, b) * b, e.ty)
        if op is N.BinOp.POW:
            try:
                return _coerce(float(a) ** float(b), e.ty)
            except (OverflowError, ValueError, ZeroDivisionError):
                return _coerce(math.nan, e.ty)
        raise OracleFault(f"oracle operator {op}")

    def _call(self, e: N.Call):
        name = e.name
        args = [self._eval(a) for a in e.args]
        if "_TO_STRING" in name:
            v = args[0]
            if isinstance(v, bool):
                return "TRUE" if v else "FALSE"
            return repr(float(v)) if isinstance(v, float) else str(v)
        if "_TO_" in name:
            return self._convert(name, args[0], e.ty)
        if name == "ABS":
            return _coerce(abs(args[0]), e.ty)
        if name == "MIN":
            return _coerce(min(args), e.ty)
        if name == "MAX":
            return _coerce(max(args), e.ty)
        if name == "LIMIT":
            return _coerce(sorted((args[0], args[1], args[2]))[1], e.ty)
        if name == "SEL":
            return _coerce(args[2] if args[0] else args[1], e.ty)
        if name in ("SIN", "COS", "TAN", "EXP", "LN", "SQRT"):
            try:
                fn = {
                    "SIN": math.sin, "COS": math.cos, "TAN": math.tan,
                    "EXP": math.exp, "LN": math.log, "SQRT": math.sqrt,
                }[name]
                return _coerce(fn(args[0]), e.ty)
            except ValueError:
                return _coerce(math.nan if args[0] != 0 else -math.inf, e.ty)
            except OverflowError:
                return _coerce(math.inf, e.ty)
        if name == "TRUNC":
            return self._convert("TRUNC", math.trunc(args[0]), T.DINT)
        if name in ("SHL", "SHR"):
            width = 8 if e.ty.kind is T.Kind.BYTE else 16
            n = args[1]
            if n < 0:
                raise OracleFault("negative shift")
            if n >= width:
                return 0
            return _wrap(args[0] << n if name == "SHL" else args[0] >> n, e.ty.kind)
        if name == "CONCAT":
            return _coerce("".join(args), e.ty)
        if name == "LEN":
            return len(args[0])
        if name == "MID":
            s, ln, pos = args
            if ln < 0 or pos < 1:
                raise OracleFault("MID range")
            return _coerce(s[pos - 1 : pos - 1 + ln], e.ty)
        raise OracleFault(f"oracle builtin {name}")

    def _convert(self, name: str, raw, ty: T.STType):
        if ty.kind is T.Kind.BOOL:
            return raw != 0
        if ty.kind in T.INT_RANGES:
            if isinstance(raw, float):
                # ties-to-even like the interpreter's conversion contract
                raw = int(np.rint(raw))
            lo, hi = T.INT_RANGES[ty.kind]
            if not (lo <= int(raw) <= hi):
                raise OracleFault(f"{name} overflow")
            return int(raw)
        if ty.kind in (T.Kind.REAL, T.Kind.LREAL):
            return _coerce(float(raw), ty)
        if ty.kind is T.Kind.TIME:
            if raw < 0:
                raise OracleFault(f"{name} negative duration")
            return int(raw)
        raise OracleFault(f"oracle conversion {name}")


def _builtin_slot_ty(inst, name: str) -> T.STType:
    from stbench.frontend.builtins import BUILTIN_FBS

    return BUILTIN_FBS[inst.fb_type][name][0]
