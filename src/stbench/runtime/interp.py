"""Cyclic scan interpreter: resolved ST compiled once to Python closures.

One scan runs a POU body exactly once.  The clock is frozen during a scan
(every timer invoked in a scan sees the same `now`) and advances by the
configured cycle time after the scan completes.

Each POU body is compiled into closures (Feeley & Lapalme, "Using closures
for code generation", 1987) on its first execution and cached on the
TypedProgram.  Compiling does once what a tree walk redoes on every
execution: node dispatch, literal values, operator, built-in and
conversion lookup, store conversions, site ids and spans, and the TEMP
variable list.  The closures hold no run state: the store, the nested
instances, the count array and the run state (`_Scan`: program, counts,
budget, clock, call depth) are passed in, so scans and threads share them.

Values: expressions evaluate to raw python values (bool, int, float, str,
or a list of raw elements for an ARRAY), and every store (an instance's,
a built-in block's, TEMP defaults and function frames) maps a variable to
its raw value; its type is the declared one.  `Value`s are built only at
the boundary: `execute_cycle` unboxes its inputs into fresh lists, and
`FbInstance.outputs()` boxes what it returns.  Each store owns its ARRAY
lists, so an element store writes in place: a list is copied where it
would otherwise become shared, which the compiler knows at each site (a
whole-array store, a same-typed array FB input, IN_OUT argument or
function argument, a TEMP reset from `_Pou.temps` and a function frame
from `_Pou.initial`).

Memory: a run builds no reference cycles.  Stores hold raw values and
lists of them, which refer to nothing.  The compiled code is cached on the
TypedProgram it was compiled for and refers to nothing that refers back to
it, so a finished run, its AST and its compiled code are freed by
reference counting as soon as the last reference goes, without the cyclic
garbage collector.  The CLI relies on this and pauses that collector while
it works on a unit.

Coverage: executing a statement site adds one to its slot in its POU's
count array; guard sites (IF/ELSIF conditions, CASE selectors, loop
headers) count once per evaluation.  Each site also spends one unit of the
scan's 1M-site budget, as does each FOR iteration; run_program gives what
a contained fault's call spent back, up to three more budgets per scan.
Faults are attributed on the exception path: a statement closure turns an
expression fault into a RuntimeFault at its own site, and each call frame
it unwinds through prepends its instance path segment.  Calls nest at most
64 deep; a chain that exhausts Python's recursion limit first becomes the
fault "call stack too deep" at the innermost call site with room to raise
it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable

import math

from ..frontend import nodes as N
from ..frontend import types as T
from ..frontend.builtins import BUILTIN_FBS
from ..frontend.nodes import PouKind, Section
from ..frontend.resolve import PouInfo, TypedProgram
from ..frontend.source import Span
from . import values as V
from .stdfb import BuiltinInstance, make_builtin
from .stdfuncs import BuiltinFuncError, builtin_impl

_SCAN_SITE_BUDGET = 1_000_000
# Budgets a scan may give back to contained faults: a scan never runs more
# than (1 + _SPARE_BUDGETS) * _SCAN_SITE_BUDGET sites.
_SPARE_BUDGETS = 3
_MAX_CALL_DEPTH = 64
_BUDGET_MSG = "scan statement budget exceeded (possible unbounded loop)"
# Python's recursion limit can end a chain of calls before _MAX_CALL_DEPTH
# does, since a call costs Python frames per nesting level of its callee:
# the innermost call site with room left reports it as a fault.
_STACK_MSG = "call stack too deep"

class UnknownPou(Exception):
    pass


class RuntimeFault(Exception):
    """A fault raised during a scan, attributed to a statement site."""

    def __init__(
        self,
        message: str,
        pou: str = "?",
        sid: int | None = None,
        span: Span | None = None,
        instance_path: str = "",
        cycle: int | None = None,
    ):
        self.message = message
        self.pou = pou
        self.sid = sid
        self.span = span
        self.instance_path = instance_path
        self.cycle = cycle
        super().__init__(message)

    def __str__(self) -> str:
        return self.describe()

    def describe(self) -> str:
        where = f"{self.pou}#{self.sid}" if self.sid is not None else self.pou
        at = f" at cycle {self.cycle}" if self.cycle is not None else ""
        path = f" in {self.instance_path}" if self.instance_path else ""
        return f"{self.message} ({where}){path}{at}"


@dataclass
class SimClock:
    """Simulated wall clock; advances only between scans."""

    now: int = 0
    cycle_time: int = 10

    def advance(self) -> None:
        self.now += self.cycle_time


class ScanTrace:
    """What run_program keeps of one scan: len() is its site count."""

    __slots__ = ("sites",)

    def __init__(self, sites: int):
        self.sites = sites

    def __len__(self) -> int:
        return self.sites


def _initial_store(info: PouInfo) -> dict[str, object]:
    store: dict[str, object] = {}
    for var in info.vars.values():
        if var.init is None:
            store[var.name] = V.zero(var.ty)
        elif var.ty.kind is T.Kind.ARRAY:
            co = V.coercer(var.ty.elem)
            store[var.name] = [co(x) for x in var.init]
        else:
            store[var.name] = V.coercer(var.ty)(var.init)
    return store


class FbInstance:
    """Retained state of one function block (or program) instance."""

    kind = "user"

    def __init__(self, prog: TypedProgram, info: PouInfo):
        self.prog = prog
        self.info = info
        self.fb_type = info.name
        self.store: dict[str, object] = _initial_store(info)
        self.nested: dict[str, FbInstance | BuiltinInstance] = {}

    def outputs(self) -> dict[str, V.Value]:
        return {
            v.name: V.box(v.ty, self.store[v.name])
            for v in self.info.vars.values()
            if v.section is Section.OUTPUT
        }


def _is_builtin_fb(prog: TypedProgram, fb_type: str) -> bool:
    """Built-in blocks run natively unless a user FB shadows the name."""
    if fb_type not in BUILTIN_FBS:
        return False
    user = prog.lookup_pou(fb_type)
    return user is None or user.kind is not PouKind.FUNCTION_BLOCK


def instantiate(prog: TypedProgram, fb_name: str) -> FbInstance:
    """Create a fresh instance of a function block (or program) with all
    variables at their declared initial values and nested FBs idle."""
    return _instantiate(prog, fb_name.upper(), ())


def _instantiate(prog: TypedProgram, fb_name: str, path: tuple[str, ...]) -> FbInstance:
    info = prog.lookup_pou(fb_name)
    if info is None or info.kind is PouKind.FUNCTION:
        raise UnknownPou(f"no function block or program named {fb_name}")
    if fb_name in path:
        raise UnknownPou(f"recursive instantiation of {fb_name}")
    inst = FbInstance(prog, info)
    for var_name, fb_type in info.fb_instances.items():
        if _is_builtin_fb(prog, fb_type):
            inst.nested[var_name] = make_builtin(fb_type)
        else:
            inst.nested[var_name] = _instantiate(prog, fb_type, path + (fb_name,))
    return inst


# ---------------------------------------------------------------------------
# Run state and faults
# ---------------------------------------------------------------------------

class _Scan:
    """Mutable state of one run, passed to every closure.  `prog` is the
    program the run resolves POU names in; `counts` maps a POU name to its
    count array and lives for the whole run; the other fields restart with
    each scan.  `spare` is what contained faults may still give back to the
    budget in this scan.  `last` is the site a FOR iteration's budget fault
    is attributed to: the last one hit in the loop's frame."""

    __slots__ = ("prog", "counts", "budget", "spare", "now", "depth", "loops", "last")

    def __init__(self, prog: TypedProgram):
        self.prog = prog
        self.counts: dict[str, list[int]] = {}
        self.budget = 0
        self.spare = 0
        self.now = 0
        self.depth = 0
        self.loops = 0
        self.last = None

    def begin(self, now: int) -> None:
        self.budget = _SCAN_SITE_BUDGET
        self.spare = _SPARE_BUDGETS * _SCAN_SITE_BUDGET
        self.now = now
        self.depth = 0
        self.loops = 0

    def refund(self, budget: int) -> None:
        """Give back what was spent since the budget stood at `budget`, as
        far as the scan's spare allows."""
        back = min(budget - self.budget, self.spare)
        self.spare -= back
        self.budget += back

    def sites(self) -> int:
        """Statement sites executed in this scan so far."""
        granted = (1 + _SPARE_BUDGETS) * _SCAN_SITE_BUDGET - self.spare
        return granted - self.budget - self.loops


class _ExitLoop(Exception):
    pass


class _ReturnPou(Exception):
    pass


class _Trap(Exception):
    """An expression fault; the enclosing statement attributes it."""


_TRAPS = (_Trap, BuiltinFuncError)


def _fault(site: tuple[str, int, Span], cause) -> RuntimeFault:
    pou, sid, span = site
    return RuntimeFault(str(cause), pou, sid, span)


def _store_conv(src: T.STType | None, dst: T.STType):
    """The raw conversion a store of `src` into a `dst` slot needs, or None
    when the raw value is stored as is.  A scalar of another type is
    coerced as `V.make` would; an ARRAY is copied, since its list belongs
    to the store it was read from."""
    if src != dst:
        return V.coercer(dst)
    return list if dst.kind is T.Kind.ARRAY else None


# ---------------------------------------------------------------------------
# Compiled POUs
# ---------------------------------------------------------------------------

def _pou(prog: TypedProgram, name: str) -> "_Pou":
    """The compiled POU `name` resolves to in prog, cached on prog.  Nothing
    in the cache refers back to prog, so a finished run is freed at once."""
    cache = prog.runtime_cache
    if cache is None:
        cache = prog.runtime_cache = {}
    pou = cache.get(name)
    if pou is None:
        pou = cache[name] = _Pou(prog.lookup_pou(name))
    return pou


class _Pou:
    """One POU: its body, compiled on first execution, and what a caller
    needs to set up its frame."""

    __slots__ = ("info", "name", "index", "temps", "initial", "copies", "body")

    def __init__(self, info: PouInfo):
        self.info = info
        self.name = info.name
        self.index = {node.sid: i for i, node in enumerate(info.sites)}
        self.temps = {
            v.name: V.zero(v.ty) for v in info.vars.values() if v.section is Section.TEMP
        }
        self.initial = _initial_store(info) if info.kind is PouKind.FUNCTION else None
        # the ARRAYs of what a function frame (or else a TEMP reset) starts
        # from: each start copies them, so that no two stores share a list
        start = self.temps if self.initial is None else self.initial
        self.copies = tuple(name for name, raw in start.items() if isinstance(raw, list))
        self.body = None

    def reset_temps(self, store: dict) -> None:
        """Set a store's TEMP variables to their zeros."""
        store.update(self.temps)
        for name in self.copies:
            store[name] = list(store[name])

    def frame(self) -> dict:
        """A new function frame, every variable at its initial value."""
        frame = dict(self.initial)
        for name in self.copies:
            frame[name] = list(frame[name])
        return frame

    def code(self, prog: TypedProgram) -> tuple:
        body = self.body
        if body is None:
            body = self.body = _Compiler(self, prog).block(self.info.decl.body, False)
        return body

    def counts(self, scan: _Scan) -> list[int]:
        cnt = scan.counts.get(self.name)
        if cnt is None:
            cnt = scan.counts[self.name] = [0] * len(self.index)
        return cnt

    def run(self, store: dict, nested: dict, scan: _Scan) -> None:
        body = self.body
        if body is None:
            body = self.code(scan.prog)
        cnt = scan.counts.get(self.name)
        if cnt is None:
            cnt = self.counts(scan)
        try:
            for st in body:
                st(store, nested, cnt, scan)
        except _ReturnPou:
            pass

    def hits(self, cnt: list[int]) -> dict[int, int]:
        return dict(zip(self.index, cnt))


_NO_NESTED: dict = {}

_COMPARE = {
    N.BinOp.EQ: operator.eq,
    N.BinOp.NE: operator.ne,
    N.BinOp.LT: operator.lt,
    N.BinOp.LE: operator.le,
    N.BinOp.GT: operator.gt,
    N.BinOp.GE: operator.ge,
}


def _binop(op: N.BinOp, ty: T.STType) -> Callable[[object, object], object]:
    """The raw function computing `a op b` with a result of type ty."""
    if op in _COMPARE:
        return _COMPARE[op]
    if op in (N.BinOp.AND, N.BinOp.OR, N.BinOp.XOR):
        if ty.kind is T.Kind.BOOL:
            if op is N.BinOp.AND:
                return lambda a, b: bool(a and b)
            if op is N.BinOp.OR:
                return lambda a, b: bool(a or b)
            return operator.ne
        co = V.coercer(ty)
        bit = {N.BinOp.AND: operator.and_, N.BinOp.OR: operator.or_, N.BinOp.XOR: operator.xor}[op]
        return lambda a, b: co(bit(a, b))
    co = V.coercer(ty)
    if op is N.BinOp.ADD:
        return lambda a, b: co(a + b)
    if op is N.BinOp.SUB:
        return lambda a, b: co(a - b)
    if op is N.BinOp.MUL:
        return lambda a, b: co(a * b)
    if op is N.BinOp.DIV:
        if ty.kind in (T.Kind.INT, T.Kind.DINT, T.Kind.TIME):
            def idiv(a, b):
                if b == 0:
                    raise _Trap("division by zero")
                q = a // b
                if a % b != 0 and (a < 0) != (b < 0):
                    q += 1  # truncate toward zero
                return co(q)
            return idiv

        def fdiv(a, b):
            if b == 0.0:
                if a == 0.0:
                    return co(float("nan"))
                return co(math.copysign(1.0, a) * math.copysign(1.0, b) * float("inf"))
            return co(a / b)
        return fdiv
    if op is N.BinOp.MOD:
        def mod(a, b):
            if b == 0:
                raise _Trap("MOD by zero")
            q = a // b
            if a % b != 0 and (a < 0) != (b < 0):
                q += 1
            return co(a - q * b)
        return mod
    if op is N.BinOp.POW:
        def power(a, b):
            try:
                return co(float(a) ** float(b))
            except OverflowError:
                return co(float("inf"))
            except (ValueError, ZeroDivisionError):
                return co(float("nan"))
        return power
    raise TypeError(f"unhandled operator {op}")  # pragma: no cover


class _Compiler:
    """Compiles one POU body into statement closures.

    A statement closure is `run(store, nested, cnt, scan)`; an expression
    closure is `ev(store, nested, scan)` and returns a raw value.  With
    `track` set (sites inside a FOR body), a site records itself in
    `scan.last` once its own evaluation is done."""

    def __init__(self, pou: _Pou, prog: TypedProgram):
        self.pou = pou
        self.prog = prog
        self.vars = pou.info.vars
        self.fbs = pou.info.fb_instances

    def site(self, node) -> tuple[int, tuple[str, int, Span]]:
        """A site node's slot in the count list and its fault location."""
        return self.pou.index[node.sid], (self.pou.name, node.sid, N.site_span(node))

    def block(self, body: list[N.Stmt], track: bool) -> tuple:
        return tuple(self.stmt(st, track) for st in body)

    # -- statements -----------------------------------------------------------

    def stmt(self, st: N.Stmt, track: bool):
        if isinstance(st, N.Assign):
            return self.assign(st, track)
        if isinstance(st, N.FbCall):
            return self.fb_call(st, track)
        if isinstance(st, (N.ExitStmt, N.ReturnStmt)):
            return self.jump(st, track)
        if isinstance(st, N.IfStmt):
            return self.if_stmt(st, track)
        if isinstance(st, N.CaseStmt):
            return self.case_stmt(st, track)
        if isinstance(st, N.ForStmt):
            return self.for_stmt(st, track)
        if isinstance(st, N.WhileStmt):
            return self.while_stmt(st, track)
        if isinstance(st, N.RepeatStmt):
            return self.repeat_stmt(st, track)
        raise TypeError(f"unhandled statement {st!r}")  # pragma: no cover

    def assign(self, st: N.Assign, track: bool):
        i, site = self.site(st)
        value = self.expr(st.value)
        put = self.target(st.target, st.value.ty)

        def run(store, nested, cnt, scan):
            cnt[i] += 1
            scan.budget -= 1
            if scan.budget <= 0:
                raise _fault(site, _BUDGET_MSG)
            try:
                put(store, nested, scan, value(store, nested, scan))
            except _TRAPS as exc:
                raise _fault(site, exc) from None
            if track:
                scan.last = site
        return run

    def fb_call(self, st: N.FbCall, track: bool):
        i, site = self.site(st)
        iname = st.instance
        fb_type = self.fbs[iname]
        builtin = _is_builtin_fb(self.prog, fb_type)
        if builtin:
            slots = BUILTIN_FBS[fb_type]
        else:
            callee = _pou(self.prog, fb_type)
            slots = {v.name: (v.ty, v.section) for v in callee.info.vars.values()}
        inputs = [p for p in st.params if not p.is_output]
        ins = tuple((p.name, self.value_for(p.expr, slots[p.name][0])) for p in inputs)
        # after the call, IN_OUT arguments are written back, then the outputs
        back = [p for p in inputs if slots[p.name][1] is Section.IN_OUT]
        back += [p for p in st.params if p.is_output]
        outs = tuple((p.name, self.target(p.expr, slots[p.name][0])) for p in back)

        if builtin:
            def run(store, nested, cnt, scan):
                cnt[i] += 1
                scan.budget -= 1
                if scan.budget <= 0:
                    raise _fault(site, _BUDGET_MSG)
                fb = nested[iname]
                fstore = fb.store
                try:
                    for name, ev in ins:
                        fstore[name] = ev(store, nested, scan)
                    fb.step(scan.now)
                    for name, put in outs:
                        put(store, nested, scan, fstore[name])
                except _TRAPS as exc:
                    raise _fault(site, exc) from None
                if track:
                    scan.last = site
            return run

        temps = callee.temps
        segment = "." + iname

        def run(store, nested, cnt, scan):
            cnt[i] += 1
            scan.budget -= 1
            if scan.budget <= 0:
                raise _fault(site, _BUDGET_MSG)
            fb = nested[iname]
            fstore = fb.store
            try:
                for name, ev in ins:
                    fstore[name] = ev(store, nested, scan)
            except _TRAPS as exc:
                raise _fault(site, exc) from None
            if temps:
                callee.reset_temps(fstore)
            scan.depth += 1
            try:
                if scan.depth > _MAX_CALL_DEPTH:
                    raise _fault(site, "call depth exceeded")
                try:
                    callee.run(fstore, fb.nested, scan)
                except RuntimeFault as fault:
                    fault.instance_path = segment + fault.instance_path
                    raise
                except RecursionError:
                    raise _fault(site, _STACK_MSG) from None
            finally:
                scan.depth -= 1
            try:
                for name, put in outs:
                    put(store, nested, scan, fstore[name])
            except _TRAPS as exc:
                raise _fault(site, exc) from None
            if track:
                scan.last = site
        return run

    def jump(self, st, track: bool):
        i, site = self.site(st)
        signal = _ExitLoop if isinstance(st, N.ExitStmt) else _ReturnPou

        def run(store, nested, cnt, scan):
            cnt[i] += 1
            scan.budget -= 1
            if scan.budget <= 0:
                raise _fault(site, _BUDGET_MSG)
            if track:
                scan.last = site
            raise signal
        return run

    def if_stmt(self, st: N.IfStmt, track: bool):
        branches = tuple(
            (*self.site(br), self.expr(br.cond), self.block(br.body, track))
            for br in st.branches
        )
        else_body = self.block(st.else_body, track)

        def run(store, nested, cnt, scan):
            for i, site, cond, body in branches:
                cnt[i] += 1
                scan.budget -= 1
                if scan.budget <= 0:
                    raise _fault(site, _BUDGET_MSG)
                try:
                    taken = cond(store, nested, scan)
                except _TRAPS as exc:
                    raise _fault(site, exc) from None
                if track:
                    scan.last = site
                if taken:
                    for s in body:
                        s(store, nested, cnt, scan)
                    return
            for s in else_body:
                s(store, nested, cnt, scan)
        return run

    def case_stmt(self, st: N.CaseStmt, track: bool):
        i, site = self.site(st)
        selector = self.expr(st.selector)
        else_body = self.block(st.else_body, track)
        arms = []
        for br in st.branches:
            body = self.block(br.body, track)
            arms.extend((lab.lo, lab.hi, body) for lab in br.labels)

        def run(store, nested, cnt, scan):
            cnt[i] += 1
            scan.budget -= 1
            if scan.budget <= 0:
                raise _fault(site, _BUDGET_MSG)
            try:
                sel = selector(store, nested, scan)
            except _TRAPS as exc:
                raise _fault(site, exc) from None
            if track:
                scan.last = site
            for lo, hi, body in arms:
                if lo <= sel <= hi:
                    break  # the first matching branch wins
            else:
                body = else_body  # no match, no ELSE: no-op
            for s in body:
                s(store, nested, cnt, scan)
        return run

    def for_stmt(self, st: N.ForStmt, track: bool):
        i, site = self.site(st)
        var = st.var
        ty = self.vars[var].ty
        kind = ty.kind
        first = self.value_for(st.start, ty)
        stop = self.expr(st.stop)
        step = self.expr(st.step) if st.step is not None else None
        body = self.block(st.body, True)

        def run(store, nested, cnt, scan):
            cnt[i] += 1
            scan.budget -= 1
            if scan.budget <= 0:
                raise _fault(site, _BUDGET_MSG)
            try:
                cur = first(store, nested, scan)
                limit = stop(store, nested, scan)
                inc = step(store, nested, scan) if step is not None else 1
                if inc == 0:
                    raise _Trap("FOR step is zero")
            except _TRAPS as exc:
                raise _fault(site, exc) from None
            scan.last = site
            try:
                while (cur <= limit) if inc > 0 else (cur >= limit):
                    store[var] = cur
                    for s in body:
                        s(store, nested, cnt, scan)
                    cur = V.wrap_int(store[var] + inc, kind)
                    scan.loops += 1
                    scan.budget -= 1
                    if scan.budget <= 0:
                        raise _fault(scan.last, _BUDGET_MSG)
            except _ExitLoop:
                pass
        return run

    def while_stmt(self, st: N.WhileStmt, track: bool):
        i, site = self.site(st)
        cond = self.expr(st.cond)
        body = self.block(st.body, track)

        def run(store, nested, cnt, scan):
            try:
                while True:
                    cnt[i] += 1
                    scan.budget -= 1
                    if scan.budget <= 0:
                        raise _fault(site, _BUDGET_MSG)
                    try:
                        go = cond(store, nested, scan)
                    except _TRAPS as exc:
                        raise _fault(site, exc) from None
                    if track:
                        scan.last = site
                    if not go:
                        return
                    for s in body:
                        s(store, nested, cnt, scan)
            except _ExitLoop:
                pass
        return run

    def repeat_stmt(self, st: N.RepeatStmt, track: bool):
        i, site = self.site(st)
        until = self.expr(st.until)
        body = self.block(st.body, track)

        def run(store, nested, cnt, scan):
            try:
                while True:
                    for s in body:
                        s(store, nested, cnt, scan)
                    cnt[i] += 1
                    scan.budget -= 1
                    if scan.budget <= 0:
                        raise _fault(site, _BUDGET_MSG)
                    try:
                        done = until(store, nested, scan)
                    except _TRAPS as exc:
                        raise _fault(site, exc) from None
                    if track:
                        scan.last = site
                    if done:
                        return
            except _ExitLoop:
                pass
        return run

    # -- stores ----------------------------------------------------------------

    def target(self, e: N.Expr, src_ty: T.STType):
        """Writer `put(store, nested, scan, raw)` for an assignment target
        receiving a raw value of type src_ty."""
        if isinstance(e, N.VarRef):
            name = e.name
            ty = self.vars[name].ty
            conv = _store_conv(src_ty, ty)
            if conv is None:
                def put(store, nested, scan, raw):
                    store[name] = raw
            else:
                def put(store, nested, scan, raw):
                    store[name] = conv(raw)
            return put
        if isinstance(e, N.IndexRef):
            name = e.base.name
            arr_ty = self.vars[name].ty
            lo, hi = arr_ty.lo, arr_ty.hi
            index = self.expr(e.index)
            conv = _store_conv(src_ty, arr_ty.elem) or (lambda raw: raw)

            def put(store, nested, scan, raw):
                idx = index(store, nested, scan)
                if not lo <= idx <= hi:
                    raise _Trap(f"array index {idx} outside {lo}..{hi}")
                store[name][idx - lo] = conv(raw)
            return put
        raise TypeError(f"invalid assignment target {e!r}")  # pragma: no cover

    def value_for(self, e: N.Expr, dst: T.STType):
        """Expression closure whose raw result is converted for a dst slot."""
        ev = self.expr(e)
        conv = _store_conv(e.ty, dst)
        if conv is None:
            return ev
        if isinstance(e, N.Literal):
            c = conv(ev(None, None, None))
            return lambda store, nested, scan: c
        return lambda store, nested, scan: conv(ev(store, nested, scan))

    # -- expressions -------------------------------------------------------------

    def expr(self, e: N.Expr):
        if isinstance(e, N.Literal):
            c = V.coercer(e.ty)(e.value)
            return lambda store, nested, scan: c
        if isinstance(e, N.VarRef):
            name = e.name
            return lambda store, nested, scan: store[name]
        if isinstance(e, N.MemberRef):
            base, member = e.base.name, e.member
            return lambda store, nested, scan: nested[base].store[member]
        if isinstance(e, N.IndexRef):
            name = e.base.name
            arr_ty = self.vars[name].ty
            lo, hi = arr_ty.lo, arr_ty.hi
            index = self.expr(e.index)

            def ev(store, nested, scan):
                idx = index(store, nested, scan)
                if not lo <= idx <= hi:
                    raise _Trap(f"array index {idx} outside {lo}..{hi}")
                return store[name][idx - lo]
            return ev
        if isinstance(e, N.Unary):
            return self.unary(e)
        if isinstance(e, N.Binary):
            return self.binary(e)
        if isinstance(e, N.Call):
            return self.call(e)
        raise TypeError(f"unhandled expression {e!r}")  # pragma: no cover

    def unary(self, e: N.Unary):
        operand = self.expr(e.operand)
        if e.op is N.UnOp.NOT and e.ty.kind is T.Kind.BOOL:
            return lambda store, nested, scan: not operand(store, nested, scan)
        co = V.coercer(e.ty)
        if e.op is N.UnOp.NOT:
            return lambda store, nested, scan: co(~operand(store, nested, scan))
        if e.op is N.UnOp.NEG:
            return lambda store, nested, scan: co(-operand(store, nested, scan))
        return lambda store, nested, scan: co(operand(store, nested, scan))

    def binary(self, e: N.Binary):
        fn = _binop(e.op, e.ty)
        left = self.expr(e.left)
        right = self.expr(e.right)
        return lambda store, nested, scan: fn(left(store, nested, scan), right(store, nested, scan))

    def call(self, e: N.Call):
        info = self.prog.lookup_pou(e.name)
        if info is not None and info.kind is PouKind.FUNCTION:
            return self.call_function(e)
        args = tuple(self.expr(a) for a in e.args)
        impl = builtin_impl(e.name, [a.ty for a in e.args], e.ty)
        return lambda store, nested, scan: impl(*[a(store, nested, scan) for a in args])

    def call_function(self, e: N.Call):
        callee = _pou(self.prog, e.name)
        fname = callee.name
        params = [v for v in callee.info.vars.values() if v.section is Section.INPUT]
        args = tuple((p.name, self.value_for(a, p.ty)) for p, a in zip(params, e.args))
        segment = f"/{fname}()"

        def ev(store, nested, scan):
            scan.depth += 1
            try:
                if scan.depth > _MAX_CALL_DEPTH:
                    raise _Trap("call depth exceeded")
                frame = callee.frame()
                for name, arg in args:
                    frame[name] = arg(store, nested, scan)
                try:
                    callee.run(frame, _NO_NESTED, scan)
                except RuntimeFault as fault:
                    fault.instance_path = segment + fault.instance_path
                    raise
                except RecursionError:
                    raise _Trap(_STACK_MSG) from None
                return frame[fname]
            finally:
                scan.depth -= 1
        return ev


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def _run_instance(inst: FbInstance, scan: _Scan) -> None:
    """One scan of an instance's body, its TEMP variables reset first."""
    pou = _pou(inst.prog, inst.fb_type)
    if pou.temps:
        pou.reset_temps(inst.store)
    try:
        pou.run(inst.store, inst.nested, scan)
    except RuntimeFault as fault:
        fault.instance_path = inst.fb_type + fault.instance_path
        raise


def execute_cycle(
    inst: FbInstance,
    inputs: dict[str, V.Value],
    clock: SimClock,
) -> tuple[dict[str, V.Value], dict[str, dict[int, int]]]:
    """Apply inputs, run one scan, snapshot outputs, then advance the clock.

    Retained variables persist in `inst` between calls.  Raises ValueError
    for undeclared input names or un-assignable input types (precondition
    violations, not runtime faults).  Also returns the scan's hit counts
    per POU it ran, as RunResult.counts holds them for a run: statement id
    -> times executed, zero counts included.
    """
    for name, val in inputs.items():
        var = inst.info.vars.get(name.upper())
        if var is None or var.section is not Section.INPUT:
            raise ValueError(f"{inst.fb_type} has no input {name}")
        try:
            inst.store[var.name] = V.unbox(V.convert_for_store(val, var.ty))
        except TypeError as exc:
            raise ValueError(f"input {name}: {exc}") from exc
    scan = _Scan(inst.prog)
    scan.begin(clock.now)
    _run_instance(inst, scan)
    outputs = inst.outputs()
    clock.advance()
    return outputs, {name: _pou(inst.prog, name).hits(cnt) for name, cnt in scan.counts.items()}


@dataclass
class ContainedFault:
    instance: str
    fault: RuntimeFault
    cycle: int


@dataclass
class RunResult:
    instance: FbInstance
    traces: list[ScanTrace]
    faults: list[ContainedFault]
    cycles_executed: int
    # per POU: statement id -> times executed, over the whole run
    counts: dict[str, dict[int, int]] = field(default_factory=dict)


def run_program(
    prog: TypedProgram,
    program_name: str,
    cycles: int,
    clock: SimClock,
    after_scan: Callable[[dict[str, object], list[ContainedFault]], bool] | None = None,
    quarantine: frozenset[str] | set[str] = frozenset(),
) -> RunResult:
    """Run a PROGRAM POU for up to `cycles` scans.

    After each scan, before the clock advances, `after_scan` gets the
    program's store and the faults contained in that scan; the run stops
    once it returns true.  Faults raised inside quarantined instances (by
    store name in the program) stop only that instance; everything else
    keeps running.  The sites the stopped call executed are given back to
    the scan's budget while the scan's spare lasts, so one runaway instance
    does not fault the statements after it, yet a scan stays bounded.
    Faults outside quarantined scopes propagate with the cycle attached.
    """
    info = prog.lookup_pou(program_name.upper())
    if info is None or info.kind is not PouKind.PROGRAM:
        raise UnknownPou(f"no program named {program_name}")
    inst = instantiate(prog, program_name)
    pou = _pou(prog, inst.fb_type)
    quarantine = frozenset(quarantine)
    # each top-level statement, with the instance it stops on a fault
    body = [
        (run, st.instance if isinstance(st, N.FbCall) and st.instance in quarantine else None)
        for run, st in zip(pou.code(prog), info.decl.body)
    ]
    store, nested, root = inst.store, inst.nested, inst.fb_type
    dead: set[str] = set()
    contained: list[ContainedFault] = []
    scan = _Scan(prog)
    cnt = pou.counts(scan)
    traces: list[ScanTrace] = []
    cycles_executed = 0

    for cycle in range(cycles):
        scan.begin(clock.now)
        if pou.temps:
            pou.reset_temps(store)
        first = len(contained)
        try:
            for run, guard in body:
                if guard is None:
                    run(store, nested, cnt, scan)
                elif guard not in dead:
                    budget = scan.budget
                    try:
                        run(store, nested, cnt, scan)
                    except RuntimeFault as fault:
                        # the frames the fault unwound refer back to this
                        # run; keeping them would make the run a cycle
                        fault.__traceback__ = fault.__context__ = None
                        fault.instance_path = root + fault.instance_path
                        fault.cycle = cycle
                        dead.add(guard)
                        contained.append(ContainedFault(guard, fault, cycle))
                        scan.refund(budget)
        except _ReturnPou:
            pass
        except RuntimeFault as fault:
            fault.instance_path = root + fault.instance_path
            fault.cycle = cycle
            raise
        traces.append(ScanTrace(scan.sites()))
        stop = after_scan is not None and after_scan(store, contained[first:])
        clock.advance()
        cycles_executed = cycle + 1
        if stop:
            break

    counts = {name: _pou(prog, name).hits(c) for name, c in scan.counts.items()}
    return RunResult(inst, traces, contained, cycles_executed, counts)
