"""Cyclic scan interpreter: each resolved ST statement list runs as one
generated Python function.

One scan runs a POU body exactly once.  The clock is frozen during a scan
(every timer invoked in a scan sees the same `now`) and advances by the
configured cycle time after the scan completes.  run_program starts each
scan with plain stores into its run state, and it and execute_cycle
advance the clock with one store, `clock.now += clock.cycle_time`.

Each POU body is compiled on its first execution, as bounded or as
checked code (below), and cached on the TypedProgram per mode.  Every
statement list (a body, an IF branch or ELSE, a CASE arm or ELSE, a loop
body) becomes one function `run(store, nested, cnt, scan)` that runs its
statements inline, with their expressions inlined as Python operators
and the INT/DINT wrap and binary32 rounding (`V.f32`'s Veltkamp split,
calling it only outside the normal range) written out.  So is each
conversion with a written-out form (`stdfuncs.conversion_form`): a
widening is its argument, an exact one `float(x)`, one into REAL from
an LREAL or a DINT is rounded to binary32 as a REAL result is, and a
range check is `(x if lo <= (x := ...) <= hi else k(x))`, where k, the
conversion's function, runs only to raise its fault at the statement's
site.  A CASE whose labels are single values, spanning fewer than twice
as many values as there are labels, indexes a tuple built once, when
the list is generated, holding each value's first arm and the ELSE in
the holes; any other CASE scans its arms in order.  A statement's
sub-bodies are functions of their own, which it calls directly, and so
is a user FB's body, which its call site runs itself; so ST nesting never
becomes Python nesting.  A list longer than 32 statements runs as chunks
of at most 32, each its own function, so that no generated function
grows with the list.  A PROGRAM's top-level FbCalls stay functions of
their own, and only the statements between them are fused, so that
run_program can contain a fault per call.  A list's function returns how
it ended, as CPython's eval loop did up to 3.7 (`why` in ceval.c): None
when it falls through, 1 for EXIT and 2 for RETURN.  A statement calling
a list that can signal passes the signal on, but a loop breaks on 1;
run_program ends the scan on 2, and an FB or function call drops it, as
a RETURN ends only its POU.  The function is made by a factory `make(k0,
..., kn, info)` whose parameters carry every name, literal, count slot,
callee, built-in function, sub-body and CASE table, and `info`, the
POU's PouInfo,
so no user text enters generated source, and lists that differ only in
those values share one source.  The factory hands the values on as the
function's positional defaults, `run(store, nested, cnt, scan, k0=k0,
..., info=info)`, which no caller passes: they are kept in one tuple and
read as locals, where closure variables would cost a cell each and a
dereference per read.  One walk over a list collects those values and
builds its shape: a small hashable key recording only what the source
depends on (the mode, node kinds and operators, the result kinds whose
wrap is written out, the forms of written-out conversions, converting
stores, CASEs dispatched by table, empty sub-bodies and ELSEs,
calls that can signal, a FOR without BY, built-in or user blocks and a
callee's TEMPs, recursive calls, and whether sites are tracked).
Factories are kept in a bounded cache keyed by shape, as `re` keeps its
patterns; on a miss the source is rendered from the shape alone and
compiled once per process, as `collections.namedtuple` compiles its
classes.  So a list costs one walk and a lookup, not a source text.  A
generated function holds no run state: the store, the nested instances,
the count array and the run state (`_Scan`: program, counts, budget,
clock, call depth) are passed in, so scans and threads share it.

Names: a built-in block's or function's name always means the built-in
(resolve rejects a user POU taking one), so a call site runs a built-in
exactly when its name is one; any other name is looked up in the run's
program.

Values: expressions evaluate to raw python values (bool, int, float, str,
or a list of raw elements for an ARRAY), and every store (an instance's,
a built-in block's, TEMP initial values and function frames) maps a
variable to its raw value; its type is the declared one.  `Value`s are built only at
the boundary: `execute_cycle` unboxes its inputs into fresh lists and
stores them as generated code does (`T.assignable`, `_store_conv`), and
`FbInstance.outputs()` boxes what it returns.  Each store owns its ARRAY
lists, so an element store writes in place: a list is copied where it
would otherwise become shared, which the generator knows at each site (a
whole-array store, a same-typed array FB input, IN_OUT argument or
function argument, a TEMP reset from `_Pou.temps` and a function frame
from `_Pou.initial`).

Memory: a run builds no reference cycles.  Stores hold raw values and
lists of them, which refer to nothing.  The generated functions are
cached on the TypedProgram they were made for and refer to nothing that
refers back to it; the cached factories and their shapes refer only to
this module and its enums; a recursive call names its callee rather
than holding it (`_Gen.call`).  So a finished run, its AST and its
generated functions are freed by reference counting as soon as the last
reference goes, without the cyclic garbage collector.  The CLI relies on this and
pauses that collector while it works on a unit.  A run's size grows with
its sites and lists, so what each costs is kept small: a generated
function holds its values in its defaults tuple, with no closure cell,
and a POU keeps only what its frames and calls need once its body is
generated.  No map from a site's sid to its count slot is kept: the slot
is the sid less the POU's first, as `assign_statement_ids` numbers a
POU's sites consecutively.

Coverage: slot i of a POU's count array counts the executions of
`PouInfo.sites[i]`; these arrays are the run's coverage record, handed to
`coverage` as they are.  Guard sites (IF/ELSIF conditions, CASE
selectors, loop headers) count once per evaluation.  A statement list
runs all its statements unless a raise or a signal leaves it, so a list
of two or more counts once per run, yet each site's count stays exact
(after Ball and Larus, "Optimally Profiling and Tracing Programs",
TOPLAS 1994): see `_Text.seq`.  Settling is linear in the raw counts, so
run_program credits what one replay of a finished instance's entries
counted (below) to the raw arrays, once per scan that skips them, before
settling: the program's slots from the instance's call up to the next
call, and the arrays of the POUs the entries called.

Budget and depth: each site also spends one unit of the scan's 1M-site
budget, as does each FOR iteration; run_program gives what a contained
fault's call spent back, up to three more budgets per scan.  Calls nest
at most 64 deep.  A run tests these limits only where they can be
reached.  `_bound` gives, per POU, an upper bound on one execution of its
body: the sites it can run (its own, each at most once, plus its
callees' bounds, once per FB call site and per function call) and how
deep its calls can nest, or None for a POU with a loop, one calling such
a POU, and recursion.  When the root's bound stays below the budget and
within the depth limit, no scan can reach either, so the run uses
bounded code: every site still spends its unit, so that site totals and
refunds are exact, but none tests the budget, and no call counts depth.
Otherwise the run uses checked code, which tests the budget at each site
and the depth at each call.  This is bounds-check elimination (Bodik,
Gupta and Sarkar, PLDI 2000) over a whole scan.  In bounded code whose
PROGRAM body cannot RETURN, run_program replays an instance its caller
declares finished once, with the statements after its call, and then
stops running them: each scan spends the units the replay spent with one
subtraction at its start, since no site tests the budget, so where in the
scan they are spent cannot matter.  Checked code and a body that can
RETURN run finished instances as any other.

Faults are attributed on the exception path: each statement turns an
expression fault into a RuntimeFault at its own site, named by its count
slot, whose node (`PouInfo.sites[slot]`) and span are looked up only for
a fault, and each call frame it unwinds through prepends its instance
path segment, built from the callee's or instance's name then.  A chain
of calls that exhausts Python's recursion limit becomes the fault "call
stack too deep" at the innermost call site with room to raise it.
"""

from __future__ import annotations

import functools
import itertools
import operator
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterator

import math

from ..frontend import nodes as N
from ..frontend import types as T
from ..frontend.builtins import BUILTIN_FBS, is_builtin_function
from ..frontend.nodes import PouKind, Section
from ..frontend.resolve import BUILTIN_VARS, PouInfo, TypedProgram
from ..frontend.source import Span
from . import stdfuncs as F
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


class ScanTrace:
    """What run_program keeps of one scan: len() is its site count."""

    __slots__ = ("sites",)

    def __init__(self, sites: int):
        self.sites = sites

    def __len__(self) -> int:
        return self.sites


def _initial_store(variables) -> dict[str, object]:
    """A store of `variables` (VarInfos), each at its declared initial value."""
    store: dict[str, object] = {}
    for var in variables:
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

    def __init__(self, prog: TypedProgram, info: PouInfo):
        self.prog = prog
        self.info = info
        self.fb_type = info.name
        self.store: dict[str, object] = _initial_store(info.vars.values())
        self.nested: dict[str, FbInstance | BuiltinInstance] = {}

    def outputs(self) -> dict[str, V.Value]:
        return {v.name: V.box(v.ty, self.store[v.name]) for v in self.info.outputs()}


def instantiate(prog: TypedProgram, fb_name: str) -> FbInstance:
    """Create a fresh instance of a function block (or program) with all
    variables at their declared initial values and nested FBs idle.

    The instance tree is built depth-first by a loop, not by recursion, so
    a chain of FB types longer than Python's stack is deep still builds.
    The tree is finite: resolving rejects an FB whose instance tree holds
    the FB itself (`resolve.check_instances`)."""
    root = {}
    # (the store holding the instance, its name there, its FB type), in
    # the order a recursive walk would visit them
    todo = [(root, None, fb_name.upper())]
    while todo:
        owner, var_name, name = todo.pop()
        info = prog.lookup_pou(name)
        if info is None or info.kind is PouKind.FUNCTION:
            raise UnknownPou(f"no function block or program named {name}")
        inst = owner[var_name] = FbInstance(prog, info)
        children = []
        for var, fb_type in info.fb_instances.items():
            if fb_type in BUILTIN_FBS:
                inst.nested[var] = make_builtin(fb_type)
            else:
                inst.nested[var] = None  # filled in below, keeping the declaration order
                children.append((inst.nested, var, fb_type))
        todo += reversed(children)
    return root[None]


# ---------------------------------------------------------------------------
# Run state and faults
# ---------------------------------------------------------------------------

class _Scan:
    """Mutable state of one run, passed to every generated function.
    `prog` is the program the run resolves POU names in; `counts` maps a
    POU name to its count array and lives for the whole run; the other
    fields restart with each scan.  Every site spends one unit of `budget`
    in either mode, so a scan's site count is exact; only checked code
    tests it.  `spare` is what contained faults may still give back to the
    budget in this scan.  `depth` counts the calls in progress in checked
    code; a fault leaves the calls it abandons counted, and run_program
    resets it when it contains the fault.  `last` is the slot of the site
    a FOR iteration's budget fault is attributed to: the last one hit in
    the loop's frame, in the FOR's POU.  `ran` holds each array's POU."""

    __slots__ = ("prog", "counts", "ran", "budget", "spare", "now", "depth", "loops", "last")

    def __init__(self, prog: TypedProgram, now: int):
        """A run whose first scan starts at time `now`; run_program starts
        each later scan with plain stores."""
        self.prog = prog
        self.counts: dict[str, list[int]] = {}
        self.ran: list[_Pou] = []
        self.budget = _SCAN_SITE_BUDGET
        self.spare = _SPARE_BUDGETS * _SCAN_SITE_BUDGET
        self.now = now
        self.depth = 0
        self.loops = 0
        self.last = None

    def refund(self, budget: int) -> None:
        """Give back what was spent since the budget stood at `budget`, as
        far as the scan's spare allows."""
        back = min(budget - self.budget, self.spare)
        self.spare -= back
        self.budget += back

    def settle(self) -> dict[str, list[int]]:
        """The run's count arrays, with each fused list's count, its first
        head's, added into its later heads' slots (`_Text.seq`)."""
        for pou in self.ran:
            cnt = self.counts[pou.name]
            pairs = iter(pou.fused)
            for later, first in zip(pairs, pairs):
                cnt[later] += cnt[first]
        self.ran = []
        return self.counts


class _Trap(Exception):
    """An expression fault; the enclosing statement attributes it."""


_TRAPS = (_Trap, BuiltinFuncError)


def _fault(info: PouInfo, slot: int, cause) -> RuntimeFault:
    """The fault `cause` at the site of count slot `slot` of the POU `info`."""
    node = info.sites[slot]
    return RuntimeFault(str(cause), info.name, node.sid, N.site_span(node))


def _store_conv(src: T.STType | None, dst: T.STType):
    """The raw conversion a store of `src` into a `dst` slot needs, or None
    when the raw value is stored as is.  A scalar of another type is
    coerced as `V.make` would; an ARRAY is copied, since its list belongs
    to the store it was read from."""
    if src is not dst and src != dst:
        return V.coercer(dst)
    return list if dst.kind is T.Kind.ARRAY else None


# ---------------------------------------------------------------------------
# Compiled POUs
# ---------------------------------------------------------------------------

class _Cache:
    """What the interpreter keeps on a TypedProgram: its compiled POUs by
    (name, bounded) and its POUs' static bounds by name.  Nothing in it
    refers back to the program, so a finished run is freed at once."""

    __slots__ = ("pous", "bounds")

    def __init__(self):
        self.pous: dict[tuple[str, bool], _Pou] = {}
        self.bounds: dict[str, tuple[int, int] | None] = {}


def _cache(prog: TypedProgram) -> _Cache:
    cache = prog.runtime_cache
    if cache is None:
        cache = prog.runtime_cache = _Cache()
    return cache


def _pou(prog: TypedProgram, name: str, bounded: bool = False) -> "_Pou":
    """The POU `name` resolves to in prog, compiled as bounded or checked
    code, cached on prog."""
    pous = _cache(prog).pous
    pou = pous.get((name, bounded))
    if pou is None:
        pou = pous[name, bounded] = _Pou(prog.lookup_pou(name), bounded)
    return pou


_LOOPS = (N.ForStmt, N.WhileStmt, N.RepeatStmt)


def _callees(prog: TypedProgram, name: str) -> tuple[PouInfo, list[str]] | None:
    """The POU `name` resolves to in prog and the user POU each of its user
    FB call sites and user function calls runs, one entry per site or
    call; None for a POU with a loop (or none at all)."""
    info = prog.lookup_pou(name)
    if info is None or any([type(node) in _LOOPS for node in info.sites]):
        return None
    fb_types = [info.fb_instances[node.instance] for node in info.sites if type(node) is N.FbCall]
    return info, [fb_type for fb_type in fb_types if fb_type not in BUILTIN_FBS] + info.calls


def _bound(prog: TypedProgram, name: str) -> tuple[int, int] | None:
    """An upper bound `(sites, depth)` on one execution of the body of the
    POU `name` resolves to in prog, memoised on prog: at most `sites` sites
    run and at most `depth` calls nest inside it.  None for a POU with a
    FOR, WHILE or REPEAT, one that calls such a POU, and recursion.  A
    loop-free body runs each of its sites at most once, each call once."""
    bounds = _cache(prog).bounds
    # a depth-first walk over the calls, a loop, not recursion, since FB
    # chains may be longer than Python's stack is deep; `path` holds the
    # POUs on the walk's path, each with its callees and those left to visit
    path: dict[str, tuple[PouInfo, list[str], Iterator[str]]] = {}
    stack = [name]
    while stack:
        top = stack[-1]
        if top in bounds:
            stack.pop()
            continue
        entry = path.get(top)
        if entry is None:
            found = _callees(prog, top)
            if found is None:
                bounds[top] = None
                continue
            entry = path[top] = (*found, iter(set(found[1])))
        info, callees, left = entry
        callee = next((c for c in left if c not in bounds), None)
        if callee is None:
            parts = [bounds[c] for c in callees]
            bounds[top] = None if None in parts else (
                len(info.sites) + sum([s for s, _ in parts]),
                max([1 + d for _, d in parts], default=0),
            )
        elif callee in path:  # a call back into the path: recursion
            bounds[top] = None
        else:
            stack.append(callee)
            continue
        del path[top]
    return bounds[name]


def _reaches(prog: TypedProgram, start: str, goal: str) -> bool:
    """Whether running the FUNCTION `start` can call the POU `goal`, itself
    or through other calls; a FUNCTION calls FUNCTIONs alone."""
    seen, todo = set(), [start]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo += prog.lookup_pou(name).calls
    return goal in seen


def _bounded(prog: TypedProgram, name: str) -> bool:
    """Whether a scan of the POU `name` runs as bounded code: when no scan
    of it can reach the site budget or the call depth limit, so that no
    budget or depth test could fire.  A scan starts at the full budget,
    refunds only add to it, and its call depth starts at zero."""
    bound = _bound(prog, name)
    return bound is not None and bound[0] < _SCAN_SITE_BUDGET and bound[1] <= _MAX_CALL_DEPTH


class _Pou:
    """One POU compiled as bounded or as checked code: its body, compiled
    on first execution, and what a caller needs to set up its frame."""

    __slots__ = (
        "info", "name", "bounded", "temps", "initial", "params", "copies", "body",
        "entries", "fused",
    )

    def __init__(self, info: PouInfo, bounded: bool):
        self.info = info
        self.name = info.name
        self.bounded = bounded
        self.temps = _initial_store(v for v in info.vars.values() if v.section is Section.TEMP)
        self.initial = _initial_store(info.vars.values()) if info.kind is PouKind.FUNCTION else None
        self.params = tuple(v.name for v in info.inputs())
        # the ARRAYs of what a function frame (or else a TEMP reset) starts
        # from: each start copies them, so that no two stores share a list
        start = self.temps if self.initial is None else self.initial
        self.copies = tuple(name for name, raw in start.items() if isinstance(raw, list))
        self.body = None
        self.entries = None
        # (later head, first head) slot pairs, flat (`_Gen.fused`)
        self.fused: tuple[int, ...] = ()

    def reset_temps(self, store: dict) -> None:
        """Set a store's TEMP variables to their initial values."""
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
        """The compiled body, as entries `(run, first)`: the function
        running a run of the body's statements, and the first of them (None
        for an empty body).  A PROGRAM's top-level FbCalls are entries of
        their own, so that run_program can contain a fault per call; the
        statements between them are fused.  Any other POU's body is one
        entry."""
        entries = self.entries
        if entries is None:
            gen = _Gen(self, prog)
            body = self.info.decl.body
            runs = [body]
            if self.info.kind is PouKind.PROGRAM:
                runs = [[]]
                for st in body:
                    if type(st) is N.FbCall:
                        runs += [[st], []]
                    else:
                        runs[-1].append(st)
                runs = [run for run in runs if run] or [[]]
            entries = self.entries = tuple([(gen.block(run, False)[0], run[0] if run else None) for run in runs])
            self.fused = tuple(gen.fused)
        return entries

    def counts(self, scan: _Scan) -> list[int]:
        """The POU's count array in this run, made on its first use, which
        comes after the body is compiled."""
        cnt = scan.counts.get(self.name)
        if cnt is None:
            cnt = scan.counts[self.name] = [0] * len(self.info.sites)
            scan.ran.append(self)
        return cnt

    def compile(self, prog: TypedProgram) -> Callable:
        """The whole body as one function, compiled on first use."""
        body = self.body
        if body is None:
            runs = [run for run, _ in self.code(prog)]
            body = self.body = runs[0] if len(runs) == 1 else _calls(runs, True)
        return body

    def run(self, store: dict, nested: dict, scan: _Scan) -> None:
        """Run the body once: a function call's, or an instance's scan.  An
        FB call site runs its callee's body itself (`_Text.fb_call`)."""
        (self.body or self.compile(scan.prog))(store, nested, scan.counts.get(self.name) or self.counts(scan), scan)


_NO_NESTED: dict = {}
_DOT = "."  # a user FB call's path segment is _DOT + its instance name
_DEPTH_MSG = "call depth exceeded"
_ZERO_STEP_MSG = "FOR step is zero"
_f32 = V.f32


def _arith(op: N.BinOp, ty: T.STType) -> Callable[[object, object], object]:
    """The raw function computing `a op b` for DIV, MOD or ** with a result
    of type ty.  Only an INT or DINT quotient can overflow its type, and
    only a REAL result is rounded: an LREAL result and a MOD remainder need
    nothing."""
    real32 = ty.kind is T.Kind.REAL
    if op is N.BinOp.DIV:
        if ty.kind in T.SIGNED_INT_KINDS:
            co = V.coercer(ty)

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
                    return math.nan
                return math.copysign(1.0, a) * math.copysign(1.0, b) * math.inf
            return _f32(a / b) if real32 else a / b
        return fdiv
    if op is N.BinOp.MOD:
        def mod(a, b):
            if b == 0:
                raise _Trap("MOD by zero")
            q = a // b
            if a % b != 0 and (a < 0) != (b < 0):
                q += 1
            return a - q * b
        return mod
    if op is N.BinOp.POW:
        def power(a, b):
            try:
                r = math.pow(a, b)
            except OverflowError:  # negative for a negative base to an odd integer power
                return -math.inf if a < 0 and b % 2 == 1 else math.inf
            except ValueError:  # a negative base and a fractional exponent, or 0 ** -y
                return math.nan
            return _f32(r) if real32 else r
        return power
    raise TypeError(f"unhandled operator {op}")  # pragma: no cover


def _oob(i: int, lo: int, hi: int):
    raise _Trap(f"array index {i} outside {lo}..{hi}")


def _frame(scan: _Scan, callee: _Pou) -> dict:
    """A new frame for a call of the user function `callee`, one level of
    call depth deeper."""
    scan.depth += 1
    if scan.depth > _MAX_CALL_DEPTH:
        raise _Trap(_DEPTH_MSG)
    return callee.frame()


def _call(callee: _Pou, scan: _Scan, frame: dict, *args):
    """The result of the user function `callee` run on a new frame and the
    arguments evaluated after it; a fault in it gains `/NAME()` on its path.
    Checked code makes the frame by `_frame`, one level deeper, and gets
    that level back here."""
    frame.update(zip(callee.params, args))
    try:
        callee.run(frame, _NO_NESTED, scan)
    except RuntimeFault as fault:
        fault.instance_path = f"/{callee.name}(){fault.instance_path}"
        raise
    except RecursionError:
        raise _Trap(_STACK_MSG) from None
    if not callee.bounded:
        scan.depth -= 1
    return frame[callee.name]


_CMP = {
    N.BinOp.EQ: "==", N.BinOp.NE: "!=", N.BinOp.LT: "<",
    N.BinOp.LE: "<=", N.BinOp.GT: ">", N.BinOp.GE: ">=",
}
_ARITH = {N.BinOp.ADD: "+", N.BinOp.SUB: "-", N.BinOp.MUL: "*"}
_BITS = {N.BinOp.AND: "&", N.BinOp.OR: "|", N.BinOp.XOR: "^"}
# operators computed by a function parameter, `_arith`'s
_CALLED = frozenset({N.BinOp.DIV, N.BinOp.MOD, N.BinOp.POW})
# the result kinds a shape records: those `_wrap` writes out, and BOOL,
# which NOT and the bit operations spell apart; any other is None
_TEXT_KINDS = {
    k: k for k in (T.Kind.INT, T.Kind.DINT, T.Kind.BYTE, T.Kind.WORD, T.Kind.REAL, T.Kind.BOOL)
}


def _wrap(kind: T.Kind | None, text: str) -> str:
    """Source coercing `text`, a raw sum, difference or product (or, for
    BYTE and WORD, a bit operation) to `kind` as `V.coercer` would; the
    LREAL and TIME results of these operations need nothing.  REAL's
    also rounds a ROUND32 conversion."""
    if kind in T.INT_RANGES:
        lo, hi = T.INT_RANGES[kind]
        return f"(({text} + {-lo} & {hi - lo}) - {-lo})" if lo else f"({text} & {hi})"
    if kind is T.Kind.REAL:
        # V.f32 written out; no other text binds r32 or c32
        return (
            f"((c32 := r32 * {V.F32_SPLIT!r}) - (c32 - r32)"
            f" if {V.F32_MIN2!r} <= (r32 := {text}) * r32 < {V.F32_OV2!r} else _f32(r32))"
        )
    return f"({text})"


def _guard(lines: str, c: str, pad: str) -> str:
    """`lines`, indented one level past pad, with an expression fault in
    them attributed to the site of count slot `c`."""
    return f"{pad}try:\n{lines}{pad}except _TRAPS as exc:\n{pad} raise _fault(info, {c}, exc) from None\n"


class _Text:
    """Renders a statement-list shape as the body of its function.

    A shape is a nested tuple whose first item is the method rendering it;
    the rest records what the text depends on and nothing else.  A list's
    shape is `(_Text.seq, bounded, statement shapes...)`.  Its statements
    are rendered one after the other, at one indentation level: a sub-body
    or a chunk of a long list is a parameter called directly.  Only a raise,
    an EXIT or RETURN (`jump`) and a call passing a signal on (`invoke`)
    skip the statements after them; an IF leaves a one-shot loop, WHILE and
    REPEAT break out of theirs.  A list of two or more heads counts once
    (`seq`); each site keeps its own fault attribution, by its count slot
    (`count`, `_guard`).  Checked code also tests the budget at each site
    and counts the depth of each user call, which bounded code leaves out.
    The factory parameters the text refers to are named k0, k1, ... in the
    order `_Gen` collects their values, and `info`."""

    def __init__(self, bounded: bool):
        self.n = 0
        self.bounded = bounded
        # for a fused list (`seq`): its head count, the index of the head
        # the next `count` renders, and the heads' count slots
        self.heads = 0
        self.head: int | None = None
        self.slots: list[str] = []

    def k(self) -> str:
        """The next factory parameter."""
        self.n += 1
        return f"k{self.n - 1}"

    def stmt(self, shape) -> str:
        return shape[0](self, shape)

    def count(self, c: str, pad: str) -> str:
        """Lines counting the site of count slot `c` and spending a unit of
        the scan's budget; checked code then tests the budget.  A fused
        list's first head counts for the list, spending all its heads'
        units in bounded code; a later head sets `at` instead."""
        head, self.head = self.head, None
        if head is None:
            text = f"{pad}cnt[{c}] += 1\n{pad}scan.budget -= 1\n"
        elif head == 0:
            self.slots = [c]
            text = f"{pad}cnt[{c}] += 1\n{pad}scan.budget -= {self.heads if self.bounded else 1}\n"
        else:
            self.slots.append(c)
            text = f"{pad}at = {head}\n" + ("" if self.bounded else f"{pad}scan.budget -= 1\n")
        if self.bounded:
            return text
        return text + f"{pad}if scan.budget <= 0:\n{pad} raise _fault(info, {c}, _BUDGET_MSG)\n"

    def run_body(self, runs, pad: str = "  ", loop: bool = False) -> str:
        """The lines running a sub-body (in a loop's body with `loop`): none
        for an empty one, else a call of its function, a parameter, that can
        signal with `_PASS`.  A call of a long list's chunk is the statement
        `_CALL` or `_PASS` too."""
        if not runs:
            return ""
        return self.invoke(self.k(), runs[1], pad, loop)

    def invoke(self, fn: str, signals: bool, pad: str, loop: bool = False) -> str:
        """The lines calling the list function `fn`.  If it `signals`, they
        pass its signal on; in a loop's body, an EXIT's breaks the loop."""
        call = f"{fn}(store, nested, cnt, scan)"
        if not signals:
            return f"{pad}{call}\n"
        if loop:
            return f"{pad}if sig := {call}:\n{pad} if sig == 2:\n{pad}  return 2\n{pad} break\n"
        return f"{pad}if sig := {call}:\n{pad} return sig\n"

    # -- statement lists --------------------------------------------------------

    def seq(self, shape) -> str:
        """A statement list's statements, one after the other.

        A statement's head is the site it counts first (an assignment, an
        FB call, EXIT, RETURN, a CASE selector, the first IF condition or a
        FOR header); WHILE and REPEAT have none.  A list of two or more
        heads is fused: its heads count once, for the list (`count`), and
        from its first head on it runs inside one handler.  When a raise or
        a signal leaves the list before its last head, the handler undoes
        the count, and in bounded code the budget unit, of each head after
        `at`; it makes no call, so it runs with the stack near its limit
        too.  So a later head's slot holds minus its skips until
        `_Scan.settle` adds the list's count in."""
        stmts = shape[2:]
        heads = [i for i, st in enumerate(stmts) if st[0] not in _UNHEADED]
        if len(heads) < 2:
            return "".join([self.stmt(st) for st in stmts]) or "  pass\n"
        self.heads = len(heads)
        order = {i: j for j, i in enumerate(heads)}
        lead = "".join([self.stmt(st) for st in stmts[:heads[0]]])
        body = ""
        for i, st in enumerate(stmts[heads[0]:], heads[0]):
            self.head = order.get(i)
            body += self.stmt(st)
        last = self.heads - 1
        undo = "".join([f"    cnt[{c}] -= at < {j}\n" for j, c in enumerate(self.slots) if j])
        if self.bounded:
            undo += f"    scan.budget += {last} - at\n"
        return (
            f"{lead}  at = 0\n  try:\n" + "".join([" " + line for line in body.splitlines(True)])
            + f"  finally:\n   if at < {last}:\n{undo}"
        )

    # -- statements -----------------------------------------------------------

    def assign(self, shape) -> str:
        _, track, value, target = shape
        c = self.k()
        put = self.put(target, self.ex(value))
        last = f"  scan.last = {c}\n" if track else ""
        return self.count(c, "  ") + _guard(f"   {put}\n", c, "  ") + last

    def jump(self, shape) -> str:
        """EXIT or RETURN: the list's function returns its signal."""
        _, exit_, track = shape
        c = self.k()
        last = f"  scan.last = {c}\n" if track else ""
        return f"{self.count(c, '  ')}{last}  return {1 if exit_ else 2}\n"

    def if_stmt(self, shape) -> str:
        # a one-shot loop that a taken branch breaks out of: an ELSIF chain
        # stays at one indentation level, however long it is
        _, track, branches, else_runs = shape
        text = "  while True:\n"
        for cond, runs in branches:
            c = self.k()
            last = f"   scan.last = {c}\n" if track else ""
            text += self.count(c, "   ") + _guard(f"    taken = {self.ex(cond)}\n", c, "   ")
            text += f"{last}   if taken:\n{self.run_body(runs, '    ')}    break\n"
        return text + self.run_body(else_runs, "   ") + "   break\n"

    def case_stmt(self, shape) -> str:
        """A CASE with a table (`_Gen.case_stmt`) indexes it by the
        selector less the least label (Bernstein, "Producing good code for
        the case statement", SP&E 1985); any other scans its arms in order.
        No match runs the ELSE, an empty one if there is none."""
        _, track, signals, table, selector = shape
        c = self.k()
        last = f"  scan.last = {c}\n" if track else ""
        text = self.count(c, "  ") + _guard(f"   sel = {self.ex(selector)}\n", c, "  ") + last
        if table:
            arms, lo, hi, else_ = self.k(), self.k(), self.k(), self.k()
            text += f"  body = {arms}[sel - {lo}] if {lo} <= sel <= {hi} else {else_}\n"
        else:
            text += (
                f"  for lo, hi, body in {self.k()}:\n"
                "   if lo <= sel <= hi:\n"
                "    break\n"  # the first matching branch wins
                "  else:\n"
                f"   body = {self.k()}\n"
            )
        return text + self.invoke("body", signals, "  ")

    def for_stmt(self, shape) -> str:
        _, kind, start, stop, step, runs = shape
        c = self.k()
        var = self.k()
        head = (
            f"   cur = {self.ex(start)}\n"
            f"   lim = {self.ex(stop)}\n"
            f"   inc = {1 if step is None else self.ex(step)}\n"
            "   if inc == 0:\n"
            "    raise _Trap(_ZERO_STEP_MSG)\n"
        )
        return (
            self.count(c, "  ") + _guard(head, c, "  ")
            + f"  scan.last = {c}\n"
            "  while (cur <= lim) if inc > 0 else (cur >= lim):\n"
            f"   store[{var}] = cur\n"
            + self.run_body(runs, "   ", True)
            + f"   cur = {_wrap(kind, f'store[{var}] + inc')}\n"
            "   scan.loops += 1\n"
            "   scan.budget -= 1\n"
            "   if scan.budget <= 0:\n"
            "    raise _fault(info, scan.last, _BUDGET_MSG)\n"
        )

    def while_stmt(self, shape) -> str:
        _, track, cond, runs = shape
        c = self.k()
        last = f"   scan.last = {c}\n" if track else ""
        return (
            "  while True:\n"
            + self.count(c, "   ") + _guard(f"    go = {self.ex(cond)}\n", c, "   ") + last
            + "   if not go:\n"
            "    break\n"
            + self.run_body(runs, "   ", True)
        )

    def repeat_stmt(self, shape) -> str:
        _, track, runs, until = shape
        c = self.k()
        last = f"   scan.last = {c}\n" if track else ""
        return (
            "  while True:\n"
            + self.run_body(runs, "   ", True)
            + self.count(c, "   ") + _guard(f"    done = {self.ex(until)}\n", c, "   ") + last
            + "   if done:\n"
            "    break\n"
        )

    def fb_call(self, shape) -> str:
        _, track, builtin, temps, in_shapes, out_shapes = shape
        c = self.k()
        inst = self.k()
        text = self.count(c, "  ") + f"  fb = nested[{inst}]\n  fs = fb.store\n"
        ins = "".join([f"   fs[{self.k()}] = {self.ex(x)}\n" for x in in_shapes])
        outs = "".join([f"   {self.put(x, f'fs[{self.k()}]')}\n" for x in out_shapes])
        last = f"  scan.last = {c}\n" if track else ""
        if builtin:
            return text + _guard(f"{ins}   fb.step(scan.now)\n{outs}", c, "  ") + last
        # the callee's body runs here, compiled on its first call inside the
        # handlers, so that a RecursionError compiling it is contained too
        pou, name = self.k(), self.k()
        if ins:
            text += _guard(ins, c, "  ")
        if temps:
            text += f"  {pou}.reset_temps(fs)\n"
        if not self.bounded:
            text += (
                "  scan.depth += 1\n"
                "  if scan.depth > _MAX_CALL_DEPTH:\n"
                f"   raise _fault(info, {c}, _DEPTH_MSG)\n"
            )
        text += (
            "  try:\n"
            f"   ({pou}.body or {pou}.compile(scan.prog))"
            f"(fs, fb.nested, scan.counts.get({name}) or {pou}.counts(scan), scan)\n"
            "  except RuntimeFault as fault:\n"
            f"   fault.instance_path = _DOT + {inst} + fault.instance_path\n"
            "   raise\n"
            "  except RecursionError:\n"
            f"   raise _fault(info, {c}, _STACK_MSG) from None\n"
        )
        if not self.bounded:
            text += "  scan.depth -= 1\n"
        if outs:
            text += _guard(outs, c, "  ")
        return text + last

    # -- stores ----------------------------------------------------------------

    def put(self, shape, value: str) -> str:
        """A statement storing `value` into a target, converted first if
        the shape says so.  Python evaluates the value before the target's
        index."""
        _, conv, *index = shape
        if conv:
            value = f"{self.k()}({value})"
        if not index:
            return f"store[{self.k()}] = {value}"
        arr, lo, hi = self.k(), self.k(), self.k()
        return f"store[{arr}][i - {lo} if {lo} <= (i := {self.ex(index[0])}) <= {hi} else _oob(i, {lo}, {hi})] = {value}"

    # -- expressions -------------------------------------------------------------

    def ex(self, shape) -> str:
        """Source of an expression's raw value, as one operand."""
        return shape[0](self, shape)

    def literal(self, shape) -> str:
        return self.k()

    def var(self, shape) -> str:
        return f"store[{self.k()}]"

    def member(self, shape) -> str:
        return f"nested[{self.k()}].store[{self.k()}]"

    def conv(self, shape) -> str:
        return f"{self.k()}({self.ex(shape[1])})"

    def index(self, shape) -> str:
        arr, lo, hi = self.k(), self.k(), self.k()
        return f"(store[{arr}][i - {lo}] if {lo} <= (i := {self.ex(shape[1])}) <= {hi} else _oob(i, {lo}, {hi}))"

    def unary(self, shape) -> str:
        _, op, kind, operand = shape
        x = self.ex(operand)
        if op is N.UnOp.NOT:
            return f"(not {x})" if kind is T.Kind.BOOL else _wrap(kind, f"~{x}")
        return _wrap(kind, f"-{x}" if op is N.UnOp.NEG else x)

    def binary(self, shape) -> str:
        _, op, kind, left, right = shape
        a, b = self.ex(left), self.ex(right)
        if op in _CMP:
            return f"({a} {_CMP[op]} {b})"
        if op in _ARITH:
            return _wrap(kind, f"{a} {_ARITH[op]} {b}")
        if op in _CALLED:
            return f"{self.k()}({a}, {b})"
        if kind is not T.Kind.BOOL:
            return _wrap(kind, f"({a} {_BITS[op]} {b})")
        # both operands are evaluated, and the result is a bool
        if op is N.BinOp.AND:
            return f"(not ((not {a}) | (not {b})))"
        if op is N.BinOp.OR:
            return f"(not ((not {a}) & (not {b})))"
        return f"({a} != {b})"

    def builtin(self, shape) -> str:
        impl = self.k()
        return f"{impl}({', '.join([self.ex(a) for a in shape[1]])})"

    def convert(self, shape) -> str:
        """A conversion written out in its form (`stdfuncs.conversion_form`;
        SAME leaves no shape).  A range check calls the conversion's
        function only to raise its fault."""
        _, form, arg = shape
        tag = form[0]
        fn = self.k() if tag == F.RANGE else None
        x = self.ex(arg)
        if tag == F.FLOAT:
            return f"float({x})"
        if tag == F.ROUND32:
            return _wrap(T.Kind.REAL, x)
        _, lo, hi = form
        upper = "" if hi is None else f" <= {hi}"
        return f"(x if {lo} <= (x := {x}){upper} else {fn}(x))"

    def call(self, shape) -> str:
        _, arg_shapes, by_name = shape
        args = "".join([f", {self.ex(a)}" for a in arg_shapes])
        pou = f"_pou(scan.prog, {self.k()})" if by_name else self.k()
        frame = f"{pou}.frame()" if self.bounded else f"_frame(scan, {pou})"
        return f"_call({pou}, scan, {frame}{args})"


def _source(shape, name: str = "run") -> str:
    """The source of the factory `make(k0, ..., kn, info)` returning the
    function of this statement-list shape, `run(store, nested, cnt, scan,
    k0=k0, ..., info=info)`: the values are its positional defaults, which
    no caller passes, so they sit in one tuple (`__defaults__`) and are
    read as locals, and the function has no closure cell."""
    text = _Text(shape[1])
    body = text.seq(shape)
    params = [f"k{i}" for i in range(text.n)] + ["info"]
    defaults = "".join([f", {k}={k}" for k in params])
    return f"def make({', '.join(params)}):\n def {name}(store, nested, cnt, scan{defaults}):\n{body} return {name}\n"


_SERIAL = itertools.count()


@functools.lru_cache(maxsize=1024)
def _factory(shape):
    """The compiled `_source(shape)` factory, shared in the process by
    every statement list of that shape; its source is rendered only here,
    on a miss.  Each call of it makes one function, whose only per-list
    state is its tuple of defaults.  The factory refers to nothing but this
    module's globals, and a shape holds only this module's functions,
    enums, bools, None and conversion forms (strings and ints), so the
    cache holds no cycle.  Its function's name, `run7_assign` (serial,
    first statement), keeps factories apart in a profile."""
    first = shape[2][0].__name__ if len(shape) > 2 else "pass"
    ns: dict = {}
    exec(compile(_source(shape, f"run{next(_SERIAL)}_{first}"), "<statements>", "exec"), globals(), ns)
    return ns["make"]


# A statement list runs at most this many statements or chunks in one
# function: a longer one is split, so that no generated function grows
# with the list and compiling stays linear in it.
_CHUNK = 32
# a call of a sub-body's function or a chunk's, one that can signal
_CALL, _PASS = (_Text.run_body, False), (_Text.run_body, True)
# statements without a head: their first site may run any number of times
_UNHEADED = frozenset({_Text.while_stmt, _Text.repeat_stmt, _Text.run_body})
_LITERAL, _VAR, _MEMBER = (_Text.literal,), (_Text.var,), (_Text.member,)
_STORE, _STORE_CONV = (_Text.put, False), (_Text.put, True)


def _calls(runs: list, signals: bool) -> Callable:
    """One function calling each function of `runs` in turn, through a
    tree of functions that call at most _CHUNK each; if they `signals`, a
    signal returned ends it and is passed on.  It holds no site, so its
    text is the same in either mode and its `info` is None."""
    while len(runs) > _CHUNK:
        runs = [_calls(runs[i:i + _CHUNK], signals) for i in range(0, len(runs), _CHUNK)]
    return _factory((_Text.seq, False) + ((_PASS if signals else _CALL),) * len(runs))(*runs, None)


class _Gen:
    """Builds the functions `run(store, nested, cnt, scan)` of one POU's
    statement lists.

    Each statement list (a body, an IF branch or ELSE, a CASE arm or ELSE,
    a loop body) becomes one function that runs its statements inline.
    One walk over the list collects the values of its factory's parameters
    (every name, literal, count slot, callee, built-in function, sub-body
    and CASE table, then `info`, the POU's PouInfo) and builds its shape,
    `(_Text.seq, bounded, statement shapes...)`; `_factory` compiles the
    shape's source on its first use in the process, and the list's
    function is that factory applied to the values.  Lists differing only
    in those values share one shape.  Expressions are inlined; a sub-body
    is a function of its own, a parameter its statement calls, so ST
    nesting never becomes Python nesting.  A list longer than _CHUNK
    statements runs as chunks of at most _CHUNK, each its own function.
    With `track` set (sites inside a FOR body), a site records its slot in
    `scan.last` once its own evaluation is done.  A function holds the
    PouInfo, not the _Pou, whose entries hold it: that would be a cycle,
    and a recursive call its callee's name, looked up in the run's cache."""

    def __init__(self, pou: _Pou, prog: TypedProgram):
        self.prog = prog
        self.info = pou.info
        self.bounded = pou.bounded
        # a site's count slot is its sid less this, its POU's first sid
        self.base = pou.info.sites[0].sid if pou.info.sites else 0
        self.vars = pou.info.vars
        self.fbs = pou.info.fb_instances
        self.consts: list = []
        # (later head, first head) slot pairs of the fused lists, flat
        # (`_Text.seq`)
        self.fused: list[int] = []
        # the signals the list walked can return (`block`)
        self.sig = 0

    def site(self, node) -> None:
        """Collect a site's count slot."""
        self.consts.append(node.sid - self.base)

    def block(self, body: list[N.Stmt], track: bool) -> tuple[Callable, int]:
        """The function running a statement list, and the signals it can
        return: 1 for EXIT, 2 for RETURN, or'ed.  A fused list
        (`_Text.seq`) records each later head's slot with its first head's
        in `fused`, for `_Scan.settle`."""
        if len(body) > _CHUNK:
            chunks = [self.block(body[i:i + _CHUNK], track) for i in range(0, len(body), _CHUNK)]
            sig = functools.reduce(operator.or_, [sig for _, sig in chunks])
            return _calls([run for run, _ in chunks], sig != 0), sig
        outer, self.consts = self.consts, []
        outer_sig, self.sig = self.sig, 0
        stmts = [_STMTS[type(st)](self, st, track) for st in body]
        consts, self.consts, sig, self.sig = self.consts, outer, self.sig, outer_sig
        heads = [
            (st.branches[0] if type(st) is N.IfStmt else st).sid - self.base
            for st, shape in zip(body, stmts) if shape[0] not in _UNHEADED
        ]
        for later in heads[1:]:
            self.fused += (later, heads[0])
        return _factory((_Text.seq, self.bounded, *stmts))(*consts, self.info), sig

    def sub(self, body: list[N.Stmt], track: bool, loop: bool = False):
        """The shape running a sub-body (a loop's with `loop`): False for an
        empty one, else a call of its function, collected, `_PASS` if it can
        signal.  What it can signal passes on into `sig`, but for EXIT out
        of a loop's body."""
        if not body:
            return False
        run, sig = self.block(body, track)
        self.consts.append(run)
        self.sig |= sig & 2 if loop else sig
        return _PASS if sig else _CALL

    # -- statements -----------------------------------------------------------

    def assign(self, st: N.Assign, track: bool):
        self.site(st)
        value = self.ex(st.value)
        return (_Text.assign, track, value, self.put(st.target, st.value.ty))

    def jump(self, st, track: bool):
        self.site(st)
        exit_ = type(st) is N.ExitStmt
        self.sig |= 1 if exit_ else 2
        return (_Text.jump, exit_, track)

    def if_stmt(self, st: N.IfStmt, track: bool):
        branches = []
        for br in st.branches:
            self.site(br)
            branches.append((self.ex(br.cond), self.sub(br.body, track)))
        return (_Text.if_stmt, track, tuple(branches), self.sub(st.else_body, track))

    def case_stmt(self, st: N.CaseStmt, track: bool):
        self.site(st)
        arms, sig = [], 0
        for br in st.branches:
            body, arm = self.block(br.body, track)
            arms.extend([(lab.lo, lab.hi, body) for lab in br.labels])
            sig |= arm
        else_, arm = self.block(st.else_body, track)
        sig |= arm
        self.sig |= sig
        selector = self.ex(st.selector)
        # single values spanning fewer than twice as many values as there
        # are labels get a table: a slot per value, holding the first arm
        # that labels it or, in a hole, the ELSE
        labels = [lo for lo, hi, _ in arms if lo == hi]
        table = len(labels) == len(arms) > 0 and max(labels) - min(labels) < 2 * len(labels)
        if table:
            lo = min(labels)
            slots = [else_] * (max(labels) - lo + 1)
            for label, _, body in reversed(arms):
                slots[label - lo] = body  # the first label wins
            self.consts += (tuple(slots), lo, lo + len(slots) - 1, else_)
        else:
            self.consts += (tuple(arms), else_)
        return (_Text.case_stmt, track, sig != 0, table, selector)

    def for_stmt(self, st: N.ForStmt, track: bool):
        self.site(st)
        self.consts.append(st.var)
        ty = self.vars[st.var].ty
        start = self.value_for(st.start, ty)
        stop = self.ex(st.stop)
        step = None if st.step is None else self.ex(st.step)
        return (_Text.for_stmt, ty.kind, start, stop, step, self.sub(st.body, True, True))

    def while_stmt(self, st: N.WhileStmt, track: bool):
        self.site(st)
        cond = self.ex(st.cond)
        return (_Text.while_stmt, track, cond, self.sub(st.body, track, True))

    def repeat_stmt(self, st: N.RepeatStmt, track: bool):
        self.site(st)
        runs = self.sub(st.body, track, True)
        return (_Text.repeat_stmt, track, runs, self.ex(st.until))

    def fb_call(self, st: N.FbCall, track: bool):
        self.site(st)
        fb_type = self.fbs[st.instance]
        slots = BUILTIN_VARS.get(fb_type)
        builtin = slots is not None
        if not builtin:
            callee = _pou(self.prog, fb_type, self.bounded)
            slots = callee.info.vars
        consts = self.consts
        consts.append(st.instance)
        inputs = [p for p in st.params if not p.is_output]
        ins = []
        for p in inputs:
            consts.append(p.name)
            ins.append(self.value_for(p.expr, slots[p.name].ty))
        # after the call, IN_OUT arguments are written back, then the outputs
        back = [p for p in inputs if slots[p.name].section is Section.IN_OUT]
        back += [p for p in st.params if p.is_output]
        outs = []
        for p in back:
            consts.append(p.name)
            outs.append(self.put(p.expr, slots[p.name].ty))
        if builtin:
            return (_Text.fb_call, track, True, False, tuple(ins), tuple(outs))
        consts += (callee, fb_type)
        return (_Text.fb_call, track, False, bool(callee.temps), tuple(ins), tuple(outs))

    # -- stores ----------------------------------------------------------------

    def put(self, e: N.Expr, src_ty: T.STType):
        """The shape of a store into the target e of a raw value of type
        src_ty."""
        consts = self.consts
        if type(e) is N.VarRef:
            conv = _store_conv(src_ty, self.vars[e.name].ty)
            if conv is None:
                consts.append(e.name)
                return _STORE
            consts += (conv, e.name)
            return _STORE_CONV
        arr_ty = self.vars[e.base.name].ty
        conv = _store_conv(src_ty, arr_ty.elem)
        if conv is not None:
            consts.append(conv)
        consts += (e.base.name, arr_ty.lo, arr_ty.hi)
        return (_Text.put, conv is not None, self.ex(e.index))

    def value_for(self, e: N.Expr, dst: T.STType):
        """The shape of e's raw value converted for a dst slot."""
        conv = _store_conv(e.ty, dst)
        if conv is None:
            return self.ex(e)
        if type(e) is N.Literal:
            self.consts.append(conv(V.coercer(e.ty)(e.value)))
            return _LITERAL
        self.consts.append(conv)
        return (_Text.conv, self.ex(e))

    # -- expressions -------------------------------------------------------------

    def ex(self, e: N.Expr):
        """The shape of e's raw value, as one operand."""
        return _EXPRS[type(e)](self, e)

    def literal(self, e: N.Literal):
        self.consts.append(V.coercer(e.ty)(e.value))
        return _LITERAL

    def var(self, e: N.VarRef):
        self.consts.append(e.name)
        return _VAR

    def member(self, e: N.MemberRef):
        self.consts += (e.base.name, e.member)
        return _MEMBER

    def index(self, e: N.IndexRef):
        arr_ty = self.vars[e.base.name].ty
        self.consts += (e.base.name, arr_ty.lo, arr_ty.hi)
        return (_Text.index, self.ex(e.index))

    def unary(self, e: N.Unary):
        return (_Text.unary, e.op, _TEXT_KINDS.get(e.ty.kind), self.ex(e.operand))

    def binary(self, e: N.Binary):
        op = e.op
        a, b = self.ex(e.left), self.ex(e.right)
        if op in _CALLED:
            self.consts.append(_arith(op, e.ty))
            return (_Text.binary, op, None, a, b)
        return (_Text.binary, op, _TEXT_KINDS.get(e.ty.kind), a, b)

    def call(self, e: N.Call):
        if is_builtin_function(e.name):
            form = F.conversion_form(e.name)
            if form is None or form[0] == F.RANGE:
                self.consts.append(builtin_impl(e.name, [a.ty for a in e.args], e.ty))
            args = tuple([self.ex(a) for a in e.args])
            if form is None:
                return (_Text.builtin, args)
            return args[0] if form[0] == F.SAME else (_Text.convert, form, args[0])
        callee = _pou(self.prog, e.name, self.bounded)
        args = tuple([self.value_for(a, p.ty) for p, a in zip(callee.info.inputs(), e.args)])
        # holding a callee that can call back here would make a cycle
        by_name = self.info.kind is PouKind.FUNCTION and _reaches(self.prog, e.name, self.info.name)
        self.consts.append(e.name if by_name else callee)
        return (_Text.call, args, by_name)


_STMTS = {
    N.Assign: _Gen.assign,
    N.FbCall: _Gen.fb_call,
    N.ExitStmt: _Gen.jump,
    N.ReturnStmt: _Gen.jump,
    N.IfStmt: _Gen.if_stmt,
    N.CaseStmt: _Gen.case_stmt,
    N.ForStmt: _Gen.for_stmt,
    N.WhileStmt: _Gen.while_stmt,
    N.RepeatStmt: _Gen.repeat_stmt,
}
_EXPRS = {
    N.Literal: _Gen.literal,
    N.VarRef: _Gen.var,
    N.MemberRef: _Gen.member,
    N.IndexRef: _Gen.index,
    N.Unary: _Gen.unary,
    N.Binary: _Gen.binary,
    N.Call: _Gen.call,
}


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def execute_cycle(
    inst: FbInstance,
    inputs: dict[str, V.Value],
    clock: SimClock,
) -> tuple[dict[str, V.Value], dict[str, list[int]]]:
    """Apply inputs, run one scan, snapshot outputs, then advance the clock.

    Retained variables persist in `inst` between calls.  An input is
    checked and converted as a generated store does it.  Raises ValueError
    for undeclared input names or un-assignable input types (precondition
    violations, not runtime faults).  Also returns the scan's count array
    per POU it ran, as RunResult.counts holds them for a run.
    """
    for name, val in inputs.items():
        var = inst.info.vars.get(name.upper())
        if var is None or var.section is not Section.INPUT:
            raise ValueError(f"{inst.fb_type} has no input {name}")
        if not T.assignable(val.ty, var.ty):
            raise ValueError(f"input {name}: cannot store {val.ty} into {var.ty}")
        conv = _store_conv(val.ty, var.ty)
        raw = V.unbox(val)
        inst.store[var.name] = raw if conv is None else conv(raw)
    scan = _Scan(inst.prog, clock.now)
    pou = _pou(inst.prog, inst.fb_type, _bounded(inst.prog, inst.fb_type))
    if pou.temps:
        pou.reset_temps(inst.store)
    try:
        pou.run(inst.store, inst.nested, scan)
    except RuntimeFault as fault:
        fault.instance_path = inst.fb_type + fault.instance_path
        raise
    outputs = inst.outputs()
    clock.now += clock.cycle_time
    return outputs, scan.settle()


@dataclass
class ContainedFault:
    instance: str
    fault: RuntimeFault
    cycle: int


def _skip(store, nested, cnt, scan) -> None:
    """An entry that runs nothing."""


# what a faulted instance's calls become for the rest of their scan
_GONE = (_skip, None, None)


@dataclass
class RunResult:
    instance: FbInstance
    traces: list[ScanTrace]
    faults: list[ContainedFault]
    cycles_executed: int
    # per POU name that ran: slot i counts the executions over the whole
    # run of site i of the POU that name resolves to (`PouInfo.sites[i]`),
    # settled (`_Scan.settle`)
    counts: dict[str, list[int]]


def run_program(
    prog: TypedProgram,
    program_name: str,
    cycles: int,
    clock: SimClock,
    after_scan: Callable[[dict[str, object], tuple[ContainedFault, ...]], bool] | None = None,
    quarantine: frozenset[str] | set[str] = frozenset(),
    finished: frozenset[str] | set[str] = frozenset(),
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
    A stopped instance's calls leave the scan.

    `finished` is a set that `after_scan` may add quarantined instances to.
    Naming one states that from the next scan on, its call and the
    statements after it up to the next call run the same sites on every
    scan and change nothing: a harness case that is DONE, and its hook
    mirrors (`harnessgen.build_runner`).  In bounded code whose body cannot
    RETURN, the run replays those entries once, on a scan of their own at
    the next scan's time, and then drops them from the scan: each scan
    spends the replay's units with one subtraction at its start, which
    cannot matter where no site tests the budget, and the run adds the
    replay's counts once per skipped scan before it settles the counts,
    which is exact since settling is linear.  Those counts are the
    program's slots from the instance's call up to the next call, and the
    arrays of the POUs the replay ran, so a credit does not grow with the
    program: every replay counts in one program array, in slots no other
    replay uses, and finds its entries in the scan by a bisection.  So the
    counts, traces and budget are those of a run that kept them.  An
    instance whose replay faults keeps running, and faults where it would
    have; one a fault stopped, whose call has left the scan, is not
    replayed.  Checked code, a body that can RETURN and an instance called
    more than once keep running finished instances.
    """
    info = prog.lookup_pou(program_name.upper())
    if info is None or info.kind is not PouKind.PROGRAM:
        raise UnknownPou(f"no program named {program_name}")
    inst = instantiate(prog, program_name)
    pou = _pou(prog, inst.fb_type, _bounded(prog, inst.fb_type))
    quarantine = frozenset(quarantine)
    code = pou.code(prog)
    # each entry of the body, with the instance a fault in it stops and its
    # index: body is a subsequence of entries, so its indices ascend, and
    # an entry's position in it is one bisection
    entries = [
        (run, st.instance if type(st) is N.FbCall and st.instance in quarantine else None, j)
        for j, (run, st) in enumerate(code)
    ]
    body = list(entries)
    # where finished instances leave the scan: the index of each quarantined
    # instance's only call (None if it has more than one)
    calls: dict[str, int | None] = {}
    if pou.bounded and not any([type(node) is N.ReturnStmt for node in info.sites]):
        for _, guard, j in entries:
            if guard is not None:
                calls[guard] = None if guard in calls else j
    declared: set[str] = set()
    # what the retired entries count on each scan they skip, as (POU, first
    # slot, the counts from it on, the first scan they skip), and the units
    # they spend per scan
    credits: list[tuple[_Pou, int, list[int], int]] = []
    units = 0
    # the program slots every replay counts in: an instance's slots, from
    # its call's up to the next call's, are its own and replayed at most
    # once, so no replay finds another's counts in them
    replay = [0] * len(info.sites)
    base = info.sites[0].sid if info.sites else 0
    store, nested, root = inst.store, inst.nested, inst.fb_type
    contained: list[ContainedFault] = []
    scan = _Scan(prog, clock.now)
    cnt = pou.counts(scan)
    traces: list[ScanTrace] = []
    cycles_executed = 0
    budget0, spare0, step = _SCAN_SITE_BUDGET, _SPARE_BUDGETS * _SCAN_SITE_BUDGET, clock.cycle_time
    granted = budget0 + spare0

    for cycle in range(cycles):
        # a scan starts with the full budget, less what the retired entries
        # spend, and the spare; the clock stands still until it ends
        scan.budget = budget0 - units
        scan.spare = spare0
        scan.now = clock.now
        scan.depth = scan.loops = 0
        if pou.temps:
            pou.reset_temps(store)
        faults: tuple[ContainedFault, ...] = ()  # those contained in this scan
        try:
            for run, guard, _ in body:
                if guard is None:
                    if run(store, nested, cnt, scan):
                        break  # the program's RETURN
                else:
                    budget = scan.budget
                    try:
                        run(store, nested, cnt, scan)
                    except RuntimeFault as fault:
                        # the frames the fault unwound refer back to this
                        # run; keeping them would make the run a cycle
                        fault.__traceback__ = fault.__context__ = None
                        fault.instance_path = root + fault.instance_path
                        fault.cycle = cycle
                        faults += (ContainedFault(guard, fault, cycle),)
                        scan.refund(budget)
                        scan.depth = 0  # the calls the fault abandoned
                        for i, entry in enumerate(body):  # its calls, this scan too
                            if entry[1] == guard:
                                body[i] = _GONE
        except RuntimeFault as fault:
            fault.instance_path = root + fault.instance_path
            fault.cycle = cycle
            raise
        if faults:
            contained += faults
            body = [entry for entry in body if entry is not _GONE]
        # the sites run: every unit granted and not left, less the FOR
        # iterations' units
        sites = granted - scan.spare - scan.budget - scan.loops
        traces.append(ScanTrace(sites))
        stop = after_scan is not None and after_scan(store, faults)
        clock.now += step
        cycles_executed = cycle + 1
        if stop:
            break
        if calls and len(finished) > len(declared):
            for name in [name for name in finished if name not in declared]:
                declared.add(name)
                j = calls.get(name)
                if j is None:
                    continue
                at = bisect_left(body, j, key=operator.itemgetter(2))
                if at == len(body) or body[at][2] != j:  # a fault stopped it
                    continue
                size = 2 if j + 1 < len(code) and type(code[j + 1][1]) is not N.FbCall else 1
                # its entries, replayed once, count and spend what they would
                # on each later scan
                alone = _Scan(prog, clock.now)
                alone.counts[pou.name] = replay
                own = pou.counts(alone)
                try:
                    for run, _, _ in entries[j:j + size]:
                        run(store, nested, own, alone)
                except RuntimeFault:
                    continue  # it keeps running, to fault where it would
                units += _SCAN_SITE_BUDGET - alone.budget
                # the program slots of its entries, from its call's up to the
                # next call's, and the arrays of the POUs they called
                lo = code[j][1].sid - base
                hi = code[j + size][1].sid - base if j + size < len(code) else len(own)
                credits.append((pou, lo, own[lo:hi], cycle + 1))
                credits += [(p, 0, alone.counts[p.name], cycle + 1) for p in alone.ran]
                del body[at:at + size]

    for p, lo, counted, since in credits:
        if cycles_executed > since:  # none skipped: make p no array
            total = p.counts(scan)
            for i, n in enumerate(counted, lo):
                total[i] += n * (cycles_executed - since)
    return RunResult(inst, traces, contained, cycles_executed, scan.settle())

