"""Turn a CheckedSuite into executable ST test code.

Every test case becomes one generated function block that drives a private
instance of the unit under test through the case's states:

* each scan applies the active state's inputs (unbound inputs hold their
  previous values) and calls the unit once;
* after a state's dwell completes, its expected outputs are checked on the
  next scan, before the following state's inputs are applied;
* when the final state's checks are done the block raises its hook outputs
  DONE, PASS and FAILS and goes quiet.

Checked values are captured into dedicated variables (A_<state>_<output>)
with per-assertion fail flags (F_<state>_<output>) so the runner can read
exact actuals back out of the instance store afterwards.

The comparison policy is baked into the generated code: exact equality for
BOOL, integers, STRING and TIME; for REAL/LREAL the check is
|actual - expected| <= atol + rtol * |expected|.

A PROGRAM, TEST_RUNNER, instantiates every case block, calls them all each
scan, and mirrors their hook outputs into program-level variables
TC_<n>_DONE / TC_<n>_PASS / TC_<n>_FAILS that the runtime's monitoring
recognizes.

The unit under test and its libraries are parsed and resolved once, before
the harness is built.  The case blocks and the program are built as AST
nodes straight from the checked suite, numbered, and resolved as one layer
over the unit's TypedProgram; no generated text is lexed or parsed.
harness.st holds the libraries and the unit as written, then the generated
POUs as `frontend.pretty` prints them, then a comment stating the scan
interval.  The printer gives each generated site the span of its printed
text, and the bundle records where each layer's text starts in harness.st,
so coverage renders against its lines.  A POU name may be defined in one
layer only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .frontend import nodes as N
from .frontend import types as T
from .frontend.pretty import print_ast
from .frontend.resolve import PouInfo, TypedProgram, resolve
from .frontend.source import SourceUnit
from .runtime import values as V
from .testspec import CheckedCase, CheckedSuite

PROGRAM_NAME = "TEST_RUNNER"
DEFAULT_ATOL = 1e-6
DEFAULT_RTOL = 1e-6


class CollisionError(Exception):
    """A generated name clashes with a POU in the unit or libraries."""


@dataclass
class AssertionSlot:
    """One expected-output check: where its actual/flag variables live."""

    state: int
    column: str
    actual_var: str
    flag_var: str
    expected: V.Value


@dataclass
class CaseHarness:
    name: str
    index: int               # 1-based, used in all generated names
    fb_name: str
    instance_name: str
    pou: N.PouDecl
    slots: list[AssertionSlot]
    total_dwell: int


@dataclass
class HarnessBundle:
    source: SourceUnit               # harness.st
    typed: TypedProgram              # the generated layer, over the unit
    program_name: str
    cases: list[CaseHarness]
    # every layer whose text harness.st holds, with the amount to add to an
    # offset in the layer's own source to get its offset in harness.st
    layers: list[tuple[TypedProgram, int]]
    hook_vars: dict[str, tuple[str, str, str]] = field(default_factory=dict)


def hook_var_names(index: int) -> tuple[str, str, str]:
    return (f"TC_{index}_DONE", f"TC_{index}_PASS", f"TC_{index}_FAILS")


# ---------------------------------------------------------------------------
# node builders: each call makes fresh nodes, since resolving types every
# expression node in place
# ---------------------------------------------------------------------------

def value_literal(val: V.Value) -> N.Literal:
    """The ST literal that resolves to a runtime value."""
    k = val.ty.kind
    kind = "INT" if k in T.INTEGERISH_KINDS else "REAL" if k in T.REAL_KINDS else k.value
    return N.Literal(N.Literal.K[kind], val.v)


def _int(n: int) -> N.Literal:
    return N.Literal(N.Literal.K.INT, n)


def _true() -> N.Literal:
    return N.Literal(N.Literal.K.BOOL, True)


def _ref(name: str, member: str | None = None) -> N.Expr:
    """`name`, or `name.member`."""
    ref = N.VarRef(name)
    return ref if member is None else N.MemberRef(ref, member)


def _op(op: str, left: N.Expr, right: N.Expr) -> N.Binary:
    """A binary expression, the operator spelled as in ST."""
    return N.Binary(N.BinOp(op), left, right)


def _set(name: str, value: N.Expr) -> N.Assign:
    return N.Assign(N.VarRef(name), value)


def _incr(name: str) -> N.Assign:
    return _set(name, _op("+", _ref(name), _int(1)))


def _if(cond: N.Expr, *body: N.Stmt) -> N.IfStmt:
    return N.IfStmt([N.IfBranch(cond, list(body))], [])


def _case(selector: str, branches: dict[int, list[N.Stmt]]) -> N.CaseStmt:
    labelled = [N.CaseBranch([N.CaseLabel(k, k)], body) for k, body in branches.items()]
    return N.CaseStmt(N.VarRef(selector), labelled, [])


def _decl(name: str, ty: str | T.STType, section: N.Section = N.Section.LOCAL) -> N.VarDecl:
    """A declaration of a type named in ST, or of a scalar or STRING type."""
    if isinstance(ty, str):
        ref = N.TypeRef(ty)
    elif ty.kind is T.Kind.STRING and ty.cap != T.DEFAULT_STRING_CAP:
        ref = N.TypeRef("STRING", string_cap=ty.cap)
    else:
        ref = N.TypeRef(ty.kind.value)
    return N.VarDecl(name, ref, None, section)


# ---------------------------------------------------------------------------
# generated POUs
# ---------------------------------------------------------------------------

def build_case_fb(
    case: CheckedCase,
    fb: PouInfo,
    index: int,
    atol: float = DEFAULT_ATOL,
    rtol: float = DEFAULT_RTOL,
    taken: frozenset[str] = frozenset(),
) -> CaseHarness:
    """Build the sequential-state test FB for one validated case."""
    fb_name = f"TC_{index}_CASE"
    if fb_name in taken:
        raise CollisionError(f"generated name {fb_name} collides with an existing POU")
    out_types = {v.name: v.ty for v in fb.outputs()}

    slots: list[AssertionSlot] = []
    for st_idx, state in enumerate(case.states, start=1):
        for col, expected in state.expected.items():
            slots.append(
                AssertionSlot(st_idx, col, f"A_{st_idx}_{col}", f"F_{st_idx}_{col}", expected)
            )

    out = N.Section.OUTPUT
    decls = [_decl("DONE", "BOOL", out), _decl("PASS", "BOOL", out), _decl("FAILS", "DINT", out)]
    decls.append(_decl("UNIT", fb.name))
    decls += [_decl(name, "DINT") for name in ("STATE", "TICK", "PENDING", "CHECKED")]
    # each state with expectations checks them, in state order
    checks: dict[int, list[N.Stmt]] = {}
    for slot in slots:
        decls += [_decl(slot.actual_var, out_types[slot.column]), _decl(slot.flag_var, "BOOL")]
        checks.setdefault(slot.state, []).extend([
            _set(slot.actual_var, _ref("UNIT", slot.column)),
            _if(
                N.Unary(N.UnOp.NOT, _comparison(slot, out_types[slot.column], atol, rtol)),
                _set(slot.flag_var, _true()),
                _incr("FAILS"),
            ),
        ])
    steps = {
        st_idx: [
            N.FbCall("UNIT", [N.ParamBind(c, False, value_literal(v)) for c, v in state.inputs.items()]),
            _incr("TICK"),
            _if(
                _op(">=", _ref("TICK"), _int(state.dwell_cycles)),
                _set("PENDING", _int(st_idx)),
                _set("STATE", _int(st_idx + 1)),
                _set("TICK", _int(0)),
            ),
        ]
        for st_idx, state in enumerate(case.states, start=1)
    }
    body = [
        _if(_ref("DONE"), N.ReturnStmt()),
        _if(
            _op(">", _ref("PENDING"), _int(0)),
            _case("PENDING", checks),
            _set("CHECKED", _ref("PENDING")),
            _if(
                _op("=", _ref("PENDING"), _int(len(case.states))),
                _set("PASS", _op("=", _ref("FAILS"), _int(0))),
                _set("DONE", _true()),
                _set("PENDING", _int(0)),
                N.ReturnStmt(),
            ),
            _set("PENDING", _int(0)),
        ),
        _if(_op("=", _ref("STATE"), _int(0)), _set("STATE", _int(1))),
        _case("STATE", steps),
    ]
    return CaseHarness(
        case.name,
        index,
        fb_name,
        f"TC{index}",
        N.PouDecl(N.PouKind.FUNCTION_BLOCK, fb_name, None, decls, body),
        slots,
        case.total_dwell(),
    )


def _comparison(slot: AssertionSlot, ty: T.STType, atol: float, rtol: float) -> N.Expr:
    if ty.kind in T.REAL_KINDS:
        error = N.Call("ABS", [_op("-", _ref(slot.actual_var), value_literal(slot.expected))])
        scaled = _op("*", N.Literal(N.Literal.K.REAL, rtol), N.Call("ABS", [value_literal(slot.expected)]))
        return _op("<=", error, _op("+", N.Literal(N.Literal.K.REAL, atol), scaled))
    return _op("=", _ref(slot.actual_var), value_literal(slot.expected))


def build_runner(cases: list[CaseHarness]) -> N.PouDecl:
    """The program that calls every case block each scan and mirrors its
    hook outputs into TC_<n>_DONE / _PASS / _FAILS."""
    decls: list[N.VarDecl] = []
    body: list[N.Stmt] = []
    for c in cases:
        hooks = hook_var_names(c.index)
        decls.append(_decl(c.instance_name, c.fb_name))
        decls += [_decl(hook, ty) for hook, ty in zip(hooks, ("BOOL", "BOOL", "DINT"))]
        body.append(N.FbCall(c.instance_name, []))
        body += [_set(hook, _ref(c.instance_name, o)) for hook, o in zip(hooks, ("DONE", "PASS", "FAILS"))]
    return N.PouDecl(N.PouKind.PROGRAM, PROGRAM_NAME, None, decls, body)


def build_harness(
    suite: CheckedSuite,
    prog: TypedProgram,
    cycle_time_ms: int = 10,
    atol: float = DEFAULT_ATOL,
    rtol: float = DEFAULT_RTOL,
) -> HarnessBundle:
    """Build the case FBs and the runner program for a suite, resolve them
    as one layer over `prog`, the unit under test with its libraries, and
    write them into harness.st.  Raises a FrontendError if the built layer
    does not type-check, as for a unit whose block has a VAR_IN_OUT
    parameter, which no suite column binds."""
    fb = prog.lookup_pou(suite.fb_under_test)
    if fb is None or fb.kind is not N.PouKind.FUNCTION_BLOCK:
        raise CollisionError(f"unit under test {suite.fb_under_test} is not a function block")

    layers = prog.layers()
    defined_in: dict[str, str] = {}
    for unit in layers:
        for name in unit.pous:
            if name in defined_in:
                raise CollisionError(
                    f"duplicate declaration of {name} in {defined_in[name]} and {unit.src.origin}"
                )
            defined_in[name] = unit.src.origin
    if PROGRAM_NAME in defined_in:
        raise CollisionError(f"generated program name {PROGRAM_NAME} collides with an existing POU")

    taken = set(defined_in)
    cases: list[CaseHarness] = []
    for index, case in enumerate(suite.cases, start=1):
        harness = build_case_fb(case, fb, index, atol, rtol, frozenset(taken))
        taken.add(harness.fb_name)
        cases.append(harness)

    ast = N.Ast([*(c.pou for c in cases), build_runner(cases)])
    N.assign_statement_ids(ast)
    # the printed text is what the generated layer's diagnostics refer to
    ast.src = SourceUnit(print_ast(ast), "generated harness")
    typed = resolve(ast, [prog])

    # harness.st lists the libraries before the unit that uses them
    dependencies = layers[1:] + layers[:1]
    starts = [0]
    for dep in dependencies:
        starts.append(starts[-1] + len(dep.src.text) + 1)
    text = "\n".join([*(dep.src.text for dep in dependencies), ast.src.text])
    source = SourceUnit(
        f"{text}\n(* task configuration: one cyclic task, interval = {cycle_time_ms} ms *)\n",
        "harness.st",
    )
    return HarnessBundle(
        source,
        typed,
        PROGRAM_NAME,
        cases,
        list(zip([*dependencies, typed], starts)),
        {c.name: hook_var_names(c.index) for c in cases},
    )
