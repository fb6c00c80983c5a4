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
TC_<n>_DONE / TC_<n>_PASS / TC_<n>_FAILS (`hook_var_names`), which the
runner reads after each scan to write its monitor lines and to decide
when the run is over.

The runner retires a DONE case from the scan (`runner`), which relies on
this layout: every case block's body starts with `IF DONE THEN RETURN;
END_IF;`, TEST_RUNNER calls each case with no inputs, and each call is
followed by its three mirror assignments and nothing else.  So once DONE,
a case's call and its mirrors run the same sites every scan and change
nothing.

The unit under test and its libraries are parsed and resolved once, before
the harness is built.  The case blocks and the program are built as AST
nodes straight from the checked suite, numbered, and resolved as one layer
over the unit's TypedProgram; no generated text is lexed or parsed.
harness.st holds the libraries and the unit as written, then the generated
POUs as `frontend.pretty` prints them, then a comment stating the scan
interval.  The printer gives each generated site the span of its printed
text in harness.st, whose text is also the generated layer's source, so a
fault or diagnostic in generated code names its harness.st line; coverage
is listed in the unit's and each library's own lines (`coverage`).  A POU
name may be defined in one layer only, and the generated names
(`is_generated_name`) in none of the unit and its libraries:
`runner.load_program` checks both, raising its `CollisionError`.  The
block under test is one a suite can drive (`testspec.suite_interface`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .frontend import nodes as N
from .frontend import types as T
from .frontend.pretty import print_ast
from .frontend.resolve import PouInfo, TypedProgram, resolve
from .frontend.source import SourceUnit
from .runtime import values as V

if TYPE_CHECKING:  # testspec bounds a suite by case_values
    from .testspec import CheckedCase, CheckedSuite

PROGRAM_NAME = "TEST_RUNNER"
DEFAULT_ATOL = 1e-6
DEFAULT_RTOL = 1e-6
DEFAULT_CYCLE_TIME_MS = 10


@dataclass(slots=True)
class AssertionSlot:
    """One expected-output check: where its actual/flag variables live."""

    state: int
    column: str
    actual_var: str
    flag_var: str
    expected: V.Value


@dataclass(slots=True)
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
    cycle_time_ms: int               # the scan interval harness.st states


def hook_var_names(index: int) -> tuple[str, str, str]:
    """The program variables mirroring case `index`'s DONE, PASS and FAILS."""
    return (f"TC_{index}_DONE", f"TC_{index}_PASS", f"TC_{index}_FAILS")


def is_generated_name(name: str) -> bool:
    """Whether the harness may give a POU it generates the (upper-case)
    `name`: TEST_RUNNER, or TC_<i>_CASE for case i (`build_case_fb`)."""
    return name == PROGRAM_NAME or (name[:3] == "TC_" and name[-5:] == "_CASE" and name[3:-5].isdigit())


# ---------------------------------------------------------------------------
# node builders: each call makes fresh nodes, since resolving types every
# expression node in place
# ---------------------------------------------------------------------------

# operator and type text as ST spells it, read from tables: an Enum
# lookup by value or name, and a member's `.value`, are Python-level calls
_BINOPS = {op.value: op for op in N.BinOp}
_TYPE_NAMES = {kind: kind.value for kind in T.Kind}
# the literal kind that resolves to a runtime value of each scalar kind
_LITERAL_KINDS = {
    kind: N.Literal.K.INT if kind in T.INTEGERISH_KINDS
    else N.Literal.K.REAL if kind in T.REAL_KINDS
    else N.Literal.K[kind.value]
    for kind in T.Kind if kind is not T.Kind.ARRAY
}


def value_literal(val: V.Value) -> N.Literal:
    """The ST literal that resolves to a runtime value."""
    return N.Literal(_LITERAL_KINDS[val.ty.kind], val.v)


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
    return N.Binary(_BINOPS[op], left, right)


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
    if type(ty) is str:
        ref = N.TypeRef(ty)
    elif ty.kind is T.Kind.STRING and ty.cap != T.DEFAULT_STRING_CAP:
        ref = N.TypeRef("STRING", string_cap=ty.cap)
    else:
        ref = N.TypeRef(_TYPE_NAMES[ty.kind])
    return N.VarDecl(name, ref, None, section)


# ---------------------------------------------------------------------------
# generated POUs
# ---------------------------------------------------------------------------

def case_values(fb: PouInfo, assertions: int) -> int:
    """The values a case with `assertions` checks of `fb` adds to the
    harness program's storage (its `PouInfo.size`), as `build_case_fb` and
    `build_runner` lay it out: the program's instance of the case block
    and its three hook variables; in the block, DONE, PASS, FAILS, STATE,
    TICK, PENDING and CHECKED, the instance of `fb` with its own values,
    and an actual and a fail flag per check."""
    return 1 + 3 + 7 + 1 + fb.size + 2 * assertions


def build_case_fb(
    case: CheckedCase,
    fb: PouInfo,
    index: int,
    atol: float = DEFAULT_ATOL,
    rtol: float = DEFAULT_RTOL,
) -> CaseHarness:
    """Build the sequential-state test FB for one validated case."""
    fb_name = f"TC_{index}_CASE"

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
        decls += [_decl(slot.actual_var, slot.expected.ty), _decl(slot.flag_var, "BOOL")]
        checks.setdefault(slot.state, []).extend([
            _set(slot.actual_var, _ref("UNIT", slot.column)),
            _if(
                N.Unary(N.UnOp.NOT, _comparison(slot, atol, rtol)),
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


def _comparison(slot: AssertionSlot, atol: float, rtol: float) -> N.Expr:
    if slot.expected.ty.kind in T.REAL_KINDS:
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
    cycle_time_ms: int = DEFAULT_CYCLE_TIME_MS,
    atol: float = DEFAULT_ATOL,
    rtol: float = DEFAULT_RTOL,
) -> HarnessBundle:
    """Build the case FBs and the runner program for a suite, resolve them
    as one layer over `prog`, the unit under test with its libraries, and
    print them into harness.st after the texts of the unit and its
    libraries.  The suite's block is a FUNCTION_BLOCK that a suite can
    drive (`testspec.validate`).  harness.st's text is the generated layer's
    source, so a diagnostic of that layer gives a harness.st line; a layer
    that does not type-check raises a FrontendError."""
    fb = prog.lookup_pou(suite.fb_under_test)
    cases = [build_case_fb(case, fb, index, atol, rtol) for index, case in enumerate(suite.cases, start=1)]

    ast = N.Ast([*(c.pou for c in cases), build_runner(cases)])
    N.assign_statement_ids(ast)

    # harness.st lists the libraries before the unit that uses them, then
    # the generated POUs, printed with their sites' offsets in harness.st
    layers = prog.layers()
    head = "".join([dep.src.text + "\n" for dep in layers[1:] + layers[:1]])
    source = SourceUnit(
        head
        + print_ast(ast, len(head))
        + f"\n(* task configuration: one cyclic task, interval = {cycle_time_ms} ms *)\n",
        "harness.st",
    )
    # the generated layer's diagnostics refer to harness.st's text
    ast.src = SourceUnit(source.text, "generated harness")
    typed = resolve(ast, [prog])
    return HarnessBundle(source, typed, PROGRAM_NAME, cases, cycle_time_ms)
