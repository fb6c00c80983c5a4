"""AST node definitions.

Spans, statement ids and resolved types are carried on the nodes but are
excluded from equality, so two parses of equivalent source compare equal
structurally.  A statement site is a node with a `sid` field, and each site
node is exactly one site: a simple statement (assignment, FB call, EXIT,
RETURN), an IF/ELSIF branch, or a CASE, FOR, WHILE or REPEAT statement, which
stands for its selector, header or condition.  Sids are dense and 0-based
over a compilation unit, assigned in source order after a successful parse
(`assign_statement_ids`), which mirrors line-oriented coverage tools at AST
level.  `iter_sites` walks a body's site nodes and `site_span` gives the
span a site is reported at.

The language's operator precedence (`BINOP_PRECEDENCE`, with
`UNARY_PRECEDENCE` above it) and its numeric literal kinds
(`NUMERIC_LITERALS`) live here, beside the operators and literal kinds
they rank, for the parser, the printer and the resolver alike.

Every node class is slotted: a generated harness holds tens of thousands
of nodes, so none carries a per-instance `__dict__`.  Walks over the nodes
(here, and in the printer, the resolver and the interpreter) dispatch on a
node's exact class through tables keyed by it, so no node class has a
subclass.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from operator import attrgetter

from .source import Span, SourceUnit
from .types import STType

_NO_SID = -1


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

@dataclass(eq=False, slots=True)
class Expr:
    pass


@dataclass(slots=True)
class Literal(Expr):
    class K(enum.Enum):
        BOOL = "BOOL"
        INT = "INT"
        REAL = "REAL"
        TIME = "TIME"
        STRING = "STRING"

    lit_kind: K
    value: object
    span: Span = field(compare=False, default=Span(0, 0))
    ty: STType | None = field(compare=False, default=None)


# the literal kinds a leading `-` folds into, so that `-5` is one literal,
# and whose type the other operand of a binary operator decides
NUMERIC_LITERALS = (Literal.K.INT, Literal.K.REAL)


@dataclass(slots=True)
class VarRef(Expr):
    name: str  # normalized upper-case
    span: Span = field(compare=False, default=Span(0, 0))
    ty: STType | None = field(compare=False, default=None)


@dataclass(slots=True)
class MemberRef(Expr):
    base: Expr
    member: str
    span: Span = field(compare=False, default=Span(0, 0))
    ty: STType | None = field(compare=False, default=None)


@dataclass(slots=True)
class IndexRef(Expr):
    base: Expr
    index: Expr
    span: Span = field(compare=False, default=Span(0, 0))
    ty: STType | None = field(compare=False, default=None)


class UnOp(enum.Enum):
    # members compare by identity; Enum.__hash__ would be a Python-level call
    __hash__ = object.__hash__

    NEG = "-"
    PLUS = "+"
    NOT = "NOT"


class BinOp(enum.Enum):
    # members compare by identity; Enum.__hash__ would be a Python-level call
    __hash__ = object.__hash__

    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    MOD = "MOD"
    POW = "**"
    AND = "AND"
    OR = "OR"
    XOR = "XOR"
    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="


# How tightly each binary operator binds, higher binding tighter: the one
# table the parser and the printer read.  `**` is right-associative and
# every other operator left-associative.  A unary operator binds tighter
# than any binary one, at UNARY_PRECEDENCE.
BINOP_PRECEDENCE = {
    op: prec
    for prec, level in enumerate((
        (BinOp.OR,),
        (BinOp.XOR,),
        (BinOp.AND,),
        (BinOp.EQ, BinOp.NE),
        (BinOp.LT, BinOp.LE, BinOp.GT, BinOp.GE),
        (BinOp.ADD, BinOp.SUB),
        (BinOp.MUL, BinOp.DIV, BinOp.MOD),
        (BinOp.POW,),
    ), start=1)
    for op in level
}
UNARY_PRECEDENCE = max(BINOP_PRECEDENCE.values()) + 1


@dataclass(slots=True)
class Unary(Expr):
    op: UnOp
    operand: Expr
    span: Span = field(compare=False, default=Span(0, 0))
    ty: STType | None = field(compare=False, default=None)


@dataclass(slots=True)
class Binary(Expr):
    op: BinOp
    left: Expr
    right: Expr
    span: Span = field(compare=False, default=Span(0, 0))
    ty: STType | None = field(compare=False, default=None)


@dataclass(slots=True)
class Call(Expr):
    name: str  # normalized upper-case function name
    args: list[Expr]
    span: Span = field(compare=False, default=Span(0, 0))
    ty: STType | None = field(compare=False, default=None)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

@dataclass(eq=False, slots=True)
class Stmt:
    pass


@dataclass(slots=True)
class Assign(Stmt):
    target: Expr
    value: Expr
    span: Span = field(compare=False, default=Span(0, 0))
    sid: int = field(compare=False, default=_NO_SID)


@dataclass(slots=True)
class IfBranch:
    cond: Expr
    body: list[Stmt]
    span: Span = field(compare=False, default=Span(0, 0))
    sid: int = field(compare=False, default=_NO_SID)


@dataclass(slots=True)
class IfStmt(Stmt):
    branches: list[IfBranch]
    else_body: list[Stmt]
    span: Span = field(compare=False, default=Span(0, 0))


@dataclass(slots=True)
class CaseLabel:
    lo: int
    hi: int  # == lo for single-value labels


@dataclass(slots=True)
class CaseBranch:
    labels: list[CaseLabel]
    body: list[Stmt]
    span: Span = field(compare=False, default=Span(0, 0))


@dataclass(slots=True)
class CaseStmt(Stmt):
    selector: Expr
    branches: list[CaseBranch]
    else_body: list[Stmt]
    span: Span = field(compare=False, default=Span(0, 0))
    sid: int = field(compare=False, default=_NO_SID)


@dataclass(slots=True)
class ForStmt(Stmt):
    var: str
    start: Expr
    stop: Expr
    step: Expr | None
    body: list[Stmt]
    span: Span = field(compare=False, default=Span(0, 0))
    sid: int = field(compare=False, default=_NO_SID)


@dataclass(slots=True)
class WhileStmt(Stmt):
    cond: Expr
    body: list[Stmt]
    span: Span = field(compare=False, default=Span(0, 0))
    sid: int = field(compare=False, default=_NO_SID)


@dataclass(slots=True)
class RepeatStmt(Stmt):
    body: list[Stmt]
    until: Expr
    span: Span = field(compare=False, default=Span(0, 0))
    sid: int = field(compare=False, default=_NO_SID)


@dataclass(slots=True)
class ExitStmt(Stmt):
    span: Span = field(compare=False, default=Span(0, 0))
    sid: int = field(compare=False, default=_NO_SID)


@dataclass(slots=True)
class ReturnStmt(Stmt):
    span: Span = field(compare=False, default=Span(0, 0))
    sid: int = field(compare=False, default=_NO_SID)


@dataclass(slots=True)
class ParamBind:
    name: str            # formal parameter, upper-cased
    is_output: bool      # True for `Q => target`
    expr: Expr           # value expression, or assignment target for outputs
    span: Span = field(compare=False, default=Span(0, 0))


@dataclass(slots=True)
class FbCall(Stmt):
    instance: str        # instance variable name, upper-cased
    params: list[ParamBind]
    span: Span = field(compare=False, default=Span(0, 0))
    sid: int = field(compare=False, default=_NO_SID)


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------

class Section(enum.Enum):
    # members compare by identity; Enum.__hash__ would be a Python-level call
    __hash__ = object.__hash__

    INPUT = "VAR_INPUT"
    OUTPUT = "VAR_OUTPUT"
    IN_OUT = "VAR_IN_OUT"
    LOCAL = "VAR"
    TEMP = "VAR_TEMP"


@dataclass(slots=True)
class TypeRef:
    """Unresolved type reference as written in a declaration."""

    name: str                       # "INT", "STRING", "MY_FB", or "ARRAY"
    string_cap: int | None = None
    array_lo: int | None = None
    array_hi: int | None = None
    array_elem: "TypeRef | None" = None
    span: Span = field(compare=False, default=Span(0, 0))


@dataclass(slots=True)
class VarDecl:
    name: str
    type_ref: TypeRef
    init: Literal | list[Literal] | None
    section: Section
    span: Span = field(compare=False, default=Span(0, 0))


class PouKind(enum.Enum):
    # members compare by identity; Enum.__hash__ would be a Python-level call
    __hash__ = object.__hash__

    FUNCTION_BLOCK = "FUNCTION_BLOCK"
    FUNCTION = "FUNCTION"
    PROGRAM = "PROGRAM"


@dataclass(slots=True)
class PouDecl:
    kind: PouKind
    name: str
    ret_type: TypeRef | None      # functions only
    decls: list[VarDecl]
    body: list[Stmt]
    span: Span = field(compare=False, default=Span(0, 0))
    # the body's site nodes in sid order, recorded by assign_statement_ids
    sites: tuple = field(compare=False, default=(), repr=False)


@dataclass(slots=True)
class Ast:
    pous: list[PouDecl]
    src: SourceUnit = field(compare=False, default=None)
    statement_count: int = field(compare=False, default=0)


# ---------------------------------------------------------------------------
# Walking helpers
# ---------------------------------------------------------------------------

def iter_sites(body: list[Stmt]) -> list[Stmt | IfBranch]:
    """Every site node of `body` in source order: a simple statement, an
    IF/ELSIF branch, or a CASE, FOR, WHILE or REPEAT statement.  Each
    carries its own `sid`.  The numbering pass walks each POU body once and
    records the result, which the resolver's per-POU site list reuses."""
    out: list[Stmt | IfBranch] = []
    _collect(body, out)
    return out


def _collect(body: list[Stmt], out: list) -> None:
    for st in body:
        walk = _SITE_WALKS[type(st)]
        if walk is None:
            out.append(st)
        else:
            walk(st, out)


def _if_sites(st: IfStmt, out: list) -> None:
    for br in st.branches:
        out.append(br)
        _collect(br.body, out)
    _collect(st.else_body, out)


def _case_sites(st: CaseStmt, out: list) -> None:
    out.append(st)
    for br in st.branches:
        _collect(br.body, out)
    _collect(st.else_body, out)


def _loop_sites(st: ForStmt | WhileStmt, out: list) -> None:
    out.append(st)
    _collect(st.body, out)


def _repeat_sites(st: RepeatStmt, out: list) -> None:
    _collect(st.body, out)
    out.append(st)


# per statement class, how its sites are walked: None for a simple
# statement, which is one site itself
_SITE_WALKS = {
    Assign: None,
    FbCall: None,
    ExitStmt: None,
    ReturnStmt: None,
    IfStmt: _if_sites,
    CaseStmt: _case_sites,
    ForStmt: _loop_sites,
    WhileStmt: _loop_sites,
    RepeatStmt: _repeat_sites,
}

# per site class, the span a site is reported at (`site_span`)
_SITE_SPANS = {
    Assign: attrgetter("span"),
    FbCall: attrgetter("span"),
    ExitStmt: attrgetter("span"),
    ReturnStmt: attrgetter("span"),
    ForStmt: attrgetter("span"),
    IfBranch: attrgetter("cond.span"),
    WhileStmt: attrgetter("cond.span"),
    CaseStmt: attrgetter("selector.span"),
    RepeatStmt: attrgetter("until.span"),
}


def site_span(node: Stmt | IfBranch) -> Span:
    """Where a site sits in its source: the condition of an IF/ELSIF branch
    or a WHILE, the selector of a CASE, the UNTIL expression of a REPEAT,
    and otherwise the node itself."""
    return _SITE_SPANS[type(node)](node)


def assign_statement_ids(ast: Ast) -> None:
    """Number every site densely, 0-based, in source order over the unit,
    and record each POU's site nodes on it (`PouDecl.sites`)."""
    next_id = 0
    for pou in ast.pous:
        pou.sites = tuple(iter_sites(pou.body))
        for node in pou.sites:
            node.sid = next_id
            next_id += 1
    ast.statement_count = next_id
