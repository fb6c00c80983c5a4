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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .source import Span, SourceUnit
from .types import STType

_NO_SID = -1


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Expr:
    pass


@dataclass
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


@dataclass
class VarRef(Expr):
    name: str  # normalized upper-case
    span: Span = field(compare=False, default=Span(0, 0))
    ty: STType | None = field(compare=False, default=None)


@dataclass
class MemberRef(Expr):
    base: Expr
    member: str
    span: Span = field(compare=False, default=Span(0, 0))
    ty: STType | None = field(compare=False, default=None)


@dataclass
class IndexRef(Expr):
    base: Expr
    index: Expr
    span: Span = field(compare=False, default=Span(0, 0))
    ty: STType | None = field(compare=False, default=None)


class UnOp(enum.Enum):
    NEG = "-"
    PLUS = "+"
    NOT = "NOT"


class BinOp(enum.Enum):
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


@dataclass
class Unary(Expr):
    op: UnOp
    operand: Expr
    span: Span = field(compare=False, default=Span(0, 0))
    ty: STType | None = field(compare=False, default=None)


@dataclass
class Binary(Expr):
    op: BinOp
    left: Expr
    right: Expr
    span: Span = field(compare=False, default=Span(0, 0))
    ty: STType | None = field(compare=False, default=None)


@dataclass
class Call(Expr):
    name: str  # normalized upper-case function name
    args: list[Expr]
    span: Span = field(compare=False, default=Span(0, 0))
    ty: STType | None = field(compare=False, default=None)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Stmt:
    pass


@dataclass
class Assign(Stmt):
    target: Expr
    value: Expr
    span: Span = field(compare=False, default=Span(0, 0))
    sid: int = field(compare=False, default=_NO_SID)


@dataclass
class IfBranch:
    cond: Expr
    body: list[Stmt]
    span: Span = field(compare=False, default=Span(0, 0))
    sid: int = field(compare=False, default=_NO_SID)


@dataclass
class IfStmt(Stmt):
    branches: list[IfBranch]
    else_body: list[Stmt]
    span: Span = field(compare=False, default=Span(0, 0))


@dataclass
class CaseLabel:
    lo: int
    hi: int  # == lo for single-value labels


@dataclass
class CaseBranch:
    labels: list[CaseLabel]
    body: list[Stmt]
    span: Span = field(compare=False, default=Span(0, 0))


@dataclass
class CaseStmt(Stmt):
    selector: Expr
    branches: list[CaseBranch]
    else_body: list[Stmt]
    span: Span = field(compare=False, default=Span(0, 0))
    sid: int = field(compare=False, default=_NO_SID)


@dataclass
class ForStmt(Stmt):
    var: str
    start: Expr
    stop: Expr
    step: Expr | None
    body: list[Stmt]
    span: Span = field(compare=False, default=Span(0, 0))
    sid: int = field(compare=False, default=_NO_SID)


@dataclass
class WhileStmt(Stmt):
    cond: Expr
    body: list[Stmt]
    span: Span = field(compare=False, default=Span(0, 0))
    sid: int = field(compare=False, default=_NO_SID)


@dataclass
class RepeatStmt(Stmt):
    body: list[Stmt]
    until: Expr
    span: Span = field(compare=False, default=Span(0, 0))
    sid: int = field(compare=False, default=_NO_SID)


@dataclass
class ExitStmt(Stmt):
    span: Span = field(compare=False, default=Span(0, 0))
    sid: int = field(compare=False, default=_NO_SID)


@dataclass
class ReturnStmt(Stmt):
    span: Span = field(compare=False, default=Span(0, 0))
    sid: int = field(compare=False, default=_NO_SID)


@dataclass
class ParamBind:
    name: str            # formal parameter, upper-cased
    is_output: bool      # True for `Q => target`
    expr: Expr           # value expression, or assignment target for outputs
    span: Span = field(compare=False, default=Span(0, 0))


@dataclass
class FbCall(Stmt):
    instance: str        # instance variable name, upper-cased
    params: list[ParamBind]
    span: Span = field(compare=False, default=Span(0, 0))
    sid: int = field(compare=False, default=_NO_SID)


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------

class Section(enum.Enum):
    INPUT = "VAR_INPUT"
    OUTPUT = "VAR_OUTPUT"
    IN_OUT = "VAR_IN_OUT"
    LOCAL = "VAR"
    TEMP = "VAR_TEMP"


@dataclass
class TypeRef:
    """Unresolved type reference as written in a declaration."""

    name: str                       # "INT", "STRING", "MY_FB", or "ARRAY"
    string_cap: int | None = None
    array_lo: int | None = None
    array_hi: int | None = None
    array_elem: "TypeRef | None" = None
    span: Span = field(compare=False, default=Span(0, 0))


@dataclass
class VarDecl:
    name: str
    type_ref: TypeRef
    init: Literal | list[Literal] | None
    section: Section
    span: Span = field(compare=False, default=Span(0, 0))


class PouKind(enum.Enum):
    FUNCTION_BLOCK = "FUNCTION_BLOCK"
    FUNCTION = "FUNCTION"
    PROGRAM = "PROGRAM"


@dataclass
class PouDecl:
    kind: PouKind
    name: str
    ret_type: TypeRef | None      # functions only
    decls: list[VarDecl]
    body: list[Stmt]
    span: Span = field(compare=False, default=Span(0, 0))


@dataclass
class Ast:
    pous: list[PouDecl]
    src: SourceUnit = field(compare=False, default=None)
    statement_count: int = field(compare=False, default=0)


# ---------------------------------------------------------------------------
# Walking helpers
# ---------------------------------------------------------------------------

def iter_sites(body: list[Stmt]):
    """Yield every site node of `body` in source order: a simple statement,
    an IF/ELSIF branch, or a CASE, FOR, WHILE or REPEAT statement.  Each
    carries its own `sid`; the numbering pass and the resolver's per-POU
    site list share this walk."""
    for st in body:
        if isinstance(st, (Assign, FbCall, ExitStmt, ReturnStmt)):
            yield st
        elif isinstance(st, IfStmt):
            for br in st.branches:
                yield br
                yield from iter_sites(br.body)
            yield from iter_sites(st.else_body)
        elif isinstance(st, CaseStmt):
            yield st
            for br in st.branches:
                yield from iter_sites(br.body)
            yield from iter_sites(st.else_body)
        elif isinstance(st, (ForStmt, WhileStmt)):
            yield st
            yield from iter_sites(st.body)
        elif isinstance(st, RepeatStmt):
            yield from iter_sites(st.body)
            yield st
        else:  # pragma: no cover - parser emits no other statement kinds
            raise TypeError(f"unknown statement {st!r}")


def site_span(node) -> Span:
    """Where a site sits in its source: the condition of an IF/ELSIF branch
    or a WHILE, the selector of a CASE, the UNTIL expression of a REPEAT,
    and otherwise the node itself."""
    if isinstance(node, (IfBranch, WhileStmt)):
        return node.cond.span
    if isinstance(node, CaseStmt):
        return node.selector.span
    if isinstance(node, RepeatStmt):
        return node.until.span
    return node.span


def assign_statement_ids(ast: Ast) -> None:
    """Number every site densely, 0-based, in source order over the unit."""
    next_id = 0
    for pou in ast.pous:
        for node in iter_sites(pou.body):
            node.sid = next_id
            next_id += 1
    ast.statement_count = next_id
