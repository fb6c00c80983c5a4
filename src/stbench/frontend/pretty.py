"""Canonical pretty-printer; re-parsing its output reproduces the Ast.

The printer also gives every statement site it prints the span of the text
it printed for it, as the parser would: a statement from its first token to
its last (an FB call, EXIT and RETURN without the `;`), the expression of a
branch guard, CASE selector, WHILE condition or UNTIL test, and a FOR loop
from `FOR` to `END_FOR`.  Offsets count from the start of the printed text,
so after printing, coverage and faults locate each site in that text.  The
one difference from a parse: an expression printed with outer parentheses
(`NOT (X = 1)`) spans the closing one too.
"""

from __future__ import annotations

from .nodes import (
    Assign,
    Ast,
    Binary,
    BinOp,
    Call,
    CaseStmt,
    Expr,
    ExitStmt,
    FbCall,
    ForStmt,
    IfStmt,
    IndexRef,
    Literal,
    MemberRef,
    PouDecl,
    PouKind,
    RepeatStmt,
    ReturnStmt,
    Section,
    Stmt,
    TypeRef,
    Unary,
    UnOp,
    VarRef,
    WhileStmt,
)
from .source import Span

_IND = "    "

# binding strength per operator, for minimal parenthesization
_PREC = {
    BinOp.OR: 1,
    BinOp.XOR: 2,
    BinOp.AND: 3,
    BinOp.EQ: 4,
    BinOp.NE: 4,
    BinOp.LT: 5,
    BinOp.LE: 5,
    BinOp.GT: 5,
    BinOp.GE: 5,
    BinOp.ADD: 6,
    BinOp.SUB: 6,
    BinOp.MUL: 7,
    BinOp.DIV: 7,
    BinOp.MOD: 7,
    BinOp.POW: 8,
}
_UNARY_PREC = 9


def print_ast(ast: Ast) -> str:
    """The unit's text, POUs separated by a blank line; sites get spans."""
    p = _Printer()
    for pou in ast.pous:
        p.pou(pou)
    return p.text()


def print_pou(pou: PouDecl) -> str:
    p = _Printer()
    p.pou(pou)
    return p.text()


class _Printer:
    """Lines of text, and the offset at which the next line starts."""

    def __init__(self):
        self.lines: list[str] = []
        self.pos = 0

    def text(self) -> str:
        return "\n".join(self.lines)

    def line(self, text: str) -> None:
        self.lines.append(text)
        self.pos += len(text) + 1

    def site(self, node, pad: str, text: str, tail: str = "") -> None:
        """Print a statement's line; the statement spans `text`."""
        start = self.pos + len(pad)
        node.span = Span(start, start + len(text))
        self.line(pad + text + tail)

    def headed(self, expr: Expr, pad: str, head: str, tail: str = "") -> None:
        """Print `head expr tail` as a line; the expression spans its text."""
        text = format_expr(expr)
        start = self.pos + len(pad) + len(head) + 1
        expr.span = Span(start, start + len(text))
        self.line(f"{pad}{head} {text}{tail}")

    def pou(self, pou: PouDecl) -> None:
        if pou.kind is PouKind.FUNCTION:
            self.line(f"FUNCTION {pou.name} : {format_type_ref(pou.ret_type)}")
        else:
            self.line(f"{pou.kind.value} {pou.name}")
        current: Section | None = None
        for d in pou.decls:
            if d.section is not current:
                if current is not None:
                    self.line("END_VAR")
                self.line(d.section.value)
                current = d.section
            init = ""
            if d.init is not None:
                if isinstance(d.init, list):
                    init = " := [" + ", ".join(format_literal(l) for l in d.init) + "]"
                else:
                    init = " := " + format_literal(d.init)
            self.line(f"{_IND}{d.name} : {format_type_ref(d.type_ref)}{init};")
        if current is not None:
            self.line("END_VAR")
        self.line("")
        self.body(pou.body, 0)
        self.line("END_" + pou.kind.value)
        self.line("")

    def body(self, body: list[Stmt], depth: int) -> None:
        pad = _IND * depth
        for st in body:
            if isinstance(st, Assign):
                self.site(st, pad, f"{format_expr(st.target)} := {format_expr(st.value)};")
            elif isinstance(st, FbCall):
                parts = []
                for p in st.params:
                    arrow = "=>" if p.is_output else ":="
                    parts.append(f"{p.name} {arrow} {format_expr(p.expr)}")
                self.site(st, pad, f"{st.instance}({', '.join(parts)})", ";")
            elif isinstance(st, ExitStmt):
                self.site(st, pad, "EXIT", ";")
            elif isinstance(st, ReturnStmt):
                self.site(st, pad, "RETURN", ";")
            elif isinstance(st, IfStmt):
                kw = "IF"
                for br in st.branches:
                    self.headed(br.cond, pad, kw, " THEN")
                    self.body(br.body, depth + 1)
                    kw = "ELSIF"
                if st.else_body:
                    self.line(f"{pad}ELSE")
                    self.body(st.else_body, depth + 1)
                self.line(f"{pad}END_IF;")
            elif isinstance(st, CaseStmt):
                self.headed(st.selector, pad, "CASE", " OF")
                for br in st.branches:
                    labels = ", ".join(
                        str(l.lo) if l.lo == l.hi else f"{l.lo}..{l.hi}" for l in br.labels
                    )
                    self.line(f"{pad}{_IND}{labels}:")
                    self.body(br.body, depth + 2)
                if st.else_body:
                    self.line(f"{pad}ELSE")
                    self.body(st.else_body, depth + 1)
                self.line(f"{pad}END_CASE;")
            elif isinstance(st, ForStmt):
                step = f" BY {format_expr(st.step)}" if st.step is not None else ""
                start = self.pos + len(pad)
                self.line(
                    f"{pad}FOR {st.var} := {format_expr(st.start)} TO {format_expr(st.stop)}{step} DO"
                )
                self.body(st.body, depth + 1)
                st.span = Span(start, self.pos + len(pad) + len("END_FOR"))
                self.line(f"{pad}END_FOR;")
            elif isinstance(st, WhileStmt):
                self.headed(st.cond, pad, "WHILE", " DO")
                self.body(st.body, depth + 1)
                self.line(f"{pad}END_WHILE;")
            elif isinstance(st, RepeatStmt):
                self.line(f"{pad}REPEAT")
                self.body(st.body, depth + 1)
                self.headed(st.until, pad, "UNTIL")
                self.line(f"{pad}END_REPEAT;")
            else:  # pragma: no cover
                raise TypeError(f"unhandled statement {st!r}")


def format_type_ref(t: TypeRef) -> str:
    if t.name == "ARRAY":
        return f"ARRAY[{t.array_lo}..{t.array_hi}] OF {format_type_ref(t.array_elem)}"
    if t.name == "STRING" and t.string_cap is not None:
        return f"STRING[{t.string_cap}]"
    return t.name


def format_literal(lit: Literal) -> str:
    k = lit.lit_kind
    if k is Literal.K.BOOL:
        return "TRUE" if lit.value else "FALSE"
    if k is Literal.K.INT:
        return str(lit.value)
    if k is Literal.K.REAL:
        return format_real(lit.value)
    if k is Literal.K.TIME:
        return f"T#{lit.value}ms"
    return format_string(lit.value)


def format_real(v: float) -> str:
    text = repr(float(v))
    # ensure the token lexes as a real literal even for integral values
    if "." not in text and "e" not in text and "E" not in text:
        text += ".0"
    return text


def format_string(s: str) -> str:
    out = ["'"]
    for ch in s:
        if ch == "'":
            out.append("$'")
        elif ch == "$":
            out.append("$$")
        elif ch == "\n":
            out.append("$N")
        elif ch == "\r":
            out.append("$R")
        elif ch == "\t":
            out.append("$T")
        elif ch == "\f":
            out.append("$P")
        elif ord(ch) < 32 or ord(ch) > 126:
            out.append(f"${ord(ch) & 0xFF:02X}")
        else:
            out.append(ch)
    out.append("'")
    return "".join(out)


def format_expr(e: Expr, parent_prec: int = 0) -> str:
    if isinstance(e, Literal):
        text = format_literal(e)
        if e.lit_kind in (Literal.K.INT, Literal.K.REAL) and e.value < 0 and parent_prec >= _UNARY_PREC:
            return f"({text})"
        return text
    if isinstance(e, VarRef):
        return e.name
    if isinstance(e, MemberRef):
        return f"{format_expr(e.base)}.{e.member}"
    if isinstance(e, IndexRef):
        return f"{format_expr(e.base)}[{format_expr(e.index)}]"
    if isinstance(e, Call):
        return f"{e.name}({', '.join(format_expr(a) for a in e.args)})"
    if isinstance(e, Unary):
        op = "NOT " if e.op is UnOp.NOT else e.op.value
        inner = format_expr(e.operand, _UNARY_PREC)
        text = f"{op}{inner}"
        return f"({text})" if parent_prec > _UNARY_PREC else text
    if isinstance(e, Binary):
        prec = _PREC[e.op]
        op = e.op.value
        if e.op is BinOp.POW:  # right-associative
            left = format_expr(e.left, prec + 1)
            right = format_expr(e.right, prec)
        else:
            left = format_expr(e.left, prec)
            right = format_expr(e.right, prec + 1)
        text = f"{left} {op} {right}"
        return f"({text})" if parent_prec > prec else text
    raise TypeError(f"unhandled expression {e!r}")  # pragma: no cover
