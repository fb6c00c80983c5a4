"""Canonical pretty-printer; re-parsing its output reproduces the Ast.

It parenthesizes by `nodes.BINOP_PRECEDENCE` and spells string characters
by `lexer.ESCAPES`, the tables the parser and the lexer read.

The printer also gives every statement site it prints the span of the text
it printed for it, as the parser would: a statement from its first token to
its last (an FB call, EXIT and RETURN without the `;`), the expression of a
branch guard, CASE selector, WHILE condition or UNTIL test, and a FOR loop
from `FOR` to `END_FOR`.  Offsets count from the start of the printed text,
or from where `print_ast` is told that text will begin in a larger one, so
after printing, coverage and faults locate each site in that text.  The one
difference from a parse: an expression printed with outer parentheses
(`NOT (X = 1)`) spans the closing one too.
"""

from __future__ import annotations

from .lexer import ESCAPES
from .nodes import (
    BINOP_PRECEDENCE,
    NUMERIC_LITERALS,
    UNARY_PRECEDENCE,
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
from .types import MAX_STRING_CHAR

_IND = "    "

# each operator's (binding strength, text), and each unary operator's
# prefix: an Enum member's `.value` is a Python-level property read
_BINOP_TEXT = {op: (prec, op.value) for op, prec in BINOP_PRECEDENCE.items()}
_UNOP_TEXT = {**{op: op.value for op in UnOp}, UnOp.NOT: "NOT "}
# how a string literal spells each one-byte character: by its escape
# (`lexer.ESCAPES`, where `$N` follows `$L`, so a line feed prints as
# `$N`), as `$` and two hex digits if it is not printable ASCII, or as
# itself
_STRING_CHARS = {
    **{chr(c): chr(c) if 32 <= c <= 126 else f"${c:02X}" for c in range(MAX_STRING_CHAR + 1)},
    **{ch: "$" + code for code, ch in ESCAPES.items()},
}


def print_ast(ast: Ast, start: int = 0) -> str:
    """The unit's text, POUs separated by a blank line; sites get spans,
    as offsets into a text in which the printed one begins at `start`."""
    p = _Printer(start)
    for pou in ast.pous:
        p.pou(pou)
    return p.text()


def print_pou(pou: PouDecl) -> str:
    p = _Printer()
    p.pou(pou)
    return p.text()


class _Printer:
    """Lines of text, and the offset at which the next line starts."""

    def __init__(self, start: int = 0):
        self.lines: list[str] = []
        self.pos = start

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
            _STMTS[type(st)](self, st, pad, depth)

    def assign(self, st: Assign, pad: str, depth: int) -> None:
        self.site(st, pad, f"{format_expr(st.target)} := {format_expr(st.value)};")

    def fb_call(self, st: FbCall, pad: str, depth: int) -> None:
        parts = [f"{p.name} {'=>' if p.is_output else ':='} {format_expr(p.expr)}" for p in st.params]
        self.site(st, pad, f"{st.instance}({', '.join(parts)})", ";")

    def exit_stmt(self, st: ExitStmt, pad: str, depth: int) -> None:
        self.site(st, pad, "EXIT", ";")

    def return_stmt(self, st: ReturnStmt, pad: str, depth: int) -> None:
        self.site(st, pad, "RETURN", ";")

    def if_stmt(self, st: IfStmt, pad: str, depth: int) -> None:
        kw = "IF"
        for br in st.branches:
            self.headed(br.cond, pad, kw, " THEN")
            self.body(br.body, depth + 1)
            kw = "ELSIF"
        if st.else_body:
            self.line(f"{pad}ELSE")
            self.body(st.else_body, depth + 1)
        self.line(f"{pad}END_IF;")

    def case_stmt(self, st: CaseStmt, pad: str, depth: int) -> None:
        self.headed(st.selector, pad, "CASE", " OF")
        for br in st.branches:
            labels = ", ".join(str(l.lo) if l.lo == l.hi else f"{l.lo}..{l.hi}" for l in br.labels)
            self.line(f"{pad}{_IND}{labels}:")
            self.body(br.body, depth + 2)
        if st.else_body:
            self.line(f"{pad}ELSE")
            self.body(st.else_body, depth + 1)
        self.line(f"{pad}END_CASE;")

    def for_stmt(self, st: ForStmt, pad: str, depth: int) -> None:
        step = f" BY {format_expr(st.step)}" if st.step is not None else ""
        start = self.pos + len(pad)
        self.line(f"{pad}FOR {st.var} := {format_expr(st.start)} TO {format_expr(st.stop)}{step} DO")
        self.body(st.body, depth + 1)
        st.span = Span(start, self.pos + len(pad) + len("END_FOR"))
        self.line(f"{pad}END_FOR;")

    def while_stmt(self, st: WhileStmt, pad: str, depth: int) -> None:
        self.headed(st.cond, pad, "WHILE", " DO")
        self.body(st.body, depth + 1)
        self.line(f"{pad}END_WHILE;")

    def repeat_stmt(self, st: RepeatStmt, pad: str, depth: int) -> None:
        self.line(f"{pad}REPEAT")
        self.body(st.body, depth + 1)
        self.headed(st.until, pad, "UNTIL")
        self.line(f"{pad}END_REPEAT;")


_STMTS = {
    Assign: _Printer.assign,
    FbCall: _Printer.fb_call,
    ExitStmt: _Printer.exit_stmt,
    ReturnStmt: _Printer.return_stmt,
    IfStmt: _Printer.if_stmt,
    CaseStmt: _Printer.case_stmt,
    ForStmt: _Printer.for_stmt,
    WhileStmt: _Printer.while_stmt,
    RepeatStmt: _Printer.repeat_stmt,
}


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
    """The literal of a STRING value, whose characters are one byte each."""
    return "'" + "".join([_STRING_CHARS[ch] for ch in s]) + "'"


def format_expr(e: Expr, parent_prec: int = 0) -> str:
    return _EXPRS[type(e)](e, parent_prec)


def _literal(e: Literal, parent_prec: int) -> str:
    text = format_literal(e)
    if e.lit_kind in NUMERIC_LITERALS and e.value < 0 and parent_prec >= UNARY_PRECEDENCE:
        return f"({text})"
    return text


def _var(e: VarRef, parent_prec: int) -> str:
    return e.name


def _member(e: MemberRef, parent_prec: int) -> str:
    return f"{format_expr(e.base)}.{e.member}"


def _index(e: IndexRef, parent_prec: int) -> str:
    return f"{format_expr(e.base)}[{format_expr(e.index)}]"


def _call(e: Call, parent_prec: int) -> str:
    return f"{e.name}({', '.join([format_expr(a) for a in e.args])})"


def _unary(e: Unary, parent_prec: int) -> str:
    text = _UNOP_TEXT[e.op] + format_expr(e.operand, UNARY_PRECEDENCE)
    return f"({text})" if parent_prec > UNARY_PRECEDENCE else text


def _binary(e: Binary, parent_prec: int) -> str:
    prec, op = _BINOP_TEXT[e.op]
    if e.op is BinOp.POW:  # right-associative
        left = format_expr(e.left, prec + 1)
        right = format_expr(e.right, prec)
    else:
        left = format_expr(e.left, prec)
        right = format_expr(e.right, prec + 1)
    text = f"{left} {op} {right}"
    return f"({text})" if parent_prec > prec else text


_EXPRS = {
    Literal: _literal,
    VarRef: _var,
    MemberRef: _member,
    IndexRef: _index,
    Call: _call,
    Unary: _unary,
    Binary: _binary,
}
