"""Recursive-descent parser for the supported ST subset.

The parser keeps going after a syntax error: it records a diagnostic, skips
to the next `;` or section/block-closing keyword, and resumes, so one run
reports every syntax error in the unit.  On any error the whole parse fails
with a ParseError carrying the full diagnostic list.

The parser's operator table is `nodes.BINOP_PRECEDENCE`, and its POU and
section keywords are the `PouKind` and `Section` values: the tables the
printer prints by, so the two cannot disagree.

Nesting is bounded so that no later stage (resolver, statement generator,
execution) recurses past Python's default recursion limit: statements nest
at most MAX_DEPTH levels below a POU body, and an expression tree is at
most MAX_DEPTH levels high, counting each parenthesised sub-expression as a
level and each operator of a left-associative chain such as `a + b + c`.
Deeper input stops the parse at once with a diagnostic naming the limit.
"""

from __future__ import annotations

from .diagnostics import Diagnostic, ParseError
from .lexer import Token, TokKind, tokenize
from .nodes import (
    BINOP_PRECEDENCE,
    NUMERIC_LITERALS,
    Assign,
    Ast,
    Binary,
    BinOp,
    Call,
    CaseBranch,
    CaseLabel,
    CaseStmt,
    Expr,
    ExitStmt,
    FbCall,
    ForStmt,
    IfBranch,
    IfStmt,
    IndexRef,
    Literal,
    MemberRef,
    ParamBind,
    PouDecl,
    PouKind,
    RepeatStmt,
    ReturnStmt,
    Section,
    Stmt,
    TypeRef,
    Unary,
    UnOp,
    VarDecl,
    VarRef,
    WhileStmt,
    assign_statement_ids,
)
from .source import SourceUnit, Span


# A unit at both limits takes about 300 Python frames to parse, resolve,
# compile and run: under a third of the default recursion limit of 1000,
# leaving the rest to the caller and to calls between POUs at run time.
MAX_DEPTH = 40


class _Recover(Exception):
    """Internal: unwind to the nearest statement-recovery point."""


class _TooDeep(Exception):
    """Internal: abandon the parse; nesting passed MAX_DEPTH."""


# the keywords that open and close a POU and open a VAR section: what the
# printer prints for each PouKind and Section
_POU_OPENERS = {kind.value: kind for kind in PouKind}
_POU_CLOSERS = {"END_" + kind.value for kind in PouKind}
_SECTION_KWS = {section.value: section for section in Section}
_STMT_CLOSERS = {
    "END_IF", "END_CASE", "END_FOR", "END_WHILE", "END_REPEAT",
    "ELSE", "ELSIF", "UNTIL",
} | _POU_CLOSERS | set(_SECTION_KWS) | {"END_VAR"}
# what ends a VAR section whose END_VAR is missing
_SECTION_ENDS = set(_SECTION_KWS) | _POU_CLOSERS

# binary operator token -> (precedence, operator), from the one table the
# printer reads too; `&` is AND, and `**` is parsed a level below the rest,
# right-associative (parse_power)
_BINARY = {op.value: (prec, op) for op, prec in BINOP_PRECEDENCE.items() if op is not BinOp.POW}
_BINARY["&"] = _BINARY["AND"]
_UNARY = {op.value: op for op in UnOp}
# the literal kind each literal token kind spells, with the token's value
_LITERAL_TOKENS = {TokKind[k]: Literal.K[k] for k in ("INT", "REAL", "TIME", "STRING")}


class _Parser:
    def __init__(self, tokens: list[Token], src: SourceUnit | None):
        self.toks = tokens
        self.pos = 0
        self.src = src
        self.diags: list[Diagnostic] = []
        self.nesting = 0  # compound statements around the statement list being parsed
        self.height = 0   # height of the expression last parsed

    # -- token helpers ------------------------------------------------------

    @property
    def cur(self) -> Token:
        return self.toks[self.pos]

    def at_kw(self, *words: str) -> bool:
        return self.cur.kind is TokKind.KEYWORD and self.cur.norm in words

    def at_op(self, *ops: str) -> bool:
        return self.cur.kind in (TokKind.OP, TokKind.PUNCT) and self.cur.norm in ops

    def advance(self) -> Token:
        tok = self.cur
        if tok.kind is not TokKind.EOF:
            self.pos += 1
        return tok

    def error(self, message: str, expected: str | None = None, span: Span | None = None):
        self.diags.append(Diagnostic(message, span or self.cur.span, expected))
        raise _Recover()

    def expect_kw(self, word: str) -> Token:
        if not self.at_kw(word):
            self.error(f"unexpected {self.cur.kind.value} {self.cur.lexeme!r}", expected=word)
        return self.advance()

    def expect_op(self, op: str) -> Token:
        if not self.at_op(op):
            self.error(f"unexpected {self.cur.kind.value} {self.cur.lexeme!r}", expected=f"'{op}'")
        return self.advance()

    def expect_ident(self, what: str = "identifier") -> Token:
        if self.cur.kind is not TokKind.IDENT:
            self.error(f"unexpected {self.cur.kind.value} {self.cur.lexeme!r}", expected=what)
        return self.advance()

    def eat_semi(self) -> None:
        while self.at_op(";"):
            self.advance()

    # -- nesting bounds -------------------------------------------------------

    def too_deep(self, what: str, at: Token):
        self.diags.append(Diagnostic(f"{what} nested deeper than {MAX_DEPTH} levels", at.span))
        raise _TooDeep()

    def deeper(self, depth: int) -> int:
        """The depth of a sub-expression opened at the current token inside
        one at `depth`.  The tree is at least one level higher than that."""
        if depth + 1 >= MAX_DEPTH:
            self.too_deep("expression", self.cur)
        return depth + 1

    def over(self, height: int, at: Token) -> None:
        """Set self.height for a node opened at `at` whose tallest child is
        `height` high."""
        if height >= MAX_DEPTH:
            self.too_deep("expression", at)
        self.height = height + 1

    # -- recovery -----------------------------------------------------------

    def sync_stmt(self) -> None:
        """Skip to just past the next ';' or to a closing/section keyword."""
        while self.cur.kind is not TokKind.EOF:
            if self.at_op(";"):
                self.advance()
                return
            if self.cur.kind is TokKind.KEYWORD and self.cur.norm in _STMT_CLOSERS:
                return
            self.advance()

    def recover(self, start: int) -> None:
        """Resynchronise a loop whose item failed at token `start`.  A
        failure at a closer nothing in the loop consumes would repeat
        forever, so such a token is skipped: every retry moves on."""
        self.sync_stmt()
        if self.pos == start:
            self.advance()
        assert self.pos > start, "parser recovery made no progress"

    # -- unit / declarations -------------------------------------------------

    def parse_unit(self) -> Ast:
        pous: list[PouDecl] = []
        while self.cur.kind is not TokKind.EOF:
            if self.cur.kind is TokKind.KEYWORD and self.cur.norm in _POU_OPENERS:
                pou = self.parse_pou()
                if pou is not None:
                    pous.append(pou)
            else:
                self.diags.append(
                    Diagnostic(
                        f"unexpected {self.cur.kind.value} {self.cur.lexeme!r} at top level",
                        self.cur.span,
                        expected="FUNCTION_BLOCK, FUNCTION or PROGRAM",
                    )
                )
                # skip to the next plausible POU opener
                while self.cur.kind is not TokKind.EOF and not (
                    self.cur.kind is TokKind.KEYWORD and self.cur.norm in _POU_OPENERS
                ):
                    self.advance()
        return Ast(pous, src=self.src)

    def parse_pou(self) -> PouDecl | None:
        open_tok = self.advance()
        kind = _POU_OPENERS[open_tok.norm]
        closer = "END_" + open_tok.norm
        try:
            name = self.expect_ident("POU name").norm
        except _Recover:
            self.sync_stmt()
            name = "?"
        ret_type = None
        if kind is PouKind.FUNCTION:
            try:
                self.expect_op(":")
                ret_type = self.parse_type_ref()
            except _Recover:
                self.sync_stmt()
        decls: list[VarDecl] = []
        while self.cur.kind is TokKind.KEYWORD and self.cur.norm in _SECTION_KWS:
            decls.extend(self.parse_var_section())
        body = self.parse_statements(stop={closer})
        end_span = self.cur.span
        if self.at_kw(closer):
            self.advance()
        else:
            self.diags.append(Diagnostic(f"missing {closer}", self.cur.span, expected=closer))
            while self.cur.kind is not TokKind.EOF and not self.at_kw(closer):
                self.advance()
            if self.at_kw(closer):
                self.advance()
        self.eat_semi()
        return PouDecl(kind, name, ret_type, decls, body, span=open_tok.span.merge(end_span))

    def parse_var_section(self) -> list[VarDecl]:
        section = _SECTION_KWS[self.advance().norm]
        out: list[VarDecl] = []
        while not self.at_kw("END_VAR") and self.cur.kind is not TokKind.EOF:
            if self.cur.kind is TokKind.KEYWORD and self.cur.norm in _SECTION_ENDS:
                break  # END_VAR is missing; the next section or the body's end follows
            start = self.pos
            try:
                out.extend(self.parse_var_decl(section))
            except _Recover:
                self.recover(start)
        if self.at_kw("END_VAR"):
            self.advance()
        else:
            self.diags.append(Diagnostic("missing END_VAR", self.cur.span, expected="END_VAR"))
        self.eat_semi()
        return out

    def parse_var_decl(self, section: Section) -> list[VarDecl]:
        names = [self.expect_ident("variable name")]
        while self.at_op(","):
            self.advance()
            names.append(self.expect_ident("variable name"))
        self.expect_op(":")
        tref = self.parse_type_ref()
        init: Literal | list[Literal] | None = None
        if self.at_op(":="):
            self.advance()
            init = self.parse_initializer()
        self.expect_op(";")
        return [
            VarDecl(tok.norm, tref, init, section, span=tok.span)
            for tok in names
        ]

    def parse_type_ref(self) -> TypeRef:
        if self.at_kw("ARRAY"):
            start = self.advance().span
            self.expect_op("[")
            lo = self.parse_signed_int("array bound")
            self.expect_op("..")
            hi = self.parse_signed_int("array bound")
            self.expect_op("]")
            self.expect_kw("OF")
            elem = self.parse_type_ref()
            return TypeRef("ARRAY", array_lo=lo, array_hi=hi, array_elem=elem, span=start)
        tok = self.expect_ident("type name")
        cap = None
        if tok.norm == "STRING" and self.at_op("["):
            self.advance()
            cap = self.parse_signed_int("string capacity")
            self.expect_op("]")
        return TypeRef(tok.norm, string_cap=cap, span=tok.span)

    def parse_signed_int(self, what: str) -> int:
        neg = False
        if self.at_op("-"):
            self.advance()
            neg = True
        if self.cur.kind is not TokKind.INT:
            self.error(f"unexpected {self.cur.kind.value} {self.cur.lexeme!r}", expected=what)
        v = self.advance().value
        return -v if neg else v

    def parse_initializer(self) -> Literal | list[Literal]:
        if self.at_op("["):
            self.advance()
            items = [self.parse_literal_value()]
            while self.at_op(","):
                self.advance()
                items.append(self.parse_literal_value())
            self.expect_op("]")
            return items
        return self.parse_literal_value()

    def parse_literal_value(self) -> Literal:
        """An initializer's literal: a literal token, or '-' and a numeric one."""
        if not self.at_op("-"):
            lit = self.take_literal()
            if lit is None:
                self.error(f"unexpected {self.cur.kind.value} {self.cur.lexeme!r}", expected="literal")
            return lit
        start = self.advance().span
        if self.cur.kind not in (TokKind.INT, TokKind.REAL):
            self.error("expected numeric literal after '-'")
        lit = self.take_literal()
        return Literal(lit.lit_kind, -lit.value, span=start.merge(lit.span))

    def take_literal(self) -> Literal | None:
        """The literal the current token spells, consumed, or None (and
        nothing consumed) if it spells none."""
        tok = self.cur
        kind = _LITERAL_TOKENS.get(tok.kind)
        if kind is not None:
            self.advance()
            return Literal(kind, tok.value, span=tok.span)
        if tok.kind is TokKind.KEYWORD and tok.norm in ("TRUE", "FALSE"):
            self.advance()
            return Literal(Literal.K.BOOL, tok.norm == "TRUE", span=tok.span)
        return None

    # -- statements ----------------------------------------------------------

    def parse_statements(self, stop: set[str], in_case: bool = False) -> list[Stmt]:
        if self.nesting > MAX_DEPTH:
            self.too_deep("statements", self.cur)
        self.nesting += 1
        out: list[Stmt] = []
        while True:
            if self.cur.kind is TokKind.EOF:
                break
            if self.cur.kind is TokKind.KEYWORD and self.cur.norm in stop:
                break
            if self.cur.kind is TokKind.KEYWORD and self.cur.norm in _POU_CLOSERS:
                break  # never run past the end of the POU
            if in_case and (self.cur.kind is TokKind.INT or self.at_op("-")):
                break  # next CASE label; statements never start with a number
            if self.at_op(";"):
                self.advance()  # tolerated empty statement
                continue
            start = self.pos
            try:
                out.append(self.parse_statement())
            except _Recover:
                self.recover(start)
        self.nesting -= 1
        return out

    def parse_statement(self) -> Stmt:
        tok = self.cur
        if tok.kind is TokKind.KEYWORD:
            if tok.norm == "IF":
                return self.parse_if()
            if tok.norm == "CASE":
                return self.parse_case()
            if tok.norm == "FOR":
                return self.parse_for()
            if tok.norm == "WHILE":
                return self.parse_while()
            if tok.norm == "REPEAT":
                return self.parse_repeat()
            if tok.norm == "EXIT":
                self.advance()
                self.expect_op(";")
                return ExitStmt(span=tok.span)
            if tok.norm == "RETURN":
                self.advance()
                self.expect_op(";")
                return ReturnStmt(span=tok.span)
            self.error(f"unexpected keyword {tok.lexeme!r}", expected="statement")
        if tok.kind is not TokKind.IDENT:
            self.error(f"unexpected {tok.kind.value} {tok.lexeme!r}", expected="statement")

        # assignment or FB call
        if self.toks[self.pos + 1].norm == "(" and self.toks[self.pos + 1].kind is TokKind.PUNCT:
            return self.parse_fb_call()
        target = self.parse_ref()
        if not self.at_op(":="):
            self.error(
                "expression statements are not allowed",
                expected="':=' or '('",
                span=tok.span,
            )
        self.advance()
        value = self.parse_expr()
        semi = self.cur.span
        self.expect_op(";")
        return Assign(target, value, span=tok.span.merge(semi))

    def parse_fb_call(self) -> FbCall:
        name_tok = self.advance()
        self.expect_op("(")
        params: list[ParamBind] = []
        if not self.at_op(")"):
            params.append(self.parse_param_bind())
            while self.at_op(","):
                self.advance()
                params.append(self.parse_param_bind())
        close = self.cur.span
        self.expect_op(")")
        self.expect_op(";")
        return FbCall(name_tok.norm, params, span=name_tok.span.merge(close))

    def parse_param_bind(self) -> ParamBind:
        if self.cur.kind is not TokKind.IDENT:
            self.error("function block calls take formal parameters only", expected="'name :=' or 'name =>'")
        name_tok = self.advance()
        if self.at_op(":="):
            self.advance()
            return ParamBind(name_tok.norm, False, self.parse_expr(), span=name_tok.span)
        if self.at_op("=>"):
            self.advance()
            return ParamBind(name_tok.norm, True, self.parse_ref(), span=name_tok.span)
        self.error("function block calls take formal parameters only", expected="':=' or '=>'")

    def parse_if(self) -> IfStmt:
        if_tok = self.advance()
        branches: list[IfBranch] = []
        cond = self.parse_expr()
        self.expect_kw("THEN")
        body = self.parse_statements(stop={"ELSIF", "ELSE", "END_IF"})
        branches.append(IfBranch(cond, body, span=if_tok.span.merge(cond.span)))
        while self.at_kw("ELSIF"):
            elsif_tok = self.advance()
            cond = self.parse_expr()
            self.expect_kw("THEN")
            body = self.parse_statements(stop={"ELSIF", "ELSE", "END_IF"})
            branches.append(IfBranch(cond, body, span=elsif_tok.span.merge(cond.span)))
        else_body: list[Stmt] = []
        if self.at_kw("ELSE"):
            self.advance()
            else_body = self.parse_statements(stop={"END_IF"})
        end = self.cur.span
        self.expect_kw("END_IF")
        self.eat_semi()
        return IfStmt(branches, else_body, span=if_tok.span.merge(end))

    def parse_case(self) -> CaseStmt:
        case_tok = self.advance()
        selector = self.parse_expr()
        self.expect_kw("OF")
        branches: list[CaseBranch] = []
        while not (self.at_kw("ELSE") or self.at_kw("END_CASE") or self.cur.kind is TokKind.EOF):
            labels = [self.parse_case_label()]
            while self.at_op(","):
                self.advance()
                labels.append(self.parse_case_label())
            colon = self.cur.span
            self.expect_op(":")
            body = self.parse_statements(stop={"ELSE", "END_CASE"}, in_case=True)
            branches.append(CaseBranch(labels, body, span=colon))
        else_body: list[Stmt] = []
        if self.at_kw("ELSE"):
            self.advance()
            else_body = self.parse_statements(stop={"END_CASE"})
        end = self.cur.span
        self.expect_kw("END_CASE")
        self.eat_semi()
        return CaseStmt(selector, branches, else_body, span=case_tok.span.merge(end))

    def parse_case_label(self) -> CaseLabel:
        lo = self.parse_signed_int("case label")
        if self.at_op(".."):
            self.advance()
            hi = self.parse_signed_int("case label")
            return CaseLabel(lo, hi)
        return CaseLabel(lo, lo)

    def parse_for(self) -> ForStmt:
        for_tok = self.advance()
        var = self.expect_ident("loop variable").norm
        self.expect_op(":=")
        start = self.parse_expr()
        self.expect_kw("TO")
        stop_expr = self.parse_expr()
        step = None
        if self.at_kw("BY"):
            self.advance()
            step = self.parse_expr()
        self.expect_kw("DO")
        body = self.parse_statements(stop={"END_FOR"})
        end = self.cur.span
        self.expect_kw("END_FOR")
        self.eat_semi()
        return ForStmt(var, start, stop_expr, step, body, span=for_tok.span.merge(end))

    def parse_while(self) -> WhileStmt:
        while_tok = self.advance()
        cond = self.parse_expr()
        self.expect_kw("DO")
        body = self.parse_statements(stop={"END_WHILE"})
        end = self.cur.span
        self.expect_kw("END_WHILE")
        self.eat_semi()
        return WhileStmt(cond, body, span=while_tok.span.merge(end))

    def parse_repeat(self) -> RepeatStmt:
        rep_tok = self.advance()
        body = self.parse_statements(stop={"UNTIL"})
        self.expect_kw("UNTIL")
        until = self.parse_expr()
        end = self.cur.span
        self.expect_kw("END_REPEAT")
        self.eat_semi()
        return RepeatStmt(body, until, span=rep_tok.span.merge(end))

    # -- expressions ---------------------------------------------------------
    # `depth` counts the expression levels above the one being parsed and so
    # bounds the parser's own recursion; self.height, set by each method for
    # the expression it returns, bounds the tree, including left-associative
    # chains, which are built in a loop.

    def parse_expr(self, depth: int = 0, min_prec: int = 0) -> Expr:
        """Precedence climbing: operators binding at least as tight as
        min_prec, left-associative.  A parenthesis costs four frames of
        recursion here, not one per precedence level."""
        left = self.parse_power(depth)
        height = self.height
        while True:
            op_tok = self.cur
            entry = _BINARY.get(op_tok.norm) if op_tok.kind in (TokKind.OP, TokKind.KEYWORD) else None
            if entry is None or entry[0] < min_prec:
                self.height = height
                return left
            prec, op = entry
            sub = self.deeper(depth)
            self.advance()
            right = self.parse_expr(sub, prec + 1)
            self.over(max(height, self.height), op_tok)
            height = self.height
            left = Binary(op, left, right, span=left.span.merge(right.span))

    def parse_power(self, depth: int) -> Expr:
        base = self.parse_unary(depth)
        if not self.at_op("**"):
            return base
        op_tok = self.cur
        sub = self.deeper(depth)
        self.advance()
        height = self.height
        exp = self.parse_power(sub)  # right-assoc
        self.over(max(height, self.height), op_tok)
        return Binary(BinOp.POW, base, exp, span=base.span.merge(exp.span))

    def parse_unary(self, depth: int) -> Expr:
        tok = self.cur
        if self.at_op("-", "+") or self.at_kw("NOT"):
            sub = self.deeper(depth)
            self.advance()
            operand = self.parse_unary(sub)
            # fold numeric literals so INT minimum (-32768) types as one literal
            if tok.norm == "-" and isinstance(operand, Literal) and operand.lit_kind in NUMERIC_LITERALS:
                return Literal(operand.lit_kind, -operand.value, span=tok.span.merge(operand.span))
            self.over(self.height, tok)
            return Unary(_UNARY[tok.norm], operand, span=tok.span.merge(operand.span))
        return self.parse_primary(depth)

    def parse_primary(self, depth: int) -> Expr:
        self.height = 1
        lit = self.take_literal()
        if lit is not None:
            return lit
        tok = self.cur
        if self.at_op("("):
            sub = self.deeper(depth)
            self.advance()
            inner = self.parse_expr(sub)
            self.expect_op(")")
            self.over(self.height, tok)
            return inner
        if tok.kind is TokKind.IDENT:
            if self.toks[self.pos + 1].kind is TokKind.PUNCT and self.toks[self.pos + 1].norm == "(":
                self.advance()
                sub = self.deeper(depth)
                self.advance()  # '('
                args: list[Expr] = []
                height = 0
                if not self.at_op(")"):
                    args.append(self.parse_expr(sub))
                    height = self.height
                    while self.at_op(","):
                        self.advance()
                        args.append(self.parse_expr(sub))
                        height = max(height, self.height)
                close = self.cur.span
                self.expect_op(")")
                self.over(height, tok)
                return Call(tok.norm, args, span=tok.span.merge(close))
            return self.parse_ref(depth)
        self.error(f"unexpected {tok.kind.value} {tok.lexeme!r}", expected="expression")

    def parse_ref(self, depth: int = 0) -> Expr:
        tok = self.expect_ident("variable reference")
        ref: Expr = VarRef(tok.norm, span=tok.span)
        self.height = 1
        while True:
            sel = self.cur
            if self.at_op("."):
                self.advance()
                member = self.expect_ident("member name")
                ref = MemberRef(ref, member.norm, span=tok.span.merge(member.span))
                self.over(self.height, sel)
            elif self.at_op("["):
                sub = self.deeper(depth)
                self.advance()
                height = self.height
                index = self.parse_expr(sub)
                close = self.cur.span
                self.expect_op("]")
                ref = IndexRef(ref, index, span=tok.span.merge(close))
                self.over(max(height, self.height), sel)
            else:
                return ref


def parse(tokens: list[Token], src: SourceUnit | None = None) -> Ast:
    """Parse a token list into an Ast with densely numbered statement ids.

    Raises ParseError (with every collected diagnostic) if any syntax error
    was found.
    """
    p = _Parser(tokens, src)
    try:
        ast = p.parse_unit()
    except _TooDeep:
        raise ParseError(p.diags, src) from None
    if p.diags:
        raise ParseError(p.diags, src)
    assign_statement_ids(ast)
    return ast


def parse_source(src: SourceUnit) -> Ast:
    return parse(tokenize(src), src)


def parse_text(text: str, origin: str = "<memory>") -> Ast:
    return parse_source(SourceUnit(text, origin))
