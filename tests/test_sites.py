"""The statement-site model: each site node carries one sid, each POU lists
its site nodes in sid order, and `site_span` says where a site is reported.
The interpreter's count slots (a site's sid less its POU's first) and the
coverage line walk rely on both facts.  The walks over nodes dispatch on a
node's exact class, so each table they use must cover the node classes."""

import pytest

from stbench import corpus
from stbench.frontend import nodes as N
from stbench.frontend import lexer, parse_text, parser, pretty, resolve
from stbench.frontend.resolve import _CHECKS, _TYPES
from stbench.frontend.source import SourceUnit
from stbench.harnessgen import build_harness
from stbench.llm import extract_csv
from stbench.runtime import interp
from stbench.testspec import parse_suite, validate
from test_suite_artifacts import suites


def sids_in_declaration_order(prog):
    return [node.sid for pou in prog.ast.pous for node in prog.pous[pou.name].sites]


@pytest.mark.parametrize("block", [b.name for b in corpus.BLOCKS])
def test_corpus_sites_carry_every_sid_once_in_order(block, corpus_programs):
    prog = corpus_programs[block]
    assert prog.ast.statement_count > 0
    assert sids_in_declaration_order(prog) == list(range(prog.ast.statement_count))


HARNESS_SUITES = {
    "PI_CTRL": (
        "PI_CTRL",
        "test_name,state,dwell_cycles,EN,SP,PV,expect_OUT\n"
        "tc_a,1,2,TRUE,10.0,0.0,11.001\n"
        "tc_a,2,1,FALSE,,,0.0\n"
        "tc_b,1,1,TRUE,-2.5,1.0,-3.5\n",
    ),
    **{
        f"corpus-{b.name}": (b.name, extract_csv(corpus.fixture_path(b.name).read_text(encoding="utf-8")))
        for b in corpus.BLOCKS
    },
    "traffic_200": suites()["traffic_200"],
}


def test_harness_sites_carry_every_sid_once_in_order(corpus_programs):
    for label, (block, text) in HARNESS_SUITES.items():
        prog = corpus_programs[block]
        suite = validate(parse_suite(text, block), prog)
        typed = build_harness(suite, prog).typed
        assert len(typed.ast.pous) == len(suite.cases) + 1, label  # a case FB each and the runner program
        assert sids_in_declaration_order(typed) == list(range(typed.ast.statement_count)), label
        for pou in typed.pous.values():
            assert [node.sid for node in pou.sites] == [pou.sites[0].sid + i for i in range(len(pou.sites))], label


SNIPPET = """FUNCTION_BLOCK SITES
VAR_INPUT A : BOOL; N : INT; END_VAR
VAR X : INT; I : INT; T : TON; END_VAR
X := 1;
IF A THEN X := 2; ELSIF N > 3 THEN X := 3; END_IF;
CASE N + 1 OF 1: X := 4; END_CASE;
FOR I := 1 TO 3 DO EXIT; END_FOR;
WHILE X < 10 DO X := X + 1; END_WHILE;
REPEAT X := X - 1; UNTIL X <= 0 END_REPEAT;
T(IN := A, PT := T#1s);
RETURN;
END_FUNCTION_BLOCK
"""


def test_site_span_of_each_site_node_type():
    prog = resolve(parse_text(SNIPPET, "sites.st"))
    text = prog.src.text
    sites = prog.pous["SITES"].sites
    assert [node.sid for node in sites] == list(range(len(sites)))
    # a branch or loop condition, a CASE selector and an UNTIL expression
    # stand for their node; any other site node is its own span
    spelled = [(type(node).__name__, text[N.site_span(node).start : N.site_span(node).end]) for node in sites]
    assert spelled == [
        ("Assign", "X := 1;"),
        ("IfBranch", "A"),
        ("Assign", "X := 2;"),
        ("IfBranch", "N > 3"),
        ("Assign", "X := 3;"),
        ("CaseStmt", "N + 1"),
        ("Assign", "X := 4;"),
        ("ForStmt", "FOR I := 1 TO 3 DO EXIT; END_FOR"),
        ("ExitStmt", "EXIT"),
        ("WhileStmt", "X < 10"),
        ("Assign", "X := X + 1;"),
        ("Assign", "X := X - 1;"),
        ("RepeatStmt", "X <= 0"),
        ("FbCall", "T(IN := A, PT := T#1s)"),
        ("ReturnStmt", "RETURN"),
    ]


def _concrete(base):
    return {c for c in vars(N).values() if isinstance(c, type) and issubclass(c, base) and c is not base}


def test_each_dispatch_table_covers_exactly_the_node_classes():
    # walks look a node's exact class up in a table, so a node kind missing
    # from one would raise a KeyError in a run, and a subclass would miss
    stmts, exprs = _concrete(N.Stmt), _concrete(N.Expr)
    assert len(stmts) == 9 and len(exprs) == 7
    assert not [c for c in stmts | exprs if c.__subclasses__()]
    tables = {
        "printer statements": (pretty._STMTS, stmts),
        "printer expressions": (pretty._EXPRS, exprs),
        "resolver statements": (_CHECKS, stmts),
        "resolver expressions": (_TYPES, exprs),
        "site walk": (N._SITE_WALKS, stmts),
        # an IF is no site; each of its branches is one
        "site spans": (N._SITE_SPANS, stmts - {N.IfStmt} | {N.IfBranch}),
        "interpreter statements": (interp._STMTS, stmts),
        "interpreter expressions": (interp._EXPRS, exprs),
    }
    for name, (table, classes) in tables.items():
        assert set(table) == classes, name


def test_the_language_tables_cover_every_operator_and_escape():
    # the parser and the printer read one precedence table, which must
    # rank every binary operator, and one escape table, each of whose
    # codes (in either case) must decode to its character and print back;
    # the lexer must mark every word the parser's tables hold a keyword
    assert set(N.BINOP_PRECEDENCE) == set(N.BinOp)
    assert {op for _prec, op in parser._BINARY.values()} == set(N.BinOp) - {N.BinOp.POW}
    assert set(parser._UNARY.values()) == set(N.UnOp) == set(pretty._UNOP_TEXT)
    assert N.UNARY_PRECEDENCE > max(N.BINOP_PRECEDENCE.values())
    # the parser matches its keyword tables against keyword tokens only
    spelled = {*parser._POU_OPENERS, *parser._POU_CLOSERS, *parser._SECTION_KWS, *parser._BINARY, *parser._UNARY}
    assert {word for word in spelled if word.isalpha()} <= lexer.KEYWORDS
    for code, char in lexer.ESCAPES.items():
        for spelled in {code, code.lower()}:
            assert lexer.tokenize(SourceUnit(f"'${spelled}'"))[0].value == char, code
        assert lexer.tokenize(SourceUnit(pretty.format_string(char)))[0].value == char, code
