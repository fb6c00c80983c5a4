"""The statement-site model: each site node carries one sid, each POU lists
its site nodes in sid order, and `site_span` says where a site is reported.
The interpreter's per-POU slot index and the coverage line walk rely on
both facts."""

import pytest

from stbench import corpus
from stbench.frontend import nodes as N
from stbench.frontend import parse_text, resolve
from stbench.harnessgen import build_harness
from stbench.testspec import parse_suite, validate


def sids_in_declaration_order(prog):
    return [node.sid for pou in prog.ast.pous for node in prog.pous[pou.name].sites]


@pytest.mark.parametrize("block", [b.name for b in corpus.BLOCKS])
def test_corpus_sites_carry_every_sid_once_in_order(block, corpus_programs):
    prog = corpus_programs[block]
    assert prog.ast.statement_count > 0
    assert sids_in_declaration_order(prog) == list(range(prog.ast.statement_count))


def test_harness_sites_carry_every_sid_once_in_order(corpus_programs):
    prog = corpus_programs["PI_CTRL"]
    suite = validate(
        parse_suite(
            "test_name,state,dwell_cycles,EN,SP,PV,expect_OUT\n"
            "tc_a,1,2,TRUE,10.0,0.0,11.001\n"
            "tc_a,2,1,FALSE,,,0.0\n"
            "tc_b,1,1,TRUE,-2.5,1.0,-3.5\n",
            "PI_CTRL",
        ),
        prog,
    )
    typed = build_harness(suite, prog).typed
    assert len(typed.ast.pous) == 3  # two case FBs and the runner program
    assert sids_in_declaration_order(typed) == list(range(typed.ast.statement_count))


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
