import signal
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stbench import corpus
from stbench.frontend import FrontendError, ParseError, parse_text, print_ast, resolve
from stbench.frontend.parser import MAX_DEPTH
from stbench.frontend.nodes import (
    Assign,
    CaseStmt,
    ForStmt,
    IfStmt,
    Literal,
    PouKind,
    iter_sites,
)


def body_of(src, pou=0):
    return parse_text(src).pous[pou].body


FB = """
FUNCTION_BLOCK FB1
VAR_INPUT A : BOOL; B : BOOL; END_VAR
VAR_OUTPUT X : INT; END_VAR
{body}
END_FUNCTION_BLOCK
"""


def test_bare_expression_statement_rejected():
    src = "FUNCTION_BLOCK FB1 VAR_INPUT A:BOOL; END_VAR A; END_FUNCTION_BLOCK"
    with pytest.raises(ParseError) as err:
        parse_text(src)
    assert "expression statements are not allowed" in str(err.value)


def test_if_elsif_else_shape_and_ids():
    src = FB.format(body="IF A THEN X:=1; ELSIF B THEN X:=2; ELSE X:=3; END_IF;")
    ast = parse_text(src)
    (stmt,) = ast.pous[0].body
    assert isinstance(stmt, IfStmt)
    assert len(stmt.branches) == 2
    assert len(stmt.else_body) == 1
    assigns = [s for s in (stmt.branches[0].body + stmt.branches[1].body + stmt.else_body)]
    assert all(isinstance(s, Assign) for s in assigns)
    assert len(assigns) == 3
    # one id per guard plus one per assignment, in source order
    assert ast.statement_count == 5
    assert stmt.branches[0].sid == 0
    assert stmt.branches[0].body[0].sid == 1
    assert stmt.branches[1].sid == 2
    assert stmt.branches[1].body[0].sid == 3
    assert stmt.else_body[0].sid == 4


def test_for_with_negative_step():
    src = """
    FUNCTION_BLOCK FB1
    VAR I : INT; X : INT; END_VAR
    FOR I := 10 TO 1 BY -1 DO
        X := X + I;
    END_FOR;
    END_FUNCTION_BLOCK
    """
    (stmt,) = body_of(src)
    assert isinstance(stmt, ForStmt)
    assert isinstance(stmt.step, Literal) and stmt.step.value == -1


def test_case_with_ranges_lists_and_else():
    src = """
    FUNCTION_BLOCK FB1
    VAR N : INT; X : INT; END_VAR
    CASE N OF
        1: X := 10;
        2, 3: X := 20;
        4..6: X := 30;
        -2..-1: X := 40;
    ELSE
        X := 0;
    END_CASE;
    END_FUNCTION_BLOCK
    """
    (stmt,) = body_of(src)
    assert isinstance(stmt, CaseStmt)
    assert [[(l.lo, l.hi) for l in br.labels] for br in stmt.branches] == [
        [(1, 1)],
        [(2, 2), (3, 3)],
        [(4, 6)],
        [(-2, -1)],
    ]
    assert len(stmt.else_body) == 1


def test_statement_ids_dense_per_unit():
    src = """
    FUNCTION_BLOCK A
    VAR X : INT; I : INT; END_VAR
    X := 1;
    WHILE X < 10 DO X := X + 1; END_WHILE;
    END_FUNCTION_BLOCK
    FUNCTION_BLOCK B
    VAR Y : INT; END_VAR
    REPEAT Y := Y + 1; UNTIL Y > 3 END_REPEAT;
    END_FUNCTION_BLOCK
    """
    ast = parse_text(src)
    all_sids = sorted(n.sid for pou in ast.pous for n in iter_sites(pou.body))
    assert all_sids == list(range(ast.statement_count))
    assert ast.statement_count == 5


def test_every_syntax_error_reported():
    src = """
    FUNCTION_BLOCK FB1
    VAR X : INT; END_VAR
    X := ;
    X := 1;
    := 2;
    X := 3;
    Y Y;
    END_FUNCTION_BLOCK
    """
    with pytest.raises(ParseError) as err:
        parse_text(src)
    assert len(err.value.diagnostics) == 3
    for d in err.value.diagnostics:
        assert d.span.end >= d.span.start


def test_parse_error_has_expected_hint():
    with pytest.raises(ParseError) as err:
        parse_text("FUNCTION_BLOCK FB1 VAR X : INT END_VAR END_FUNCTION_BLOCK")
    assert any(d.expected for d in err.value.diagnostics)


def test_function_and_program_pous():
    src = """
    FUNCTION TWICE : INT
    VAR_INPUT N : INT; END_VAR
    TWICE := N * 2;
    END_FUNCTION
    PROGRAM MAIN
    VAR X : INT; END_VAR
    X := TWICE(21);
    END_PROGRAM
    """
    ast = parse_text(src)
    assert [p.kind for p in ast.pous] == [PouKind.FUNCTION, PouKind.PROGRAM]
    assert ast.pous[0].ret_type.name == "INT"


def test_determinism_same_text_same_ast_and_ids():
    src = FB.format(body="IF A THEN X:=1; ELSE X:=2; END_IF;")
    a1, a2 = parse_text(src), parse_text(src)
    assert a1.pous == a2.pous
    assert [n.sid for n in iter_sites(a1.pous[0].body)] == [n.sid for n in iter_sites(a2.pous[0].body)]


def test_pretty_roundtrip_corpus(corpus_sources):
    for name, text in corpus_sources.items():
        ast = parse_text(text, name)
        printed = print_ast(ast)
        reparsed = parse_text(printed, name + "_printed")
        assert reparsed.pous == ast.pous, f"round-trip mismatch for {name}"
        assert reparsed.statement_count == ast.statement_count


def test_pretty_roundtrip_edge_expressions():
    src = """
    FUNCTION_BLOCK FB1
    VAR X : REAL; Y : REAL; B : BOOL; W : WORD; V : WORD; END_VAR
    X := -(Y + 1.0) * 2.0 ** 3.0 ** 2.0;
    B := NOT (X > 1.0) AND (X < 2.0 OR B) XOR B;
    W := (W OR V) AND NOT V;
    X := (1.0 + 2.0) * (3.0 - 4.0) / 5.0;
    END_FUNCTION_BLOCK
    """
    ast = parse_text(src)
    assert parse_text(print_ast(ast)).pous == ast.pous


@contextmanager
def time_limit(seconds: float):
    """Fail with TimeoutError instead of hanging past `seconds`."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "src",
    [
        "FUNCTION_BLOCK X\nEND_IF;",          # stray closer in a body
        "FUNCTION_BLOCK X\nVAR\nEND_IF",       # stray closer in a VAR section
        "FUNCTION_BLOCK X\nVAR A : INT;\nVAR_INPUT B : INT; END_VAR\nEND_FUNCTION_BLOCK",
        "FUNCTION_BLOCK X\nIF TRUE THEN END_FOR; END_IF;\nEND_FUNCTION_BLOCK",
    ],
)
def test_recovery_always_advances(src):
    with time_limit(1.0), pytest.raises(ParseError) as err:
        parse_text(src)
    assert 1 <= len(err.value.diagnostics) <= 4


_TOKENS = [
    "END_IF", "END_CASE", "END_FOR", "END_WHILE", "END_REPEAT", "ELSE", "ELSIF", "UNTIL",
    "END_VAR", "VAR", "VAR_INPUT", "END_FUNCTION_BLOCK", "FUNCTION_BLOCK", "IF", "THEN",
    "CASE", "OF", "FOR", "TO", "DO", "WHILE", "REPEAT", "RETURN", "EXIT", ";", ":=", ":",
    "(", ")", "[", "]", ",", ".", "..", "=>", "X", "1", "-", "T#1s", "'s'", "1.5", "TRUE",
]


@st.composite
def mutated_blocks(draw):
    """A corpus block with a few slices deleted, duplicated or replaced by
    a keyword, operator or operand."""
    text = corpus.block_source(draw(st.sampled_from([b.name for b in corpus.BLOCKS])))
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, len(text)))
        end = min(len(text), start + draw(st.integers(0, 40)))
        op = draw(st.sampled_from(["delete", "duplicate", "replace"]))
        if op == "delete":
            text = text[:start] + text[end:]
        elif op == "duplicate":
            text = text[:end] + text[start:end] + text[end:]
        else:
            text = text[:start] + " " + draw(st.sampled_from(_TOKENS)) + " " + text[end:]
    return text


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(src=mutated_blocks())
def test_mutated_corpus_blocks_fail_only_with_frontend_errors(src):
    with time_limit(2.0):
        try:
            resolve(parse_text(src))
        except FrontendError:
            pass


def _nested_ifs(levels):
    return "IF A THEN\n" * levels + "X := 1;\n" + "END_IF;\n" * levels


def _parens(levels):
    return "X := " + "(" * levels + "1" + ")" * levels + ";"


def _chain(terms):
    return "X := " + " + ".join(["X"] * terms) + ";"


@pytest.mark.parametrize(
    "body",
    [
        _nested_ifs(MAX_DEPTH),
        _parens(MAX_DEPTH - 1),        # the literal is the last level
        _chain(MAX_DEPTH),
        "X := " + "-(" * (MAX_DEPTH // 2 - 1) + "X" + ")" * (MAX_DEPTH // 2 - 1) + ";",
        "X := " + "ABS(" * (MAX_DEPTH - 1) + "X" + ")" * (MAX_DEPTH - 1) + ";",
    ],
    ids=["ifs", "parens", "chain", "negations", "calls"],
)
def test_nesting_up_to_the_limit_parses(body):
    parse_text(FB.format(body=body))


@pytest.mark.parametrize(
    "body,what,where",
    [
        (_nested_ifs(MAX_DEPTH + 1), "statements", f"{MAX_DEPTH + 6}:1"),
        (_parens(MAX_DEPTH), "expression", f"5:{5 + MAX_DEPTH}"),
        (_chain(MAX_DEPTH + 1), "expression", f"5:{6 + 4 * MAX_DEPTH - 2}"),
        ("X := " + "1 ** " * MAX_DEPTH + "1;", "expression", f"5:{8 + 5 * (MAX_DEPTH - 1)}"),
        ("X := " + "NOT " * MAX_DEPTH + "A;", "expression", f"5:{6 + 4 * (MAX_DEPTH - 1)}"),
        (_nested_ifs(400), "statements", f"{MAX_DEPTH + 6}:1"),
        (_parens(1000), "expression", f"5:{5 + MAX_DEPTH}"),
        (_chain(5000), "expression", f"5:{6 + 4 * MAX_DEPTH - 2}"),
    ],
    ids=["ifs", "parens", "chain", "power", "not", "400-ifs", "1000-parens", "5000-chain"],
)
def test_nesting_past_the_limit_is_one_parse_error(body, what, where):
    with pytest.raises(ParseError) as err:
        parse_text(FB.format(body=body))
    assert str(err.value) == f"<memory>:{where}: {what} nested deeper than {MAX_DEPTH} levels"
