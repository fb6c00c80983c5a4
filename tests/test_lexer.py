import pytest

from stbench.frontend.diagnostics import FrontendError
from stbench.frontend.lexer import LexError, TokKind, tokenize
from stbench.frontend.source import SourceUnit


def toks(text):
    return tokenize(SourceUnit(text))


def kinds(text):
    return [t.kind for t in toks(text)][:-1]  # drop EOF


def test_smallest_statement():
    ts = toks("X := 1;")
    assert [(t.kind, t.lexeme) for t in ts[:-1]] == [
        (TokKind.IDENT, "X"),
        (TokKind.OP, ":="),
        (TokKind.INT, "1"),
        (TokKind.PUNCT, ";"),
    ]
    assert ts[-1].kind is TokKind.EOF


def test_time_literal_milliseconds():
    ts = toks("T#100ms")
    assert ts[0].kind is TokKind.TIME
    assert ts[0].value == 100


@pytest.mark.parametrize(
    "text,ms",
    [
        ("T#1s500ms", 1500),
        ("TIME#2s", 2000),
        ("T#1m30s", 90_000),
        ("T#1h", 3_600_000),
        ("t#1d", 86_400_000),
        ("T#1.5s", 1500),
        ("T#0.5ms", 1),  # rounds half up
    ],
)
def test_time_literal_forms(text, ms):
    assert toks(text)[0].value == ms


def test_comment_then_keyword():
    ts = toks("(* c *) IF")
    assert len(ts) == 2
    assert ts[0].kind is TokKind.KEYWORD and ts[0].norm == "IF"


def test_nested_comment_and_line_comment():
    ts = toks("(* outer (* inner *) still *) X // trailing\nY")
    assert [t.norm for t in ts[:-1]] == ["X", "Y"]


def test_identifiers_normalize_upper_keywords_never_identifiers():
    ts = toks("Counter while")
    assert ts[0].kind is TokKind.IDENT and ts[0].norm == "COUNTER"
    assert ts[1].kind is TokKind.KEYWORD and ts[1].norm == "WHILE"


@pytest.mark.parametrize(
    "text,value",
    [
        ("16#FF", 255),
        ("2#1010", 10),
        ("8#17", 15),
        ("1_000", 1000),
        ("16#FF_FF", 65535),
    ],
)
def test_integer_literal_bases(text, value):
    tok = toks(text)[0]
    assert tok.kind is TokKind.INT and tok.value == value


@pytest.mark.parametrize(
    "text,value",
    [("1.5", 1.5), ("2.0e3", 2000.0), ("1e-6", 1e-6), ("0.25", 0.25)],
)
def test_real_literals(text, value):
    tok = toks(text)[0]
    assert tok.kind is TokKind.REAL and tok.value == value


def test_range_operator_not_a_real():
    ts = toks("1..5")
    assert [t.kind for t in ts[:-1]] == [TokKind.INT, TokKind.OP, TokKind.INT]
    assert ts[1].norm == ".."


def test_string_escapes():
    tok = toks("'it$'s $$5 a$4Bb'")[0]
    assert tok.kind is TokKind.STRING
    assert tok.value == "it's $5 aKb"


@pytest.mark.parametrize(
    "text,message",
    [
        ("'unterminated", "unterminated string"),
        ("(* never closed", "unterminated comment"),
        ("16#", "malformed based literal"),
        ("1.5e", "malformed real"),
        ("T#", "malformed time"),
        ("T#5parsecs", "malformed time unit"),
        ("WORD#16#1", "unsupported typed literal"),
        ("T#\u00b2s", "malformed time"),
    ],
)
def test_lex_errors_have_spans(text, message):
    with pytest.raises(LexError) as err:
        toks(text)
    assert message in str(err.value)
    assert err.value.span.start >= 0
    assert isinstance(err.value, FrontendError)
    assert [d.span for d in err.value.diagnostics] == [err.value.span]


def test_spans_reconstruct_source(corpus_sources):
    for name, text in corpus_sources.items():
        src = SourceUnit(text, name)
        ts = tokenize(src)
        # lexeme at each span matches the original slice; gaps are trivia
        pos = 0
        for t in ts:
            assert text[t.span.start : t.span.end] == t.lexeme
            assert t.span.start >= pos
            pos = t.span.end


@pytest.mark.parametrize("digit", ["\u00b2", "\u0661", "\uff11"])  # superscript two, Arabic-Indic and fullwidth one
def test_non_ascii_digit_is_an_unexpected_character(digit):
    with pytest.raises(LexError) as err:
        toks(f"y := x + {digit};")
    assert str(err.value) == f"<memory>:1:10: unexpected character {digit!r}"
    assert err.value.span.start == 9


@pytest.mark.parametrize("text", ["1.\u00b2", "1e\u00b2"])
def test_non_ascii_digit_does_not_continue_a_number(text):
    with pytest.raises(LexError, match="malformed real literal"):
        toks(text)
