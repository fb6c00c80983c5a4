"""Tokenizer for the supported Structured Text subset.

Identifiers, keywords and TIME units are ASCII letters, digits and `_`,
case-insensitive; identifier tokens carry the upper-cased spelling in
`norm`.  A string literal holds one-byte characters only
(`types.MAX_STRING_CHAR`), and its `$`-escapes are `ESCAPES`, the table
the printer spells characters by.  Comments `(* ... *)` (nesting allowed)
and `// ...` are skipped as trivia.  Token spans are byte offsets into the
SourceUnit, so concatenating the spans plus the gaps between them
reconstructs the source exactly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .diagnostics import Diagnostic, FrontendError
from .source import SourceUnit, Span
from .types import MAX_STRING_CHAR


class TokKind(enum.Enum):
    # members compare by identity; Enum.__hash__ would be a Python-level call
    __hash__ = object.__hash__

    KEYWORD = "keyword"
    IDENT = "identifier"
    INT = "integer-literal"
    REAL = "real-literal"
    TIME = "time-literal"
    STRING = "string-literal"
    OP = "operator"
    PUNCT = "punctuation"
    EOF = "end-of-input"


KEYWORDS = frozenset(
    """
    FUNCTION_BLOCK END_FUNCTION_BLOCK FUNCTION END_FUNCTION PROGRAM END_PROGRAM
    VAR_INPUT VAR_OUTPUT VAR_IN_OUT VAR_TEMP VAR END_VAR
    IF THEN ELSIF ELSE END_IF
    CASE OF END_CASE
    FOR TO BY DO END_FOR
    WHILE END_WHILE
    REPEAT UNTIL END_REPEAT
    EXIT RETURN
    TRUE FALSE
    AND OR XOR NOT MOD
    ARRAY
    """.split()
)

_MULTI_OPS = (":=", "=>", "<=", ">=", "<>", "**", "..")
_SINGLE_OPS = "+-*/=<>&"
# ASCII only: str.isdigit() also accepts digits such as "²" that int() rejects,
# and str.upper() folds letters such as "ı" and "ſ" into "I" and "S"
_DIGITS = "0123456789"
_HEX_DIGITS = _DIGITS + "abcdefABCDEF"
_LETTERS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
_IDENT_START = _LETTERS | {"_"}
_IDENT_CHARS = _IDENT_START | set(_DIGITS)
_PUNCT = ";:,()[]."

# What each `$` escape of a string literal stands for, its letter in either
# case; `$` and two hex digits stand for the character of that code.
# `pretty.format_string` spells a character by its escape here, and a line
# feed by the later of its two, `$N`.
ESCAPES = {"$": "$", "'": "'", "L": "\n", "N": "\n", "P": "\f", "R": "\r", "T": "\t"}

_TIME_FACTORS = {"D": 86_400_000.0, "H": 3_600_000.0, "M": 60_000.0, "S": 1_000.0, "MS": 1.0}


class LexError(FrontendError):
    """A tokenization failure: one diagnostic at the offending span."""

    def __init__(self, message: str, span: Span, src: SourceUnit | None = None):
        super().__init__([Diagnostic(message, span)], src)
        self.message = message
        self.span = span


@dataclass(slots=True)
class Token:
    kind: TokKind
    lexeme: str
    span: Span
    # Upper-cased spelling for identifiers/keywords; decoded payload for
    # literals (int value, float, milliseconds, unescaped string).
    norm: str = ""
    value: object = field(default=None)

    def __repr__(self) -> str:  # compact for test failure output
        return f"<{self.kind.value} {self.lexeme!r}>"


def tokenize(src: SourceUnit) -> list[Token]:
    """Produce the full token list for src, ending in an EOF token."""
    text = src.text
    n = len(text)
    i = 0
    out: list[Token] = []

    def err(msg: str, start: int, end: int | None = None):
        raise LexError(msg, Span(start, end if end is not None else min(start + 1, n)), src)

    while i < n:
        ch = text[i]

        if ch in " \t\r\n":
            i += 1
            continue

        if ch == "/" and text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j + 1
            continue

        if ch == "(" and text.startswith("(*", i):
            depth = 1
            j = i + 2
            while j < n and depth:
                if text.startswith("(*", j):
                    depth += 1
                    j += 2
                elif text.startswith("*)", j):
                    depth -= 1
                    j += 2
                else:
                    j += 1
            if depth:
                err("unterminated comment", i, n)
            i = j
            continue

        if ch == "'":
            j, value = _scan_string(text, i, err)
            out.append(Token(TokKind.STRING, text[i:j], Span(i, j), value=value))
            i = j
            continue

        if ch in _DIGITS:
            i = _scan_number(text, i, out, err)
            continue

        if ch in _IDENT_START:
            j = i + 1
            while j < n and text[j] in _IDENT_CHARS:
                j += 1
            word = text[i:j].upper()
            if j < n and text[j] == "#":
                if word in ("T", "TIME"):
                    i = _scan_time(text, i, j + 1, out, err)
                    continue
                err(f"unsupported typed literal prefix {word}#", i, j + 1)
            if word in KEYWORDS:
                out.append(Token(TokKind.KEYWORD, text[i:j], Span(i, j), norm=word))
            else:
                out.append(Token(TokKind.IDENT, text[i:j], Span(i, j), norm=word))
            i = j
            continue

        matched = False
        for op in _MULTI_OPS:
            if text.startswith(op, i):
                out.append(Token(TokKind.OP, op, Span(i, i + len(op)), norm=op))
                i += len(op)
                matched = True
                break
        if matched:
            continue

        if ch in _SINGLE_OPS:
            out.append(Token(TokKind.OP, ch, Span(i, i + 1), norm=ch))
            i += 1
            continue
        if ch in _PUNCT:
            out.append(Token(TokKind.PUNCT, ch, Span(i, i + 1), norm=ch))
            i += 1
            continue

        err(f"unexpected character {ch!r}", i)

    out.append(Token(TokKind.EOF, "", Span(n, n)))
    return out


def _scan_string(text: str, start: int, err) -> tuple[int, str]:
    # IEC single-byte string: '...' with $-escapes, single line only.
    n = len(text)
    j = start + 1
    parts: list[str] = []
    while True:
        if j >= n or text[j] == "\n":
            err("unterminated string literal", start, j)
        ch = text[j]
        if ch == "'":
            return j + 1, "".join(parts)
        if ch == "$":
            if j + 1 >= n:
                err("unterminated string literal", start, n)
            esc = text[j + 1].upper()
            if esc in ESCAPES:
                parts.append(ESCAPES[esc])
                j += 2
                continue
            hx = text[j + 1 : j + 3]
            if len(hx) == 2 and all(c in _HEX_DIGITS for c in hx):
                parts.append(chr(int(hx, 16)))
                j += 3
                continue
            err(f"malformed string escape ${esc}", j, j + 2)
        if ord(ch) > MAX_STRING_CHAR:
            err(f"a STRING cannot hold {ch!r} (U+{ord(ch):04X})", j)
        parts.append(ch)
        j += 1


def _scan_digits(text: str, i: int, allowed: str) -> int:
    n = len(text)
    while i < n and (text[i] in allowed or text[i] == "_"):
        i += 1
    return i


def _scan_number(text: str, start: int, out: list[Token], err) -> int:
    n = len(text)
    i = _scan_digits(text, start, _DIGITS)

    if i < n and text[i] == "#":
        base = int(text[start:i].replace("_", ""))
        if base not in (2, 8, 16):
            err(f"unsupported literal base {base}", start, i)
        digits_start = i + 1
        allowed = {2: "01", 8: "01234567", 16: _HEX_DIGITS}[base]
        j = _scan_digits(text, digits_start, allowed)
        body = text[digits_start:j].replace("_", "")
        if not body:
            err("malformed based literal", start, j)
        out.append(Token(TokKind.INT, text[start:j], Span(start, j), value=int(body, base)))
        return j

    is_real = False
    # A '.' starts a fraction only when not the '..' range operator.
    if i < n and text[i] == "." and not text.startswith("..", i):
        if i + 1 >= n or text[i + 1] not in _DIGITS:
            err("malformed real literal", start, i + 1)
        is_real = True
        i = _scan_digits(text, i + 1, _DIGITS)
    if i < n and text[i] in "eE":
        j = i + 1
        if j < n and text[j] in "+-":
            j += 1
        if j >= n or text[j] not in _DIGITS:
            err("malformed real literal", start, j)
        is_real = True
        i = _scan_digits(text, j, _DIGITS)

    lexeme = text[start:i]
    body = lexeme.replace("_", "")
    if is_real:
        out.append(Token(TokKind.REAL, lexeme, Span(start, i), value=float(body)))
    else:
        out.append(Token(TokKind.INT, lexeme, Span(start, i), value=int(body)))
    return i


def _scan_time(text: str, start: int, i: int, out: list[Token], err) -> int:
    # after the T#/TIME# prefix: one or more <number><unit> components,
    # units d/h/m/s/ms, fractional values allowed; value is milliseconds.
    n = len(text)
    total = 0.0
    seen = False
    while i < n:
        if text[i] == "_":
            i += 1
            continue
        if text[i] not in _DIGITS:
            break
        j = _scan_digits(text, i, _DIGITS)
        if j < n and text[j] == "." and not text.startswith("..", j):
            j = _scan_digits(text, j + 1, _DIGITS)
        num = float(text[i:j].replace("_", ""))
        k = j
        while k < n and text[k] in _LETTERS:
            k += 1
        unit = text[j:k].upper()
        # 'MS' greedily, else single-letter units; trailing letters beyond a
        # known unit mean a malformed literal.
        if unit not in _TIME_FACTORS:
            err(f"malformed time unit {unit!r}", i, k)
        total += num * _TIME_FACTORS[unit]
        seen = True
        i = k
    if not seen:
        err("malformed time literal", start, i)
    ms = int(total + 0.5) if total >= 0 else -int(-total + 0.5)
    out.append(Token(TokKind.TIME, text[start:i], Span(start, i), value=ms))
    return i
