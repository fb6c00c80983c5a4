"""Frontend for the Structured Text subset: lexing, parsing, resolution."""

from .builtins import BUILTIN_FBS
from .diagnostics import Diagnostic, FrontendError, ParseError, ResolveError
from .lexer import LexError, Token, TokKind, tokenize
from .parser import parse, parse_source, parse_text
from .pretty import print_ast, print_pou
from .resolve import PouInfo, TypedProgram, VarInfo, resolve
from .source import SourceUnit, Span

__all__ = [
    "BUILTIN_FBS",
    "Diagnostic",
    "FrontendError",
    "LexError",
    "ParseError",
    "PouInfo",
    "ResolveError",
    "SourceUnit",
    "Span",
    "Token",
    "TokKind",
    "TypedProgram",
    "VarInfo",
    "parse",
    "parse_source",
    "parse_text",
    "print_ast",
    "print_pou",
    "resolve",
    "tokenize",
]
