"""Source text handling: units, byte spans, and line/column lookup."""

from __future__ import annotations

import bisect
import functools
from array import array
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Span:
    """Half-open byte range [start, end) into a SourceUnit's text."""

    start: int
    end: int

    def merge(self, other: "Span") -> "Span":
        return Span(min(self.start, other.start), max(self.end, other.end))


@dataclass
class SourceUnit:
    """A compilation unit: raw text plus a total offset -> (line, col) table.

    Lines and columns are 1-based.  Offsets up to and including len(text)
    resolve (the end offset maps to the position just past the last char),
    so span endpoints always have a defined location.  The table of line
    starts is built on the first lookup, so a unit nobody asks a position
    of, such as the generated layer of a run that raised no diagnostic,
    never holds one.  It is an array of machine integers, a fifth of a
    list's size; the coverage renderers read it directly.
    """

    text: str
    origin: str = "<memory>"

    @functools.cached_property
    def _line_starts(self) -> array:
        starts = array("q", [0])
        find = self.text.find
        i = find("\n")
        while i >= 0:
            starts.append(i + 1)
            i = find("\n", i + 1)
        return starts

    def linecol(self, offset: int) -> tuple[int, int]:
        if offset < 0:
            offset = 0
        if offset > len(self.text):
            offset = len(self.text)
        line = bisect.bisect_right(self._line_starts, offset)
        col = offset - self._line_starts[line - 1] + 1
        return line, col

    def line_of(self, offset: int) -> int:
        """The line of `offset`, as linecol gives it, without the column:
        an offset past either end lies on the first or the last line."""
        return bisect.bisect_right(self._line_starts, offset) or 1

    def line_count(self) -> int:
        return self.text.count("\n") + 1

    def line_text(self, line: int) -> str:
        start = self._line_starts[line - 1]
        end = self._line_starts[line] - 1 if line < len(self._line_starts) else len(self.text)
        return self.text[start:end].rstrip("\r")

    def describe(self, span: Span) -> str:
        line, col = self.linecol(span.start)
        return f"{self.origin}:{line}:{col}"
