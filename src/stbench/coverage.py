"""Statement coverage: summarize a run's count arrays, render them.

The ground truth is the interpreter's per-POU count arrays (`RunResult.
counts`): slot i of a POU's array counts the executions of its
`PouInfo.sites[i]`, and a POU that never ran counts as zeros.  The domain
is every POU a name resolves to (`domain`), generated harness POUs
included.  The line-oriented renderings (annotated listing, LCOV text)
list only the sources a user wrote, the unit and each of its libraries,
each in its own line numbers; the harness's POUs are counted but not
listed.  Both are lossy views of one source's line map, built by
`line_counts` from the site nodes of that source's POUs, where multiple
statements on one line collapse to the line's maximum count.  Both work
from the source's table of line starts (`SourceUnit._line_starts`): a
site's line is a bisection of the table at the site's offset, and the
listing slices each line out of the source's text between two starts, so
neither holds a second copy of the text or makes a `SourceUnit` call per
line or site.  Each is written to its stream line by line, never held
whole.  Percentages are rounded half-up to two decimals.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from itertools import chain, islice
from typing import TextIO

from .frontend.nodes import site_span
from .frontend.resolve import PouInfo, TypedProgram
from .frontend.source import SourceUnit


def round_pct(hit: int, total: int) -> float:
    """Percentage with fixed half-up rounding to 2 decimals; empty domains
    count as fully covered."""
    if total == 0:
        return 100.0
    pct = Decimal(100 * hit) / Decimal(total)
    return float(pct.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def domain(prog: TypedProgram) -> dict[str, PouInfo]:
    """The POU each name of prog resolves to, in prog.layers() order: where
    layers define a name twice, the first definition in lookup order is the
    one that runs, so it is the one coverage counts."""
    return {name: prog.lookup_pou(name) for unit in prog.layers() for name in unit.pous}


@dataclass
class PouCoverage:
    statements_total: int
    statements_hit: int
    percentage: float


@dataclass
class CoverageSummary:
    per_pou: dict[str, PouCoverage]
    unit: PouCoverage


def summarize(
    pous: dict[str, PouInfo], counts: dict[str, list[int]], unit_under_test: str
) -> CoverageSummary:
    """Per-POU statistics over the domain `pous`, plus the headline
    aggregate, which covers the unit under test only (harness and library
    POUs report individually)."""
    per_pou = {}
    for name, info in pous.items():
        total = len(info.sites)
        hit = sum(1 for c in counts.get(name, ()) if c > 0)
        per_pou[name] = PouCoverage(total, hit, round_pct(hit, total))
    return CoverageSummary(per_pou, per_pou[unit_under_test.upper()])


# ---------------------------------------------------------------------------
# line-oriented renderings
# ---------------------------------------------------------------------------

def line_counts(pous: dict[str, PouInfo], counts: dict[str, list[int]], unit: TypedProgram) -> dict[int, int]:
    """Map executable lines of `unit`'s own source to hit counts (max
    across statements), the input of both renderings.  A POU of `unit` has
    lines only if it is the one the domain `pous` holds for its name; a
    definition that lookup shadows never ran and has no executable lines."""
    lines: dict[int, int] = {}
    # a site's line, as unit.src.line_of gives it, by a bisection of the
    # source's line starts, which every site offset lies within
    starts = unit.src._line_starts
    seen = lines.get
    for info in unit.pous.values():
        if pous.get(info.name) is not info:
            continue
        cnt = counts.get(info.name) or [0] * len(info.sites)
        for node, count in zip(info.sites, cnt):
            line = bisect_right(starts, site_span(node).start)
            if seen(line, -1) < count:
                lines[line] = count
    return lines


def render_annotated(lines: dict[int, int], src: SourceUnit, out: TextIO) -> None:
    """Write the GCOV-style annotated listing of `src` from its line counts
    to the text stream `out`, one line at a time: gcov's `Source:` header
    line naming `src`, then per-line hit counts, `#####` on uncovered
    executable lines, `-` on non-executable ones.  Each line is sliced from
    `src`'s text by its line starts, without its line break or trailing
    carriage returns, as src.line_text gives it."""
    write = out.write
    write(f"{'-':>9}:{0:>5}:Source:{src.origin}\n")
    text = src.text
    starts = src._line_starts
    # a line ends one character before the next line starts; the last one
    # at the end of the text
    ends = chain(islice(starts, 1, None), (len(text) + 1,))
    for lineno, (start, end) in enumerate(zip(starts, ends), 1):
        count = lines.get(lineno)
        marker = "-" if count is None else "#####" if count == 0 else count
        line = text[start:end - 1].rstrip("\r")
        write(f"{marker:>9}:{lineno:>5}:{line}\n")


def render_lcov(lines: dict[int, int], src: SourceUnit, out: TextIO) -> None:
    """Write the LCOV tracefile record (SF/DA/LF/LH) of `src` from its line
    counts to the text stream `out`."""
    write = out.write
    write(f"SF:{src.origin}\n")
    for lineno in sorted(lines):
        write(f"DA:{lineno},{lines[lineno]}\n")
    write(f"LF:{len(lines)}\nLH:{sum(1 for c in lines.values() if c > 0)}\nend_of_record\n")
