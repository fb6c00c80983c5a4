"""Statement coverage: summarize a run's count arrays, render them.

The ground truth is the interpreter's per-POU count arrays (`RunResult.
counts`): slot i of a POU's array counts the executions of its
`PouInfo.sites[i]`, and a POU that never ran counts as zeros.  The domain
is every POU a name resolves to (`domain`).  The line-oriented renderings
(annotated listing, LCOV text) are lossy views of one line map, built by
`line_counts` from each POU's site nodes, where multiple statements on one
line collapse to the line's maximum count; each is written to its stream
line by line, never held whole.  Percentages are rounded
half-up to two decimals.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from typing import TextIO

from .frontend.nodes import site_span
from .frontend.resolve import PouInfo, TypedProgram
from .frontend.source import SourceUnit

# (program, shift) pairs: where each program's source sits in a rendered file
Layers = Sequence[tuple[TypedProgram, int]]


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

def line_counts(
    pous: dict[str, PouInfo], counts: dict[str, list[int]], layers: Layers, src: SourceUnit
) -> dict[int, int]:
    """Map executable lines of `src` to hit counts (max across statements),
    the input of both renderings.

    `layers` pairs each program whose text `src` holds with the amount to
    add to an offset in that program's own source to get its offset in
    `src`.  A layer's POU is rendered only if it is the one the domain
    `pous` holds for its name; a definition that lookup shadows never ran
    and has no executable lines."""
    lines: dict[int, int] = {}
    line_of = src.line_of
    for unit, shift in layers:
        for info in unit.pous.values():
            if pous.get(info.name) is not info:
                continue
            cnt = counts.get(info.name) or [0] * len(info.sites)
            for node, count in zip(info.sites, cnt):
                line = line_of(shift + site_span(node).start)
                lines[line] = max(lines.get(line, count), count)
    return lines


def render_annotated(lines: dict[int, int], src: SourceUnit, out: TextIO) -> None:
    """Write the GCOV-style annotated listing of `src` from its line counts
    to the text stream `out`, one line at a time: per-line hit counts,
    `#####` on uncovered executable lines, `-` on non-executable ones."""
    write = out.write
    for lineno in range(1, src.line_count() + 1):
        count = lines.get(lineno)
        marker = "-" if count is None else "#####" if count == 0 else count
        write(f"{marker:>9}:{lineno:>5}:{src.line_text(lineno)}\n")


def render_lcov(lines: dict[int, int], src: SourceUnit, out: TextIO) -> None:
    """Write LCOV tracefile records (SF/DA/LF/LH) for `src` from its line
    counts to the text stream `out`."""
    write = out.write
    write(f"SF:{src.origin}\n")
    for lineno in sorted(lines):
        write(f"DA:{lineno},{lines[lineno]}\n")
    write(f"LF:{len(lines)}\nLH:{sum(1 for c in lines.values() if c > 0)}\nend_of_record\n")
