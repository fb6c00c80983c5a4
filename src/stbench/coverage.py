"""Statement coverage: accumulate hit counts, summarize, render.

The ground truth is the per-POU map of statement-id hit counts; the
line-oriented renderings (annotated listing, LCOV text) are lossy views
where multiple statements on one line collapse to the line's maximum count.
Percentages are rounded half-up to two decimals.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal

from .frontend.resolve import TypedProgram
from .frontend.source import SourceUnit
from .runtime.interp import ExecTrace

# (program, shift) pairs: where each program's source sits in a rendered file
Layers = Sequence[tuple[TypedProgram, int]]


class ForeignStatement(Exception):
    """A trace or count mentioned a statement id outside the map's domain."""


class UnknownPou(Exception):
    pass


def round_pct(hit: int, total: int) -> float:
    """Percentage with fixed half-up rounding to 2 decimals; empty domains
    count as fully covered."""
    if total == 0:
        return 100.0
    pct = Decimal(100 * hit) / Decimal(total)
    return float(pct.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


@dataclass
class CoverageMap:
    """Per-POU hit counts over the full statement-id domain (zero-hit ids
    are present explicitly)."""

    counts: dict[str, dict[int, int]]

    @classmethod
    def for_program(cls, prog: TypedProgram) -> "CoverageMap":
        counts: dict[str, dict[int, int]] = {}
        for unit in prog.layers():  # lookup order: the first definition wins
            for name, info in unit.pous.items():
                counts.setdefault(name, {sid: 0 for sid in info.sids})
        return cls(counts)


def accumulate(cov: CoverageMap, trace: ExecTrace) -> CoverageMap:
    """Add one scan's trace into the map (in place; the map is returned).

    Commutative and associative over traces.  Raises ForeignStatement for
    ids outside the map's domain.
    """
    for pou, sid in trace:
        _per_pou(cov, pou, sid)[sid] += 1
    return cov


def add_counts(cov: CoverageMap, counts: dict[str, dict[int, int]]) -> CoverageMap:
    """Add per-POU hit counts (RunResult.counts) into the map, in place.

    Raises ForeignStatement for ids outside the map's domain."""
    for pou, sids in counts.items():
        for sid, n in sids.items():
            _per_pou(cov, pou, sid)[sid] += n
    return cov


def _per_pou(cov: CoverageMap, pou: str, sid: int) -> dict[int, int]:
    per_pou = cov.counts.get(pou)
    if per_pou is None or sid not in per_pou:
        raise ForeignStatement(f"statement {pou}#{sid} not in coverage domain")
    return per_pou


@dataclass
class PouCoverage:
    statements_total: int
    statements_hit: int
    percentage: float


@dataclass
class CoverageSummary:
    per_pou: dict[str, PouCoverage]
    unit_name: str
    unit: PouCoverage = field(default=None)

    def __post_init__(self):
        if self.unit is None:
            self.unit = self.per_pou[self.unit_name]


def summarize(cov: CoverageMap, prog: TypedProgram, unit_under_test: str) -> CoverageSummary:
    """Per-POU statistics plus the headline aggregate, which covers the unit
    under test only (harness and library POUs report individually)."""
    unit_under_test = unit_under_test.upper()
    if unit_under_test not in cov.counts:
        raise UnknownPou(f"no POU named {unit_under_test}")
    per_pou = {}
    for pou, sids in cov.counts.items():
        total = len(sids)
        hit = sum(1 for c in sids.values() if c > 0)
        per_pou[pou] = PouCoverage(total, hit, round_pct(hit, total))
    return CoverageSummary(per_pou, unit_under_test)


# ---------------------------------------------------------------------------
# line-oriented renderings
# ---------------------------------------------------------------------------

def _line_counts(cov: CoverageMap, layers: Layers, src: SourceUnit) -> dict[int, int]:
    """Map executable lines of `src` to hit counts (max across statements).

    `layers` pairs each program whose text `src` holds with the amount to
    add to an offset in that program's own source to get its offset in
    `src`."""
    lines: dict[int, int] = {}
    for unit, shift in layers:
        for sid, pou in unit.sid_pou.items():
            if pou not in cov.counts or sid not in cov.counts[pou]:
                continue
            line = src.line_of(shift + unit.sid_span(sid).start)
            count = cov.counts[pou][sid]
            if line in lines:
                lines[line] = max(lines[line], count)
            else:
                lines[line] = count
    return lines


def render_annotated(cov: CoverageMap, layers: Layers, src: SourceUnit) -> str:
    """GCOV-style annotated listing: per-line hit counts, `#####` on
    uncovered executable lines, `-` on non-executable ones."""
    lines = _line_counts(cov, layers, src)
    out = []
    for lineno in range(1, src.line_count() + 1):
        text = src.line_text(lineno)
        if lineno not in lines:
            marker = "-"
        elif lines[lineno] == 0:
            marker = "#####"
        else:
            marker = str(lines[lineno])
        out.append(f"{marker:>9}:{lineno:>5}:{text}")
    return "\n".join(out) + "\n"


def render_lcov(cov: CoverageMap, layers: Layers, src: SourceUnit) -> str:
    """LCOV tracefile records (SF/DA/LF/LH) for the unit's source file."""
    lines = _line_counts(cov, layers, src)
    out = [f"SF:{src.origin}"]
    for lineno in sorted(lines):
        out.append(f"DA:{lineno},{lines[lineno]}")
    out.append(f"LF:{len(lines)}")
    out.append(f"LH:{sum(1 for c in lines.values() if c > 0)}")
    out.append("end_of_record")
    return "\n".join(out) + "\n"
