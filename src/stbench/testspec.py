"""The CSV test-suite wire format exchanged with the LLM.

Schema (one row per test state, RFC-4180 quoting, UTF-8, LF or CRLF):

    test_name,state,dwell_cycles,<input columns...>,expect_<output columns...>

`state` is a 1-based index within its case; `dwell_cycles` is optional and
defaults to 1 (how many scans the state's inputs are held before the
expectations are checked).  An empty input cell means "hold the previous
value"; an empty expect cell means "don't check".  Column names are
case-insensitive like all ST identifiers.

Parsing keeps cell literals as raw strings; `validate` types them against
the block's suite columns, which `suite_interface` alone decides: the CLI,
the prompt, `drop_unknown_columns` and `validate` all read them from it.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

from .frontend import types as T
from .frontend.lexer import LexError, TokKind, tokenize
from .frontend.nodes import PouKind, Section
from .frontend.resolve import MAX_STORAGE, PouInfo, TypedProgram
from .frontend.source import SourceUnit
from .harnessgen import case_values
from .runtime import values as V

RESERVED_COLUMNS = ("test_name", "state", "dwell_cycles")
EXPECT_PREFIX = "expect_"
# the most scans a run executes; a case's last check runs on the scan after
# its total dwell, so the dwell must stay below this
MAX_SCANS = 100_000


class CsvError(Exception):
    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        self.row = row
        self.column = column
        where = f" (row {row})" if row is not None else ""
        where += f" (column {column})" if column else ""
        super().__init__(message + where)


@dataclass
class ValidationItem:
    case: str
    state: int | None
    column: str | None
    message: str

    def __str__(self) -> str:
        parts = [self.case]
        if self.state is not None:
            parts.append(f"state {self.state}")
        if self.column:
            parts.append(self.column)
        return f"{'/'.join(parts)}: {self.message}"


class ValidationError(Exception):
    def __init__(self, items: list[ValidationItem]):
        self.items = items
        super().__init__("; ".join(str(i) for i in items))


@dataclass(frozen=True)
class FbInterface:
    """The block under test, as `suite_interface` checked it, and its suite
    columns: name -> type, in declaration order."""

    fb: PouInfo
    inputs: dict[str, T.STType]
    outputs: dict[str, T.STType]


def suite_interface(prog: TypedProgram, name: str) -> FbInterface:
    """The block `name` and its inputs and outputs but the ARRAYs, which no
    CSV cell can hold.  Raises a ValidationError with one item per rule the
    block breaks: it is a FUNCTION_BLOCK (if not, reported alone), has no
    VAR_IN_OUT parameter, which no column binds, and has a column output."""
    name = name.upper()
    fb = prog.lookup_pou(name)
    if fb is None or fb.kind is not PouKind.FUNCTION_BLOCK:
        message = f"unknown function block {name}" if fb is None else f"{name} is a {fb.kind.value}, not a function block"
        raise ValidationError([ValidationItem("-", None, None, message)])
    inputs = {v.name: v.ty for v in fb.inputs() if v.ty.kind is not T.Kind.ARRAY}
    outputs = {v.name: v.ty for v in fb.outputs() if v.ty.kind is not T.Kind.ARRAY}
    messages = []
    in_out = [v.name for v in fb.vars.values() if v.section is Section.IN_OUT]
    if in_out:
        plural = "s" if len(in_out) > 1 else ""
        messages.append(f"{name} has VAR_IN_OUT parameter{plural} {', '.join(in_out)}, which no suite column can bind")
    if not outputs:
        messages.append(f"{name} has no output that a CSV cell can hold")
    if messages:
        raise ValidationError([ValidationItem("-", None, None, m) for m in messages])
    return FbInterface(fb, inputs, outputs)


# ---------------------------------------------------------------------------
# untyped suite
# ---------------------------------------------------------------------------

@dataclass
class TestState:
    inputs: dict[str, str]      # column -> raw literal (non-empty cells only)
    expected: dict[str, str]    # output column -> raw literal
    dwell_cycles: int = 1


@dataclass
class TestCase:
    name: str
    states: list[TestState]


@dataclass
class TestSuite:
    fb_under_test: str
    cases: list[TestCase]
    input_columns: list[str] = field(default_factory=list)
    output_columns: list[str] = field(default_factory=list)


def header_cells(inputs: list[str], outputs: list[str]) -> list[str]:
    """The header row of a suite with these input and output columns."""
    return [*RESERVED_COLUMNS, *inputs, *[EXPECT_PREFIX + c for c in outputs]]


def is_header(cells: list[str]) -> bool:
    """Whether a row's cells start as a header does: test_name,state, in
    any case and with surrounding blanks."""
    return [c.strip().lower() for c in cells[:2]] == list(RESERVED_COLUMNS[:2])


def parse_suite(csv_text: str, fb_under_test: str = "") -> TestSuite:
    """Parse CSV text into an untyped TestSuite, preserving row order."""
    reader = csv.reader(io.StringIO(csv_text, newline=""))
    try:
        records = list(reader)
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise CsvError(str(exc), row=reader.line_num) from None
    if not records:
        raise CsvError("missing header row")
    header = records[0]
    if not is_header(header):
        raise CsvError("header must start with test_name,state", row=1)

    has_dwell = False
    input_cols: list[str] = []
    output_cols: list[str] = []
    col_kinds: list[tuple[str, str]] = []  # (kind, normalized name) per cell
    for raw in header[2:]:
        name = raw.strip()
        if name.lower() == RESERVED_COLUMNS[2]:
            if has_dwell:
                raise CsvError("duplicate dwell_cycles column", row=1)
            has_dwell = True
            col_kinds.append(("dwell", ""))
        elif name.lower().startswith(EXPECT_PREFIX):
            out = name[len(EXPECT_PREFIX):].upper()
            if not out:
                raise CsvError("empty expect_ column name", row=1)
            if out in output_cols:
                raise CsvError(f"duplicate column expect_{out}", row=1)
            output_cols.append(out)
            col_kinds.append(("expect", out))
        else:
            col = name.upper()
            if not col:
                raise CsvError("empty column name", row=1)
            if col in input_cols:
                raise CsvError(f"duplicate column {col}", row=1)
            input_cols.append(col)
            col_kinds.append(("input", col))

    rows: dict[str, dict[int, TestState]] = {}
    case_order: list[str] = []
    for lineno, row in enumerate(records[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise CsvError(
                f"ragged row: {len(row)} cells, header has {len(header)}", row=lineno
            )
        name = row[0].strip()
        if not name:
            raise CsvError("empty test_name", row=lineno)
        try:
            state_idx = int(row[1].strip())
        except ValueError:
            raise CsvError(f"non-numeric state index {row[1]!r}", row=lineno) from None
        if state_idx < 1:
            raise CsvError(f"state index must be >= 1, got {state_idx}", row=lineno)

        state = TestState({}, {})
        for cell, (kind, col) in zip(row[2:], col_kinds):
            text = cell.strip()
            if kind == "dwell":
                if text:
                    try:
                        state.dwell_cycles = int(text)
                    except ValueError:
                        raise CsvError(f"non-numeric dwell_cycles {text!r}", row=lineno) from None
                    if state.dwell_cycles < 1:
                        raise CsvError(f"dwell_cycles must be >= 1, got {text}", row=lineno)
            elif not text:
                continue
            elif kind == "input":
                state.inputs[col] = text
            else:
                state.expected[col] = text

        if name not in rows:
            rows[name] = {}
            case_order.append(name)
        if state_idx in rows[name]:
            raise CsvError(f"duplicate (case, state) key ({name}, {state_idx})", row=lineno)
        rows[name][state_idx] = state

    if not case_order:
        raise CsvError("suite contains no test cases")
    cases = [TestCase(name, [rows[name][i] for i in sorted(rows[name])]) for name in case_order]
    return TestSuite(fb_under_test.upper(), cases, input_cols, output_cols)


def serialize_suite(suite: TestSuite) -> str:
    """Canonical CSV form; parse_suite(serialize_suite(s)) equals s
    structurally (the dwell column is always written)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header_cells(suite.input_columns, suite.output_columns))
    for case in suite.cases:
        for idx, state in enumerate(case.states, start=1):
            row = [case.name, str(idx), str(state.dwell_cycles)]
            row += [state.inputs.get(c, "") for c in suite.input_columns]
            row += [state.expected.get(c, "") for c in suite.output_columns]
            writer.writerow(row)
    return buf.getvalue()


def drop_unknown_columns(suite: TestSuite, iface: FbInterface) -> tuple[TestSuite, list[str]]:
    """Remove columns that are not suite columns of the block (undeclared,
    or ARRAY); returns the cleaned suite and the dropped column names
    (inputs as-is, outputs with prefix)."""
    inputs, outputs = iface.inputs, iface.outputs
    dropped = [c for c in suite.input_columns if c not in inputs]
    dropped += [EXPECT_PREFIX + c for c in suite.output_columns if c not in outputs]
    if not dropped:
        return suite, []
    keep_in = [c for c in suite.input_columns if c in inputs]
    keep_out = [c for c in suite.output_columns if c in outputs]
    cases = [
        TestCase(
            case.name,
            [
                TestState(
                    {k: v for k, v in st.inputs.items() if k in inputs},
                    {k: v for k, v in st.expected.items() if k in outputs},
                    st.dwell_cycles,
                )
                for st in case.states
            ],
        )
        for case in suite.cases
    ]
    return TestSuite(suite.fb_under_test, cases, keep_in, keep_out), dropped


# ---------------------------------------------------------------------------
# typed suite
# ---------------------------------------------------------------------------

@dataclass
class CheckedState:
    inputs: dict[str, V.Value]
    expected: dict[str, V.Value]
    dwell_cycles: int = 1


@dataclass
class CheckedCase:
    name: str
    states: list[CheckedState]

    def total_dwell(self) -> int:
        return sum(s.dwell_cycles for s in self.states)


@dataclass
class CheckedSuite:
    fb_under_test: str
    cases: list[CheckedCase]


def parse_value_literal(text: str, ty: T.STType) -> V.Value:
    """Parse one CSV cell against a declared type.  Raises ValueError."""
    text = text.strip()
    k = ty.kind
    if k is T.Kind.BOOL:
        up = text.upper()
        if up in ("TRUE", "1"):
            return V.Value(T.BOOL, True)
        if up in ("FALSE", "0"):
            return V.Value(T.BOOL, False)
        raise ValueError(f"not a BOOL literal: {text!r}")
    if k in T.INT_RANGES:
        raw = _parse_int(text)
        lo, hi = T.INT_RANGES[k]
        if not (lo <= raw <= hi):
            raise ValueError(f"{raw} outside {ty} range {lo}..{hi}")
        return V.make(ty, raw)
    if k in (T.Kind.REAL, T.Kind.LREAL):
        val = V.make(ty, float(text))
        if not math.isfinite(val.v):  # ST has no literal for it
            raise ValueError(f"not a finite {ty}: {text!r}")
        return val
    if k is T.Kind.TIME:
        up = text.upper()
        if up.startswith(("T#", "TIME#")):
            try:
                toks = tokenize(SourceUnit(up))
            except LexError as exc:
                raise ValueError(f"not a TIME literal: {text!r}") from exc
            if len(toks) != 2 or toks[0].kind is not TokKind.TIME:
                raise ValueError(f"not a TIME literal: {text!r}")
            return V.make(ty, toks[0].value)
        raw = _parse_int(text)  # bare integers are milliseconds
        if raw < 0:
            raise ValueError(f"negative duration: {text!r}")
        return V.make(ty, raw)
    if k is T.Kind.STRING:
        if len(text) >= 2 and text.startswith("'") and text.endswith("'"):
            text = text[1:-1]
        wide = next((ch for ch in text if ord(ch) > 0xFF), None)
        if wide is not None:  # a STRING character is one byte
            raise ValueError(f"{ty} cannot hold {wide!r} (U+{ord(wide):04X}): {text!r}")
        if len(text) > ty.cap:  # cut to fit, it would not be the value the cell names
            raise ValueError(f"{len(text)} characters do not fit a {ty} ({ty.cap} at most)")
        return V.make(ty, text)
    raise ValueError(f"cannot parse a {ty} from a CSV cell")


def _parse_int(text: str) -> int:
    t = text.strip().replace("_", "")
    neg = t.startswith("-")
    if neg:
        t = t[1:]
    for prefix, base in (("2#", 2), ("8#", 8), ("16#", 16)):
        if t.upper().startswith(prefix):
            v = int(t[len(prefix):], base)
            return -v if neg else v
    v = int(t)
    return -v if neg else v


def validate(suite: TestSuite, prog: TypedProgram) -> CheckedSuite:
    """Type the suite against the suite columns of its block.

    Returns a CheckedSuite, or raises a ValidationError: the block's own
    problems alone (`suite_interface`), else every problem of the suite:
    unknown columns, an ARRAY's among them, unparseable literals, cases
    that never assert anything, cases too long to finish within MAX_SCANS
    scans, and more cases than the harness could hold: the values the
    cases add to it, each its own instance of the block among them
    (`harnessgen.case_values`), may total at most MAX_STORAGE.
    """
    iface = suite_interface(prog, suite.fb_under_test)
    fb, inputs, outputs = iface.fb, iface.inputs, iface.outputs
    items = []
    for col in suite.input_columns:
        if col not in inputs:
            items.append(ValidationItem("-", None, col, "unknown input column"))
    for col in suite.output_columns:
        if col not in outputs:
            items.append(ValidationItem("-", None, EXPECT_PREFIX + col, "unknown output column"))

    seen_names = set()
    for case in suite.cases:
        if case.name in seen_names:
            items.append(ValidationItem(case.name, None, None, "duplicate case name"))
        seen_names.add(case.name)

    checked_cases: list[CheckedCase] = []
    held = 0
    for case in suite.cases:
        states: list[CheckedState] = []
        asserts = 0
        for idx, st in enumerate(case.states, start=1):
            typed_in: dict[str, V.Value] = {}
            typed_exp: dict[str, V.Value] = {}
            for col, text in st.inputs.items():
                ty = inputs.get(col)
                if ty is None:
                    continue  # column already reported
                try:
                    typed_in[col] = parse_value_literal(text, ty)
                except ValueError as exc:
                    items.append(ValidationItem(case.name, idx, col, str(exc)))
            for col, text in st.expected.items():
                ty = outputs.get(col)
                if ty is None:
                    continue
                try:
                    typed_exp[col] = parse_value_literal(text, ty)
                except ValueError as exc:
                    items.append(ValidationItem(case.name, idx, EXPECT_PREFIX + col, str(exc)))
            asserts += len(st.expected)
            states.append(CheckedState(typed_in, typed_exp, st.dwell_cycles))
        held += case_values(fb, asserts)
        if asserts == 0:
            items.append(ValidationItem(case.name, None, None, "no assertable state in this case"))
        checked_cases.append(CheckedCase(case.name, states))
        dwell = checked_cases[-1].total_dwell()
        if dwell >= MAX_SCANS:
            message = f"total dwell of {dwell} cycles cannot finish within the {MAX_SCANS}-scan cap"
            items.append(ValidationItem(case.name, None, None, message))

    if held > MAX_STORAGE:
        message = f"{len(suite.cases)} cases of {fb.name} would hold {held} values, more than {MAX_STORAGE}"
        items.append(ValidationItem("-", None, None, message))
    if items:
        raise ValidationError(items)
    return CheckedSuite(suite.fb_under_test, checked_cases)
