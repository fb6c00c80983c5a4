"""Turn a CheckedSuite into executable ST test code.

Every test case becomes one generated function block that drives a private
instance of the unit under test through the case's states:

* each scan applies the active state's inputs (unbound inputs hold their
  previous values) and calls the unit once;
* after a state's dwell completes, its expected outputs are checked on the
  next scan, before the following state's inputs are applied;
* when the final state's checks are done the block raises its hook outputs
  DONE, PASS and FAILS and goes quiet.

Checked values are captured into dedicated variables (A_<state>_<output>)
with per-assertion fail flags (F_<state>_<output>) so the runner can read
exact actuals back out of the instance store afterwards.

The comparison policy is baked into the generated code: exact equality for
BOOL, integers, STRING and TIME; for REAL/LREAL the check is
|actual - expected| <= atol + rtol * |expected|.

A PROGRAM assembled from the harness template instantiates every case block,
calls them all each scan, and mirrors their hook outputs into program-level
variables TC_<n>_DONE / TC_<n>_PASS / TC_<n>_FAILS that the runtime's
monitoring recognizes.

The unit under test and its libraries are parsed and resolved once, before
the harness is built.  The case blocks and the program form one generated
text, parsed once and resolved as a layer over the unit's TypedProgram.
harness.st is still written whole (libraries, unit, case blocks, program),
but nothing parses it: the bundle records where each layer's text starts
in it, so coverage renders against its lines.  A POU name may be defined in
one layer only.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from .frontend import types as T
from .frontend.diagnostics import FrontendError
from .frontend.lexer import TokKind, tokenize
from .frontend.nodes import PouKind
from .frontend.parser import parse_source
from .frontend.pretty import format_real, format_string
from .frontend.resolve import PouInfo, TypedProgram, resolve
from .frontend.source import SourceUnit, Span
from .runtime import values as V
from .testspec import CheckedCase, CheckedSuite

PROGRAM_NAME = "TEST_RUNNER"
DEFAULT_ATOL = 1e-6
DEFAULT_RTOL = 1e-6


class CollisionError(Exception):
    """A generated name clashes with a POU in the unit or libraries."""


class AssemblyError(Exception):
    """A harness part failed to parse or resolve; carries which part."""

    def __init__(self, part: str, cause: Exception):
        self.part = part
        self.cause = cause
        super().__init__(f"{part}: {cause}")


@dataclass
class HarnessTemplate:
    """Program skeleton with {UNIT_DECLS}, {TEST_INSTANCE_DECLS},
    {TEST_CALLS} and {CYCLE_TIME_MS} placeholders."""

    text: str

    @classmethod
    def default(cls) -> "HarnessTemplate":
        path = Path(__file__).parent / "templates" / "harness.st.tmpl"
        return cls(path.read_text(encoding="utf-8"))

    def split(self, instance_decls: str, calls: str, cycle_time_ms: int) -> tuple[str, str]:
        """The filled-in text before and after {UNIT_DECLS}."""
        text = (
            self.text.replace("{TEST_INSTANCE_DECLS}", instance_decls)
            .replace("{TEST_CALLS}", calls)
            .replace("{CYCLE_TIME_MS}", str(cycle_time_ms))
        )
        head, _, tail = text.partition("{UNIT_DECLS}")
        return head, tail


@dataclass
class AssertionSlot:
    """One expected-output check: where its actual/flag variables live."""

    state: int
    column: str
    actual_var: str
    flag_var: str
    expected: V.Value


@dataclass
class CaseHarness:
    name: str
    index: int               # 1-based, used in all generated names
    fb_name: str
    instance_name: str
    source: str
    slots: list[AssertionSlot]
    total_dwell: int


@dataclass
class HarnessBundle:
    source: SourceUnit               # harness.st
    typed: TypedProgram              # the generated layer, over the unit
    program_name: str
    cases: list[CaseHarness]
    # every layer whose text harness.st holds, with the amount to add to an
    # offset in the layer's own source to get its offset in harness.st
    layers: list[tuple[TypedProgram, int]]
    hook_vars: dict[str, tuple[str, str, str]] = field(default_factory=dict)


def st_literal(val: V.Value) -> str:
    """Render a runtime value as ST literal text that resolves to it."""
    k = val.ty.kind
    if k is T.Kind.BOOL:
        return "TRUE" if val.v else "FALSE"
    if k in (T.Kind.INT, T.Kind.DINT, T.Kind.BYTE, T.Kind.WORD):
        return str(val.v)
    if k in (T.Kind.REAL, T.Kind.LREAL):
        return format_real(val.v)
    if k is T.Kind.TIME:
        return f"T#{val.v}ms"
    if k is T.Kind.STRING:
        return format_string(val.v)
    raise TypeError(f"no literal form for {val.ty}")


def hook_var_names(index: int) -> tuple[str, str, str]:
    return (f"TC_{index}_DONE", f"TC_{index}_PASS", f"TC_{index}_FAILS")


def generate_case_fb(
    case: CheckedCase,
    fb: PouInfo,
    index: int,
    atol: float = DEFAULT_ATOL,
    rtol: float = DEFAULT_RTOL,
    taken: frozenset[str] = frozenset(),
) -> CaseHarness:
    """Emit the sequential-state test FB for one validated case."""
    fb_name = f"TC_{index}_CASE"
    if fb_name in taken:
        raise CollisionError(f"generated name {fb_name} collides with an existing POU")
    out_types = {v.name: v.ty for v in fb.outputs()}

    slots: list[AssertionSlot] = []
    for st_idx, state in enumerate(case.states, start=1):
        for col, expected in state.expected.items():
            slots.append(
                AssertionSlot(st_idx, col, f"A_{st_idx}_{col}", f"F_{st_idx}_{col}", expected)
            )

    n_states = len(case.states)
    lines: list[str] = [f"FUNCTION_BLOCK {fb_name}"]
    lines += [
        "VAR_OUTPUT",
        "    DONE : BOOL;",
        "    PASS : BOOL;",
        "    FAILS : DINT;",
        "END_VAR",
        "VAR",
        f"    UNIT : {fb.name};",
        "    STATE : DINT;",
        "    TICK : DINT;",
        "    PENDING : DINT;",
        "    CHECKED : DINT;",
    ]
    for slot in slots:
        lines.append(f"    {slot.actual_var} : {out_types[slot.column]};")
        lines.append(f"    {slot.flag_var} : BOOL;")
    lines.append("END_VAR")
    lines.append("")
    lines.append("IF DONE THEN")
    lines.append("    RETURN;")
    lines.append("END_IF;")
    lines.append("")
    lines.append("IF PENDING > 0 THEN")
    lines.append("    CASE PENDING OF")
    for st_idx, state in enumerate(case.states, start=1):
        if not state.expected:
            continue
        lines.append(f"        {st_idx}:")
        for slot in slots:
            if slot.state != st_idx:
                continue
            lines.append(f"            {slot.actual_var} := UNIT.{slot.column};")
            lines.append(f"            IF NOT ({_comparison(slot, out_types[slot.column], atol, rtol)}) THEN")
            lines.append(f"                {slot.flag_var} := TRUE;")
            lines.append("                FAILS := FAILS + 1;")
            lines.append("            END_IF;")
    lines.append("    END_CASE;")
    lines.append("    CHECKED := PENDING;")
    lines.append(f"    IF PENDING = {n_states} THEN")
    lines.append("        PASS := FAILS = 0;")
    lines.append("        DONE := TRUE;")
    lines.append("        PENDING := 0;")
    lines.append("        RETURN;")
    lines.append("    END_IF;")
    lines.append("    PENDING := 0;")
    lines.append("END_IF;")
    lines.append("")
    lines.append("IF STATE = 0 THEN")
    lines.append("    STATE := 1;")
    lines.append("END_IF;")
    lines.append("")
    lines.append("CASE STATE OF")
    for st_idx, state in enumerate(case.states, start=1):
        binds = ", ".join(f"{col} := {st_literal(val)}" for col, val in state.inputs.items())
        lines.append(f"    {st_idx}:")
        lines.append(f"        UNIT({binds});")
        lines.append("        TICK := TICK + 1;")
        lines.append(f"        IF TICK >= {state.dwell_cycles} THEN")
        lines.append(f"            PENDING := {st_idx};")
        lines.append(f"            STATE := {st_idx + 1};")
        lines.append("            TICK := 0;")
        lines.append("        END_IF;")
    lines.append("END_CASE;")
    lines.append("END_FUNCTION_BLOCK")
    return CaseHarness(
        case.name,
        index,
        fb_name,
        f"TC{index}",
        "\n".join(lines) + "\n",
        slots,
        case.total_dwell(),
    )


def _comparison(slot: AssertionSlot, ty: T.STType, atol: float, rtol: float) -> str:
    lit = st_literal(slot.expected)
    if ty.kind in (T.Kind.REAL, T.Kind.LREAL):
        tol = f"{format_real(atol)} + {format_real(rtol)} * ABS({lit})"
        return f"ABS({slot.actual_var} - {lit}) <= ({tol})"
    return f"{slot.actual_var} = {lit}"


def assemble_program(
    cases: list[CaseHarness],
    template: HarnessTemplate,
    dependencies: list[str],
    cycle_time_ms: int,
    origin: str = "harness.st",
) -> tuple[SourceUnit, list[int]]:
    """Assemble the dependencies (libraries, then the unit under test), the
    case FBs and the template program into harness.st.  Also returns where
    each dependency's text starts in it and, last, where its generated part
    starts: the case FBs and the template from {UNIT_DECLS} on."""
    inst_lines = []
    call_lines = []
    for c in cases:
        done, pass_, fails = hook_var_names(c.index)
        inst_lines.append(f"    {c.instance_name} : {c.fb_name};")
        inst_lines.append(f"    {done} : BOOL;")
        inst_lines.append(f"    {pass_} : BOOL;")
        inst_lines.append(f"    {fails} : DINT;")
        call_lines.append(f"    {c.instance_name}();")
        call_lines.append(f"    {done} := {c.instance_name}.DONE;")
        call_lines.append(f"    {pass_} := {c.instance_name}.PASS;")
        call_lines.append(f"    {fails} := {c.instance_name}.FAILS;")
    head, tail = template.split("\n".join(inst_lines), "\n".join(call_lines), cycle_time_ms)
    if head.strip():  # copied to harness.st but never compiled
        try:
            tokens = tokenize(SourceUnit(head, "harness template"))
        except FrontendError as exc:
            raise AssemblyError("harness template", exc) from exc
        if tokens[0].kind is not TokKind.EOF:
            raise AssemblyError("harness template", ValueError("only comments may precede {UNIT_DECLS}"))

    case_texts = [c.source for c in cases]
    text = head + "\n".join([*dependencies, *case_texts]) + tail
    starts = []
    offset = len(head)
    for dep in dependencies:
        starts.append(offset)
        offset += len(dep) + 1
    starts.append(len(text) - len("\n".join(case_texts) + tail))
    return SourceUnit(text, origin), starts


def _part_at(cases: list[CaseHarness], offset: int) -> str:
    """The part of the generated text that `offset` falls in."""
    for c in cases:
        if offset <= len(c.source):
            return f"test case FB {c.fb_name}"
        offset -= len(c.source) + 1
    return "runner program"


def build_harness(
    suite: CheckedSuite,
    prog: TypedProgram,
    template: HarnessTemplate | None = None,
    cycle_time_ms: int = 10,
    atol: float = DEFAULT_ATOL,
    rtol: float = DEFAULT_RTOL,
) -> HarnessBundle:
    """Generate the case FBs and the runner program for a suite and resolve
    them as one layer over `prog`, the unit under test with its libraries."""
    template = template or HarnessTemplate.default()
    fb = prog.lookup_pou(suite.fb_under_test)
    if fb is None or fb.kind is not PouKind.FUNCTION_BLOCK:
        raise CollisionError(f"unit under test {suite.fb_under_test} is not a function block")

    layers = prog.layers()
    defined_in: dict[str, str] = {}
    for unit in layers:
        for name in unit.pous:
            if name in defined_in:
                raise CollisionError(
                    f"duplicate declaration of {name} in {defined_in[name]} and {unit.src.origin}"
                )
            defined_in[name] = unit.src.origin
    if PROGRAM_NAME in defined_in:
        raise CollisionError(f"generated program name {PROGRAM_NAME} collides with an existing POU")

    taken = set(defined_in)
    cases: list[CaseHarness] = []
    for index, case in enumerate(suite.cases, start=1):
        harness = generate_case_fb(case, fb, index, atol, rtol, frozenset(taken))
        taken.add(harness.fb_name)
        cases.append(harness)

    # harness.st lists the libraries before the unit that uses them
    dependencies = layers[1:] + layers[:1]
    source, starts = assemble_program(
        cases, template, [unit.src.text for unit in dependencies], cycle_time_ms
    )
    shift = starts[-1]
    try:
        typed = resolve(parse_source(SourceUnit(source.text[shift:], "generated harness")), [prog])
    except FrontendError as exc:
        # report the diagnostics where they are in harness.st
        moved = [replace(d, span=Span(d.span.start + shift, d.span.end + shift)) for d in exc.diagnostics]
        raise AssemblyError(
            _part_at(cases, exc.diagnostics[0].span.start), FrontendError(moved, source)
        ) from exc

    return HarnessBundle(
        source,
        typed,
        PROGRAM_NAME,
        cases,
        list(zip([*dependencies, typed], starts)),
        {c.name: hook_var_names(c.index) for c in cases},
    )
