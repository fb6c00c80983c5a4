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
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field

from .frontend import types as T
from .frontend.diagnostics import FrontendError
from .frontend.nodes import PouKind
from .frontend.parser import parse_source
from .frontend.pretty import format_real, format_string
from .frontend.resolve import PouInfo, TypedProgram, resolve
from .frontend.source import SourceUnit
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
        ref = importlib.resources.files("stbench") / "templates" / "harness.st.tmpl"
        return cls(ref.read_text(encoding="utf-8"))

    def substitute(self, unit_decls: str, instance_decls: str, calls: str, cycle_time_ms: int) -> str:
        return (
            self.text.replace("{UNIT_DECLS}", unit_decls)
            .replace("{TEST_INSTANCE_DECLS}", instance_decls)
            .replace("{TEST_CALLS}", calls)
            .replace("{CYCLE_TIME_MS}", str(cycle_time_ms))
        )


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
    source: SourceUnit
    typed: TypedProgram
    program_name: str
    cases: list[CaseHarness]
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
    unit_src: str,
    library_srcs: list[str],
    cycle_time_ms: int,
    origin: str = "harness.st",
) -> SourceUnit:
    """Assemble libraries, the unit, the case FBs and the template program
    into one self-contained SourceUnit.  Parts are parsed individually first
    so failures carry which part broke."""
    for label, text in (
        *[(f"library {i + 1}", s) for i, s in enumerate(library_srcs)],
        ("unit under test", unit_src),
        *[(f"test case FB {c.fb_name}", c.source) for c in cases],
    ):
        try:
            parse_source(SourceUnit(text, label))
        except FrontendError as exc:
            raise AssemblyError(label, exc) from exc

    decls = "\n".join([*library_srcs, unit_src, *[c.source for c in cases]])
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
    text = template.substitute(decls, "\n".join(inst_lines), "\n".join(call_lines), cycle_time_ms)
    return SourceUnit(text, origin)


def build_harness(
    suite: CheckedSuite,
    prog: TypedProgram,
    unit_src: str,
    library_srcs: list[str] | None = None,
    template: HarnessTemplate | None = None,
    cycle_time_ms: int = 10,
    atol: float = DEFAULT_ATOL,
    rtol: float = DEFAULT_RTOL,
) -> HarnessBundle:
    """Generate, assemble and resolve the complete harness for a suite."""
    library_srcs = library_srcs or []
    template = template or HarnessTemplate.default()
    fb = prog.lookup_pou(suite.fb_under_test)
    if fb is None or fb.kind is not PouKind.FUNCTION_BLOCK:
        raise CollisionError(f"unit under test {suite.fb_under_test} is not a function block")

    taken = set()
    stack = [prog]
    while stack:
        unit = stack.pop()
        taken.update(unit.pous)
        stack.extend(unit.libraries)
    if PROGRAM_NAME in taken:
        raise CollisionError(f"generated program name {PROGRAM_NAME} collides with an existing POU")

    cases: list[CaseHarness] = []
    for index, case in enumerate(suite.cases, start=1):
        harness = generate_case_fb(case, fb, index, atol, rtol, frozenset(taken))
        taken.add(harness.fb_name)
        cases.append(harness)

    src = assemble_program(cases, template, unit_src, library_srcs, cycle_time_ms)
    try:
        typed = resolve(parse_source(src))
    except FrontendError as exc:
        raise AssemblyError("assembled harness", exc) from exc

    return HarnessBundle(
        src,
        typed,
        PROGRAM_NAME,
        cases,
        {c.name: hook_var_names(c.index) for c in cases},
    )
