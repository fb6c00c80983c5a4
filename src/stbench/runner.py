"""Execute a validated suite against its unit and produce the test report.

The report carries the three headline metrics: number of test cases,
statement coverage percentage of the unit under test, and the percentage of
successful assertions, plus per-case verdicts with exact expected/actual
values for every failed check.

The runner owns the harness protocol.  `run_harness` runs the harness
program with every case instance quarantined, so that a fault stops only
its case.  It runs for at most the longest case's total dwell plus two
scans (its last check scan and one spare), capped at MAX_SCANS, and stops
after the scan in which every case that has not faulted is DONE.  A case
seen DONE is finished: from then on its block only returns, called with
no inputs, and its hook mirrors copy the same values, as `harnessgen`
states.  So run_harness names its instance to run_program as finished,
and where run_program can (`interp.run_program`), the case's call and its
mirrors leave the scan, their counts credited per scan: every artifact is
byte for byte that of a run that kept them.  After each scan the runner
reads the hook variables the program mirrors (`harnessgen.hook_var_names`)
and writes one monitor line

    cycle=<n> t=<ms> events=[<e1>;<e2>;...]

with the 0-based scan index, the simulated time the scan ran at, and in
this order: `FAULT=<instance>@<sid>` for each case instance stopped by a
contained fault in the scan, then per case in index order
`TC_<i>_FAILS=<n>` when its failure counter rose and
`TC_<i>_DONE=PASS|FAIL` when its done flag rose, each event named by the
hook variable it reads.
"""

from __future__ import annotations

import io
import json
import operator
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import TextIO

from . import coverage as cov
from .frontend.diagnostics import FrontendError
from .frontend.parser import parse_source
from .frontend.resolve import TypedProgram, resolve
from .frontend.source import SourceUnit
from .harnessgen import (
    DEFAULT_ATOL,
    DEFAULT_CYCLE_TIME_MS,
    DEFAULT_RTOL,
    HarnessBundle,
    build_harness,
    hook_var_names,
    is_generated_name,
)
from .runtime import values as V
from .runtime.interp import ContainedFault, RunResult, RuntimeFault, SimClock, run_program
from .testspec import MAX_SCANS, CheckedSuite


class PipelineError(Exception):
    """An error wrapped with the pipeline phase it occurred in."""

    def __init__(self, phase: str, cause: Exception):
        self.phase = phase
        self.cause = cause
        super().__init__(f"[{phase}] {cause}")


# ---------------------------------------------------------------------------
# report model
# ---------------------------------------------------------------------------

@dataclass
class AssertionResult:
    state: int
    variable: str
    expected: str
    actual: str
    passed: bool


@dataclass
class CaseResult:
    name: str
    verdict: str                     # "pass" | "fail" | "fault"
    assertions: list[AssertionResult]
    fault: str | None = None

    def passed_count(self) -> int:
        return sum(1 for a in self.assertions if a.passed)


@dataclass
class RunOptions:
    cycle_time_ms: int = DEFAULT_CYCLE_TIME_MS
    atol: float = DEFAULT_ATOL
    rtol: float = DEFAULT_RTOL
    out_dir: Path | None = None
    fixed_clock: bool = False        # omit wall-clock timestamps from reports
    mode: str = ""                   # metadata: prompt mode that produced the suite
    provider: str = ""               # metadata: provider id
    warnings: tuple[str, ...] = ()   # metadata: e.g. columns dropped at generate time


@dataclass
class TestReport:
    unit: str
    cases: list[CaseResult]
    coverage: cov.CoverageSummary
    cycles_executed: int
    cycle_time_ms: int
    mode: str = ""
    provider: str = ""
    warnings: tuple[str, ...] = ()
    artifacts: dict[str, str] = field(default_factory=dict)
    generated_at: str | None = None
    # the text report as report.txt holds it, once run_suite wrote the
    # artifacts, so that the CLI prints it without rendering it again
    text: str | None = field(default=None, repr=False)

    def all_green(self) -> bool:
        return all(c.verdict == "pass" for c in self.cases)

    # the headline metrics, each derived from the cases or the coverage
    @property
    def cases_total(self) -> int:
        return len(self.cases)

    @property
    def assertions_total(self) -> int:
        return sum(len(c.assertions) for c in self.cases)

    @property
    def assertions_passed(self) -> int:
        return sum(c.passed_count() for c in self.cases)

    @property
    def assertion_success_pct(self) -> float | None:  # None renders as "n/a"
        total = self.assertions_total
        return cov.round_pct(self.assertions_passed, total) if total else None

    @property
    def statement_coverage_pct(self) -> float:
        return self.coverage.unit.percentage

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "unit": self.unit,
            "metrics": {
                "cases_total": self.cases_total,
                "assertions_total": self.assertions_total,
                "assertions_passed": self.assertions_passed,
                "assertion_success_pct": self.assertion_success_pct,
                "statement_coverage_pct": self.statement_coverage_pct,
            },
            "cases": [
                {
                    "name": c.name,
                    "verdict": c.verdict,
                    "fault": c.fault,
                    "assertions": [
                        {
                            "state": a.state,
                            "variable": a.variable,
                            "expected": a.expected,
                            "actual": a.actual,
                            "passed": a.passed,
                        }
                        for a in c.assertions
                    ],
                }
                for c in self.cases
            ],
            "coverage": {
                "unit": {
                    "statements_total": self.coverage.unit.statements_total,
                    "statements_hit": self.coverage.unit.statements_hit,
                    "percentage": self.coverage.unit.percentage,
                },
                "per_pou": {
                    name: {
                        "statements_total": p.statements_total,
                        "statements_hit": p.statements_hit,
                        "percentage": p.percentage,
                    }
                    for name, p in sorted(self.coverage.per_pou.items())
                },
            },
            "meta": {
                "mode": self.mode,
                "provider": self.provider,
                "cycle_time_ms": self.cycle_time_ms,
                "cycles_executed": self.cycles_executed,
                "warnings": list(self.warnings),
                "generated_at": self.generated_at,
            },
            "artifacts": self.artifacts,
        }


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

class CollisionError(Exception):
    """A POU name defined in two sources, or a generated name clashing with
    a POU in the unit or libraries."""


def load_program(unit: SourceUnit, libraries: Sequence[SourceUnit] = ()) -> TypedProgram:
    """Lex, parse and resolve each library on its own, then the unit over
    them: the one load of a unit and its libraries per invocation.  A POU
    name may be defined in one of these sources only, and none may take a
    name the harness generates."""
    try:
        libs = [resolve(parse_source(lib)) for lib in libraries]
        prog = resolve(parse_source(unit), libs)
    except FrontendError as exc:
        raise PipelineError("assemble", exc) from exc
    defined_in: dict[str, str] = {}
    for layer in prog.layers():
        for name in layer.pous:
            if is_generated_name(name):
                message = f"{name} in {layer.src.origin} is reserved for the generated harness"
                raise PipelineError("assemble", CollisionError(message))
            if name in defined_in:
                message = f"duplicate declaration of {name} in {defined_in[name]} and {layer.src.origin}"
                raise PipelineError("assemble", CollisionError(message))
            defined_in[name] = layer.src.origin
    return prog


def run_harness(bundle: HarnessBundle) -> tuple[RunResult, list[str]]:
    """Run a harness by the protocol the module docstring states, at the
    scan interval it was built for; return the run and its monitor lines.
    A fault outside every case instance propagates as a RuntimeFault."""
    clock = SimClock(now=0, cycle_time=bundle.cycle_time_ms)
    lines: list[str] = []
    # the cases whose hooks can still change: not DONE and not faulted
    watched = [(c.index, c.instance_name, *hook_var_names(c.index)) for c in bundle.cases]
    # the instances of the cases seen DONE, which run_program may retire
    finished: set[str] = set()
    fails_before = dict.fromkeys((c.index for c in bundle.cases), 0)

    def reader():
        """A getter of the watched cases' DONE and FAILS hooks at once."""
        return operator.itemgetter(*[name for case in watched for name in (case[2], case[4])])

    # what the hooks read after the last scan that ran the event loop: a
    # scan that changed none of them and contained no fault has no event
    hooks, last = reader(), None

    def after_scan(store: dict[str, object], faults: tuple[ContainedFault, ...]) -> bool:
        nonlocal hooks, last
        now = hooks(store)
        if now == last and not faults:
            lines.append(f"cycle={len(lines)} t={clock.now} events=[]")
            return False
        last = now
        events = [f"FAULT={f.instance}@{f.fault.sid}" for f in faults]
        rose = False
        for index, _, done, passed, fails in watched:
            count = store[fails]
            if count > fails_before[index]:
                events.append(f"{fails}={count}")
            fails_before[index] = count
            if store[done]:
                events.append(f"{done}={'PASS' if store[passed] else 'FAIL'}")
                rose = True
        if rose or faults:
            stopped = {f.instance for f in faults}
            finished.update([case[1] for case in watched if store[case[2]] and case[1] not in stopped])
            watched[:] = [case for case in watched if not store[case[2]] and case[1] not in stopped]
            if watched:
                hooks = reader()
                last = hooks(store)
        lines.append(f"cycle={len(lines)} t={clock.now} events=[{';'.join(events)}]")
        return not watched

    result = run_program(
        bundle.typed,
        bundle.program_name,
        min(max(c.total_dwell + 2 for c in bundle.cases), MAX_SCANS),
        clock,
        after_scan,
        quarantine={c.instance_name for c in bundle.cases},
        finished=finished,
    )
    return result, lines


def run_suite(
    prog: TypedProgram,
    checked_suite: CheckedSuite,
    options: RunOptions = RunOptions(),
) -> TestReport:
    """Generate the harness over `prog` (from load_program), execute it,
    and evaluate every assertion.  The run builds no reference cycles: the
    harness program and its generated functions are freed by reference
    counting once the caller drops the report (the compiled factories they
    were made by stay cached for the process), so the caller may pause the
    cyclic garbage collector around the call, as the CLI does."""
    try:
        bundle = build_harness(
            checked_suite,
            prog,
            cycle_time_ms=options.cycle_time_ms,
            atol=options.atol,
            rtol=options.rtol,
        )
    except FrontendError as exc:
        raise PipelineError("assemble", exc) from exc

    try:
        result, monitor_lines = run_harness(bundle)
    except RuntimeFault as exc:
        raise PipelineError("execute", exc) from exc

    pous = cov.domain(bundle.typed)
    summary = cov.summarize(pous, result.counts, checked_suite.fb_under_test)

    faults = {f.instance: f for f in result.faults}
    case_results: list[CaseResult] = []
    for c in bundle.cases:
        inst = result.instance.nested[c.instance_name]
        checked_upto = int(inst.store["CHECKED"])
        done = bool(inst.store["DONE"])
        assertions: list[AssertionResult] = []
        for slot in c.slots:
            actual, passed = "(not evaluated)", False
            if slot.state <= checked_upto:
                actual = V.render(V.box(inst.info.vars[slot.actual_var].ty, inst.store[slot.actual_var]))
                passed = not inst.store[slot.flag_var]
            assertions.append(AssertionResult(slot.state, slot.column, V.render(slot.expected), actual, passed))
        fault = faults.get(c.instance_name)
        verdict = "fault" if fault else "pass" if done and all(a.passed for a in assertions) else "fail"
        case_results.append(CaseResult(c.name, verdict, assertions, fault.fault.describe() if fault else None))

    report = TestReport(
        unit=checked_suite.fb_under_test,
        cases=case_results,
        coverage=summary,
        cycles_executed=result.cycles_executed,
        cycle_time_ms=bundle.cycle_time_ms,
        mode=options.mode,
        provider=options.provider,
        warnings=tuple(options.warnings),
        generated_at=None if options.fixed_clock else time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime()),
    )

    if options.out_dir is not None:
        # the sources the user wrote, each with its own line map; the
        # generated layer is counted but not listed
        listed = [(layer.src, cov.line_counts(pous, result.counts, layer)) for layer in prog.layers()]
        try:
            _write_artifacts(report, bundle, listed, monitor_lines, options)
        except OSError as exc:
            raise PipelineError("report", exc) from exc
    return report


def _write_artifacts(
    report: TestReport,
    bundle: HarnessBundle,
    listed: list[tuple[SourceUnit, dict[int, int]]],
    monitor_lines: list[str],
    options: RunOptions,
) -> None:
    """Write the run's artifacts into the output directory, the coverage
    files and report.json rendered straight into their files, and keep the
    text report on the report.  The report lists suite.csv only if the
    directory holds one: the CLI writes it there, run_suite does not."""
    out = options.out_dir
    out.mkdir(parents=True, exist_ok=True)
    (out / "harness.st").write_text(bundle.source.text, encoding="utf-8")
    with open(out / "coverage.lcov", "w", encoding="utf-8") as f:
        for src, lines in listed:
            cov.render_lcov(lines, src, f)
    with open(out / "coverage.annotated.txt", "w", encoding="utf-8") as f:
        for src, lines in listed:
            cov.render_annotated(lines, src, f)
    (out / "monitor.txt").write_text("\n".join(monitor_lines) + "\n", encoding="utf-8")
    report.artifacts = {
        "report_json": "report.json",
        "report_txt": "report.txt",
        "coverage_lcov": "coverage.lcov",
        "coverage_annotated": "coverage.annotated.txt",
        "harness": "harness.st",
        "monitor": "monitor.txt",
    }
    if (out / "suite.csv").is_file():
        report.artifacts["suite"] = "suite.csv"
    with open(out / "report.json", "w", encoding="utf-8") as f:
        render_report(report, "json", f)
    text = io.StringIO()
    render_report(report, "text", text)
    report.text = text.getvalue()
    (out / "report.txt").write_text(report.text, encoding="utf-8")


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _fmt_pct(pct: float | None) -> str:
    return "n/a" if pct is None else f"{pct:.2f}%"


def render_report(report: TestReport, fmt: str, out: TextIO) -> None:
    """Write the report to the text stream `out` in `fmt`: "json", the
    versioned schema, in the pieces json's encoder produces, or "text", the
    verdict table with the headline metrics and every failure."""
    if fmt == "json":
        json.dump(report.to_dict(), out, indent=2, sort_keys=True)
        out.write("\n")
        return
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")

    name_w = max([len(c.name) for c in report.cases] + [len("case")])
    lines = [f"unit under test: {report.unit}"]
    lines.append("")
    lines.append(f"{'case':<{name_w}}  verdict  assertions")
    lines.append("-" * (name_w + 21))
    for c in report.cases:
        lines.append(f"{c.name:<{name_w}}  {c.verdict:<7}  {c.passed_count()}/{len(c.assertions)}")
    lines.append("-" * (name_w + 21))
    lines.append(
        f"cases: {report.cases_total}   "
        f"assertions: {report.assertions_passed}/{report.assertions_total} "
        f"({_fmt_pct(report.assertion_success_pct)})   "
        f"statement coverage: {report.statement_coverage_pct:.2f}%"
    )
    failures = [
        (c, a)
        for c in report.cases
        for a in c.assertions
        if not a.passed
    ]
    if failures:
        lines.append("")
        lines.append("failed assertions:")
        for c, a in failures:
            lines.append(f"  {c.name} state {a.state} {a.variable}: expected {a.expected}, actual {a.actual}")
    faults = [c for c in report.cases if c.verdict == "fault"]
    if faults:
        lines.append("")
        lines.append("faults:")
        for c in faults:
            lines.append(f"  {c.name}: {c.fault}")
    lines.append("")
    lines.append(
        f"executed {report.cycles_executed} cycles at {report.cycle_time_ms} ms"
        + (f"   mode: {report.mode}" if report.mode else "")
        + (f"   provider: {report.provider}" if report.provider else "")
    )
    out.write("\n".join(lines) + "\n")
