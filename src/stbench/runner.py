"""Execute a validated suite against its unit and produce the test report.

The report carries the three headline metrics: number of test cases,
statement coverage percentage of the unit under test, and the percentage of
successful assertions, plus per-case verdicts with exact expected/actual
values for every failed check.

The runner owns the harness protocol.  `run_harness` runs the harness
program with every case instance quarantined, so that a fault stops only
its case.  It runs for at most the longest case's total dwell plus two
scans (its last check scan and one spare), capped at MAX_SCANS, and stops
after the scan in which every case that has not faulted is DONE.  After
each scan it reads the hook variables the program mirrors
(`harnessgen.hook_var_names`) and writes one monitor line

    cycle=<n> t=<ms> events=[<e1>;<e2>;...]

with the 0-based scan index, the simulated time the scan ran at, and in
this order: `FAULT=<instance>@<sid>` for each case instance stopped by a
contained fault in the scan, then per case in index order
`TC_<i>_FAILS=<n>` when its failure counter rose and
`TC_<i>_DONE=PASS|FAIL` when its done flag rose.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import coverage as cov
from .frontend.diagnostics import FrontendError
from .frontend.parser import parse_source
from .frontend.resolve import TypedProgram, resolve
from .frontend.source import SourceUnit
from .harnessgen import (
    DEFAULT_ATOL,
    DEFAULT_RTOL,
    CollisionError,
    HarnessBundle,
    build_harness,
    hook_var_names,
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
    cycle_time_ms: int = 10
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
    cases_total: int
    assertions_total: int
    assertions_passed: int
    assertion_success_pct: float | None      # None renders as "n/a"
    statement_coverage_pct: float
    coverage: cov.CoverageSummary
    cycles_executed: int
    cycle_time_ms: int
    mode: str = ""
    provider: str = ""
    warnings: tuple[str, ...] = ()
    artifacts: dict[str, str] = field(default_factory=dict)
    generated_at: str | None = None

    def all_green(self) -> bool:
        return all(c.verdict == "pass" for c in self.cases)

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

def load_program(unit: SourceUnit, libraries: Sequence[SourceUnit] = ()) -> TypedProgram:
    """Lex, parse and resolve each library on its own, then the unit over
    them: the one load of a unit and its libraries per invocation."""
    try:
        libs = [resolve(parse_source(lib)) for lib in libraries]
        return resolve(parse_source(unit), libs)
    except FrontendError as exc:
        raise PipelineError("assemble", exc) from exc


def run_harness(bundle: HarnessBundle, cycle_time_ms: int = 10) -> tuple[RunResult, list[str]]:
    """Run a harness by the protocol the module docstring states; return
    the run and its monitor lines.  A fault outside every case instance
    propagates as a RuntimeFault."""
    clock = SimClock(now=0, cycle_time=cycle_time_ms)
    lines: list[str] = []
    # the cases whose hooks can still change: not DONE and not faulted
    watched = [(c.index, c.instance_name, *hook_var_names(c.index)) for c in bundle.cases]
    fails_before = dict.fromkeys((c.index for c in bundle.cases), 0)

    def after_scan(store: dict[str, object], faults: list[ContainedFault]) -> bool:
        events = [f"FAULT={f.instance}@{f.fault.sid}" for f in faults]
        stopped = {f.instance for f in faults}
        still = []
        for case in watched:
            index, instance, done, passed, fails = case
            count = store[fails]
            if count > fails_before[index]:
                events.append(f"TC_{index}_FAILS={count}")
            fails_before[index] = count
            if store[done]:
                events.append(f"TC_{index}_DONE={'PASS' if store[passed] else 'FAIL'}")
            elif instance not in stopped:
                still.append(case)
        watched[:] = still
        lines.append(f"cycle={len(lines)} t={clock.now} events=[{';'.join(events)}]")
        return not watched

    result = run_program(
        bundle.typed,
        bundle.program_name,
        min(max(c.total_dwell + 2 for c in bundle.cases), MAX_SCANS),
        clock,
        after_scan,
        quarantine={c.instance_name for c in bundle.cases},
    )
    return result, lines


def run_suite(
    prog: TypedProgram,
    checked_suite: CheckedSuite,
    options: RunOptions = RunOptions(),
) -> TestReport:
    """Generate the harness over `prog` (from load_program), execute it,
    and evaluate every assertion.  The run builds no reference cycles: the
    harness program and its compiled code are freed by reference counting
    once the caller drops the report, so the caller may pause the cyclic
    garbage collector around the call, as the CLI does."""
    try:
        bundle = build_harness(
            checked_suite,
            prog,
            cycle_time_ms=options.cycle_time_ms,
            atol=options.atol,
            rtol=options.rtol,
        )
    except CollisionError as exc:
        raise PipelineError("generate", exc) from exc
    except FrontendError as exc:
        raise PipelineError("assemble", exc) from exc

    try:
        result, monitor_lines = run_harness(bundle, options.cycle_time_ms)
    except RuntimeFault as exc:
        raise PipelineError("execute", exc) from exc

    cmap = cov.add_counts(cov.CoverageMap.for_program(bundle.typed), result.counts)
    summary = cov.summarize(cmap, checked_suite.fb_under_test)

    faults = {f.instance: f for f in result.faults}
    case_results: list[CaseResult] = []
    for c in bundle.cases:
        inst = result.instance.nested[c.instance_name]
        checked_upto = int(inst.store["CHECKED"])
        done = bool(inst.store["DONE"])
        assertions: list[AssertionResult] = []
        for slot in c.slots:
            if slot.state <= checked_upto:
                actual = V.box(inst.info.vars[slot.actual_var].ty, inst.store[slot.actual_var])
                passed = not bool(inst.store[slot.flag_var])
                assertions.append(
                    AssertionResult(
                        slot.state,
                        slot.column,
                        V.render(slot.expected),
                        V.render(actual),
                        passed,
                    )
                )
            else:
                assertions.append(
                    AssertionResult(
                        slot.state,
                        slot.column,
                        V.render(slot.expected),
                        "(not evaluated)",
                        False,
                    )
                )
        if c.instance_name in faults:
            verdict = "fault"
            fault_text = faults[c.instance_name].fault.describe()
        elif done and all(a.passed for a in assertions):
            verdict = "pass"
            fault_text = None
        else:
            verdict = "fail"
            fault_text = None
        case_results.append(CaseResult(c.name, verdict, assertions, fault_text))

    assertions_total = checked_suite.assertion_count()
    assertions_passed = sum(c.passed_count() for c in case_results)
    pct = cov.round_pct(assertions_passed, assertions_total) if assertions_total else None

    report = TestReport(
        unit=checked_suite.fb_under_test,
        cases=case_results,
        cases_total=len(checked_suite.cases),
        assertions_total=assertions_total,
        assertions_passed=assertions_passed,
        assertion_success_pct=pct,
        statement_coverage_pct=summary.unit.percentage,
        coverage=summary,
        cycles_executed=result.cycles_executed,
        cycle_time_ms=options.cycle_time_ms,
        mode=options.mode,
        provider=options.provider,
        warnings=tuple(options.warnings),
        generated_at=None
        if options.fixed_clock
        else datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )

    if options.out_dir is not None:
        try:
            _write_artifacts(report, bundle, cmap, monitor_lines, options)
        except OSError as exc:
            raise PipelineError("report", exc) from exc
    return report


def _write_artifacts(
    report: TestReport,
    bundle: HarnessBundle,
    cmap: cov.CoverageMap,
    monitor_lines: list[str],
    options: RunOptions,
) -> None:
    out = options.out_dir
    out.mkdir(parents=True, exist_ok=True)
    (out / "harness.st").write_text(bundle.source.text, encoding="utf-8")
    lines = cov.line_counts(cmap, bundle.layers, bundle.source)
    (out / "coverage.lcov").write_text(cov.render_lcov(lines, bundle.source), encoding="utf-8")
    (out / "coverage.annotated.txt").write_text(
        cov.render_annotated(lines, bundle.source), encoding="utf-8"
    )
    (out / "monitor.txt").write_text("\n".join(monitor_lines) + "\n", encoding="utf-8")
    report.artifacts = {
        "report_json": "report.json",
        "report_txt": "report.txt",
        "coverage_lcov": "coverage.lcov",
        "coverage_annotated": "coverage.annotated.txt",
        "harness": "harness.st",
        "monitor": "monitor.txt",
        "suite": "suite.csv",
    }
    (out / "report.json").write_text(render_report(report, "json"), encoding="utf-8")
    (out / "report.txt").write_text(render_report(report, "text"), encoding="utf-8")


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _fmt_pct(pct: float | None) -> str:
    return "n/a" if pct is None else f"{pct:.2f}%"


def render_report(report: TestReport, fmt: str = "text") -> str:
    if fmt == "json":
        return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
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
    return "\n".join(lines) + "\n"
