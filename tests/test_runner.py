import gc
import json
import weakref

import pytest

from stbench import corpus
from stbench import coverage as cov
from stbench.frontend import SourceUnit, parse_text, resolve
from stbench.frontend import types as T
from stbench.runner import (
    PipelineError,
    RunOptions,
    load_program,
    render_report,
    run_suite,
)
from stbench.runtime import SimClock, run_program
from stbench.runtime import values as V
from stbench.testspec import parse_suite, validate


def checked(csv_text, fb, prog):
    return validate(parse_suite(csv_text, fb), prog)


# ---------------------------------------------------------------------------
# run_suite
# ---------------------------------------------------------------------------

DEC_CSV = (
    "test_name,state,DE,expect_HEX\n"
    "tc_zero,1,0,'0'\n"
    "tc_mid,1,4096,'1000'\n"
    "tc_byte,1,255,'FF'\n"
    "tc_max,1,32767,'7FFF'\n"
    "tc_min,1,-32768,'8000'\n"
    "tc_neg,1,-123,'FF85'\n"
)


@pytest.fixture(scope="module")
def dec_setup():
    return resolve(parse_text(corpus.block_source("DEC_TO_HEX"), "DEC_TO_HEX"))


def test_correct_suite_reaches_full_coverage_and_assertions(dec_setup):
    # a suite hand-built against the base-conversion oracle for inputs the
    # block handles correctly: full statement coverage, every assertion green
    prog = dec_setup
    values = [0, 9, 255, 4096, 32767, 21845]
    rows = "".join(f"tc_{v},1,{v},'{format(v, 'X') if v else '0'}'\n" for v in values)
    report = run_suite(prog, checked("test_name,state,DE,expect_HEX\n" + rows, "DEC_TO_HEX", prog))
    assert report.statement_coverage_pct == 100.0
    assert report.assertion_success_pct == 100.0
    assert report.all_green()


def test_run_suite_reports_coverage_and_bug(dec_setup):
    prog = dec_setup
    report = run_suite(prog, checked(DEC_CSV, "DEC_TO_HEX", prog))
    assert report.statement_coverage_pct == 100.0
    assert report.cases_total == 6
    assert report.assertions_total == 6
    assert report.assertions_passed == 4
    assert report.assertion_success_pct == 66.67
    verdicts = {c.name: c.verdict for c in report.cases}
    assert verdicts["tc_min"] == "fail" and verdicts["tc_neg"] == "fail"
    failing = [a for c in report.cases for a in c.assertions if not a.passed]
    assert {(a.expected, a.actual) for a in failing} == {("'8000'", "''"), ("'FF85'", "''")}


FRAGILE = """
FUNCTION_BLOCK FRAGILE
VAR_INPUT D : INT; END_VAR
VAR_OUTPUT Q : INT; END_VAR
Q := 100 / D;
END_FUNCTION_BLOCK
"""
FRAGILE_CSV = "test_name,state,D,expect_Q\ntc_ok,1,4,25\ntc_boom,1,0,1\n"


@pytest.mark.parametrize(
    "src,fb,csv",
    [(corpus.block_source("DEC_TO_HEX"), "DEC_TO_HEX", DEC_CSV), (FRAGILE, "FRAGILE", FRAGILE_CSV)],
    ids=["assertions", "contained-fault"],
)
def test_finished_run_is_freed_by_reference_counting(src, fb, csv):
    # the run holds no reference cycle, so dropping the last reference frees
    # the unit program; the harness program, which holds the compiled code,
    # lists it as a library and would keep it alive
    prog = resolve(parse_text(src, fb))
    suite = checked(csv, fb, prog)
    gc.disable()
    try:
        report = run_suite(prog, suite)
        freed = weakref.ref(prog)
        del prog
        assert freed() is None
    finally:
        gc.enable()
    assert report.cases_total == csv.count("\n") - 1


def test_perturbing_one_expected_value_drops_passed_by_one(dec_setup):
    prog = dec_setup
    base = run_suite(prog, checked(DEC_CSV, "DEC_TO_HEX", prog))
    perturbed_csv = DEC_CSV.replace("4096,'1000'", "4096,'1001'")
    perturbed = run_suite(prog, checked(perturbed_csv, "DEC_TO_HEX", prog))
    assert perturbed.assertions_passed == base.assertions_passed - 1
    assert {c.name: c.verdict for c in perturbed.cases}["tc_mid"] == "fail"


def test_fault_containment_isolates_cases(tmp_path):
    src = """
    FUNCTION_BLOCK FRAGILE
    VAR_INPUT D : INT; END_VAR
    VAR_OUTPUT Q : INT; END_VAR
    Q := 100 / D;
    END_FUNCTION_BLOCK
    """
    prog = resolve(parse_text(src))
    suite = checked(
        "test_name,state,D,expect_Q\n"
        "tc_ok,1,4,25\n"
        "tc_boom,1,0,1\n"
        "tc_also_ok,1,5,20\n",
        "FRAGILE",
        prog,
    )
    report = run_suite(prog, suite, RunOptions(out_dir=tmp_path))
    verdicts = {c.name: c.verdict for c in report.cases}
    assert verdicts == {"tc_ok": "pass", "tc_boom": "fault", "tc_also_ok": "pass"}
    boom = next(c for c in report.cases if c.name == "tc_boom")
    # statement site, instance path down to the unit under test, scan
    assert boom.fault == "division by zero (FRAGILE#0) in TEST_RUNNER.TC2.UNIT at cycle 0"
    monitor = (tmp_path / "monitor.txt").read_text().splitlines()
    assert monitor[0] == "cycle=0 t=0 events=[FAULT=TC2@0]"
    # the faulted case does not hold the run open: it ends with the scan in
    # which the live cases are DONE, one before the scan budget runs out
    assert monitor[1:] == ["cycle=1 t=10 events=[TC_1_DONE=PASS;TC_3_DONE=PASS]"]
    assert report.cycles_executed == 2
    assert boom.assertions[0].actual == "(not evaluated)"
    assert not boom.assertions[0].passed
    # the faulted case counts its unevaluated assertions as not passed
    assert report.assertions_passed == 2
    assert report.assertion_success_pct == 66.67


def test_metric_consistency(dec_setup):
    prog = dec_setup
    suite = checked(DEC_CSV, "DEC_TO_HEX", prog)
    report = run_suite(prog, suite)
    assert report.cases_total == len(suite.cases)
    non_empty_cells = sum(len(s.expected) for c in suite.cases for s in c.states)
    assert report.assertions_total == non_empty_cells
    recount = sum(1 for c in report.cases for a in c.assertions if a.passed)
    assert report.assertions_passed == recount


def test_coverage_matches_summary_field(dec_setup):
    prog = dec_setup
    report = run_suite(prog, checked(DEC_CSV, "DEC_TO_HEX", prog))
    assert report.statement_coverage_pct == report.coverage.unit.percentage
    assert report.coverage.unit_name == "DEC_TO_HEX"


def test_report_json_roundtrips_and_is_versioned(dec_setup, tmp_path):
    prog = dec_setup
    options = RunOptions(out_dir=tmp_path, fixed_clock=True, mode="simple", provider="mock:x")
    report = run_suite(prog, checked(DEC_CSV, "DEC_TO_HEX", prog), options)
    text = render_report(report, "json")
    data = json.loads(text)
    assert data["schema"] == 1
    assert data["metrics"]["statement_coverage_pct"] == 100.0
    assert data["meta"]["generated_at"] is None
    assert (tmp_path / "report.json").read_text() == text
    for name in (
        "report.txt",
        "coverage.lcov",
        "coverage.annotated.txt",
        "harness.st",
        "monitor.txt",
    ):
        assert (tmp_path / name).exists(), name


def test_text_report_layout(dec_setup):
    prog = dec_setup
    report = run_suite(prog, checked(DEC_CSV, "DEC_TO_HEX", prog))
    text = render_report(report, "text")
    assert "tc_zero" in text and "pass" in text
    assert "statement coverage: 100.00%" in text
    assert "assertions: 4/6 (66.67%)" in text
    assert "expected '8000', actual ''" in text


def test_na_assertion_percentage_rendered():
    # a suite with no expected cells cannot come from validate(); build the
    # checked structures directly to pin the n/a rendering
    from stbench.testspec import CheckedCase, CheckedState, CheckedSuite

    prog = resolve(parse_text(corpus.block_source("LOGIC_MUX")))
    suite = CheckedSuite(
        "LOGIC_MUX",
        [CheckedCase("tc_probe", [CheckedState({"A": V.make(T.BOOL, True)}, {}, 1)])],
        ["A"],
        [],
    )
    report = run_suite(prog, suite)
    assert report.assertion_success_pct is None
    assert "(n/a)" in render_report(report, "text")
    assert json.loads(render_report(report, "json"))["metrics"]["assertion_success_pct"] is None


CLAMP_LIB = """FUNCTION CLAMP10 : DINT
VAR_INPUT N : DINT; END_VAR
IF N > 10 THEN
    CLAMP10 := 10;
ELSE
    CLAMP10 := N;
END_IF;
END_FUNCTION
"""

CLAMP_UNIT = """FUNCTION_BLOCK USESLIB
VAR_INPUT X : DINT; END_VAR
VAR_OUTPUT Y : DINT; END_VAR
Y := CLAMP10(X);
IF Y = 10 THEN
    Y := Y + 1;
END_IF;
END_FUNCTION_BLOCK
"""


def _coverage_of_harness_st_parsed_whole(out_dir, report):
    """The reference coverage files: harness.st parsed whole, run for as
    many scans, and rendered against its own statement spans."""
    whole = resolve(parse_text((out_dir / "harness.st").read_text(), "harness.st"))
    result = run_program(whole, "TEST_RUNNER", report.cycles_executed, SimClock(cycle_time=10))
    cmap = cov.add_counts(cov.CoverageMap.for_program(whole), result.counts)
    lines = cov.line_counts(cmap, [(whole, 0)], whole.src)
    return whole, cov.render_lcov(lines, whole.src), cov.render_annotated(lines, whole.src)


def test_coverage_lines_are_harness_lines_with_a_library(tmp_path):
    # a multi-case suite with REAL comparisons, on a unit without libraries
    pi = load_program(SourceUnit(corpus.block_source("PI_CTRL"), "PI_CTRL.st"))
    pi_suite = checked(
        "test_name,state,dwell_cycles,EN,SP,PV,expect_OUT\n"
        "tc_a,1,2,TRUE,10.0,0.0,11.001\n"
        "tc_a,2,1,FALSE,,,0.0\n"
        "tc_b,1,1,TRUE,-2.5,1.0,-3.5\n",
        "PI_CTRL",
        pi,
    )
    report = run_suite(pi, pi_suite, RunOptions(out_dir=tmp_path / "pi", fixed_clock=True))
    _whole, lcov, annotated = _coverage_of_harness_st_parsed_whole(tmp_path / "pi", report)
    assert (tmp_path / "pi" / "coverage.lcov").read_text() == lcov
    assert (tmp_path / "pi" / "coverage.annotated.txt").read_text() == annotated

    prog = load_program(SourceUnit(CLAMP_UNIT, "useslib.st"), [SourceUnit(CLAMP_LIB, "clamp.st")])
    suite = checked("test_name,state,X,expect_Y\ntc_low,1,3,3\ntc_high,1,50,11\n", "USESLIB", prog)
    report = run_suite(prog, suite, RunOptions(out_dir=tmp_path, fixed_clock=True))
    assert report.all_green()
    lcov = (tmp_path / "coverage.lcov").read_text()
    annotated = (tmp_path / "coverage.annotated.txt").read_text()
    whole, whole_lcov, whole_annotated = _coverage_of_harness_st_parsed_whole(tmp_path, report)
    assert lcov == whole_lcov
    assert annotated == whole_annotated

    # library, unit and case FB statements all land on their own lines
    lines = whole.src.text.splitlines()
    for text, hits in (("CLAMP10 := 10;", 1), ("Y := Y + 1;", 1), ("TICK := TICK + 1;", 1)):
        lineno = next(i for i, line in enumerate(lines, 1) if line.strip() == text)
        assert f"DA:{lineno},{hits}" in lcov.splitlines(), text
        assert annotated.splitlines()[lineno - 1].split(":")[0].strip() == str(hits), text


IN_OUT_UNIT = """FUNCTION_BLOCK ACC
VAR_INPUT X : DINT; END_VAR
VAR_IN_OUT T : DINT; END_VAR
VAR_OUTPUT Y : DINT; END_VAR
Y := X;
END_FUNCTION_BLOCK
"""


def test_a_harness_that_does_not_resolve_is_an_assemble_error():
    # no suite column binds a VAR_IN_OUT parameter, so the unit call in
    # every case block fails to resolve
    prog = load_program(SourceUnit(IN_OUT_UNIT, "acc.st"))
    suite = checked("test_name,state,X,expect_Y\ntc,1,1,1\n", "ACC", prog)
    with pytest.raises(PipelineError) as err:
        run_suite(prog, suite)
    assert err.value.phase == "assemble"
    cause = err.value.cause
    assert "VAR_IN_OUT parameter T of ACC must be bound" in str(cause)
    assert str(cause).startswith("generated harness:")
    line = cause.src.line_of(cause.diagnostics[0].span.start)
    assert cause.src.line_text(line) == "        UNIT(X := 1);"


def test_pipeline_error_phases():
    with pytest.raises(PipelineError) as err:
        load_program(SourceUnit("FUNCTION_BLOCK BROKEN (* no end *)", "unit"))
    assert err.value.phase == "assemble"
