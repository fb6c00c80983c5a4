import gc
import io
import json
import random
import re
import weakref
from datetime import datetime, timezone

import pytest

from stbench import corpus, runner
from stbench import coverage as cov
from stbench.frontend import nodes as N
from stbench.frontend import SourceUnit, parse_text, resolve
from stbench.frontend import types as T
from stbench.harnessgen import build_harness
from stbench.llm import extract_csv
from stbench.runner import (
    PipelineError,
    RunOptions,
    load_program,
    render_report,
    run_suite,
)
from stbench.runtime import SimClock, interp, run_program
from stbench.runtime import values as V
from stbench.testspec import drop_unknown_columns, parse_suite, validate


def rendered(render, *args) -> str:
    """What a renderer writes to its stream, as one string."""
    out = io.StringIO()
    render(*args, out)
    return out.getvalue()


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
# cases done after scans 1 and 4, and one that faults at scan 5, when
# its second state sets D to 0
STAGGERED_CSV = (
    "test_name,state,dwell_cycles,D,expect_Q\n"
    "tc_a,1,1,4,25\n"
    "tc_b,1,2,5,20\n"
    "tc_b,2,2,10,10\n"
    "tc_boom,1,5,4,25\n"
    "tc_boom,2,2,0,1\n"
    "tc_long,1,9,20,6\n"
)


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



def test_a_larger_suite_compiles_no_new_statement_shape(dec_setup):
    # every case block has the same statements with other names and
    # literals, so the shapes a harness compiles do not grow with its cases
    def suite(values):
        rows = "".join(f"tc_{v},1,{v},'{format(v, 'X')}'\n" for v in values)
        return checked("test_name,state,DE,expect_HEX\n" + rows, "DEC_TO_HEX", dec_setup)

    interp._factory.cache_clear()
    run_suite(dec_setup, suite(range(1, 5)))
    shapes = interp._factory.cache_info().misses
    assert shapes > 0
    report = run_suite(dec_setup, suite(range(100, 140)))
    assert report.cases_total == 40
    assert interp._factory.cache_info().misses == shapes

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


def test_retiring_finished_cases_changes_no_artifact(monkeypatch, tmp_path):
    prog = resolve(parse_text(FRAGILE))
    suite = checked(STAGGERED_CSV, "FRAGILE", prog)
    real = runner.run_program

    def keeping(*args, finished=frozenset(), **kwargs):
        return real(*args, **kwargs)

    gc.disable()
    try:
        report = run_suite(prog, suite, RunOptions(out_dir=tmp_path / "retired", fixed_clock=True))
        # retiring cases builds no reference cycle
        freed = weakref.ref(prog)
        del prog
        assert freed() is None
    finally:
        gc.enable()
    monkeypatch.setattr(runner, "run_program", keeping)
    kept = run_suite(resolve(parse_text(FRAGILE)), suite, RunOptions(out_dir=tmp_path / "kept", fixed_clock=True))
    assert [c.verdict for c in report.cases] == ["pass", "pass", "fault", "fail"]
    assert report.cases[2].fault.endswith("at cycle 5")
    assert report.to_dict() == kept.to_dict()
    for name in ("report.json", "coverage.lcov", "coverage.annotated.txt", "monitor.txt"):
        assert (tmp_path / "retired" / name).read_text() == (tmp_path / "kept" / name).read_text()


def count_acc_suite(cases: int) -> str:
    """A seeded COUNT_ACC suite: the first case dwells 4 states of 5 scans,
    the others 1-4 states of 1-5 scans each, so cases finish and retire on
    many different scans."""
    rng = random.Random(1)
    rows = ["test_name,state,dwell_cycles,X,EN,RST,expect_SUM,expect_CNT,expect_OVER\n"]
    for case in range(1, cases + 1):
        dwells = [5] * 4 if case == 1 else [rng.randint(1, 5) for _ in range(rng.randint(1, 4))]
        for state, dwell in enumerate(dwells, 1):
            en, rst = rng.choice(("TRUE", "FALSE")), rng.choice(("TRUE", "FALSE", "FALSE"))
            rows.append(f"tc_{case:03d},{state},{dwell},{rng.randint(-50, 150)},{en},{rst},,{rng.randint(0, 20)},\n")
    return "".join(rows)


# a block calling a FUNCTION that calls itself and two that call each other
RECURSIVE = """
FUNCTION FACT : DINT
VAR_INPUT N : DINT; END_VAR
IF N <= 1 THEN FACT := 1; ELSE FACT := N * FACT(N - 1); END_IF;
END_FUNCTION

FUNCTION EVEN : BOOL
VAR_INPUT N : DINT; END_VAR
IF N = 0 THEN EVEN := TRUE; ELSE EVEN := ODD(N - 1); END_IF;
END_FUNCTION

FUNCTION ODD : BOOL
VAR_INPUT N : DINT; END_VAR
IF N = 0 THEN ODD := FALSE; ELSE ODD := EVEN(N - 1); END_IF;
END_FUNCTION

FUNCTION_BLOCK RECUR
VAR_INPUT N : DINT; END_VAR
VAR_OUTPUT F : DINT; E : BOOL; END_VAR
F := FACT(N);
E := EVEN(N);
END_FUNCTION_BLOCK
"""


@pytest.mark.parametrize(
    "block,csv",
    [
        ("LOGIC_MUX", "test_name,state,A,B,PICKB,expect_Q\ntc_a,1,TRUE,FALSE,FALSE,TRUE\ntc_b,1,TRUE,FALSE,TRUE,TRUE\n"),
        ("DEC_TO_HEX", DEC_CSV),
        ("COUNT_ACC", count_acc_suite(200)),
        ("RECUR", "test_name,state,N,expect_F,expect_E\ntc_5,1,5,120,FALSE\ntc_4,1,4,24,TRUE\n"),
    ],
    ids=["bounded", "checked", "retiring", "recursive"],
)
def test_a_dropped_run_leaves_the_cyclic_collector_nothing(block, csv, monkeypatch):
    # every object a run makes, its generated functions' defaults included,
    # is freed by reference counting once the run is dropped
    finished = []
    real = runner.run_program

    def recording(*args, **kwargs):
        finished.append(kwargs["finished"])
        return real(*args, **kwargs)

    monkeypatch.setattr(runner, "run_program", recording)
    source = RECURSIVE if block == "RECUR" else corpus.block_source(block)
    prog = resolve(parse_text(source, block))
    suite = checked(csv, block, prog)
    gc.collect()
    gc.disable()
    try:
        report = run_suite(prog, suite)
        cycles, verdicts = report.cycles_executed, [case.verdict for case in report.cases]
        del prog, suite, report
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0
    if block == "COUNT_ACC":  # every case is declared finished, on 21 scans
        assert cycles == 21 and len(finished[0]) == 200
    if block == "RECUR":  # both cases pass, through the recursive calls
        assert verdicts == ["pass", "pass"]


def test_case_blocks_keep_the_contract_retiring_relies_on(dec_setup):
    # run_program may retire a DONE case only because its block returns at
    # once, unchanged, and the runner calls it with no inputs, followed by
    # its hook mirrors alone
    bundle = build_harness(checked(DEC_CSV, "DEC_TO_HEX", dec_setup), dec_setup)
    for case in bundle.cases:
        (branch,) = case.pou.body[0].branches
        assert type(branch.cond) is N.VarRef and branch.cond.name == "DONE"
        assert [type(st) for st in branch.body] == [N.ReturnStmt] and case.pou.body[0].else_body == []
    body = bundle.typed.lookup_pou(bundle.program_name).decl.body
    calls = [i for i, st in enumerate(body) if type(st) is N.FbCall]
    assert [body[i].instance for i in calls] == [c.instance_name for c in bundle.cases]
    assert all(body[i].params == [] for i in calls)
    assert [calls[k + 1] - calls[k] for k in range(len(calls) - 1)] == [4] * (len(calls) - 1)
    assert all(type(st) is N.Assign and type(st.value) is N.MemberRef for st in body if type(st) is not N.FbCall)


def test_generated_at_is_utc_to_the_second(dec_setup):
    before = datetime.now(timezone.utc).replace(microsecond=0)
    report = run_suite(dec_setup, checked(DEC_CSV, "DEC_TO_HEX", dec_setup))
    after = datetime.now(timezone.utc)
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", report.generated_at)
    assert before <= datetime.fromisoformat(report.generated_at) <= after


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
    assert report.unit == "DEC_TO_HEX"


def test_report_json_roundtrips_and_is_versioned(dec_setup, tmp_path):
    prog = dec_setup
    options = RunOptions(out_dir=tmp_path, fixed_clock=True, mode="simple", provider="mock:x")
    report = run_suite(prog, checked(DEC_CSV, "DEC_TO_HEX", prog), options)
    text = rendered(render_report, report, "json")
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


def test_report_lists_only_the_artifacts_its_directory_holds(dec_setup, tmp_path):
    # run_suite writes no suite.csv, so an API run must not list one; the
    # CLI writes it before the run, so there it is listed
    prog = dec_setup
    report = run_suite(prog, checked(DEC_CSV, "DEC_TO_HEX", prog), RunOptions(out_dir=tmp_path / "api"))
    listed = json.loads((tmp_path / "api" / "report.json").read_text())["artifacts"]
    assert "suite" not in listed and listed == report.artifacts
    assert sorted(listed.values()) == sorted(p.name for p in (tmp_path / "api").iterdir())

    (tmp_path / "cli").mkdir()
    (tmp_path / "cli" / "suite.csv").write_text(DEC_CSV)
    run_suite(prog, checked(DEC_CSV, "DEC_TO_HEX", prog), RunOptions(out_dir=tmp_path / "cli"))
    listed = json.loads((tmp_path / "cli" / "report.json").read_text())["artifacts"]
    assert listed["suite"] == "suite.csv"
    assert sorted(listed.values()) == sorted(p.name for p in (tmp_path / "cli").iterdir())


def test_text_report_is_kept_as_report_txt_holds_it(dec_setup, tmp_path):
    prog = dec_setup
    report = run_suite(prog, checked(DEC_CSV, "DEC_TO_HEX", prog), RunOptions(out_dir=tmp_path))
    assert report.text == (tmp_path / "report.txt").read_text() == rendered(render_report, report, "text")
    assert run_suite(prog, checked(DEC_CSV, "DEC_TO_HEX", prog)).text is None


def test_text_report_layout(dec_setup):
    prog = dec_setup
    report = run_suite(prog, checked(DEC_CSV, "DEC_TO_HEX", prog))
    text = rendered(render_report, report, "text")
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
    )
    report = run_suite(prog, suite)
    assert report.assertion_success_pct is None
    assert "(n/a)" in rendered(render_report, report, "text")
    assert json.loads(rendered(render_report, report, "json"))["metrics"]["assertion_success_pct"] is None


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
    """The reference coverage: harness.st parsed whole, run for as many
    scans, and listed against its own statement spans, as its line map and
    its annotated listing."""
    whole = resolve(parse_text((out_dir / "harness.st").read_text(), "harness.st"))
    result = run_program(whole, "TEST_RUNNER", report.cycles_executed, SimClock(cycle_time=10))
    lines = cov.line_counts(cov.domain(whole), result.counts, whole)
    return lines, rendered(cov.render_annotated, lines, whole.src)


def _lcov_records(lcov: str) -> dict[str, dict[int, int]]:
    """coverage.lcov's DA counts by SF path, in file order."""
    records: dict[str, dict[int, int]] = {}
    for line in lcov.splitlines():
        if line.startswith("SF:"):
            das = records[line[3:]] = {}
        elif line.startswith("DA:"):
            lineno, count = line[3:].split(",")
            das[int(lineno)] = int(count)
    return records


def _annotated_listings(annotated: str) -> dict[str, list[str]]:
    """coverage.annotated.txt's listed lines by the source its gcov
    `Source:` header line names, in file order."""
    listings: dict[str, list[str]] = {}
    for line in annotated.splitlines():
        marker, lineno, text = line.split(":", 2)
        if lineno.strip() == "0":
            assert marker.strip() == "-" and text.startswith("Source:")
            body = listings[text[len("Source:"):]] = []
        else:
            body.append(line)
    return listings


def _assert_listed_as_harness_st_lines(out_dir, report, prog):
    """The coverage files list the unit, then each library, each in its
    own lines: every listed line's count is the reference's at that line
    plus the layer's start line in harness.st, and no generated line is
    listed.  Returns the LCOV records."""
    harness = (out_dir / "harness.st").read_text()
    whole_lines, whole_annotated = _coverage_of_harness_st_parsed_whole(out_dir, report)
    reference = whole_annotated.splitlines()[1:]  # after its header line
    records = _lcov_records((out_dir / "coverage.lcov").read_text())
    listings = _annotated_listings((out_dir / "coverage.annotated.txt").read_text())
    assert list(records) == list(listings) == [layer.src.origin for layer in prog.layers()]
    user_lines = 0
    for layer in prog.layers():
        src = layer.src
        # the lines of harness.st before the layer's text
        shift = harness[:harness.index(src.text + "\n")].count("\n")
        n = src.line_count()
        user_lines += n
        assert records[src.origin] == {
            line - shift: count for line, count in whole_lines.items() if shift < line <= shift + n
        }
        listing = listings[src.origin]
        assert len(listing) == n
        for lineno, (ours, theirs) in enumerate(zip(listing, reference[shift:shift + n]), 1):
            marker, _, text = theirs.split(":", 2)
            assert ours == f"{marker}:{lineno:>5}:{text}"
    # the generated lines are counted in harness.st, but none is listed
    assert sum(map(len, records.values())) == sum(1 for line in whole_lines if line <= user_lines)
    assert any(line > user_lines for line in whole_lines)
    return records


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
    _assert_listed_as_harness_st_lines(tmp_path / "pi", report, pi)

    prog = load_program(SourceUnit(CLAMP_UNIT, "useslib.st"), [SourceUnit(CLAMP_LIB, "clamp.st")])
    suite = checked("test_name,state,X,expect_Y\ntc_low,1,3,3\ntc_high,1,50,11\n", "USESLIB", prog)
    report = run_suite(prog, suite, RunOptions(out_dir=tmp_path, fixed_clock=True))
    assert report.all_green()
    records = _assert_listed_as_harness_st_lines(tmp_path, report, prog)

    # library and unit statements land on their own files' lines
    annotated = _annotated_listings((tmp_path / "coverage.annotated.txt").read_text())
    for origin, src, text in (("clamp.st", CLAMP_LIB, "CLAMP10 := 10;"), ("useslib.st", CLAMP_UNIT, "Y := Y + 1;")):
        lineno = [line.strip() for line in src.splitlines()].index(text) + 1
        assert records[origin][lineno] == 1, text
        assert annotated[origin][lineno - 1].split(":")[0].strip() == "1", text
    # a case FB statement is counted but listed nowhere
    assert "TICK := TICK + 1;" in (tmp_path / "harness.st").read_text()
    assert "TICK" not in (tmp_path / "coverage.annotated.txt").read_text()


@pytest.mark.parametrize("name", [b.name for b in corpus.BLOCKS])
def test_corpus_coverage_lines_are_harness_lines(name, tmp_path):
    prog = load_program(SourceUnit(corpus.block_source(name), f"{name}.st"))
    suite = parse_suite(extract_csv(corpus.fixture_path(name).read_text(encoding="utf-8")), name)
    suite, _ = drop_unknown_columns(suite, prog.lookup_pou(name))
    report = run_suite(prog, validate(suite, prog), RunOptions(out_dir=tmp_path, fixed_clock=True))
    _assert_listed_as_harness_st_lines(tmp_path, report, prog)


IN_OUT_UNIT = """FUNCTION_BLOCK ACC
VAR_INPUT X : DINT; END_VAR
VAR_IN_OUT T : DINT; END_VAR
VAR_OUTPUT Y : DINT; END_VAR
Y := X;
END_FUNCTION_BLOCK
"""


def test_a_harness_that_does_not_resolve_is_an_assemble_error():
    # no suite column binds a VAR_IN_OUT parameter, so the unit call in
    # every case block fails to resolve; validate() rejects such a block,
    # so build the checked structures directly to reach the handler
    from stbench.testspec import CheckedCase, CheckedState, CheckedSuite

    prog = load_program(SourceUnit(IN_OUT_UNIT, "acc.st"))
    state = CheckedState({"X": V.make(T.DINT, 1)}, {"Y": V.make(T.DINT, 1)}, 1)
    suite = CheckedSuite("ACC", [CheckedCase("tc", [state])])
    with pytest.raises(PipelineError) as err:
        run_suite(prog, suite)
    assert err.value.phase == "assemble"
    cause = err.value.cause
    assert "VAR_IN_OUT parameter T of ACC must be bound" in str(cause)
    assert str(cause).startswith("generated harness:")
    line = cause.src.line_of(cause.diagnostics[0].span.start)
    assert cause.src.line_text(line) == "        UNIT(X := 1);"
    # harness.st's line of that call, below the unit's text and a blank line
    assert str(cause).startswith("generated harness:50:9: ")


def test_pipeline_error_phases():
    with pytest.raises(PipelineError) as err:
        load_program(SourceUnit("FUNCTION_BLOCK BROKEN (* no end *)", "unit"))
    assert err.value.phase == "assemble"
