import pytest
from hypothesis import given, settings

from stbench import corpus
from stbench.frontend import parse_text, resolve
from stbench import harnessgen
from stbench.harnessgen import (
    AssemblyError,
    CollisionError,
    HarnessTemplate,
    build_harness,
    generate_case_fb,
    st_literal,
)
from stbench.frontend import types as T
from stbench.runtime import SimClock, run_program
from stbench.runtime import values as V
from stbench.testspec import parse_suite, validate

from strategies import suites_for


def checked_suite(csv_text, fb, prog):
    return validate(parse_suite(csv_text, fb), prog)


def run_bundle(bundle, cycle_time=10, cycles=None):
    budget = cycles or (max(c.total_dwell for c in bundle.cases) + 2)
    clock = SimClock(cycle_time=cycle_time)
    return run_program(
        bundle.typed,
        bundle.program_name,
        budget,
        clock,
        stop_when=lambda store, dead: all(
            store[f"TC_{c.index}_DONE"].v for c in bundle.cases if c.instance_name not in dead
        ),
    )


def case_outcome(result, bundle, name):
    case = next(c for c in bundle.cases if c.name == name)
    inst = result.instance.nested[case.instance_name]
    return {
        "done": inst.store["DONE"].v,
        "pass": inst.store["PASS"].v,
        "fails": inst.store["FAILS"].v,
        "actuals": {s.actual_var: inst.store[s.actual_var].v for s in case.slots},
    }


@pytest.fixture(scope="module")
def dec_assets(request):
    src = corpus.block_source("DEC_TO_HEX")
    prog = resolve(parse_text(src, "DEC_TO_HEX"))
    return src, prog


def test_single_state_case_calls_then_asserts_next_scan(dec_assets):
    # 255 decimal is FF hex (base-conversion oracle)
    assert format(255, "X") == "FF"
    src, prog = dec_assets
    suite = checked_suite(
        "test_name,state,DE,expect_HEX\ntc_ff,1,255,'FF'\n", "DEC_TO_HEX", prog
    )
    bundle = build_harness(suite, prog)
    result = run_bundle(bundle)
    outcome = case_outcome(result, bundle, "tc_ff")
    assert outcome == {"done": True, "pass": True, "fails": 0, "actuals": {"A_1_HEX": "FF"}}
    assert result.cycles_executed == 2  # call scan + check scan


def test_generated_fb_source_resolves_standalone(dec_assets):
    src, prog = dec_assets
    suite = checked_suite(
        "test_name,state,DE,expect_HEX\ntc,1,9,'9'\n", "DEC_TO_HEX", prog
    )
    case_src = generate_case_fb(suite.cases[0], prog.lookup_pou("DEC_TO_HEX"), 1).source
    combined = resolve(parse_text(src + "\n" + case_src))
    assert "TC_1_CASE" in combined.pous


def test_dwell_cycles_allow_timer_expiry():
    src = corpus.block_source("DELAY_GATE")
    prog = resolve(parse_text(src, "DELAY_GATE"))
    # TON reference: IN held, PT=400ms, cycle 50ms -> ET reaches PT on scan 9,
    # so 10 dwell scans suffice and 5 do not
    from timer_reference import held_input, ton_table

    table = ton_table(held_input(50, 10), 400)
    assert table[-1] == (400, True) and table[4] == (200, False)

    good = checked_suite(
        "test_name,state,dwell_cycles,IN,PT,expect_Q\ntc,1,10,TRUE,T#400ms,TRUE\n",
        "DELAY_GATE",
        prog,
    )
    bundle = build_harness(good, prog, cycle_time_ms=50)
    outcome = case_outcome(run_bundle(bundle, cycle_time=50), bundle, "tc")
    assert outcome["pass"] is True

    short = checked_suite(
        "test_name,state,dwell_cycles,IN,PT,expect_Q\ntc,1,5,TRUE,T#400ms,TRUE\n",
        "DELAY_GATE",
        prog,
    )
    bundle = build_harness(short, prog, cycle_time_ms=50)
    outcome = case_outcome(run_bundle(bundle, cycle_time=50), bundle, "tc")
    assert outcome["pass"] is False and outcome["fails"] == 1


SEQ_PROBE = """
FUNCTION_BLOCK SEQ_PROBE
VAR_INPUT X : DINT; END_VAR
VAR_OUTPUT SCANS : DINT; LASTX : DINT; END_VAR
SCANS := SCANS + 1;
LASTX := X;
END_FUNCTION_BLOCK
"""


def test_assertion_timing_two_state_fixture():
    """State-k expectations are checked one scan after state k's inputs were
    applied: the probe's SCANS counter pins exactly which scan was read."""
    prog = resolve(parse_text(SEQ_PROBE))
    suite = checked_suite(
        "test_name,state,X,expect_SCANS,expect_LASTX\n"
        "tc,1,11,1,11\n"
        "tc,2,22,2,22\n",
        "SEQ_PROBE",
        prog,
    )
    bundle = build_harness(suite, prog)
    result = run_bundle(bundle)
    outcome = case_outcome(result, bundle, "tc")
    assert outcome["pass"] is True
    assert outcome["actuals"] == {
        "A_1_SCANS": 1, "A_1_LASTX": 11, "A_2_SCANS": 2, "A_2_LASTX": 22,
    }


def test_multi_state_inputs_hold_previous_values():
    prog = resolve(parse_text(SEQ_PROBE))
    suite = checked_suite(
        "test_name,state,X,expect_LASTX\n"
        "tc,1,7,\n"
        "tc,2,,7\n",  # X unbound in state 2: held
        "SEQ_PROBE",
        prog,
    )
    bundle = build_harness(suite, prog)
    outcome = case_outcome(run_bundle(bundle), bundle, "tc")
    assert outcome["pass"] is True


def test_inputs_never_bound_keep_declared_defaults():
    # DELAY_GATE declares PT := T#400ms; a suite never mentioning PT relies
    # on that default, so with dwell 41 at 10 ms the delay still expires
    src = corpus.block_source("DELAY_GATE")
    prog = resolve(parse_text(src))
    suite = checked_suite(
        "test_name,state,dwell_cycles,IN,expect_Q\ntc,1,41,TRUE,TRUE\n",
        "DELAY_GATE",
        prog,
    )
    bundle = build_harness(suite, prog)
    assert case_outcome(run_bundle(bundle), bundle, "tc")["pass"] is True


def test_monitor_records_report_hook_events(dec_assets):
    src, prog = dec_assets
    suite = checked_suite(
        "test_name,state,DE,expect_HEX\n"
        "tc_good,1,255,'FF'\n"
        "tc_bad,1,-5,'FFFB'\n",  # fails: the block returns '' for negatives
        "DEC_TO_HEX",
        prog,
    )
    bundle = build_harness(suite, prog)
    clock = SimClock(cycle_time=10)
    records = []
    run_program(bundle.typed, bundle.program_name, 3, clock, monitor=records.append)
    assert records[0] == "cycle=0 t=0 events=[]"
    assert records[1] == "cycle=1 t=10 events=[TC_1_DONE=PASS;TC_2_FAILS=1;TC_2_DONE=FAIL]"


def test_collision_with_existing_pou_name():
    src = SEQ_PROBE + "\nFUNCTION_BLOCK TC_1_CASE\nVAR X : INT; END_VAR\nX := 1;\nEND_FUNCTION_BLOCK\n"
    prog = resolve(parse_text(src))
    suite = checked_suite(
        "test_name,state,X,expect_SCANS\ntc,1,1,1\n", "SEQ_PROBE", prog
    )
    with pytest.raises(CollisionError):
        build_harness(suite, prog)


def test_assembly_includes_libraries_before_unit():
    lib_src = "FUNCTION DOUBLEIT : DINT\nVAR_INPUT N : DINT; END_VAR\nDOUBLEIT := N * 2;\nEND_FUNCTION\n"
    unit_src = (
        "FUNCTION_BLOCK USESLIB\n"
        "VAR_INPUT X : DINT; END_VAR\n"
        "VAR_OUTPUT Y : DINT; END_VAR\n"
        "Y := DOUBLEIT(X);\n"
        "END_FUNCTION_BLOCK\n"
    )
    lib_prog = resolve(parse_text(lib_src))
    prog = resolve(parse_text(unit_src), [lib_prog])
    suite = checked_suite("test_name,state,X,expect_Y\ntc,1,21,42\n", "USESLIB", prog)
    bundle = build_harness(suite, prog)
    assert bundle.source.text.index("DOUBLEIT") < bundle.source.text.index("USESLIB")
    outcome = case_outcome(run_bundle(bundle), bundle, "tc")
    assert outcome["pass"] is True


def test_program_instantiates_cases_in_declaration_order(dec_assets):
    src, prog = dec_assets
    rows = "".join(f"tc_{i},1,{i},'{format(i, 'X')}'\n" for i in range(5))
    suite = checked_suite("test_name,state,DE,expect_HEX\n" + rows, "DEC_TO_HEX", prog)
    bundle = build_harness(suite, prog)
    body = bundle.typed.lookup_pou("TEST_RUNNER").decl.body
    call_order = [st.instance for st in body if type(st).__name__ == "FbCall"]
    assert call_order == [f"TC{i}" for i in range(1, 6)]


def test_case_reordering_does_not_change_verdicts(dec_assets):
    src, prog = dec_assets
    rows_a = "tc_x,1,255,'FF'\ntc_y,1,-5,'FFFB'\n"   # tc_y fails (bug)
    rows_b = "tc_y,1,-5,'FFFB'\ntc_x,1,255,'FF'\n"
    verdicts = {}
    for label, rows in (("ab", rows_a), ("ba", rows_b)):
        suite = checked_suite("test_name,state,DE,expect_HEX\n" + rows, "DEC_TO_HEX", prog)
        bundle = build_harness(suite, prog)
        result = run_bundle(bundle)
        verdicts[label] = {
            name: case_outcome(result, bundle, name)["pass"] for name in ("tc_x", "tc_y")
        }
    assert verdicts["ab"] == verdicts["ba"] == {"tc_x": True, "tc_y": False}


def test_real_tolerance_comparison_baked_into_code():
    src = corpus.block_source("PI_CTRL")
    prog = resolve(parse_text(src, "PI_CTRL"))
    suite = checked_suite(
        "test_name,state,EN,SP,PV,expect_OUT\ntc,1,TRUE,10.0,0.0,11.001\n",
        "PI_CTRL",
        prog,
    )
    bundle = build_harness(suite, prog, atol=1e-2, rtol=1e-6)
    assert case_outcome(run_bundle(bundle), bundle, "tc")["pass"] is True
    tight = build_harness(suite, prog, atol=1e-5, rtol=1e-6)
    assert case_outcome(run_bundle(tight), tight, "tc")["pass"] is False


def test_st_literal_forms():
    assert st_literal(V.make(T.BOOL, True)) == "TRUE"
    assert st_literal(V.make(T.INT, -3)) == "-3"
    assert st_literal(V.make(T.TIME, 400)) == "T#400ms"
    assert st_literal(V.make(T.string(), "it's")) == "'it$'s'"
    assert st_literal(V.make(T.REAL, 0.1)) == "0.10000000149011612"


def test_template_is_editable(dec_assets):
    src, prog = dec_assets
    custom = HarnessTemplate(
        HarnessTemplate.default().text.replace("TEST_RUNNER", "TEST_RUNNER")
        + "\n(* custom footer *)\n"
    )
    suite = checked_suite("test_name,state,DE,expect_HEX\ntc,1,1,'1'\n", "DEC_TO_HEX", prog)
    bundle = build_harness(suite, prog, template=custom)
    assert "custom footer" in bundle.source.text


def _error_line(err) -> str:
    """The harness.st line the first diagnostic of an AssemblyError is on."""
    src = err.value.cause.src
    return src.line_text(src.line_of(err.value.cause.diagnostics[0].span.start))


def test_error_in_runner_program_names_its_part(dec_assets):
    src, prog = dec_assets
    suite = checked_suite("test_name,state,DE,expect_HEX\ntc,1,1,'1'\n", "DEC_TO_HEX", prog)
    broken = HarnessTemplate(
        HarnessTemplate.default().text.replace("{TEST_CALLS}", "{TEST_CALLS}\n    NOPE := 1;")
    )
    with pytest.raises(AssemblyError) as err:
        build_harness(suite, prog, template=broken)
    assert err.value.part == "runner program"
    assert "unknown identifier NOPE" in str(err.value)
    assert _error_line(err) == "    NOPE := 1;"


def test_error_in_case_fb_names_its_part(dec_assets, monkeypatch):
    src, prog = dec_assets
    suite = checked_suite(
        "test_name,state,DE,expect_HEX\ntc_a,1,1,'1'\ntc_b,1,2,'2'\n", "DEC_TO_HEX", prog
    )
    real = harnessgen.generate_case_fb

    def break_second(case, fb, index, *args):
        harness = real(case, fb, index, *args)
        if index == 2:
            harness.source = harness.source.replace("TICK := TICK + 1;", "TICK := TICK + ;")
        return harness

    monkeypatch.setattr(harnessgen, "generate_case_fb", break_second)
    with pytest.raises(AssemblyError) as err:
        build_harness(suite, prog)
    assert err.value.part == "test case FB TC_2_CASE"
    assert _error_line(err) == "        TICK := TICK + ;"


def test_template_head_must_hold_only_comments(dec_assets):
    src, prog = dec_assets
    suite = checked_suite("test_name,state,DE,expect_HEX\ntc,1,1,'1'\n", "DEC_TO_HEX", prog)
    commented = HarnessTemplate("(* generated *)\n" + HarnessTemplate.default().text)
    assert build_harness(suite, prog, template=commented).source.text.startswith("(* generated *)\n")
    with pytest.raises(AssemblyError) as err:
        build_harness(suite, prog, template=HarnessTemplate("X\n" + HarnessTemplate.default().text))
    assert err.value.part == "harness template"


@settings(max_examples=60, deadline=None)
@given(data=__import__("hypothesis").strategies.data())
def test_generated_harnesses_resolve_for_random_suites(data, corpus_programs):
    name = data.draw(
        __import__("hypothesis").strategies.sampled_from(
            ["COUNT_ACC", "LOGIC_MUX", "PI_CTRL", "EDGE_COUNT", "DEC_TO_HEX"]
        )
    )
    prog = corpus_programs[name]
    suite_raw = data.draw(suites_for(prog.lookup_pou(name)))
    checked = validate(suite_raw, prog)
    bundle = build_harness(checked, prog)
    assert bundle.typed is not None  # parsed and resolved with zero errors
