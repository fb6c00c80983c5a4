import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stbench import corpus
from stbench.frontend import parse_source, parse_text, print_pou, resolve
from stbench.frontend.nodes import iter_sites, site_span
from stbench.frontend.pretty import format_literal
from stbench.harnessgen import PROGRAM_NAME, build_case_fb, build_harness, case_values, value_literal
from stbench.frontend import types as T
from stbench.frontend.source import SourceUnit
from stbench.runner import CollisionError, PipelineError, load_program, run_harness
from stbench.runtime import values as V
from stbench.testspec import parse_suite, validate

from strategies import suites_for


def checked_suite(csv_text, fb, prog):
    return validate(parse_suite(csv_text, fb), prog)


def run_bundle(bundle):
    result, _monitor = run_harness(bundle)
    return result


def case_outcome(result, bundle, name):
    case = next(c for c in bundle.cases if c.name == name)
    inst = result.instance.nested[case.instance_name]
    return {
        "done": inst.store["DONE"],
        "pass": inst.store["PASS"],
        "fails": inst.store["FAILS"],
        "actuals": {s.actual_var: inst.store[s.actual_var] for s in case.slots},
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
    case_fb = build_case_fb(suite.cases[0], prog.lookup_pou("DEC_TO_HEX"), 1).pou
    combined = resolve(parse_text(src + "\n" + print_pou(case_fb)))
    assert combined.pous["TC_1_CASE"].decl == case_fb


ECHO_SRC = """
FUNCTION_BLOCK ECHO
VAR_INPUT S : STRING; END_VAR
VAR_OUTPUT O : STRING; END_VAR
O := S;
END_FUNCTION_BLOCK
"""


def test_single_byte_string_cells_survive_the_printed_harness():
    prog = resolve(parse_text(ECHO_SRC, "ECHO"))
    suite = checked_suite("test_name,state,S,expect_O\ntc,1,'caf\u00e9','caf\u00e9'\n", "ECHO", prog)
    case_fb = build_case_fb(suite.cases[0], prog.lookup_pou("ECHO"), 1).pou
    printed = print_pou(case_fb)
    assert "'caf$E9'" in printed
    combined = resolve(parse_text(ECHO_SRC + "\n" + printed))
    assert combined.pous["TC_1_CASE"].decl == case_fb


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
    outcome = case_outcome(run_bundle(bundle), bundle, "tc")
    assert outcome["pass"] is True

    short = checked_suite(
        "test_name,state,dwell_cycles,IN,PT,expect_Q\ntc,1,5,TRUE,T#400ms,TRUE\n",
        "DELAY_GATE",
        prog,
    )
    bundle = build_harness(short, prog, cycle_time_ms=50)
    outcome = case_outcome(run_bundle(bundle), bundle, "tc")
    assert outcome["pass"] is False and outcome["fails"] == 1

    # TIME compares exactly: after 5 scans ET is 200 ms (table[4])
    for expected, verdict in (("T#200ms", True), ("T#250ms", False), ("T#199ms", False)):
        suite = checked_suite(
            f"test_name,state,dwell_cycles,IN,PT,expect_ET\ntc,1,5,TRUE,T#400ms,{expected}\n",
            "DELAY_GATE",
            prog,
        )
        bundle = build_harness(suite, prog, cycle_time_ms=50)
        outcome = case_outcome(run_bundle(bundle), bundle, "tc")
        assert (outcome["pass"], outcome["actuals"]) == (verdict, {"A_1_ET": 200}), expected


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
    result, records = run_harness(bundle)
    # both cases are DONE after the check scan, which ends the run
    assert records == [
        "cycle=0 t=0 events=[]",
        "cycle=1 t=10 events=[TC_1_DONE=PASS;TC_2_FAILS=1;TC_2_DONE=FAIL]",
    ]
    assert result.cycles_executed == 2


def test_collision_with_existing_pou_name():
    # the load rejects a unit or library POU taking a name the harness
    # generates, whatever the suite; a name it never generates stays free
    case_fb = "FUNCTION_BLOCK {}\nVAR X : INT; END_VAR\nX := 1;\nEND_FUNCTION_BLOCK\n"
    runner_prog = "PROGRAM TEST_RUNNER\nVAR X : INT; END_VAR\nX := 1;\nEND_PROGRAM\n"
    for unit, lib, reserved in [
        (SEQ_PROBE + case_fb.format("TC_1_CASE"), "", "TC_1_CASE in probe.st"),
        (SEQ_PROBE + case_fb.format("tc_12_case"), "", "TC_12_CASE in probe.st"),
        (SEQ_PROBE, runner_prog, "TEST_RUNNER in lib.st"),
    ]:
        with pytest.raises(PipelineError) as err:
            load_program(SourceUnit(unit, "probe.st"), [SourceUnit(lib, "lib.st")])
        assert str(err.value) == f"[assemble] {reserved} is reserved for the generated harness"
        assert isinstance(err.value.cause, CollisionError)
    for name in ("TC_CASE", "TC_X_CASE", "TC_1_CASES", "TEST_RUNNER2"):
        prog = load_program(SourceUnit(SEQ_PROBE + case_fb.format(name), "probe.st"))
        assert prog.lookup_pou(name) is not None


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


LAMBERT_W_SRC = """
FUNCTION_BLOCK LAMBERT_W
VAR_INPUT X : LREAL; END_VAR
VAR_OUTPUT W : LREAL; END_VAR
VAR I : INT; EW : LREAL; END_VAR
W := 0.5;
FOR I := 1 TO 60 DO
    EW := EXP(W);
    W := W - (W * EW - X) / (EW * (W + 1.0));
END_FOR;
END_FUNCTION_BLOCK
"""


def lambert_w(x: float) -> float:
    """Newton iteration for w * e^w = x; the independent reference."""
    w = 0.5
    for _ in range(60):
        ew = math.exp(w)
        w -= (w * ew - x) / (ew * (w + 1))
    return w


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

    def passes(suite, prog, atol, rtol):
        bundle = build_harness(suite, prog, atol=atol, rtol=rtol)
        return case_outcome(run_bundle(bundle), bundle, "tc")["pass"]

    # OUT is 11.0, 1e-3 from the expectation: rtol alone passes it at
    # 1e-4 * 11.001 and fails it at 5e-5 * 11.001
    assert passes(suite, prog, 0.0, 1e-4) is True
    assert passes(suite, prog, 0.0, 5e-5) is False

    # W(1) = 0.567143...: 0.5671 is within atol 1e-3, not within 1e-9 + 1e-9 * |0.5671|
    w1 = lambert_w(1.0)
    assert abs(w1 * math.exp(w1) - 1.0) < 1e-12 and round(w1, 6) == 0.567143
    w_prog = resolve(parse_text(LAMBERT_W_SRC))
    w_suite = checked_suite("test_name,state,X,expect_W\ntc,1,1.0,0.5671\n", "LAMBERT_W", w_prog)
    bundle = build_harness(w_suite, w_prog, atol=1e-3, rtol=0.0)
    outcome = case_outcome(run_bundle(bundle), bundle, "tc")
    assert outcome["pass"] is True and abs(outcome["actuals"]["A_1_W"] - w1) < 1e-12
    assert passes(w_suite, w_prog, 1e-9, 1e-9) is False


def test_st_literal_forms():
    def spelled(val):
        return format_literal(value_literal(val))

    assert spelled(V.make(T.BOOL, True)) == "TRUE"
    assert spelled(V.make(T.INT, -3)) == "-3"
    assert spelled(V.make(T.WORD, 65535)) == "65535"
    assert spelled(V.make(T.TIME, 400)) == "T#400ms"
    assert spelled(V.make(T.string(), "it's")) == "'it$'s'"
    assert spelled(V.make(T.REAL, 0.1)) == "0.10000000149011612"
    assert spelled(V.make(T.LREAL, -2.5)) == "-2.5"


def test_generated_sites_start_where_harness_st_parsed_whole_puts_them():
    prog = resolve(parse_text(corpus.block_source("PI_CTRL"), "PI_CTRL.st"))
    suite = checked_suite(
        "test_name,state,dwell_cycles,EN,SP,PV,expect_OUT\n"
        "tc_a,1,2,TRUE,10.0,0.0,11.001\n"
        "tc_a,2,1,FALSE,,,0.0\n"
        "tc_b,1,1,TRUE,-2.5,1.0,-3.5\n",
        "PI_CTRL",
        prog,
    )
    bundle = build_harness(suite, prog)
    whole = parse_source(bundle.source)
    reparsed = {p.name: p for p in whole.pous}
    for pou in bundle.typed.ast.pous:
        built_sites = list(iter_sites(pou.body))
        whole_sites = list(iter_sites(reparsed[pou.name].body))
        assert len(built_sites) == len(whole_sites)
        for node, twin in zip(built_sites, whole_sites):
            assert site_span(node).start == site_span(twin).start, (pou.name, node.sid)


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


@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_case_values_count_the_harness_programs_storage(data, corpus_programs):
    # what validate bounds a suite by is what the resolved harness holds
    name = data.draw(st.sampled_from(["COUNT_ACC", "TRAFFIC_CTRL", "DELAY_GATE", "PI_CTRL", "DEC_TO_HEX"]))
    prog = corpus_programs[name]
    fb = prog.lookup_pou(name)
    checked = validate(data.draw(suites_for(fb)), prog)
    bundle = build_harness(checked, prog)
    assert bundle.typed.lookup_pou(PROGRAM_NAME).size == sum(
        case_values(fb, sum(len(state.expected) for state in case.states)) for case in checked.cases
    )
