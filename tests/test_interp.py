import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stbench.frontend import parse_text, resolve
from stbench.frontend import types as T
from stbench.runtime import (
    RuntimeFault,
    SimClock,
    UnknownPou,
    Value,
    default,
    execute_cycle,
    instantiate,
    make,
    run_program,
)
from stbench.runtime import interp

ACC_SRC = """
FUNCTION_BLOCK ACC
VAR_INPUT X : DINT; END_VAR
VAR_OUTPUT SUM : DINT; END_VAR
SUM := SUM + X;
END_FUNCTION_BLOCK
"""


def prog_of(src, libs=None):
    return resolve(parse_text(src), libs or [])


@pytest.fixture(scope="module")
def acc_prog():
    return prog_of(ACC_SRC)


def test_declared_initializer_applies():
    prog = prog_of(
        """
        FUNCTION_BLOCK CTR
        VAR_INPUT GO : BOOL; END_VAR
        VAR_OUTPUT CNT : DINT; END_VAR
        VAR N : DINT := 5; END_VAR
        IF GO THEN CNT := CNT + N; END_IF;
        END_FUNCTION_BLOCK
        """
    )
    inst = instantiate(prog, "CTR")
    assert inst.store["N"] == 5
    assert inst.store["CNT"] == 0
    assert inst.store["GO"] is False


def test_nested_timer_defaults_idle():
    prog = prog_of(
        """
        FUNCTION_BLOCK WITHTIMER
        VAR_INPUT GO : BOOL; END_VAR
        VAR_OUTPUT Q : BOOL; END_VAR
        VAR t1 : TON; END_VAR
        t1(IN := GO, PT := T#1s);
        Q := t1.Q;
        END_FUNCTION_BLOCK
        """
    )
    inst = instantiate(prog, "WITHTIMER")
    t1 = inst.nested["T1"]
    assert t1.store["IN"] is False
    assert t1.store["Q"] is False
    assert t1.store["ET"] == 0


def test_unknown_pou():
    prog = prog_of(ACC_SRC)
    with pytest.raises(UnknownPou):
        instantiate(prog, "NOPE")


def test_retained_state_across_cycles(acc_prog):
    inst = instantiate(acc_prog, "ACC")
    clock = SimClock(cycle_time=10)
    out1, _ = execute_cycle(inst, {"X": make(T.DINT, 3)}, clock)
    out2, _ = execute_cycle(inst, {"X": make(T.DINT, 4)}, clock)
    assert out1["SUM"].v == 3
    assert out2["SUM"].v == 7


def test_division_by_zero_faults_at_statement(acc_prog):
    prog = prog_of(
        """
        FUNCTION_BLOCK DIVV
        VAR_INPUT D : INT; END_VAR
        VAR_OUTPUT Q : INT; END_VAR
        Q := 0;
        Q := 1 / D;
        END_FUNCTION_BLOCK
        """
    )
    inst = instantiate(prog, "DIVV")
    with pytest.raises(RuntimeFault) as err:
        execute_cycle(inst, {"D": make(T.INT, 0)}, SimClock())
    assert err.value.sid == 1
    assert err.value.span is not None
    assert "division by zero" in err.value.message


def test_undeclared_input_rejected_as_precondition(acc_prog):
    inst = instantiate(acc_prog, "ACC")
    with pytest.raises(ValueError):
        execute_cycle(inst, {"NOPE": make(T.DINT, 1)}, SimClock())
    with pytest.raises(ValueError):
        execute_cycle(inst, {"SUM": make(T.DINT, 1)}, SimClock())  # output, not input


def test_int_arithmetic_wraps_two_complement():
    prog = prog_of(
        """
        FUNCTION_BLOCK WRAP
        VAR_INPUT A : INT; B : INT; END_VAR
        VAR_OUTPUT S : INT; END_VAR
        S := A + B;
        END_FUNCTION_BLOCK
        """
    )
    inst = instantiate(prog, "WRAP")
    out, _ = execute_cycle(inst, {"A": make(T.INT, 32767), "B": make(T.INT, 1)}, SimClock())
    assert out["S"].v == -32768


def test_integer_division_truncates_toward_zero():
    prog = prog_of(
        """
        FUNCTION_BLOCK DIVS
        VAR_INPUT A : INT; B : INT; END_VAR
        VAR_OUTPUT Q : INT; R : INT; END_VAR
        Q := A / B;
        R := A MOD B;
        END_FUNCTION_BLOCK
        """
    )
    inst = instantiate(prog, "DIVS")
    cases = [(7, 2, 3, 1), (-7, 2, -3, -1), (7, -2, -3, 1), (-7, -2, 3, -1)]
    for a, b, q, r in cases:
        out, _ = execute_cycle(inst, {"A": make(T.INT, a), "B": make(T.INT, b)}, SimClock())
        assert (out["Q"].v, out["R"].v) == (q, r), (a, b)


def test_conversion_overflow_faults():
    prog = prog_of(
        """
        FUNCTION_BLOCK CONV
        VAR_INPUT D : DINT; END_VAR
        VAR_OUTPUT I : INT; END_VAR
        I := DINT_TO_INT(D);
        END_FUNCTION_BLOCK
        """
    )
    inst = instantiate(prog, "CONV")
    out, _ = execute_cycle(inst, {"D": make(T.DINT, 30000)}, SimClock())
    assert out["I"].v == 30000
    with pytest.raises(RuntimeFault) as err:
        execute_cycle(inst, {"D": make(T.DINT, 70000)}, SimClock())
    assert "out of range" in err.value.message


def test_case_without_match_or_else_is_noop():
    prog = prog_of(
        """
        FUNCTION_BLOCK CASEY
        VAR_INPUT N : INT; END_VAR
        VAR_OUTPUT X : INT; END_VAR
        X := 9;
        CASE N OF
            1: X := 1;
        END_CASE;
        END_FUNCTION_BLOCK
        """
    )
    inst = instantiate(prog, "CASEY")
    out, _ = execute_cycle(inst, {"N": make(T.INT, 5)}, SimClock())
    assert out["X"].v == 9


def test_string_and_array_bounds_fault():
    prog = prog_of(
        """
        FUNCTION_BLOCK BOUNDS
        VAR_INPUT I : INT; P : INT; END_VAR
        VAR_OUTPUT S : STRING; X : INT; END_VAR
        VAR A : ARRAY[1..3] OF INT := [10, 20, 30]; END_VAR
        S := MID('ABC', 1, P);
        X := A[I];
        END_FUNCTION_BLOCK
        """
    )
    inst = instantiate(prog, "BOUNDS")
    out, _ = execute_cycle(inst, {"I": make(T.INT, 2), "P": make(T.INT, 1)}, SimClock())
    assert out["S"].v == "A" and out["X"].v == 20
    with pytest.raises(RuntimeFault) as err:
        execute_cycle(inst, {"I": make(T.INT, 2), "P": make(T.INT, 0)}, SimClock())
    assert "MID" in err.value.message
    with pytest.raises(RuntimeFault) as err:
        execute_cycle(inst, {"I": make(T.INT, 4), "P": make(T.INT, 1)}, SimClock())
    assert "index 4 outside 1..3" in err.value.message


def test_runaway_loop_hits_scan_budget():
    prog = prog_of(
        """
        FUNCTION_BLOCK SPIN
        VAR_INPUT GO : BOOL; END_VAR
        VAR_OUTPUT X : DINT; END_VAR
        WHILE GO DO X := X + 1; END_WHILE;
        END_FUNCTION_BLOCK
        """
    )
    inst = instantiate(prog, "SPIN")
    with pytest.raises(RuntimeFault) as err:
        execute_cycle(inst, {"GO": make(T.BOOL, True)}, SimClock())
    assert "budget" in err.value.message


def test_scan_atomicity_snapshot():
    # intermediate values written during the scan are never observable
    prog = prog_of(
        """
        FUNCTION_BLOCK TWICE
        VAR_INPUT GO : BOOL; END_VAR
        VAR_OUTPUT OUTV : INT; END_VAR
        OUTV := 1;
        OUTV := 2;
        END_FUNCTION_BLOCK
        """
    )
    inst = instantiate(prog, "TWICE")
    clock = SimClock()
    out, _ = execute_cycle(inst, {"GO": make(T.BOOL, True)}, clock)
    assert out["OUTV"].v == 2
    snapshot = dict(out)
    execute_cycle(inst, {"GO": make(T.BOOL, True)}, clock)
    assert snapshot["OUTV"].v == 2  # old snapshot unaffected by later scans


def test_var_temp_resets_each_scan():
    prog = prog_of(
        """
        FUNCTION_BLOCK TMP
        VAR_INPUT GO : BOOL; END_VAR
        VAR_OUTPUT OUTV : INT; END_VAR
        VAR_TEMP SCRATCH : INT; END_VAR
        SCRATCH := SCRATCH + 1;
        OUTV := SCRATCH;
        END_FUNCTION_BLOCK
        """
    )
    inst = instantiate(prog, "TMP")
    clock = SimClock()
    for _ in range(3):
        out, _ = execute_cycle(inst, {"GO": make(T.BOOL, True)}, clock)
        assert out["OUTV"].v == 1


def test_library_function_and_fb_execution():
    lib = prog_of(
        """
        FUNCTION SCALE3 : DINT
        VAR_INPUT N : DINT; END_VAR
        SCALE3 := N * 3;
        END_FUNCTION
        FUNCTION_BLOCK STEPPER
        VAR_INPUT GO : BOOL; END_VAR
        VAR_OUTPUT CNT : DINT; END_VAR
        IF GO THEN CNT := CNT + 1; END_IF;
        END_FUNCTION_BLOCK
        """
    )
    prog = prog_of(
        """
        FUNCTION_BLOCK TOP
        VAR_INPUT GO : BOOL; END_VAR
        VAR_OUTPUT OUTV : DINT; END_VAR
        VAR S : STEPPER; END_VAR
        S(GO := GO);
        OUTV := SCALE3(S.CNT);
        END_FUNCTION_BLOCK
        """,
        libs=[lib],
    )
    inst = instantiate(prog, "TOP")
    clock = SimClock()
    execute_cycle(inst, {"GO": make(T.BOOL, True)}, clock)
    out, counts = execute_cycle(inst, {"GO": make(T.BOOL, True)}, clock)
    assert out["OUTV"].v == 6
    pous = {p for p, hits in counts.items() if any(hits.values())}
    assert pous == {"TOP", "STEPPER", "SCALE3"}


# ---------------------------------------------------------------------------
# state isolation property
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.booleans(), st.integers(-50, 50)), min_size=1, max_size=12)
)
def test_state_isolation_under_interleaving(calls):
    """Interleaving scans of two instances matches running each alone."""
    prog = prog_of(ACC_SRC)
    a = instantiate(prog, "ACC")
    b = instantiate(prog, "ACC")
    clock_a, clock_b = SimClock(), SimClock()
    interleaved = {0: [], 1: []}
    for pick_b, x in calls:
        inst, clock, key = (b, clock_b, 1) if pick_b else (a, clock_a, 0)
        out, _ = execute_cycle(inst, {"X": make(T.DINT, x)}, clock)
        interleaved[key].append(out["SUM"].v)

    solo = {0: [], 1: []}
    for key in (0, 1):
        inst = instantiate(prog, "ACC")
        clock = SimClock()
        for pick_b, x in calls:
            if int(pick_b) == key:
                out, _ = execute_cycle(inst, {"X": make(T.DINT, x)}, clock)
                solo[key].append(out["SUM"].v)
    assert interleaved == solo


def test_determinism_bit_identical_runs():
    src = """
    FUNCTION_BLOCK MIXED
    VAR_INPUT X : REAL; END_VAR
    VAR_OUTPUT Y : REAL; END_VAR
    VAR t : TON; END_VAR
    t(IN := X > 0.5, PT := T#30ms);
    IF t.Q THEN Y := SIN(X); ELSE Y := X / 3.0; END_IF;
    END_FUNCTION_BLOCK
    """
    runs = []
    for _ in range(2):
        prog = prog_of(src)
        inst = instantiate(prog, "MIXED")
        clock = SimClock(cycle_time=10)
        outs = []
        hits = []
        for i in range(8):
            out, counts = execute_cycle(inst, {"X": make(T.REAL, 0.1 * i)}, clock)
            outs.append(out["Y"].v)
            hits.append(counts)
        runs.append((outs, hits))
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# run_program
# ---------------------------------------------------------------------------

def test_run_program_empty_body_clock_and_records():
    prog = prog_of("PROGRAM MAIN VAR X : INT; END_VAR END_PROGRAM")
    clock = SimClock(cycle_time=10)
    records = []
    result = run_program(prog, "MAIN", 10, clock, monitor=records.append)
    assert clock.now == 100
    assert len(records) == 10
    assert records[0] == "cycle=0 t=0 events=[]"
    assert records[9] == "cycle=9 t=90 events=[]"
    assert result.cycles_executed == 10


def test_run_program_fault_carries_cycle():
    prog = prog_of(
        """
        PROGRAM MAIN
        VAR N : INT; X : INT; END_VAR
        N := N + 1;
        IF N = 4 THEN
            X := 1 / (N - N);
        END_IF;
        END_PROGRAM
        """
    )
    with pytest.raises(RuntimeFault) as err:
        run_program(prog, "MAIN", 10, SimClock())
    assert err.value.cycle == 3  # 0-based: faults on its fourth scan


def test_run_program_requires_program_pou(acc_prog):
    with pytest.raises(UnknownPou):
        run_program(acc_prog, "ACC", 1, SimClock())


def test_contained_budget_fault_stops_only_its_instance():
    prog = prog_of(
        """
        FUNCTION_BLOCK SPIN
        VAR_INPUT GO : BOOL; END_VAR
        VAR_OUTPUT N : DINT; END_VAR
        N := N + 1;
        WHILE GO DO N := N + 1; END_WHILE;
        END_FUNCTION_BLOCK
        FUNCTION_BLOCK TICKER
        VAR_OUTPUT N : DINT; END_VAR
        N := N + 1;
        END_FUNCTION_BLOCK
        PROGRAM MAIN
        VAR A : TICKER; S : SPIN; B : TICKER; NA : DINT; NB : DINT; END_VAR
        A();
        NA := A.N;
        S(GO := NA = 2);
        B();
        NB := B.N;
        END_PROGRAM
        """
    )
    records = []
    result = run_program(
        prog, "MAIN", 4, SimClock(), monitor=records.append, quarantine={"A", "S", "B"}
    )
    # S spins from its second scan on; the budget runs out at its WHILE guard
    (contained,) = result.faults
    assert (contained.instance, contained.cycle) == ("S", 1)
    assert (contained.fault.pou, contained.fault.sid) == ("SPIN", 1)
    assert contained.fault.describe() == (
        "scan statement budget exceeded (possible unbounded loop) (SPIN#1) in MAIN.S at cycle 1"
    )
    assert records[1] == "cycle=1 t=10 events=[FAULT=S@1]"
    assert [r.endswith("events=[]") for r in records] == [True, False, True, True]
    # the instances before and after S ran every scan
    store = result.instance.store
    assert (store["NA"], store["NB"]) == (4, 4)
    assert result.instance.nested["S"].store["N"] > 1
    # S's sites up to its fault count as executed (4 sites ran before S,
    # so S got the remaining 999,996); they do not starve B of budget
    assert result.counts["SPIN"] == {0: 2, 1: 499_999, 2: 499_997}
    assert len(result.traces[1]) == 5 + 2 + 999_996


SPINNERS_SRC = """
FUNCTION_BLOCK SPIN
VAR_INPUT GO : BOOL; END_VAR
VAR_OUTPUT N : DINT; END_VAR
WHILE GO DO N := N + 1; END_WHILE;
END_FUNCTION_BLOCK
PROGRAM MAIN3
VAR S1 : SPIN; S2 : SPIN; S3 : SPIN; K : DINT; END_VAR
S1(GO := TRUE); S2(GO := TRUE); S3(GO := TRUE);
K := K + 1;
END_PROGRAM
PROGRAM MAIN4
VAR S1 : SPIN; S2 : SPIN; S3 : SPIN; S4 : SPIN; K : DINT; END_VAR
S1(GO := TRUE); S2(GO := TRUE); S3(GO := TRUE);
K := K + 1;
S4(GO := TRUE);
K := K + 1;
END_PROGRAM
"""


def test_contained_budget_faults_share_a_bounded_scan(monkeypatch):
    monkeypatch.setattr(interp, "_SCAN_SITE_BUDGET", 100)
    prog = prog_of(SPINNERS_SRC)
    every = {"S1", "S2", "S3", "S4"}
    records = []
    result = run_program(prog, "MAIN3", 2, SimClock(), monitor=records.append, quarantine=every)
    # each runaway call spends a whole budget and gets it back from the
    # scan's spare of three budgets, so the statement after them still runs
    assert [(f.instance, f.cycle, f.fault.sid) for f in result.faults] == [
        ("S1", 0, 0), ("S2", 0, 0), ("S3", 0, 0)
    ]
    assert records[0] == "cycle=0 t=0 events=[FAULT=S1@0;FAULT=S2@0;FAULT=S3@0]"
    assert result.instance.store["K"] == 2
    assert [len(t) for t in result.traces] == [3 * 100 + 1, 1]
    # a fourth runaway call in the same scan finds no spare left: the scan
    # has run four budgets, and its next statement (the last K := K + 1)
    # faults the run
    with pytest.raises(RuntimeFault) as err:
        run_program(prog, "MAIN4", 2, SimClock(), quarantine=every)
    assert err.value.describe() == (
        "scan statement budget exceeded (possible unbounded loop) (MAIN4#11) in MAIN4 at cycle 0"
    )


def test_for_iteration_budget_fault_names_last_site_of_its_frame():
    prog = prog_of(
        """
        FUNCTION_BLOCK LOOPER
        VAR_INPUT GO : BOOL; END_VAR
        VAR_OUTPUT X : DINT; END_VAR
        VAR J : DINT; END_VAR
        FOR J := 1 TO 2000000 DO
            IF J < 0 THEN X := 1; ELSE X := 2; END_IF;
        END_FOR;
        END_FUNCTION_BLOCK
        """
    )
    inst = instantiate(prog, "LOOPER")
    # header, then 3 budget units per iteration (guard, ELSE statement and
    # the iteration itself): the budget runs out on an iteration, which
    # is charged to the ELSE branch's statement
    with pytest.raises(RuntimeFault) as err:
        execute_cycle(inst, {"GO": make(T.BOOL, True)}, SimClock())
    assert "budget" in err.value.message
    assert (err.value.pou, err.value.sid) == ("LOOPER", 3)


def test_fault_instance_path_names_the_frame():
    prog = prog_of(
        """
        FUNCTION PCT : DINT
        VAR_INPUT D : DINT; END_VAR
        PCT := 100 / D;
        END_FUNCTION
        FUNCTION_BLOCK INNER
        VAR_INPUT D : DINT; END_VAR
        VAR_OUTPUT Q : DINT; END_VAR
        Q := PCT(D);
        END_FUNCTION_BLOCK
        FUNCTION_BLOCK TOP
        VAR_INPUT D : DINT; END_VAR
        VAR S : INNER; END_VAR
        S(D := D);
        END_FUNCTION_BLOCK
        """
    )
    inst = instantiate(prog, "TOP")
    with pytest.raises(RuntimeFault) as err:
        execute_cycle(inst, {"D": make(T.DINT, 0)}, SimClock())
    assert (err.value.pou, err.value.sid) == ("PCT", 0)
    assert err.value.instance_path == "TOP.S/PCT()"
    assert str(err.value) == "division by zero (PCT#0) in TOP.S/PCT()"


def test_run_program_counts_match_scan_site_totals():
    prog = prog_of(
        """
        PROGRAM MAIN
        VAR I : INT; N : DINT; END_VAR
        FOR I := 1 TO 3 DO
            N := N + I;
        END_FOR;
        WHILE N > 10 DO N := N - 7; END_WHILE;
        END_PROGRAM
        """
    )
    result = run_program(prog, "MAIN", 5, SimClock())
    # FOR iterations spend budget but are not statement sites
    assert [len(t) for t in result.traces] == [5, 7, 7, 5, 7]
    assert sum(len(t) for t in result.traces) == sum(result.counts["MAIN"].values())
    assert result.counts["MAIN"] == {0: 5, 1: 15, 2: 8, 3: 3}


# -- raw stores: arrays are shared by reference and copied on write ----------

ARRAY_WRITER_SRC = """
FUNCTION_BLOCK WRITER
VAR_INPUT A : ARRAY[1..3] OF INT; END_VAR
VAR_OUTPUT FIRST : INT; END_VAR
A[1] := 99;
FIRST := A[1];
END_FUNCTION_BLOCK
FUNCTION_BLOCK CALLER
VAR_OUTPUT MINE : INT; THEIRS : INT; END_VAR
VAR B : ARRAY[1..3] OF INT := [1, 2, 3]; W : WRITER; END_VAR
W(A := B);
MINE := B[1];
THEIRS := W.FIRST;
END_FUNCTION_BLOCK
"""


def test_fb_writing_an_array_input_leaves_the_callers_array_alone():
    inst = instantiate(prog_of(ARRAY_WRITER_SRC), "CALLER")
    out, _ = execute_cycle(inst, {}, SimClock())
    assert (out["MINE"].v, out["THEIRS"].v) == (1, 99)
    assert inst.store["B"] == [1, 2, 3]
    assert inst.nested["W"].store["A"] == [99, 2, 3]


def test_function_calls_never_see_each_others_element_writes():
    prog = prog_of(
        """
        FUNCTION SWAP_FIRST : INT
        VAR_INPUT K : INT; A : ARRAY[1..2] OF INT; END_VAR
        VAR L : ARRAY[1..2] OF INT; END_VAR
        SWAP_FIRST := L[1] * 100 + A[1];
        L[1] := K;
        A[1] := K;
        END_FUNCTION
        FUNCTION_BLOCK USER
        VAR_OUTPUT X : INT; Y : INT; Z : INT; END_VAR
        VAR B : ARRAY[1..2] OF INT := [4, 5]; END_VAR
        X := SWAP_FIRST(5, B);
        Y := SWAP_FIRST(7, B);
        Z := B[1];
        END_FUNCTION_BLOCK
        """
    )
    inst = instantiate(prog, "USER")
    for _ in range(2):
        out, _ = execute_cycle(inst, {}, SimClock())
        # each call starts from L's initial value and reads the caller's B
        assert (out["X"].v, out["Y"].v, out["Z"].v) == (4, 4, 4)
    assert interp._pou(prog, "SWAP_FIRST").initial["L"] == [0, 0]


def test_instances_sharing_an_array_temp_never_see_each_others_writes():
    prog = prog_of(
        """
        FUNCTION_BLOCK TEMP_USER
        VAR_INPUT K : INT; END_VAR
        VAR_OUTPUT SEEN : INT; END_VAR
        VAR_TEMP TA : ARRAY[1..2] OF INT; END_VAR
        SEEN := TA[1];
        TA[1] := K;
        SEEN := SEEN * 100 + TA[1];
        END_FUNCTION_BLOCK
        FUNCTION_BLOCK PAIR
        VAR_OUTPUT X : INT; Y : INT; END_VAR
        VAR S1 : TEMP_USER; S2 : TEMP_USER; END_VAR
        S1(K := 5);
        S2(K := 7);
        X := S1.SEEN;
        Y := S2.SEEN;
        END_FUNCTION_BLOCK
        """
    )
    inst = instantiate(prog, "PAIR")
    for _ in range(2):
        out, _ = execute_cycle(inst, {}, SimClock())
        assert (out["X"].v, out["Y"].v) == (5, 7)
    assert interp._pou(prog, "TEMP_USER").temps["TA"] == [0, 0]


def test_execute_cycle_array_input_and_outputs_do_not_alias():
    prog = prog_of(
        """
        FUNCTION_BLOCK BUMP
        VAR_INPUT A : ARRAY[1..3] OF INT; END_VAR
        VAR_OUTPUT B : ARRAY[1..3] OF INT; END_VAR
        A[2] := A[2] + 1;
        B := A;
        END_FUNCTION_BLOCK
        """
    )
    arr = T.array(1, 3, T.INT)
    given_value = Value(arr, [make(T.INT, x) for x in (1, 2, 3)])
    inst = instantiate(prog, "BUMP")
    out, _ = execute_cycle(inst, {"A": given_value}, SimClock())
    assert given_value == Value(arr, [make(T.INT, x) for x in (1, 2, 3)])
    assert out["B"] == Value(arr, [make(T.INT, x) for x in (1, 3, 3)])
    # a caller that changes what it got back changes no store
    out["B"].v[0] = make(T.INT, 42)
    assert inst.outputs()["B"] == Value(arr, [make(T.INT, x) for x in (1, 3, 3)])
    assert inst.store["A"] == [1, 3, 3]


def test_outputs_are_the_values_a_store_of_values_held():
    prog = prog_of(
        """
        FUNCTION_BLOCK KINDS
        VAR_OUTPUT
            O_BOOL : BOOL; O_INT : INT; O_DINT : DINT; O_BYTE : BYTE;
            O_WORD : WORD; O_REAL : REAL; O_LREAL : LREAL; O_TIME : TIME;
            O_STR : STRING[3]; O_ARR : ARRAY[0..1] OF REAL;
        END_VAR
        O_BOOL := TRUE; O_INT := -7; O_DINT := 100000; O_BYTE := 255;
        O_WORD := 65535; O_REAL := 0.1; O_LREAL := 0.1; O_TIME := T#1500ms;
        O_STR := 'ABCDEF'; O_ARR[1] := 2.5;
        END_FUNCTION_BLOCK
        """
    )
    inst = instantiate(prog, "KINDS")
    idle = inst.outputs()
    out, _ = execute_cycle(inst, {}, SimClock())
    arr = T.array(0, 1, T.REAL)
    # each output built as a store of Values built it: make per scalar,
    # a list of element Values per array
    expected = {
        "O_BOOL": make(T.BOOL, True),
        "O_INT": make(T.INT, -7),
        "O_DINT": make(T.DINT, 100000),
        "O_BYTE": make(T.BYTE, 255),
        "O_WORD": make(T.WORD, 65535),
        "O_REAL": make(T.REAL, 0.1),
        "O_LREAL": make(T.LREAL, 0.1),
        "O_TIME": make(T.TIME, 1500),
        "O_STR": make(T.string(3), "ABC"),
        "O_ARR": Value(arr, [make(T.REAL, 0.0), make(T.REAL, 2.5)]),
    }
    assert out == expected
    assert repr(out) == repr(expected)  # same python types, not just equal
    assert idle["O_ARR"] == default(arr) and repr(idle["O_ARR"]) == repr(default(arr))
    assert repr(idle["O_BOOL"]) == repr(default(T.BOOL))
