import ast
import builtins
import cProfile
import pstats
import re
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stbench import corpus
from stbench.cli import main
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
from stbench.runtime import values as V

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
    pous = {p for p, hits in counts.items() if any(hits)}
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

def fault_log(log):
    """An after_scan callback that logs each scan's contained faults as
    (instance, cycle, sid) and never stops the run."""

    def after_scan(store, faults):
        log.append([(f.instance, f.cycle, f.fault.sid) for f in faults])
        return False
    return after_scan


def test_run_program_empty_body_clock_and_records():
    prog = prog_of("PROGRAM MAIN VAR X : INT; END_VAR END_PROGRAM")
    clock = SimClock(cycle_time=10)
    seen = []

    def after_scan(store, faults):
        seen.append((clock.now, store["X"], faults))
        return False

    result = run_program(prog, "MAIN", 10, clock, after_scan)
    assert clock.now == 100
    # once per scan, before the clock advances
    assert seen == [(t, 0, ()) for t in range(0, 100, 10)]
    assert result.cycles_executed == 10

    # a true return ends the run after that scan, the clock advanced
    clock = SimClock(cycle_time=10)
    stops = iter([False, False, False, True])
    result = run_program(prog, "MAIN", 10, clock, lambda store, faults: next(stops))
    assert (result.cycles_executed, clock.now, len(result.traces)) == (4, 40, 4)


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
    per_scan = []
    result = run_program(
        prog, "MAIN", 4, SimClock(), fault_log(per_scan), quarantine={"A", "S", "B"}
    )
    # S spins from its second scan on; the budget runs out at its WHILE guard
    (contained,) = result.faults
    assert (contained.instance, contained.cycle) == ("S", 1)
    assert (contained.fault.pou, contained.fault.sid) == ("SPIN", 1)
    assert contained.fault.describe() == (
        "scan statement budget exceeded (possible unbounded loop) (SPIN#1) in MAIN.S at cycle 1"
    )
    assert per_scan == [[], [("S", 1, 1)], [], []]
    # the instances before and after S ran every scan
    store = result.instance.store
    assert (store["NA"], store["NB"]) == (4, 4)
    assert result.instance.nested["S"].store["N"] > 1
    # S's sites up to its fault count as executed (4 sites ran before S,
    # so S got the remaining 999,996); they do not starve B of budget
    assert result.counts["SPIN"] == [2, 499_999, 499_997]
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
    per_scan = []
    result = run_program(prog, "MAIN3", 2, SimClock(), fault_log(per_scan), quarantine=every)
    # each runaway call spends a whole budget and gets it back from the
    # scan's spare of three budgets, so the statement after them still runs
    assert [(f.instance, f.cycle, f.fault.sid) for f in result.faults] == [
        ("S1", 0, 0), ("S2", 0, 0), ("S3", 0, 0)
    ]
    assert per_scan == [[("S1", 0, 0), ("S2", 0, 0), ("S3", 0, 0)], []]
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


NESTED_FORS_SRC = """
FUNCTION SUMTO : DINT
VAR_INPUT N : DINT; END_VAR
VAR K : DINT; END_VAR
SUMTO := 0;
K := 0;
FOR K := 1 TO N DO
    SUMTO := SUMTO + K;
END_FOR;
END_FUNCTION
FUNCTION_BLOCK INNER
VAR_INPUT N : DINT; END_VAR
VAR_OUTPUT S : DINT; END_VAR
VAR K : DINT; END_VAR
S := 0;
FOR K := 1 TO N DO
    S := S + K;
END_FOR;
END_FUNCTION_BLOCK
FUNCTION_BLOCK OUTER
VAR_OUTPUT T : DINT; END_VAR
VAR I : DINT; F : INNER; END_VAR
FOR I := 1 TO 1000 DO
    F(N := 3);
    T := SUMTO(4);
END_FOR;
END_FUNCTION_BLOCK
PROGRAM MAIN
VAR O : OUTER; DONE : DINT; END_VAR
O();
DONE := DONE + 1;
END_PROGRAM
"""


@pytest.mark.parametrize(
    "budget,where,counts,traces",
    [
        # the outer loop's step after its second iteration: the callees'
        # loops ran in between, yet the fault names the outer body's last
        # statement, T := SUMTO(4)
        (46, ("OUTER", 9, "MAIN.O"), {"OUTER": [1, 2, 2], "INNER": [2, 2, 6], "SUMTO": [2, 2, 2, 8]}, [31, 1]),
        # the function's own step, and the FB's
        (45, ("SUMTO", 3, "MAIN.O/SUMTO()"), {"OUTER": [1, 2, 2], "INNER": [2, 2, 6], "SUMTO": [2, 2, 2, 8]}, [31, 1]),
        (53, ("INNER", 6, "MAIN.O.F"), {"OUTER": [1, 3, 2], "INNER": [3, 3, 8], "SUMTO": [2, 2, 2, 8]}, [36, 1]),
    ],
    ids=["outer", "function", "fb"],
)
def test_a_for_step_budget_fault_names_a_site_of_its_own_pou(budget, where, counts, traces, monkeypatch):
    # each FOR's back-edge attributes its budget fault to the last site its
    # own frame hit, though the loop body called an FB and a function that
    # each ran a FOR of their own
    monkeypatch.setattr(interp, "_SCAN_SITE_BUDGET", budget)
    result = run_program(prog_of(NESTED_FORS_SRC), "MAIN", 2, SimClock(), quarantine={"O"})
    (contained,) = result.faults
    fault = contained.fault
    assert "budget" in fault.message and contained.cycle == 0
    assert (fault.pou, fault.sid, fault.instance_path) == where
    assert result.counts == {"MAIN": [1, 2], **counts}
    assert [len(t) for t in result.traces] == traces


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
    assert sum(len(t) for t in result.traces) == sum(result.counts["MAIN"])
    assert result.counts["MAIN"] == [5, 15, 8, 3]


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


def test_a_called_block_starts_its_temporaries_at_their_initializers():
    # a block called from another resets its TEMPs in the caller's
    # generated call, not in execute_cycle; the two instances share the
    # initial ARRAY, which neither write may change
    prog = prog_of(
        """
        FUNCTION_BLOCK INIT_TEMPS
        VAR_INPUT K : INT; END_VAR
        VAR_OUTPUT SEEN : INT; END_VAR
        VAR_TEMP T : INT := 5; TA : ARRAY[1..2] OF INT := [3, 4]; END_VAR
        SEEN := T * 100 + TA[1] * 10 + TA[2];
        T := K;
        TA[1] := K;
        END_FUNCTION_BLOCK
        FUNCTION_BLOCK PAIR
        VAR_OUTPUT X : INT; Y : INT; END_VAR
        VAR S1 : INIT_TEMPS; S2 : INIT_TEMPS; END_VAR
        S1(K := 1);
        S2(K := 2);
        X := S1.SEEN;
        Y := S2.SEEN;
        END_FUNCTION_BLOCK
        """
    )
    inst = instantiate(prog, "PAIR")
    for _ in range(2):
        out, _ = execute_cycle(inst, {}, SimClock())
        assert (out["X"].v, out["Y"].v) == (534, 534)
    assert interp._pou(prog, "INIT_TEMPS").temps == {"T": 5, "TA": [3, 4]}


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


def test_element_stores_write_the_owned_list_in_place():
    prog = prog_of(
        """
        FUNCTION_BLOCK FILL
        VAR_OUTPUT B : ARRAY[1..3] OF DINT; END_VAR
        VAR A : ARRAY[1..3] OF DINT; I : INT; END_VAR
        FOR I := 1 TO 3 DO A[I] := I; END_FOR;
        B := A;
        A[1] := 7;
        END_FUNCTION_BLOCK
        """
    )
    inst = instantiate(prog, "FILL")
    owned = inst.store["A"]
    execute_cycle(inst, {}, SimClock())
    assert inst.store["A"] is owned and owned == [7, 2, 3]
    # the whole-array store took a list of its own
    assert inst.store["B"] == [1, 2, 3]


def test_in_out_array_is_copied_in_and_out():
    prog = prog_of(
        """
        FUNCTION_BLOCK BUMP_FIRST
        VAR_IN_OUT A : ARRAY[1..2] OF INT; END_VAR
        A[1] := A[1] + 1;
        END_FUNCTION_BLOCK
        FUNCTION_BLOCK OWNER
        VAR B : ARRAY[1..2] OF INT; S : BUMP_FIRST; END_VAR
        S(A := B);
        B[2] := B[2] + 10;
        END_FUNCTION_BLOCK
        """
    )
    inst = instantiate(prog, "OWNER")
    for k in (1, 2):
        execute_cycle(inst, {}, SimClock())
        # the caller's element store after the call leaves the block's copy alone
        assert inst.store["B"] == [k, 10 * k]
        assert inst.nested["S"].store["A"] == [k, 10 * (k - 1)]


def test_names_like_the_generated_locals_run_as_any_other_name():
    # user names and STRING literals reach a statement function only as
    # the values of its factory's parameters, never as Python source
    prog = prog_of(
        r"""
        FUNCTION_BLOCK HAZARD
        VAR_INPUT STORE : DINT; NESTED : DINT; END_VAR
        VAR_OUTPUT CNT : DINT; SCAN : DINT; K0 : DINT; MAKE : DINT; RUN : STRING; END_VAR
        VAR FB : TON; FS : DINT; CUR : DINT; LIM : DINT; INC : DINT; END_VAR
        LIM := STORE + NESTED;
        INC := 2;
        CNT := 0;
        FOR CUR := 1 TO LIM BY INC DO
            CNT := CNT + CUR;
        END_FOR;
        FB(IN := TRUE, PT := T#1s);
        SCAN := TIME_TO_DINT(FB.PT);
        FS := CNT * 2;
        K0 := FS - 1;
        MAKE := K0 + SCAN;
        RUN := CONCAT('$'"{}"\', '$N');
        END_FUNCTION_BLOCK
        """
    )
    inst = instantiate(prog, "HAZARD")
    out, _ = execute_cycle(inst, {"STORE": make(T.DINT, 3), "NESTED": make(T.DINT, 4)}, SimClock())
    assert {k: v.v for k, v in out.items()} == {
        "CNT": 16, "SCAN": 1000, "K0": 31, "MAKE": 1031, "RUN": "'\"{}\"\\\n"
    }
    assert inst.store["CUR"] == 7 and inst.store["FS"] == 32


BOTH_OPERANDS_SRC = """
FUNCTION F : BOOL
VAR_INPUT X : DINT; END_VAR
F := X > 0;
END_FUNCTION
FUNCTION_BLOCK BOTH
VAR_INPUT X : DINT; D : DINT; END_VAR
VAR_OUTPUT A : BOOL; B : BOOL; END_VAR
A := FALSE AND F(X);
B := TRUE OR (100 / D > 0);
END_FUNCTION_BLOCK
"""


def test_and_or_evaluate_both_operands():
    prog = prog_of(BOTH_OPERANDS_SRC)
    inst = instantiate(prog, "BOTH")
    out, counts = execute_cycle(inst, {"X": make(T.DINT, 5), "D": make(T.DINT, 1)}, SimClock())
    assert (out["A"].v, out["B"].v) == (False, True)
    assert counts == {"BOTH": [1, 1], "F": [1]}
    with pytest.raises(RuntimeFault) as err:
        execute_cycle(inst, {"X": make(T.DINT, 5), "D": make(T.DINT, 0)}, SimClock())
    assert (err.value.message, err.value.pou, err.value.sid) == ("division by zero", "BOTH", 2)


SAME_SHAPES_SRC = """
FUNCTION_BLOCK ONE
VAR_INPUT GO : BOOL; N : DINT; END_VAR
VAR_OUTPUT Q : DINT; END_VAR
VAR T : TON; END_VAR
IF GO THEN
    Q := Q + N;
ELSE
    Q := 0;
END_IF;
T(IN := GO, PT := T#5ms);
END_FUNCTION_BLOCK
FUNCTION_BLOCK TWO
VAR_INPUT RUN : BOOL; STEP : DINT; END_VAR
VAR_OUTPUT TOTAL : DINT; END_VAR
VAR DELAY : TON; END_VAR
IF RUN THEN
    TOTAL := TOTAL + STEP;
ELSE
    TOTAL := 7;
END_IF;
DELAY(IN := RUN, PT := T#9s);
END_FUNCTION_BLOCK
"""


def test_statements_of_one_shape_share_one_compiled_factory():
    interp._factory.cache_clear()
    prog = prog_of(SAME_SHAPES_SRC)
    execute_cycle(instantiate(prog, "ONE"), {"GO": make(T.BOOL, True)}, SimClock())
    # three statement lists: the body (the IF and the call) and the two
    # IF branches, each shape compiled once
    assert interp._factory.cache_info()[:2] == (0, 3)
    execute_cycle(instantiate(prog, "TWO"), {"RUN": make(T.BOOL, True)}, SimClock())
    assert interp._factory.cache_info()[:2] == (3, 3)
    # a second run of the same unit compiles nothing new
    again = prog_of(SAME_SHAPES_SRC)
    execute_cycle(instantiate(again, "ONE"), {"GO": make(T.BOOL, True)}, SimClock())
    assert interp._factory.cache_info()[:2] == (6, 3)


def test_a_profile_tells_each_compiled_factory_s_function_apart():
    # cProfile keys a function by file, line and name: each factory names
    # its function by its serial and its first statement's kind, and keeps
    # the file "<statements>"
    interp._factory.cache_clear()
    prog = prog_of(SAME_SHAPES_SRC)
    inst = instantiate(prog, "ONE")
    profile = cProfile.Profile()
    for go in (True, False):
        profile.runcall(execute_cycle, inst, {"GO": make(T.BOOL, go)}, SimClock())
    keys = [key for key in pstats.Stats(profile).stats if key[0] == "<statements>" and key[2] not in ("<module>", "make")]
    assert len(keys) == 3  # the body and the two IF branches
    assert sorted([re.fullmatch(r"run\d+_(\w+)", name)[1] for _, _, name in keys]) == ["assign", "assign", "if_stmt"]


@pytest.mark.parametrize(
    "ty,x,deepest,y",
    [
        ("INT", 1, "-(" * 19 + "X" + ")" * 19, -1),
        ("INT", 1, " + ".join(["X"] * 40), 40),
        ("REAL", 1.1, " * ".join(["X"] * 40), reduce(lambda y, _: V.f32(y * V.f32(1.1)), range(39), V.f32(1.1))),
        ("BOOL", True, "X AND (" * 19 + "X" + ")" * 19, True),
        ("DINT", 0, "A[" * 39 + "X" + "]" * 39, 0),
    ],
    ids=["int-negations", "int-sum", "real-product", "bool-and", "array-index"],
)
def test_expressions_at_the_nesting_limit_run(ty, x, deepest, y):
    prog = prog_of(
        f"""
        FUNCTION_BLOCK DEEPEST
        VAR_INPUT X : {ty}; END_VAR
        VAR_OUTPUT Y : {ty}; END_VAR
        VAR A : ARRAY[0..3] OF DINT; END_VAR
        Y := {deepest};
        END_FUNCTION_BLOCK
        """
    )
    out, _ = execute_cycle(instantiate(prog, "DEEPEST"), {"X": make(getattr(T, ty), x)}, SimClock())
    assert out["Y"].v == y


def _block_depth(node) -> int:
    """The deepest static nesting of for, while and try blocks in node."""
    inner = max([_block_depth(child) for child in ast.iter_child_nodes(node)], default=0)
    return inner + isinstance(node, (ast.For, ast.While, ast.Try))


def test_generated_sources_parse_as_python_3_10_and_hold_no_user_text(monkeypatch, tmp_path):
    # pyproject.toml declares requires-python >= 3.10
    shapes = set()
    real = interp._factory

    def recording(shape):
        shapes.add(shape)
        return real(shape)

    monkeypatch.setattr(interp, "_factory", recording)
    for block in corpus.BLOCKS:
        argv = [
            "pipeline", "--unit", corpus.block_path(block.name), "--provider", "mock",
            "--fixture", corpus.fixture_path(block.name), "--out", tmp_path / block.name,
        ]
        assert main([str(a) for a in argv]) in (0, 1)
    # and a body nesting every statement kind 40 levels deep
    body = "Y := X;"
    kinds = [
        "IF X = 0 THEN\n{}\nELSIF X = 1 THEN\nY := 1;\nELSE\n{}\nEND_IF;",
        "FOR I := 1 TO 1 DO\n{}\nEND_FOR;",
        "CASE X OF\n0: {}\nELSE\nY := 2;\nEND_CASE;",
        "REPEAT\n{}\nUNTIL TRUE\nEND_REPEAT;",
        "I := 0;\nWHILE I = 0 DO\nI := 1;\n{}\nEND_WHILE;",
    ]
    for level in range(40):
        body = kinds[level % len(kinds)].replace("{}", body)
    nested = prog_of(
        "FUNCTION_BLOCK NESTED\nVAR_INPUT X : INT; END_VAR\nVAR_OUTPUT Y : INT; END_VAR\n"
        f"VAR I : INT; END_VAR\n{body}\nEND_FUNCTION_BLOCK\n"
    )
    out, _ = execute_cycle(instantiate(nested, "NESTED"), {"X": make(T.INT, 0)}, SimClock())
    assert out["Y"].v == 0
    assert len(shapes) > 20
    # DEC_TO_HEX and NESTED have loops and run as checked code; the other
    # corpus blocks and their harnesses are loop-free and run bounded
    assert {shape[1] for shape in shapes} == {False, True}
    known = set(vars(interp)) | set(vars(builtins))
    for shape in shapes:
        tree = ast.parse(interp._source(shape), feature_version=(3, 10))
        names = {x.id for x in ast.walk(tree) if isinstance(x, ast.Name)}
        if shape[1]:  # bounded code tests neither the budget nor the call depth
            assert not {"_BUDGET_MSG", "_MAX_CALL_DEPTH"} & names
        # Python allows 20 nested blocks; generated code stays far below,
        # whatever the ST nesting, since every sub-body is its own function
        assert _block_depth(tree) <= 4
        nodes = list(ast.walk(tree))
        bound = {f.name for f in nodes if isinstance(f, ast.FunctionDef)}
        bound |= {a.arg for f in nodes if isinstance(f, ast.FunctionDef) for a in f.args.args}
        bound |= {x.name for x in nodes if isinstance(x, ast.ExceptHandler) and x.name}
        bound |= {x.id for x in nodes if isinstance(x, ast.Name) and isinstance(x.ctx, ast.Store)}
        assert names <= bound | known
        assert not [x for x in nodes if isinstance(x, ast.Constant) and isinstance(x.value, str)]


MID_FAULT_SRC = """
FUNCTION_BLOCK MID
VAR_INPUT D : DINT; END_VAR
VAR_OUTPUT A : DINT; B : DINT; C : DINT; END_VAR
A := A + 1;
B := 10 / D;
C := C + 1;
END_FUNCTION_BLOCK
PROGRAM MAIN
VAR M : MID; N : DINT; END_VAR
N := N + 1;
M(D := 0);
N := N + 1;
END_PROGRAM
"""


def test_a_fault_inside_a_fused_body_names_its_own_statement():
    # the three statements of MID run as one function; the second faults
    result = run_program(prog_of(MID_FAULT_SRC), "MAIN", 2, SimClock(), quarantine={"M"})
    (contained,) = result.faults
    fault = contained.fault
    assert (contained.instance, contained.cycle) == ("M", 0)
    assert (fault.message, fault.pou, fault.sid) == ("division by zero", "MID", 1)
    assert fault.describe() == "division by zero (MID#1) in MAIN.M at cycle 0"
    # the faulting site is counted and the one after it is not; the
    # program's statements around the call run in both scans
    assert result.counts == {"MAIN": [2, 1, 2], "MID": [1, 1, 0]}
    assert result.instance.nested["M"].store["A"] == 1
    assert result.instance.nested["M"].store["C"] == 0


SPIN_SRC = """
FUNCTION_BLOCK SPIN
VAR_OUTPUT A : DINT; B : DINT; C : DINT; D : DINT; END_VAR
WHILE TRUE DO
    A := A + 1;
    B := B + 1;
    C := C + 1;
END_WHILE;
D := 1;
END_FUNCTION_BLOCK
PROGRAM MAIN
VAR S : SPIN; N : DINT; END_VAR
S();
N := N + 1;
END_PROGRAM
"""


def test_a_budget_fault_inside_a_fused_loop_body_lands_on_its_statement():
    # the call, then 249,999 rounds of four sites and three more: the
    # millionth site is B's, the middle statement of the loop's body
    result = run_program(prog_of(SPIN_SRC), "MAIN", 1, SimClock(), quarantine={"S"})
    (contained,) = result.faults
    assert (contained.fault.message, contained.fault.pou, contained.fault.sid) == (interp._BUDGET_MSG, "SPIN", 2)
    assert result.counts == {"MAIN": [1, 1], "SPIN": [250_000, 250_000, 250_000, 249_999, 0]}
    assert result.instance.store["N"] == 1


JUMPS_SRC = """
FUNCTION_BLOCK JUMPS
VAR_INPUT N : DINT; END_VAR
VAR_OUTPUT S : DINT; R : DINT; I : DINT; END_VAR
S := 0;
FOR I := 1 TO 10 DO
    S := S + I;
    IF I = N THEN
        EXIT;
    END_IF;
    S := S + 100;
END_FOR;
R := 1;
IF N > 2 THEN
    RETURN;
END_IF;
R := 2;
END_FUNCTION_BLOCK
"""


@pytest.mark.parametrize(
    "n,outputs,counts",
    [
        (2, {"S": 103, "R": 2, "I": 2}, [1, 1, 2, 2, 1, 1, 1, 1, 0, 1]),
        (3, {"S": 206, "R": 1, "I": 3}, [1, 1, 3, 3, 1, 2, 1, 1, 1, 0]),
    ],
)
def test_exit_from_an_if_in_a_for_body_and_return_in_mid_body(n, outputs, counts):
    out, cnt = execute_cycle(instantiate(prog_of(JUMPS_SRC), "JUMPS"), {"N": make(T.DINT, n)}, SimClock())
    assert {k: v.v for k, v in out.items()} == outputs
    assert cnt == {"JUMPS": counts}


def test_a_300_branch_elsif_chain_runs():
    arms = "".join(f"ELSIF X = {i} THEN\n    Y := {10 * i};\n" for i in range(1, 300))
    prog = prog_of(
        "FUNCTION_BLOCK CHAIN\nVAR_INPUT X : DINT; END_VAR\nVAR_OUTPUT Y : DINT; END_VAR\n"
        f"IF X = 0 THEN\n    Y := 0;\n{arms}ELSE\n    Y := -1;\nEND_IF;\nEND_FUNCTION_BLOCK\n"
    )
    for x, y in ((0, 0), (299, 2990), (150, 1500), (300, -1)):
        out, counts = execute_cycle(instantiate(prog, "CHAIN"), {"X": make(T.DINT, x)}, SimClock())
        assert out["Y"].v == y
        # each condition up to the taken one is evaluated once, then one store
        tested = min(x, 299) + 1
        assert sorted(counts["CHAIN"])[-tested - 2:] == [0] + [1] * (tested + 1)


LONG_BODY = 3000


def test_a_3000_statement_body_runs_in_chunks_of_bounded_size(monkeypatch):
    params = []
    real = interp._factory

    def recording(shape):
        make_ = real(shape)
        params.append(make_.__code__.co_argcount)
        return make_

    monkeypatch.setattr(interp, "_factory", recording)
    body = "".join(f"Y := Y + {i % 7};\nZ := Y - X;\n" for i in range(LONG_BODY // 2))
    prog = prog_of(
        "FUNCTION_BLOCK LONG\nVAR_INPUT X : DINT; END_VAR\nVAR_OUTPUT Y : DINT; Z : DINT; END_VAR\n"
        f"{body}END_FUNCTION_BLOCK\n"
    )
    out, counts = execute_cycle(instantiate(prog, "LONG"), {"X": make(T.DINT, 5)}, SimClock())
    assert out["Y"].v == sum(i % 7 for i in range(LONG_BODY // 2))
    assert out["Z"].v == out["Y"].v - 5
    assert counts == {"LONG": [1] * LONG_BODY}
    # a chunk's factory takes the five values of each of at most 32
    # statements, and one calling the chunks takes at most 32 functions
    assert max(params) <= 5 * 32


CALL_DEPTH_SRC = """
FUNCTION DEEP : INT
VAR_INPUT X : INT; END_VAR
DEEP := 0;
IF X > 0 THEN DEEP := DEEP(X - 1) + 1; END_IF;
END_FUNCTION
FUNCTION_BLOCK FAULTY
VAR_INPUT D : INT; END_VAR
VAR Y : INT; END_VAR
Y := DEEP(DEEP(100 / D));
END_FUNCTION_BLOCK
FUNCTION_BLOCK CHAIN
VAR_INPUT N : INT; END_VAR
VAR_OUTPUT Y : INT; END_VAR
Y := DEEP(N);
END_FUNCTION_BLOCK
PROGRAM MAIN
VAR S1 : FAULTY; S2 : CHAIN; END_VAR
S1(D := 0);
S2(N := 62);
END_PROGRAM
"""


def test_a_contained_fault_leaves_no_call_depth_behind():
    # S1 faults while evaluating the arguments of two calls it has entered;
    # S2's chain then nests exactly 64 calls deep, the most allowed
    result = run_program(prog_of(CALL_DEPTH_SRC), "MAIN", 1, SimClock(), quarantine={"S1", "S2"})
    assert [(f.instance, f.fault.message) for f in result.faults] == [("S1", "division by zero")]
    assert result.instance.nested["S2"].store["Y"] == 62


BOUNDS_SRC = """
FUNCTION TWICE : DINT
VAR_INPUT X : DINT; END_VAR
TWICE := X + X;
END_FUNCTION
FUNCTION_BLOCK LEAF
VAR_INPUT X : DINT; END_VAR
VAR_OUTPUT Y : DINT; END_VAR
IF X > 0 THEN Y := TWICE(X); ELSE Y := TWICE(TWICE(X)); END_IF;
END_FUNCTION_BLOCK
FUNCTION_BLOCK MID
VAR A : LEAF; B : LEAF; T : TON; END_VAR
A(X := 1);
B(X := TWICE(2));
T(IN := TRUE, PT := T#1s);
END_FUNCTION_BLOCK
PROGRAM MAIN
VAR M : MID; L : LEAF; END_VAR
M();
L(X := 0);
END_PROGRAM
"""


def test_static_bounds_of_a_small_fb_tree():
    prog = prog_of(BOUNDS_SRC)
    # LEAF: 3 sites and three calls of TWICE (1 site); MID: 3 sites, two
    # LEAFs, one TWICE and a built-in block, which has no sites
    bounds = {name: interp._bound(prog, name) for name in ("MAIN", "MID", "LEAF", "TWICE")}
    assert bounds == {"MAIN": (24, 3), "MID": (16, 2), "LEAF": (6, 1), "TWICE": (1, 0)}
    result = run_program(prog, "MAIN", 2, SimClock())
    assert [len(t) for t in result.traces] == [16, 16]
    assert ("MAIN", True) in prog.runtime_cache.pous


@pytest.mark.parametrize(
    "body",
    [
        "FOR I := 1 TO 2 DO Y := I; END_FOR;",
        "WHILE Y < 2 DO Y := Y + 1; END_WHILE;",
        "REPEAT Y := Y + 1; UNTIL Y > 2 END_REPEAT;",
        "Y := REC(X);",
    ],
)
def test_a_loop_or_recursion_anywhere_below_a_pou_leaves_it_unbounded(body):
    prog = prog_of(
        f"""
        FUNCTION REC : DINT
        VAR_INPUT X : DINT; END_VAR
        REC := 0;
        IF X > 0 THEN REC := REC(X - 1); END_IF;
        END_FUNCTION
        FUNCTION_BLOCK INNER
        VAR_INPUT X : DINT; END_VAR
        VAR_OUTPUT Y : DINT; END_VAR
        VAR I : DINT; END_VAR
        {body}
        END_FUNCTION_BLOCK
        FUNCTION_BLOCK OUTER
        VAR F : INNER; END_VAR
        F(X := 1);
        END_FUNCTION_BLOCK
        PROGRAM MAIN
        VAR O : OUTER; END_VAR
        O();
        END_PROGRAM
        """
    )
    assert [interp._bound(prog, name) for name in ("INNER", "OUTER", "MAIN")] == [None] * 3
    assert interp._bound(prog, "REC") is None
    run_program(prog, "MAIN", 1, SimClock())
    assert ("MAIN", False) in prog.runtime_cache.pous


def test_a_program_bounded_above_the_budget_still_faults_where_it_did(monkeypatch):
    monkeypatch.setattr(interp, "_SCAN_SITE_BUDGET", 50)
    steps = "".join(f"X := X + {i};\n" for i in range(20))
    prog = prog_of(
        f"""
        FUNCTION_BLOCK STEP
        VAR_OUTPUT X : DINT; END_VAR
        {steps}
        END_FUNCTION_BLOCK
        PROGRAM MAIN
        VAR A : STEP; B : STEP; C : STEP; K : DINT; END_VAR
        A(); B(); C();
        K := K + 1;
        END_PROGRAM
        """
    )
    assert interp._bound(prog, "MAIN") == (64, 1)
    per_scan = []
    result = run_program(prog, "MAIN", 2, SimClock(), fault_log(per_scan), quarantine={"A", "B", "C"})
    # A and B spend 42 of the 50 units: C's seventh statement spends the last
    assert per_scan == [[("C", 0, 6)], []]
    assert result.faults[0].fault.describe() == (
        "scan statement budget exceeded (possible unbounded loop) (STEP#6) in MAIN.C at cycle 0"
    )
    assert result.counts == {"MAIN": [2, 2, 1, 2], "STEP": [5] * 7 + [4] * 13}
    assert [len(t) for t in result.traces] == [51, 43]
    with pytest.raises(RuntimeFault) as err:
        run_program(prog, "MAIN", 2, SimClock())
    assert (err.value.pou, err.value.sid, err.value.instance_path) == ("STEP", 6, "MAIN.C")


def fb_chain(n: int) -> str:
    """FB types F0 .. F<n-1>, each holding the next and calling it."""
    return "".join(
        f"FUNCTION_BLOCK F{i}\nVAR_INPUT N : INT; END_VAR\nVAR_OUTPUT Y : INT; END_VAR\n"
        + (f"VAR C : F{i + 1}; END_VAR\nC(N := N);\nY := C.Y + 1;\n" if i < n - 1 else "Y := N;\n")
        + "END_FUNCTION_BLOCK\n"
        for i in range(n)
    )


def test_a_loop_free_chain_deeper_than_the_call_limit_faults_at_the_limit():
    prog = prog_of(fb_chain(70) + "PROGRAM MAIN\nVAR F : F0; END_VAR\nF(N := 1);\nEND_PROGRAM\n")
    assert interp._bound(prog, "MAIN") == (1 + 2 * 69 + 1, 70)
    with pytest.raises(RuntimeFault) as err:
        run_program(prog, "MAIN", 1, SimClock())
    # MAIN's call is the first; F63's, the 65th, is one too deep
    assert (err.value.message, err.value.pou, err.value.sid) == (interp._DEPTH_MSG, "F63", 126)
    assert err.value.instance_path == "MAIN.F" + ".C" * 63
    result = run_program(prog, "MAIN", 1, SimClock(), quarantine={"F"})
    assert [(f.instance, f.fault.pou, f.fault.sid) for f in result.faults] == [("F", "F63", 126)]
    assert len(result.counts) == 65
    assert result.counts["F63"] == [1, 0] and "F64" not in result.counts


BOTH_MODES_SRC = """
FUNCTION_BLOCK INC
VAR_OUTPUT N : DINT; END_VAR
N := N + 1;
N := N + 1;
END_FUNCTION_BLOCK
FUNCTION_BLOCK SPIN
VAR F : INC; END_VAR
WHILE TRUE DO F(); END_WHILE;
END_FUNCTION_BLOCK
PROGRAM ONCE
VAR F : INC; END_VAR
F();
END_PROGRAM
PROGRAM SPINS
VAR S : SPIN; END_VAR
S();
END_PROGRAM
"""


def test_one_fb_runs_bounded_under_one_program_and_checked_under_another():
    prog = prog_of(BOTH_MODES_SRC)
    assert (interp._bound(prog, "ONCE"), interp._bound(prog, "SPINS")) == ((3, 1), None)
    once = run_program(prog, "ONCE", 3, SimClock())
    assert once.counts == {"ONCE": [3], "INC": [3, 3]}
    per_scan = []
    spins = run_program(prog, "SPINS", 2, SimClock(), fault_log(per_scan), quarantine={"S"})
    # the call, then 249,999 rounds of four sites and three more: the
    # budget runs out on INC's first statement
    assert per_scan == [[("S", 0, 0)], []]
    assert spins.faults[0].fault.pou == "INC"
    assert spins.counts == {"SPINS": [1], "SPIN": [250_000, 250_000], "INC": [250_000, 249_999]}
    assert [len(t) for t in spins.traces] == [1_000_000, 0]
    assert run_program(prog, "ONCE", 3, SimClock()).counts == once.counts
    assert {("INC", True), ("INC", False)} <= set(prog.runtime_cache.pous)


# ---------------------------------------------------------------------------
# finished instances
# ---------------------------------------------------------------------------

# Three cases finishing at scans 1, 4 and 8, mirrored after each call; C
# faults at its seventh call when ZERO_AT is 7, after A and B are done.
# {loop} puts a FOR after the DONE test, which makes the run checked code,
# and {ret} a RETURN that is never taken.
CASES_SRC = """
FUNCTION_BLOCK CASE_FB
VAR_INPUT LIMIT : DINT; ZERO_AT : DINT; END_VAR
VAR_OUTPUT DONE : BOOL; FAILS : DINT; END_VAR
VAR N : DINT; Q : DINT; I : DINT; END_VAR
IF DONE THEN
    RETURN;
END_IF;
N := N + 1;
{loop}
Q := 100 / (ZERO_AT - N);
IF N >= LIMIT THEN
    DONE := TRUE;
    FAILS := N MOD 2;
END_IF;
END_FUNCTION_BLOCK
PROGRAM MAIN
VAR A : CASE_FB; B : CASE_FB; C : CASE_FB; T : DINT;
    DA : BOOL; FA : DINT; DB : BOOL; FB : DINT; DC : BOOL; END_VAR
T := T + 1;
{ret}
A(LIMIT := 2, ZERO_AT := 0);
DA := A.DONE;
FA := A.FAILS;
B(LIMIT := 5, ZERO_AT := 0);
DB := B.DONE;
FB := B.FAILS;
C(LIMIT := 9, ZERO_AT := {zero_at});
DC := C.DONE;
END_PROGRAM
"""
CASE_MIRRORS = {"A": "DA", "B": "DB", "C": "DC"}


def stores(inst):
    """An instance's store and its nested instances' stores, copied."""
    return dict(inst.store), {name: stores(fb) for name, fb in getattr(inst, "nested", {}).items()}


def runs_declaring_finished(prog, name, cycles, mirrors):
    """What run_program reports with each instance of `mirrors` declared
    finished once its mirror reads TRUE, and without: counts, per-scan site
    totals, a per-scan log of the program's store and contained faults,
    the final stores and the faults."""
    out = []
    for declare in (True, False):
        finished, log = set(), []

        def after_scan(store, faults):
            log.append((sorted(store.items()), [(f.instance, f.cycle, f.fault.sid) for f in faults]))
            if declare:
                finished.update([inst for inst, mirror in mirrors.items() if store[mirror]])
            return False

        result = run_program(prog, name, cycles, SimClock(), after_scan, set(mirrors), finished)
        out.append((
            result.counts,
            [len(t) for t in result.traces],
            log,
            stores(result.instance),
            [(f.instance, f.cycle, f.fault.describe()) for f in result.faults],
            result.cycles_executed,
        ))
    return out


@pytest.mark.parametrize("zero_at,loop,ret,bounded", [
    (0, "", "", True),
    (7, "", "", True),
    (7, "FOR I := 1 TO 2 DO Q := Q + I; END_FOR;", "", False),
    (7, "", "IF T < 0 THEN RETURN; END_IF;", True),
], ids=["finish-apart", "fault-after-finished", "checked-for", "can-return"])
def test_declaring_finished_instances_changes_no_result(zero_at, loop, ret, bounded):
    prog = prog_of(CASES_SRC.format(zero_at=zero_at, loop=loop, ret=ret))
    assert interp._bounded(prog, "MAIN") is bounded
    declared, kept = runs_declaring_finished(prog, "MAIN", 12, CASE_MIRRORS)
    assert declared == kept
    counts, _, log, _, faults, _ = declared
    # A and B are DONE after scans 1 and 4
    assert [dict(items)["DA"] for items, _ in log].index(True) == 1
    assert [dict(items)["DB"] for items, _ in log].index(True) == 4
    assert [fault[:2] for fault in faults] == ([] if zero_at == 0 else [("C", 6)])
    assert sum(counts["CASE_FB"]) > 0


# LIAR is declared finished after its first scan, yet each later call
# still counts N up: where its call leaves the scan, N stops at 1.  FAULTY
# faults on each call once it is DONE, so its replay leaves it running,
# and its next scan stops it.  QUITTER faults on its first call, once DONE
# is set: it is declared finished after a fault has stopped it, and is
# not replayed.
LIAR_SRC = """
FUNCTION_BLOCK LIAR
VAR_OUTPUT DONE : BOOL; N : DINT; END_VAR
IF DONE THEN
    N := N + 1;
    RETURN;
END_IF;
DONE := TRUE;
END_FUNCTION_BLOCK
FUNCTION_BLOCK FAULTY
VAR_OUTPUT DONE : BOOL; N : DINT; END_VAR
VAR Z : DINT; END_VAR
IF DONE THEN
    N := 1 / Z;
    RETURN;
END_IF;
DONE := TRUE;
END_FUNCTION_BLOCK
FUNCTION_BLOCK QUITTER
VAR_OUTPUT DONE : BOOL; N : DINT; END_VAR
VAR Z : DINT; END_VAR
IF NOT DONE THEN
    DONE := TRUE;
    N := 1 / Z;
END_IF;
END_FUNCTION_BLOCK
PROGRAM PLAIN
VAR L : LIAR; D : BOOL; END_VAR
L();
D := L.DONE;
END_PROGRAM
PROGRAM LOOPS
VAR L : LIAR; D : BOOL; I : DINT; K : DINT; END_VAR
FOR I := 1 TO 2 DO K := K + I; END_FOR;
L();
D := L.DONE;
END_PROGRAM
PROGRAM RETURNS
VAR L : LIAR; D : BOOL; END_VAR
IF D AND NOT D THEN RETURN; END_IF;
L();
D := L.DONE;
END_PROGRAM
PROGRAM TWICE
VAR L : LIAR; D : BOOL; END_VAR
L();
D := L.DONE;
L();
END_PROGRAM
PROGRAM FAULTS
VAR L : FAULTY; D : BOOL; END_VAR
L();
D := L.DONE;
END_PROGRAM
PROGRAM STOPS
VAR L : QUITTER; D : BOOL; END_VAR
L();
D := L.DONE;
END_PROGRAM
"""


@pytest.mark.parametrize(
    "program,n", [("PLAIN", 1), ("LOOPS", 5), ("RETURNS", 5), ("TWICE", 11), ("FAULTS", 0), ("STOPS", 0)]
)
def test_finished_instances_leave_only_bounded_bodies_that_cannot_return(program, n):
    # checked code, a body that can RETURN and an instance called twice
    # keep running a finished instance; the counts never show the
    # difference, since a retired call's counts are credited per scan
    declared, kept = runs_declaring_finished(prog_of(LIAR_SRC), program, 6, {"L": "D"})
    assert declared[3][1]["L"][0]["N"] == n
    assert kept[3][1]["L"][0]["N"] == {"TWICE": 11, "FAULTS": 0, "STOPS": 0}.get(program, 5)
    assert (declared[0], declared[1], declared[4]) == (kept[0], kept[1], kept[4])
    if program == "FAULTS":
        assert [fault[:2] for fault in declared[4]] == [("L", 1)]


def test_a_finished_instance_is_credited_from_its_own_program_slots(monkeypatch):
    # every replay counts in one shared program-sized array, and a retired
    # call's credit reads only its own slots of it, from its call up to the
    # next call, so no credit iterates the array
    iterated = []

    class Watched(list):
        def __iter__(self):
            iterated.append(len(self))
            return super().__iter__()

    # each MAIN array a scan is given, watched: one array, one Watched
    watched = {}
    counts = interp._Pou.counts

    def watched_counts(pou, scan):
        cnt = counts(pou, scan)
        if pou.name == "MAIN" and type(cnt) is list:
            cnt = scan.counts["MAIN"] = watched.setdefault(id(cnt), (cnt, Watched(cnt)))[1]
        return cnt

    # the scan and the array each run of a MAIN entry counts in
    ran = []
    code = interp._Pou.code

    def recorded_code(pou, prog):
        def recording(run):
            def entry(store, nested, cnt, scan):
                ran.append((scan, cnt))
                return run(store, nested, cnt, scan)
            return entry
        entries = code(pou, prog)
        return tuple([(recording(run), st) for run, st in entries]) if pou.name == "MAIN" else entries

    monkeypatch.setattr(interp._Pou, "counts", watched_counts)
    monkeypatch.setattr(interp._Pou, "code", recorded_code)
    prog = prog_of(CASES_SRC.format(zero_at=0, loop="", ret=""))
    declared, kept = runs_declaring_finished(prog, "MAIN", 12, CASE_MIRRORS)
    assert declared == kept
    arrays = {}
    for scan, cnt in ran:
        arrays.setdefault(id(scan), []).append(cnt)
    # the declaring run's scan, one replay each of A, B and C, then the
    # keeping run's scan
    first, *replays, second = arrays.values()
    assert len(replays) == 3
    shared = replays[0][0]
    assert isinstance(shared, Watched) and len(shared) == len(prog.lookup_pou("MAIN").sites)
    assert all([cnt is shared for cnts in replays for cnt in cnts])
    assert not [cnt for cnt in first + second if cnt is shared]
    assert iterated == []
