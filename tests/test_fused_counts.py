"""Fused statement lists: a list of two or more statements counts once, for
its first head, and undoes the counts of the heads a raise skips.

Each fault path runs once as bounded code and once forced to checked code,
by a scan budget no larger than the program's static bound, and both must
count, fault and total their scans as the unfused interpreter did: every
expected value below was recorded with per-site counts."""

import inspect
import sys

import pytest

from stbench import corpus, runner
from stbench.cli import main
from stbench.runtime import RuntimeFault, SimClock, execute_cycle, instantiate, run_program
from stbench.runtime import interp

from test_interp import fault_log, prog_of

MODES = pytest.mark.parametrize("checked", [False, True], ids=["bounded", "checked"])


def program_as(checked: bool, src: str, monkeypatch, name: str = "MAIN"):
    """The program of src, its PROGRAM `name` set to run as bounded code, or
    as checked code by a scan budget equal to its bound."""
    prog = prog_of(src)
    assert interp._bounded(prog, name)
    if checked:
        monkeypatch.setattr(interp, "_SCAN_SITE_BUDGET", interp._bound(prog, name)[0])
    return prog


def modes_run(prog) -> set[bool]:
    return {bounded for _, bounded in prog.runtime_cache.pous}


def summary(result):
    return (
        result.counts,
        [len(t) for t in result.traces],
        [(f.instance, f.cycle, f.fault.describe()) for f in result.faults],
    )


MID3_SRC = """
FUNCTION_BLOCK MID3
VAR_INPUT D : DINT; S : DINT; END_VAR
VAR_OUTPUT A : DINT; B : DINT; C : DINT; E : DINT; END_VAR
A := A + 1;
IF S > 0 THEN
    B := 10 / D;
END_IF;
B := 100 / D;
C := C + 1;
E := E + 1;
END_FUNCTION_BLOCK
PROGRAM MAIN
VAR P : MID3; Q : MID3; N : DINT; K : DINT; END_VAR
N := N + 1;
P(D := 1 - K, S := 0);
Q(D := 2 - K, S := 1);
K := K + 1;
N := N + 1;
END_PROGRAM
"""


@MODES
def test_a_trap_in_the_middle_of_a_fused_list_leaves_exact_counts(checked, monkeypatch):
    # P traps at its third statement in scan 1; Q traps inside its IF's
    # body in scan 2, so the IF head is counted and the three after it not
    prog = program_as(checked, MID3_SRC, monkeypatch)
    result = run_program(prog, "MAIN", 4, SimClock(), quarantine={"P", "Q"})
    assert summary(result) == (
        {"MAIN": [4, 2, 3, 4, 4], "MID3": [5, 5, 3, 4, 3, 3]},
        [16, 14, 7, 3],
        [
            ("P", 1, "division by zero (MID3#3) in MAIN.P at cycle 1"),
            ("Q", 2, "division by zero (MID3#2) in MAIN.Q at cycle 2"),
        ],
    )
    nested = result.instance.nested
    assert [nested["P"].store[v] for v in "ABCE"] == [2, 100, 1, 1]
    assert [nested["Q"].store[v] for v in "ABCE"] == [3, 100, 2, 2]
    with pytest.raises(RuntimeFault) as err:
        run_program(prog, "MAIN", 4, SimClock())
    assert err.value.describe() == "division by zero (MID3#3) in MAIN.P at cycle 1"
    assert modes_run(prog) == {not checked}


DONE_SRC = """
FUNCTION_BLOCK CASE1
VAR_OUTPUT DONE : BOOL; N : DINT; M : DINT; END_VAR
IF DONE THEN
    RETURN;
END_IF;
N := N + 1;
IF N >= 2 THEN
    DONE := TRUE;
    RETURN;
END_IF;
M := M + 1;
END_FUNCTION_BLOCK
PROGRAM MAIN
VAR C : CASE1; K : DINT; END_VAR
C();
IF K >= 3 THEN
    RETURN;
END_IF;
K := K + 1;
K := K + 1;
END_PROGRAM
"""


@MODES
def test_return_from_an_if_body_skips_the_later_heads_of_its_list(checked, monkeypatch):
    # a harness case's `IF DONE THEN RETURN`, and the program's own RETURN
    prog = program_as(checked, DONE_SRC, monkeypatch)
    result = run_program(prog, "MAIN", 5, SimClock())
    assert summary(result) == (
        {"MAIN": [5, 5, 3, 2, 2], "CASE1": [5, 3, 2, 2, 1, 1, 1]},
        [8, 9, 5, 5, 5],
        [],
    )
    assert result.instance.store["K"] == 4
    assert dict(result.instance.nested["C"].store) == {"DONE": True, "N": 2, "M": 1}
    assert modes_run(prog) == {not checked}


REFUND_SRC = """
FUNCTION_BLOCK STEP
VAR_INPUT D : DINT; END_VAR
VAR_OUTPUT X : DINT; END_VAR
X := X + 1;
X := X + 1;
X := X + 1;
X := X + 1;
X := X / D;
X := X + 1;
X := X + 1;
X := X + 1;
X := X + 1;
X := X + 1;
END_FUNCTION_BLOCK
PROGRAM MAIN
VAR A : STEP; B : STEP; K : DINT; END_VAR
A(D := K);
B(D := 1);
K := K + 1;
END_PROGRAM
"""


@pytest.mark.parametrize("budget", [None, 23, 16], ids=["bounded", "checked", "checked-refunded"])
def test_a_contained_fault_keeps_its_scan_total_and_refund(budget, monkeypatch):
    # A faults at its fifth statement in scan 0.  With a budget of 16 the
    # scan finishes only because A's call and five sites are given back
    prog = prog_of(REFUND_SRC)
    assert interp._bound(prog, "MAIN") == (23, 1)
    if budget is not None:
        monkeypatch.setattr(interp, "_SCAN_SITE_BUDGET", budget)
    per_scan = []
    result = run_program(prog, "MAIN", 2, SimClock(), fault_log(per_scan), quarantine={"A", "B"})
    assert per_scan == [[("A", 0, 4)], []]
    assert summary(result) == (
        {"MAIN": [1, 2, 2], "STEP": [3] * 5 + [2] * 5},
        [18, 12],
        [("A", 0, "division by zero (STEP#4) in MAIN.A at cycle 0")],
    )
    assert (result.instance.nested["A"].store["X"], result.instance.nested["B"].store["X"]) == (4, 18)
    assert modes_run(prog) == {budget is None}


ELSIF_SRC = """
FUNCTION_BLOCK SEL
VAR_INPUT X : DINT; D : DINT; END_VAR
VAR_OUTPUT A : DINT; Y : DINT; C : DINT; END_VAR
A := A + 1;
IF X = 0 THEN
    Y := 0;
ELSIF X = 1 THEN
    Y := 10;
ELSIF 10 / D = X THEN
    Y := 20;
ELSE
    Y := -1;
END_IF;
C := C + 1;
END_FUNCTION_BLOCK
PROGRAM MAIN
VAR S : SEL; K : DINT; END_VAR
S(X := K, D := 3 - K);
K := K + 1;
END_PROGRAM
"""


@MODES
def test_an_elsif_condition_in_a_fused_list_counts_and_faults_on_its_own(checked, monkeypatch):
    # scans 0-2 take the first branch, the second, then the ELSE; scan 3
    # faults in the second ELSIF's condition, after the IF's head
    prog = program_as(checked, ELSIF_SRC, monkeypatch)
    result = run_program(prog, "MAIN", 5, SimClock(), quarantine={"S"})
    assert summary(result) == (
        {"MAIN": [4, 5], "SEL": [4, 4, 1, 3, 1, 2, 0, 1, 3]},
        [6, 7, 8, 6, 1],
        [("S", 3, "division by zero (SEL#5) in MAIN.S at cycle 3")],
    )
    assert [result.instance.nested["S"].store[v] for v in "AYC"] == [4, -1, 3]
    assert modes_run(prog) == {not checked}


CLAMP_SRC = """
FUNCTION CLAMP : DINT
VAR_INPUT X : DINT; END_VAR
CLAMP := X;
IF X > 10 THEN
    CLAMP := 10;
    RETURN;
END_IF;
IF X < 0 THEN
    CLAMP := 0;
    RETURN;
END_IF;
CLAMP := CLAMP * 2;
END_FUNCTION
FUNCTION_BLOCK USER
VAR_INPUT X : DINT; END_VAR
VAR_OUTPUT Y : DINT; Z : DINT; END_VAR
Y := CLAMP(X);
Z := CLAMP(X - 20) + CLAMP(X + 20);
END_FUNCTION_BLOCK
PROGRAM MAIN
VAR U : USER; K : DINT; END_VAR
U(X := K * 7 - 3);
K := K + 1;
END_PROGRAM
"""


@MODES
def test_return_inside_a_user_function_skips_its_later_heads(checked, monkeypatch):
    prog = program_as(checked, CLAMP_SRC, monkeypatch)
    result = run_program(prog, "MAIN", 4, SimClock())
    assert summary(result) == (
        {"MAIN": [4, 4], "USER": [4, 4], "CLAMP": [12, 12, 6, 6, 6, 5, 5, 1]},
        [18, 17, 17, 17],
        [],
    )
    assert [result.instance.nested["U"].store[v] for v in "XYZ"] == [18, 10, 10]
    assert modes_run(prog) == {not checked}


LOOPS_SRC = """
FUNCTION_BLOCK LOOPY
VAR_OUTPUT A : DINT; B : DINT; C : DINT; I : DINT; END_VAR
WHILE TRUE DO
    A := A + 1;
    IF A > 1000000 THEN
        RETURN;
    END_IF;
    B := B + 1;
    C := C + 1;
END_WHILE;
END_FUNCTION_BLOCK
FUNCTION_BLOCK FORLOOP
VAR_OUTPUT A : DINT; B : DINT; I : DINT; END_VAR
FOR I := 1 TO 1000000 DO
    A := A + 1;
    IF A > 1000000 THEN
        EXIT;
    END_IF;
    B := B + 1;
END_FOR;
END_FUNCTION_BLOCK
PROGRAM MAIN
VAR L : LOOPY; F : FORLOOP; N : DINT; END_VAR
L();
F();
N := N + 1;
END_PROGRAM
"""


@pytest.mark.parametrize(
    "budget,sids,loopy,forloop,total",
    [
        (50, (4, 10), [10, 10, 10, 0, 10, 9], [1, 12, 12, 0, 12], 89),
        (51, (5, 7), [10, 10, 10, 0, 10, 10], [1, 13, 12, 0, 12], 91),
        (52, (0, 8), [11, 10, 10, 0, 10, 10], [1, 13, 13, 0, 12], 93),
        (53, (1, 10), [11, 11, 10, 0, 10, 10], [1, 13, 13, 0, 13], 95),
        (54, (2, 10), [11, 11, 11, 0, 10, 10], [1, 13, 13, 0, 13], 96),
    ],
)
def test_a_checked_budget_fault_in_a_fused_loop_body_lands_on_its_site(budget, sids, loopy, forloop, total, monkeypatch):
    # each budget runs out on another site of the WHILE's fused body (the
    # loop condition, A, the IF, B, C) and of the FOR's, where a budget
    # fault in the loop's own step lands on the last site its body ran
    monkeypatch.setattr(interp, "_SCAN_SITE_BUDGET", budget)
    result = run_program(prog_of(LOOPS_SRC), "MAIN", 2, SimClock(), quarantine={"L", "F"})
    assert [(f.instance, f.fault.message, f.fault.sid) for f in result.faults] == [
        ("L", interp._BUDGET_MSG, sids[0]), ("F", interp._BUDGET_MSG, sids[1]),
    ]
    assert result.counts == {"MAIN": [1, 1, 2], "LOOPY": loopy, "FORLOOP": forloop}
    assert [len(t) for t in result.traces] == [total, 1]


LEAD_SRC = """
FUNCTION_BLOCK LEAD
VAR_INPUT N : DINT; END_VAR
VAR_OUTPUT I : DINT; X : DINT; Y : DINT; END_VAR
WHILE I < N DO
    I := I + 1;
    IF I > 5 THEN
        RETURN;
    END_IF;
END_WHILE;
X := X + 1;
Y := Y + 1;
END_FUNCTION_BLOCK
PROGRAM MAIN
VAR L : LEAD; K : DINT; END_VAR
L(N := K * 3);
K := K + 1;
END_PROGRAM
"""


@pytest.mark.parametrize(
    "budget,counts,totals,sid",
    [
        (None, [9, 7, 7, 2, 2, 2], [5, 14, 12, 6], None),
        (11, [5, 3, 3, 0, 1, 1], [5, 12, 1, 1], 0),
        (12, [5, 3, 3, 0, 2, 1], [5, 13, 1, 1], 4),
        (13, [5, 3, 3, 0, 2, 2], [5, 14, 1, 1], 5),
    ],
)
def test_a_raise_out_of_a_leading_while_skips_the_whole_fused_rest(budget, counts, totals, sid, monkeypatch):
    # X and Y, after a WHILE that has no head, fuse; RETURN in the WHILE's
    # body (scans 2 and 3) and a budget fault in its condition skip both,
    # while a budget fault at X or Y lands on that statement
    if budget is not None:
        monkeypatch.setattr(interp, "_SCAN_SITE_BUDGET", budget)
    result = run_program(prog_of(LEAD_SRC), "MAIN", 4, SimClock(), quarantine={"L"})
    assert result.counts == {"MAIN": [4 if sid is None else 2, 4], "LEAD": counts}
    assert [len(t) for t in result.traces] == totals
    assert [(f.cycle, f.fault.message, f.fault.sid) for f in result.faults] == (
        [] if sid is None else [(1, interp._BUDGET_MSG, sid)]
    )


RETURNS_SRC = (
    "FUNCTION LONGF : DINT\nVAR_INPUT X : DINT; END_VAR\n" + "LONGF := LONGF + 1;\n" * 34
    + "IF X > 0 THEN\n    RETURN;\nEND_IF;\n" + "LONGF := LONGF + 2;\n" * 5 + "END_FUNCTION\n"
    + """
FUNCTION_BLOCK RETB
VAR_INPUT X : DINT; END_VAR
VAR_OUTPUT A : DINT; B : DINT; C : DINT; END_VAR
A := A + 1;
IF X = 1 THEN
    RETURN;
ELSIF X = 2 THEN
    B := B + 1;
ELSE
    C := C + 1;
END_IF;
IF X = 0 THEN
    B := B + 10;
ELSE
    RETURN;
END_IF;
RETURN;
C := C + 100;
END_FUNCTION_BLOCK
FUNCTION_BLOCK RETL
VAR_INPUT X : DINT; END_VAR
VAR_OUTPUT A : DINT; B : DINT; END_VAR
A := A + 1;
WHILE X = 2 DO
    RETURN;
END_WHILE;
REPEAT
    IF X = 3 THEN
        RETURN;
    END_IF;
UNTIL TRUE
END_REPEAT;
REPEAT
    RETURN;
UNTIL TRUE
END_REPEAT;
B := B + 1;
END_FUNCTION_BLOCK
PROGRAM MAIN
VAR R : RETB; Y : DINT; K : DINT; END_VAR
R(X := K MOD 4);
Y := Y + LONGF(K MOD 2);
K := K + 1;
END_PROGRAM
PROGRAM LOOPS
VAR R : RETL; K : DINT; END_VAR
R(X := K MOD 4);
K := K + 1;
END_PROGRAM
"""
)


@pytest.mark.parametrize(
    "name,checked,counts,totals,outputs",
    [
        (
            name, checked,
            {"MAIN": [8, 8, 8], "RETB": [8, 8, 2, 6, 2, 4, 6, 2, 4, 2, 0], "LONGF": [8] * 35 + [4] * 6},
            [50, 42, 49, 45] * 2,
            {"A": 8, "B": 22, "C": 4},
        )
        for name, checked in (("MAIN", False), ("MAIN", True))
    ] + [
        ("LOOPS", True, {"LOOPS": [8, 8], "RETL": [8, 8, 2, 6, 2, 4, 4, 0, 0]}, [7, 7, 5, 6] * 2, {"A": 8, "B": 0}),
    ],
    ids=["bounded", "checked", "loops"],
)
def test_return_in_a_body_s_own_list_returns_without_a_raise(name, checked, counts, totals, outputs, monkeypatch):
    # a RETURN in a POU body's own list, a lone RETURN as the THEN, ELSE or
    # loop body of a statement in it, one in a nested list (REPEAT's IF)
    # and one in a list run in chunks (LONGF's 35th statement) all leave by
    # returning a signal
    shapes = []
    real = interp._factory

    def recording(shape):
        shapes.append(shape)
        return real(shape)

    monkeypatch.setattr(interp, "_factory", recording)
    prog = prog_of(RETURNS_SRC)
    if checked and name == "MAIN":
        monkeypatch.setattr(interp, "_SCAN_SITE_BUDGET", interp._bound(prog, name)[0])
    result = run_program(prog, name, 8, SimClock())
    assert modes_run(prog) == {name == "MAIN" and not checked}
    assert summary(result) == (counts, totals, [])
    assert {v: result.instance.nested["R"].store[v] for v in outputs} == outputs
    # generated code raises only faults; a bare raise passes on a
    # RuntimeFault from an FB call
    lines = [line.strip() for text in map(interp._source, set(shapes)) for line in text.splitlines()]
    assert {line.split("(")[0] for line in lines if "raise" in line} <= {"raise _fault", "raise _Trap", "raise"}


SIGNALS_SRC = """
FUNCTION FIND : DINT
VAR_INPUT X : DINT; END_VAR
VAR I : DINT; END_VAR
FIND := -1;
FOR I := 1 TO 10 DO
    IF I * I >= X THEN
        FIND := I;
        RETURN;
    END_IF;
    IF I = X - 20 THEN
        RETURN;
    END_IF;
    FIND := FIND - 1;
END_FOR;
FIND := FIND * 100;
END_FUNCTION
FUNCTION HALVE : DINT
VAR_INPUT X : DINT; END_VAR
VAR R : DINT; END_VAR
HALVE := 0;
R := X;
WHILE R > 1 DO
    R := R / 2;
    HALVE := HALVE + 1;
    IF HALVE >= 3 THEN
        EXIT;
    END_IF;
END_WHILE;
HALVE := HALVE + 10;
END_FUNCTION
FUNCTION_BLOCK TICKER
VAR_OUTPUT N : DINT; END_VAR
N := N + 1;
END_FUNCTION_BLOCK
PROGRAM LOOPS
VAR K : DINT; Y : DINT; Z : DINT; END_VAR
Y := Y + FIND(K * 7);
Z := Z + HALVE(K * 5);
K := K + 1;
END_PROGRAM
PROGRAM MAIN
VAR A : TICKER; B : TICKER; K : DINT; Y : DINT; Z : DINT; END_VAR
A();
K := K + 1;
IF K > 1 THEN
    IF K MOD 2 = 0 THEN
        Y := Y + 1;
        RETURN;
    END_IF;
    Y := Y + 10;
END_IF;
B();
Z := Z + 1;
END_PROGRAM
PROGRAM LONGP
VAR_OUTPUT N : DINT; M : DINT; K : DINT; END_VAR
VAR A : TICKER; B : TICKER; END_VAR
A();
K := K + 1;
""" + "N := N + 1;\n" * 34 + """IF K MOD 2 = 1 THEN
    RETURN;
END_IF;
N := N + 100;
B();
M := M + B.N;
END_PROGRAM
"""


# the expected values of the three tests below were recorded with EXIT and
# RETURN raised as exceptions


def test_return_in_a_function_s_for_body_and_exit_in_its_while():
    prog = prog_of(SIGNALS_SRC)
    result = run_program(prog, "LOOPS", 6, SimClock())
    assert summary(result) == (
        {
            "LOOPS": [6, 6, 6],
            "FIND": [6, 6, 21, 5, 5, 16, 1, 15, 0],
            "HALVE": [6, 6, 16, 14, 14, 14, 4, 6],
        },
        [12, 26, 33, 24, 39, 39],
        [],
    )
    assert [result.instance.store[v] for v in "KYZ"] == [6, 19, 74]
    assert modes_run(prog) == {False}


@MODES
def test_a_program_return_in_a_nested_if_skips_the_calls_after_it(checked, monkeypatch):
    prog = program_as(checked, SIGNALS_SRC, monkeypatch)
    result = run_program(prog, "MAIN", 5, SimClock(), quarantine={"A", "B"})
    assert summary(result) == ({"MAIN": [5, 5, 5, 4, 2, 2, 2, 3, 3], "TICKER": [8]}, [7, 7, 9, 7, 9], [])
    assert [result.instance.store[v] for v in "KYZ"] == [5, 22, 3]
    assert [result.instance.nested[fb].store["N"] for fb in "AB"] == [5, 3]
    assert modes_run(prog) == {not checked}


def test_a_program_return_in_a_list_run_in_chunks_through_execute_cycle():
    # LONGP's body runs as one function calling its entries, and the 37
    # statements between its two calls run as two chunks
    inst = instantiate(prog_of(SIGNALS_SRC), "LONGP")
    head = [1] * 37
    expected = [
        ({"N": 34, "M": 0, "K": 1}, {"LONGP": head + [1, 0, 0, 0], "TICKER": [1]}),
        ({"N": 168, "M": 1, "K": 2}, {"LONGP": head + [0, 1, 1, 1], "TICKER": [2]}),
        ({"N": 202, "M": 1, "K": 3}, {"LONGP": head + [1, 0, 0, 0], "TICKER": [1]}),
    ]
    for outputs, counts in expected:
        out, cnt = execute_cycle(inst, {}, SimClock())
        assert ({k: v.v for k, v in out.items()}, cnt) == (outputs, counts)


CHAIN_SRC = """
FUNCTION G3 : DINT
VAR_INPUT X : DINT; END_VAR
G3 := X + 1;
IF X > 5 THEN
    G3 := G3 * 2;
END_IF;
END_FUNCTION
FUNCTION G2 : DINT
VAR_INPUT X : DINT; END_VAR
G2 := G3(X) + G3(X + 1);
G2 := G2 - 1;
END_FUNCTION
FUNCTION G1 : DINT
VAR_INPUT X : DINT; END_VAR
G1 := G2(X);
IF G1 > 20 THEN
    RETURN;
END_IF;
G1 := G1 + G2(G1);
END_FUNCTION
FUNCTION_BLOCK CALLER
VAR_INPUT X : DINT; END_VAR
VAR_OUTPUT Y : DINT; Z : DINT; END_VAR
Y := G1(X);
Z := G2(Y) + G3(X);
END_FUNCTION_BLOCK
PROGRAM MAIN
VAR C : CALLER; K : DINT; END_VAR
C(X := K);
K := K + 2;
END_PROGRAM
"""


def test_a_bounded_chain_of_user_functions_counts_no_call_depth(monkeypatch):
    shapes = []
    real = interp._factory

    def recording(shape):
        shapes.append(shape)
        return real(shape)

    monkeypatch.setattr(interp, "_factory", recording)
    results = {}
    for checked in (False, True):
        prog = program_as(checked, CHAIN_SRC, monkeypatch)
        result = run_program(prog, "MAIN", 5, SimClock())
        assert modes_run(prog) == {not checked}
        results[checked] = (summary(result), dict(result.instance.nested["C"].store))
    assert results[False] == results[True] == (
        (
            {"MAIN": [5, 5], "CALLER": [5, 5], "G1": [5, 5, 2, 3], "G2": [13, 13], "G3": [31, 31, 20]},
            [29, 31, 31, 26, 26],
            [],
        ),
        {"X": 8, "Y": 37, "Z": 171},
    )
    sources = {bounded: [interp._source(s) for s in shapes if s[1] is bounded] for bounded in (True, False)}
    assert any("_call(" in text for text in sources[True])
    assert not [text for text in sources[True] if "depth" in text or "_frame(" in text]
    assert any("_frame(" in text for text in sources[False])


@pytest.mark.parametrize("margin", range(15, 45, 4))
def test_a_bounded_function_call_near_the_stack_limit_is_contained(margin):
    # with the Python stack nearly full, a call either runs or faults at a
    # site, with exact counts: it never escapes as a RecursionError.  The
    # first run compiles every body, so that the second only runs them
    prog = prog_of(CHAIN_SRC)
    full = run_program(prog, "MAIN", 2, SimClock(), quarantine={"C"})
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + margin)
    try:
        result = run_program(prog, "MAIN", 2, SimClock(), quarantine={"C"})
    finally:
        sys.setrecursionlimit(limit)
    assert modes_run(prog) == {True}
    if not result.faults:
        assert result.counts == full.counts
    else:
        # the faulting site is counted once, and MAIN runs on without C
        (contained,) = result.faults
        assert contained.fault.message == interp._STACK_MSG
        pou = prog.lookup_pou(contained.fault.pou)
        slot = [node.sid for node in pou.sites].index(contained.fault.sid)
        assert result.counts[pou.name][slot] == 1
        assert result.counts["MAIN"] == [1, 2]
        for name, cnt in result.counts.items():
            assert all(c <= full_c for c, full_c in zip(cnt, full.counts[name]))


def test_bounded_and_checked_code_count_every_corpus_harness_alike(monkeypatch, tmp_path):
    runs = []
    real = runner.run_program

    def recording(prog, name, cycles, clock, after_scan=None, quarantine=frozenset(), finished=frozenset()):
        result = real(prog, name, cycles, clock, after_scan, quarantine, finished)
        runs.append((prog, name, clock.cycle_time, quarantine, result))
        return result

    monkeypatch.setattr(runner, "run_program", recording)
    for block in corpus.BLOCKS:
        argv = [
            "pipeline", "--unit", corpus.block_path(block.name), "--provider", "mock",
            "--fixture", corpus.fixture_path(block.name), "--out", tmp_path / block.name, "--fixed-clock",
        ]
        assert main([str(a) for a in argv]) in (0, 1)
    # every corpus harness but DEC_TO_HEX's, which loops, runs bounded
    bounded = [run for run in runs if interp._bounded(run[0], run[1])]
    assert len(runs) == len(corpus.BLOCKS) and len(bounded) == len(runs) - 1
    for prog, name, cycle_time, quarantine, result in bounded:
        monkeypatch.setattr(interp, "_SCAN_SITE_BUDGET", interp._bound(prog, name)[0])
        checked = real(prog, name, result.cycles_executed, SimClock(cycle_time=cycle_time), quarantine=quarantine)
        assert (name, False) in prog.runtime_cache.pous
        assert summary(checked) == summary(result)
        assert sum(sum(c) for c in checked.counts.values()) > 0


def test_bounded_and_checked_code_count_the_40_level_nested_body_alike(monkeypatch):
    # the loop-free statement kinds of the 40-level body, each nested one
    # between statements of its own, so that every list is fused
    body = "Y := X;"
    kinds = [
        "IF X = 0 THEN\nY := Y + 1;\n{}\nY := Y * 2;\nELSIF X = 1 THEN\nY := 1;\nELSE\nY := Y - 1;\nEND_IF;",
        "CASE X OF\n0: Y := Y + 2;\n{}\nY := Y - 3;\nELSE\nY := 2;\nEND_CASE;",
    ]
    for level in range(40):
        body = kinds[level % len(kinds)].replace("{}", body)
    src = (
        "FUNCTION_BLOCK NESTED\nVAR_INPUT X : INT; END_VAR\nVAR_OUTPUT Y : INT; END_VAR\n"
        f"{body}\nEND_FUNCTION_BLOCK\n"
        "PROGRAM MAIN\nVAR N : NESTED; K : INT; END_VAR\nN(X := K);\nK := K + 1;\nEND_PROGRAM\n"
    )
    results = []
    for checked in (False, True):
        prog = program_as(checked, src, monkeypatch)
        result = run_program(prog, "MAIN", 3, SimClock())
        assert modes_run(prog) == {not checked}
        results.append((summary(result), result.instance.nested["N"].store["Y"]))
    assert results[0] == results[1]
    counts = results[0][0][0]["NESTED"]
    assert len(counts) > 150 and max(counts) == 3 and counts.count(1) > 100
