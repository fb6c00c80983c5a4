"""Differential testing: the interpreter against the independent oracle.

For every corpus block with an enumerable input grid, all configurations
are run scan by scan against the brute-force AST re-simulation; outputs and
per-scan statement hits must agree exactly (REAL values bit-exactly, since
both sides round to binary32 independently).
"""

import math
from collections import Counter

import pytest

from stbench.frontend import parse_text, resolve
from stbench.frontend import types as T
from stbench.runtime import SimClock, execute_cycle, instantiate, interp
from stbench.runtime import values as V

from oracle_sim import OracleSim
from test_values import TO_STRING_SAMPLES

CYCLE_MS = 10

BOOLS = (False, True)


def b(v):
    return ("BOOL", v)


def i(v):
    return ("INT", v)


def d(v):
    return ("DINT", v)


def r(v):
    return ("REAL", v)


def t(v):
    return ("TIME", v)


_TY = {"BOOL": T.BOOL, "INT": T.INT, "DINT": T.DINT, "REAL": T.REAL, "TIME": T.TIME}

# block -> (scans, list of input configurations), each config <= 12 per block
CONFIGS = {
    "DEC_TO_HEX": (
        3,
        [{"DE": i(v)} for v in (0, 9, 255, 4096, 32767, -1, -32768, 21845)],
    ),
    "LOGIC_MUX": (
        3,
        [
            {"A": b(a), "B": b(bb), "PICKB": b(p)}
            for a in BOOLS
            for bb in BOOLS
            for p in BOOLS
        ],
    ),
    "COUNT_ACC": (
        4,
        [
            {"X": d(x), "EN": b(en), "RST": b(rst)}
            for x in (7, -3, 60)
            for en in BOOLS
            for rst in BOOLS
        ],
    ),
    "PI_CTRL": (
        4,
        [
            {"EN": b(en), "SP": r(sp), "PV": r(pv)}
            for en in BOOLS
            for sp, pv in ((10.0, 0.0), (0.0, 10.0), (2000.0, -2000.0), (-2000.0, 2000.0), (1.5, 0.5), (0.0, 0.0))
        ],
    ),
    "EDGE_COUNT": (
        4,
        [
            {"CLK": b(clk), "RST": b(rst), "LIMITN": i(lim)}
            for clk in BOOLS
            for rst in BOOLS
            for lim in (1, 2)
        ],
    ),
    "DELAY_GATE": (
        12,
        [
            {"IN": b(in_v), "PT": t(pt)}
            for in_v in BOOLS
            for pt in (0, 15, 30, 200, 400)
        ],
    ),
    "GEN_SIN": (
        15,
        [
            {"PT": t(pt), "AM": r(am)}
            for pt in (0, 40, 100, 1000)
            for am in (1.0, 2.5)
        ],
    ),
    "TRAFFIC_CTRL": (
        120,
        [{"B1": b(b1), "B2": b(b2)} for b1 in BOOLS for b2 in BOOLS],
    ),
}


def typed_inputs(config):
    return {name: V.make(_TY[ty], raw) for name, (ty, raw) in config.items()}


def plain_inputs(config):
    return {name: raw for name, (ty, raw) in config.items()}


def assert_matches_oracle(prog, block, scans, configs):
    """Each configuration, scan by scan: the interpreter's outputs and
    per-site counts equal the oracle's."""
    assert len(configs) <= 12
    for config in configs:
        inst = instantiate(prog, block)
        oracle = OracleSim(prog, block)
        clock = SimClock(cycle_time=CYCLE_MS)
        prev_hits = Counter()
        for scan in range(scans):
            now = clock.now
            out, counts = execute_cycle(inst, typed_inputs(config), clock)
            oracle_out = oracle.scan(plain_inputs(config), now)
            got = {k: v.v for k, v in out.items()}
            assert got == oracle_out, (
                f"{block} {config} scan {scan}: interpreter {got} oracle {oracle_out}"
            )
            # per-scan statement hits agree (count soundness + coverage);
            # slot i of a POU's counts is its i-th site
            hits = Counter(
                {
                    (pou, node.sid): n
                    for pou, cnt in counts.items()
                    for node, n in zip(prog.lookup_pou(pou).sites, cnt, strict=True)
                }
            )
            oracle_hits = oracle.coverage()
            delta = oracle_hits - prev_hits
            prev_hits = oracle_hits
            assert hits == delta, f"{block} {config} scan {scan}: hit mismatch"


@pytest.mark.parametrize("block", sorted(CONFIGS))
def test_interpreter_matches_oracle_exhaustively(block, corpus_programs):
    assert_matches_oracle(corpus_programs[block], block, *CONFIGS[block])


# corpus blocks hold no EXIT or RETURN: two hand-written blocks do, one
# with loops (checked code) and one without (bounded code), whose 40
# statements run in chunks
JUMPS_LOOPED = """
FUNCTION_BLOCK JUMPS_LOOPED
VAR_INPUT N : INT; M : INT; END_VAR
VAR_OUTPUT A : INT; B : INT; C : INT; D : INT; E : INT; END_VAR
VAR I : INT; J : INT; END_VAR
FOR I := 1 TO 10 DO
    A := A + I;
    IF I >= N THEN
        EXIT;
    END_IF;
END_FOR;
I := 0;
WHILE I < 10 DO
    I := I + 1;
    IF I * M > 12 THEN
        EXIT;
    END_IF;
    B := B + 1;
END_WHILE;
REPEAT
    C := C + 1;
    IF C MOD 4 = N THEN
        EXIT;
    END_IF;
UNTIL C >= 20
END_REPEAT;
FOR I := 1 TO 3 DO
    FOR J := 1 TO 5 DO
        IF J > M THEN
            EXIT;
        END_IF;
        D := D + 1;
    END_FOR;
    D := D + 10;
END_FOR;
IF N = 1 THEN
    WHILE M = 5 DO
        E := E + 1000;
        RETURN;
    END_WHILE;
    E := E + 1000;
END_IF;
IF N > 2 THEN
    IF M = 3 THEN
        E := E + 1;
        RETURN;
    END_IF;
    E := E + 10;
END_IF;
CASE N OF
    1: E := E + 2;
    4: E := E + 3;
       RETURN;
END_CASE;
E := E + 100;
END_FUNCTION_BLOCK
"""

JUMPS_FLAT = (
    """
FUNCTION_BLOCK JUMPS_FLAT
VAR_INPUT N : INT; M : INT; END_VAR
VAR_OUTPUT A : INT; B : INT; C : INT; END_VAR
CASE N OF
    1: B := B + 1;
       RETURN;
    2: B := B + 2;
END_CASE;
IF M > 1 THEN
    IF N = 3 THEN
        B := B + 3;
        RETURN;
    END_IF;
    B := B + 4;
END_IF;
""" + "A := A + 1;\n" * 31 + """IF M = 3 THEN
    RETURN;
END_IF;
RETURN;
""" + "C := C + 1;\n" * 5 + "END_FUNCTION_BLOCK\n"
)


@pytest.mark.parametrize("src,bounded", [(JUMPS_LOOPED, False), (JUMPS_FLAT, True)], ids=["looped", "flat"])
def test_exit_and_return_match_the_oracle(src, bounded):
    prog = resolve(parse_text(src))
    (block,) = prog.pous
    if bounded:  # statement 35 is a RETURN, in the second chunk
        assert len(prog.lookup_pou(block).decl.body) == 40
    assert interp._bounded(prog, block) is bounded
    configs = [{"N": i(n), "M": i(m)} for n in (1, 2, 3, 4) for m in (1, 3, 5)]
    assert_matches_oracle(prog, block, 3, configs)


def test_config_grid_counts():
    # the acceptance criterion needs at least five blocks, each <= 12 configs
    assert len(CONFIGS) >= 5
    for block, (_scans, configs) in CONFIGS.items():
        assert 1 <= len(configs) <= 12, block
        # configurations are distinct
        keys = [tuple(sorted((k, v) for k, v in c.items())) for c in configs]
        assert len(set(keys)) == len(keys), block


# test_values checks that the samples cover every X_TO_STRING conversion
@pytest.mark.parametrize("kind", sorted(TO_STRING_SAMPLES))
def test_to_string_conversions_match_the_oracle(kind):
    prog = resolve(parse_text(
        f"FUNCTION_BLOCK SPELL\nVAR_INPUT X : {kind}; END_VAR\nVAR_OUTPUT S : STRING; END_VAR\n"
        f"S := {kind}_TO_STRING(X);\nEND_FUNCTION_BLOCK\n"
    ))
    for raw in TO_STRING_SAMPLES[kind]:
        out, _ = execute_cycle(instantiate(prog, "SPELL"), {"X": V.make(T.SCALARS[kind], raw)}, SimClock())
        assert out["S"].v == OracleSim(prog, "SPELL").scan({"X": raw}, 0)["S"]


POWER_SRC = """
FUNCTION_BLOCK POWER
VAR_INPUT X : {ty}; Y : {ty}; END_VAR
VAR_OUTPUT P : {ty}; END_VAR
P := X ** Y;
END_FUNCTION_BLOCK
"""


# each power overflows a double; only an odd integer power keeps the
# negative base's sign, as repeated multiplication gives it
@pytest.mark.parametrize(
    "ty,x,y,want",
    [
        ("LREAL", -1.0e300, 3.0, -math.inf),
        ("LREAL", -1.0e300, 4.0, math.inf),
        ("LREAL", 1.0e300, 3.0, math.inf),
        ("LREAL", -1.0e-300, -3.0, -math.inf),
        ("LREAL", -1.0e-300, -2.0, math.inf),
        ("REAL", -3.0e38, 9.0, -math.inf),
        ("REAL", -3.0e38, 10.0, math.inf),
    ],
)
def test_overflowing_powers_match_the_oracle(ty, x, y, want):
    prog = resolve(parse_text(POWER_SRC.format(ty=ty)))
    args = {"X": V.make(T.SCALARS[ty], x), "Y": V.make(T.SCALARS[ty], y)}
    out, _ = execute_cycle(instantiate(prog, "POWER"), args, SimClock())
    assert out["P"].v == want
    assert OracleSim(prog, "POWER").scan({"X": x, "Y": y}, 0)["P"] == want


# no corpus block declares VAR_TEMP: each scan starts a TEMP variable at its
# declared initial value, a scalar's and an ARRAY's alike, in bounded code
# and in checked code ({loop} makes it checked)
TEMPS_SRC = """
FUNCTION_BLOCK TEMPS
VAR_INPUT N : INT; END_VAR
VAR_OUTPUT Y : INT; Z : INT; END_VAR
VAR_TEMP T : INT := 5; A : ARRAY[1..3] OF INT := [7, 8, 9]; I : INT; END_VAR
T := T + N;
A[2] := A[2] + N;
{loop}
Y := T;
Z := A[1] * 100 + A[2] * 10 + A[3];
END_FUNCTION_BLOCK
"""


@pytest.mark.parametrize("loop,bounded", [("", True), ("FOR I := 1 TO 2 DO A[3] := A[3] + 1; END_FOR;", False)],
                         ids=["bounded", "checked"])
def test_temporaries_start_each_scan_at_their_initial_values(loop, bounded):
    prog = resolve(parse_text(TEMPS_SRC.format(loop=loop)))
    assert interp._bounded(prog, "TEMPS") is bounded
    configs = [{"N": i(n)} for n in (0, 1, 3)]
    assert_matches_oracle(prog, "TEMPS", 3, configs)
    inst = instantiate(prog, "TEMPS")
    for _ in range(3):
        out, _ = execute_cycle(inst, typed_inputs({"N": i(1)}), SimClock())
        assert (out["Y"].v, out["Z"].v) == (6, 790 + (9 if bounded else 11))
