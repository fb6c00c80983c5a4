"""What the statement generator writes into an expression in place of a
call, and CASE dispatch through a table.

A conversion with a written-out form (`stdfuncs.conversion_form`) becomes
part of the statement's expression, an integer result is wrapped inline
by its kind's range, a REAL result is rounded inline (by Veltkamp's split
in binary32's normal range, by a call of `V.f32` elsewhere), and a CASE
whose labels are dense single values indexes a table of its arms.  Each
must give what the call or the scan gave: the same value and raw type, or
the same fault at the same site, and the same site counts.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stbench.frontend import FrontendError, parse_text, resolve
from stbench.frontend import types as T
from stbench.frontend.builtins import conversion_target
from stbench.runtime import RuntimeFault, SimClock, execute_cycle, instantiate, interp
from stbench.runtime import stdfuncs as F
from stbench.runtime import values as V
from stbench.runtime.stdfuncs import BuiltinFuncError, builtin_impl

import oracle_sim
from oracle_sim import OracleSim
from test_builtins import CONVERSIONS, source_raws
from test_footprint import _generated
from test_oracle_equivalence import assert_matches_oracle

WRITTEN = [name for name in CONVERSIONS if F.conversion_form(name) is not None]

# DINT_TO_REAL is exact up to 2**24: the ends of that range, one past them
# (a tie, which goes to even) and three past them
_AROUND_2_24 = [s * (2**24 + d) for s in (1, -1) for d in (-1, 0, 1, 3)]

CONV_SRC = """
FUNCTION_BLOCK CONV
VAR_INPUT X : {src}; END_VAR
VAR_OUTPUT Y : {dst}; END_VAR
Y := {name}(X);
END_FUNCTION_BLOCK
"""


def _generated_values(prog, name):
    """Every value the generated functions of the POU `name` hold in their
    defaults, through sub-bodies, CASE arms and CASE tables."""
    pou = interp._pou(prog, name, interp._bounded(prog, name))
    seen: set[int] = set()
    return [v for run, _ in pou.code(prog) for fn in _generated(run, seen) for v in fn.__defaults__ or ()]


def _outcome(prog, block, inputs):
    """The outputs' raw types and spellings after one scan, or the fault's
    message, POU, sid and instance path."""
    try:
        out, _ = execute_cycle(instantiate(prog, block), inputs, SimClock())
    except RuntimeFault as fault:
        return ("fault", fault.message, fault.pou, fault.sid, fault.instance_path)
    return {k: (type(v.v), repr(v.v)) for k, v in out.items()}


def test_every_written_out_form_is_used():
    forms = {F.conversion_form(name)[0] for name in WRITTEN}
    assert forms == {F.SAME, F.FLOAT, F.ROUND32, F.RANGE}
    # a BOOL source or target and a float into an integer keep their call
    assert {"BOOL_TO_INT", "INT_TO_BOOL", "REAL_TO_INT", "LREAL_TO_DINT"}.isdisjoint(WRITTEN)


@pytest.mark.parametrize("name", WRITTEN)
def test_a_written_out_conversion_gives_what_its_function_gives(name):
    src, dst = conversion_target(name)
    prog = resolve(parse_text(CONV_SRC.format(src=src, dst=dst, name=name)))
    impl = builtin_impl(name, [src], dst)
    (assign,) = prog.lookup_pou("CONV").decl.body
    raws = source_raws(src) + (_AROUND_2_24 if name == "DINT_TO_REAL" else [])
    for raw in raws:
        try:
            v = impl(raw)
            want = {"Y": (type(v), repr(v))}
        except BuiltinFuncError as exc:
            # the fault is the assignment's, as a fault of the call was
            want = ("fault", str(exc), "CONV", assign.sid, "CONV")
        assert _outcome(prog, "CONV", {"X": V.make(src, raw)}) == want, (name, raw)
    # only a range check holds the conversion's function, to raise its fault
    code = getattr(impl, "__code__", None)
    held = [
        v for v in _generated_values(prog, "CONV")
        if v is impl or code is not None and getattr(v, "__code__", None) is code
    ]
    assert bool(held) is (F.conversion_form(name)[0] == F.RANGE)


NESTED_SRC = """
FUNCTION_BLOCK NESTED
VAR_INPUT P : TIME; Q : TIME; D : DINT; END_VAR
VAR_OUTPUT PH : REAL; N : INT; M : WORD; END_VAR
PH := DINT_TO_REAL(TIME_TO_DINT(P)) / DINT_TO_REAL(TIME_TO_DINT(Q) + 1);
N := DINT_TO_INT(D) + DINT_TO_INT(D / 2);
IF DINT_TO_INT(D * 2) > 0 THEN
    M := BYTE_TO_WORD(INT_TO_BYTE(N));
END_IF;
END_FUNCTION_BLOCK
"""


def test_nested_written_out_conversions_match_the_oracle():
    # conversions inside conversions and beside each other in one
    # expression; the oracle converts by calls of its own
    prog = resolve(parse_text(NESTED_SRC))
    configs = [
        {"P": ("TIME", p), "Q": ("TIME", q), "D": ("DINT", d)}
        for p, q, d in (
            (0, 0, 0), (1500, 4000, 7), (2**24 + 1, 2**24 + 3, 100), (2**31 - 1, 2**30, 170),
            (3, 2**31 - 2, -16384), (2**25 - 1, 1, -5), (77, 99, 1),
        )
    ]
    assert_matches_oracle(prog, "NESTED", 2, configs)


# where in NESTED_SRC's body each fault is: the site of the statement or
# IF condition the conversion is part of
_SITES = {
    "PH": lambda body: body[0],
    "N": lambda body: body[1],
    "IF": lambda body: body[2].branches[0],
    "M": lambda body: body[2].branches[0].body[0],
}


@pytest.mark.parametrize(
    "p,d,message,site",
    [
        (2**31, 0, "TIME_TO_DINT: value 2147483648 out of range", "PH"),
        (-(2**31) - 1, 0, "TIME_TO_DINT: value -2147483649 out of range", "PH"),
        (1, 40000, "DINT_TO_INT: value 40000 out of range", "N"),
        (1, -70000, "DINT_TO_INT: value -70000 out of range", "N"),
        (1, 20000, "DINT_TO_INT: value 40000 out of range", "IF"),
        (1, 300, "INT_TO_BYTE: value 450 out of range", "M"),
    ],
)
def test_a_written_out_range_fault_is_its_statements(p, d, message, site):
    # a range check out of range raises its function's fault, at the site
    # of the statement or condition it is part of
    prog = resolve(parse_text(NESTED_SRC))
    got = _outcome(prog, "NESTED", {"P": V.make(T.TIME, p), "Q": V.make(T.TIME, 1), "D": V.make(T.DINT, d)})
    node = _SITES[site](prog.lookup_pou("NESTED").decl.body)
    assert got == ("fault", message, "NESTED", node.sid, "NESTED")


# ---------------------------------------------------------------------------
# binary32 rounding at the overflow bound
# ---------------------------------------------------------------------------

BOUND = V.F32_OVERFLOW
BELOW, ABOVE = math.nextafter(BOUND, 0.0), math.nextafter(BOUND, math.inf)


def _oracle_f32(x):
    with np.errstate(over="ignore"):
        return oracle_sim._f32(x)


def _binary32(x):
    assert struct.unpack("<f", struct.pack("<f", x))[0] == x
    return x


def test_the_bound_is_where_round_to_nearest_overflows():
    assert BOUND == 2.0**128 - 2.0**103
    assert _oracle_f32(BELOW) == V.F32_MAX and _oracle_f32(BOUND) == math.inf
    assert struct.unpack("<f", struct.pack("<f", BELOW))[0] == V.F32_MAX
    with pytest.raises(OverflowError):
        struct.pack("<f", BOUND)


@pytest.mark.parametrize("x", [V.F32_MAX, V.F32_MAX * (1 + 2**-25), BELOW, BOUND, ABOVE, 1e39])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_f32_rounds_like_the_oracle_at_the_overflow_bound(x, sign):
    assert V.f32(sign * x) == _oracle_f32(sign * x)


REAL_OP_SRC = """
FUNCTION_BLOCK REALOP
VAR_INPUT A : REAL; B : REAL; END_VAR
VAR_OUTPUT P : REAL; Q : REAL; S : REAL; END_VAR
P := A * B;
Q := A / B;
S := A + B;
END_FUNCTION_BLOCK
"""

# binary32 operand pairs whose double product, quotient or sum falls just
# below, at or just above the bound (a quotient of two binary32 values
# never lies between F32_MAX and 2**128, so it is checked either side)
_PAIRS = [
    (_binary32(3.4022358849790708e38), _binary32(1.000172734260559)),  # A * B just below
    (_binary32(31 * 2.0**51), _binary32(1082401 * 2.0**52)),  # A * B at the bound
    (_binary32(3.384013559718862e38), _binary32(1.0055584907531738)),  # A * B just above
    (V.F32_MAX, 1.0),  # A / B = F32_MAX
    (V.F32_MAX, _binary32(1 - 2**-24)),  # A / B above the bound
    (V.F32_MAX, _binary32(2.0**102)),  # A + B just below
    (V.F32_MAX, _binary32(2.0**103)),  # A + B at the bound
    (V.F32_MAX, _binary32(2.0**104)),  # A + B past it
]


@pytest.mark.parametrize("a,b", _PAIRS)
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_generated_real_arithmetic_rounds_like_the_oracle_at_the_bound(a, b, sign):
    prog = resolve(parse_text(REAL_OP_SRC))
    a *= sign
    out, _ = execute_cycle(instantiate(prog, "REALOP"), {"A": V.make(T.REAL, a), "B": V.make(T.REAL, b)}, SimClock())
    want = {"P": _oracle_f32(a * b), "Q": _oracle_f32(a / b), "S": _oracle_f32(a + b)}
    assert {k: v.v for k, v in out.items()} == want
    with np.errstate(over="ignore"):
        assert OracleSim(prog, "REALOP").scan({"A": a, "B": b}, 0) == want


def test_the_pairs_reach_the_bound():
    products = [a * b for a, b in _PAIRS[:3]]
    assert V.F32_MAX < products[0] < BOUND and products[1] == BOUND and products[2] > BOUND
    sums = [a + b for a, b in _PAIRS[5:]]
    assert V.F32_MAX < sums[0] < BOUND and sums[1] == BOUND and sums[2] > BOUND


# ---------------------------------------------------------------------------
# integer wrapping, written out from T.INT_RANGES
# ---------------------------------------------------------------------------

WRAP_SRC = """
FUNCTION_BLOCK WRAPS
VAR_INPUT A : {kind}; B : {kind}; END_VAR
VAR_OUTPUT S : {kind}; D : {kind}; P : {kind}; END_VAR
VAR I : INT; END_VAR
{body}
END_FUNCTION_BLOCK
"""
# the operations whose results `_wrap` writes out, and their raw results:
# a signed kind's arithmetic, and a bit kind's bit operations, of which
# NOT alone leaves the range
WRAP_OPS = {
    True: ("S := A + B; D := A - B; P := A * B;", lambda a, b: {"S": a + b, "D": a - b, "P": a * b}),
    False: ("S := NOT A; D := A AND B; P := A OR B;", lambda a, b: {"S": ~a, "D": a & b, "P": a | b}),
}


@pytest.mark.parametrize("kind", T.INT_RANGES, ids=lambda k: k.name)
def test_a_written_out_wrap_is_wrap_int_past_both_ends(kind):
    lo, hi = T.INT_RANGES[kind]
    wrap = eval(f"lambda x: {interp._wrap(kind, 'x')}")
    for raw in (lo - 1, lo, hi, hi + 1, 7 * hi + 3, lo - 7 * hi):
        assert wrap(raw) == V.wrap_int(raw, kind) == V.make(T.SCALARS[kind.value], raw).v, raw


@pytest.mark.parametrize("kind", T.INT_RANGES, ids=lambda k: k.name)
@pytest.mark.parametrize("bounded", [True, False], ids=["bounded", "checked"])
def test_generated_integer_results_wrap_as_wrap_int(kind, bounded):
    # the raw results reach every end of the range they can and a value
    # far past one; a loop makes the statements checked code
    lo, hi = T.INT_RANGES[kind]
    ty = T.SCALARS[kind.value]
    body, raw = WRAP_OPS[kind in T.SIGNED_INT_KINDS]
    body = body if bounded else f"FOR I := 1 TO 1 DO {body} END_FOR;"
    prog = resolve(parse_text(WRAP_SRC.format(kind=kind.value, body=body)))
    assert interp._bounded(prog, "WRAPS") is bounded
    pairs = [(hi, 1), (hi, 0), (lo, 1), (lo, 0), (hi, hi), (lo, lo)]
    reached = {r for a, b in pairs for r in raw(a, b).values()}
    assert {lo - 1, lo, hi} <= reached and min(reached) < lo - hi
    assert kind not in T.SIGNED_INT_KINDS or hi + 1 in reached and max(reached) > 2 * hi
    for a, b in pairs:
        out, _ = execute_cycle(instantiate(prog, "WRAPS"), {"A": V.make(ty, a), "B": V.make(ty, b)}, SimClock())
        assert {k: v.v for k, v in out.items()} == {k: V.wrap_int(r, kind) for k, r in raw(a, b).items()}, (a, b)


# ---------------------------------------------------------------------------
# binary32 rounding on every path of the written-out text
# ---------------------------------------------------------------------------

ROUNDING_SRC = """
FUNCTION_BLOCK ROUNDS
VAR_INPUT A : REAL; B : REAL; L : LREAL; D : DINT; END_VAR
VAR_OUTPUT S : REAL; M : REAL; P : REAL; Q : REAL; SN : REAL; LR : REAL; DR : REAL; END_VAR
VAR I : INT; END_VAR
{body}
END_FUNCTION_BLOCK
"""
ROUNDING_BODY = """S := A + B;
M := A - B;
P := A * B;
Q := A / B;
SN := SIN(A);
LR := LREAL_TO_REAL(L);
DR := DINT_TO_REAL(D);"""
# the same statements in a loop, which makes them checked code
ROUNDING = {
    "bounded": resolve(parse_text(ROUNDING_SRC.format(body=ROUNDING_BODY))),
    "checked": resolve(parse_text(ROUNDING_SRC.format(body=f"FOR I := 1 TO 1 DO\n{ROUNDING_BODY}\nEND_FOR;"))),
}


def _bits(x):
    """A raw value's type and bits, so that -0.0 differs from 0.0."""
    return type(x).__name__, "nan" if x != x else struct.pack("<d", x).hex()


def _rounds(a, b, ld, d):
    """The interpreter's and the oracle's outputs of ROUNDS, as `_bits`,
    in each mode."""
    got, want = {}, {}
    for mode, prog in ROUNDING.items():
        assert interp._bounded(prog, "ROUNDS") is (mode == "bounded")
        inputs = {"A": V.make(T.REAL, a), "B": V.make(T.REAL, b), "L": V.make(T.LREAL, ld), "D": V.make(T.DINT, d)}
        out, _ = execute_cycle(instantiate(prog, "ROUNDS"), inputs, SimClock())
        got[mode] = {k: _bits(v.v) for k, v in out.items()}
        with np.errstate(over="ignore"):
            oracle = OracleSim(prog, "ROUNDS").scan({"A": a, "B": b, "L": ld, "D": d}, 0)
        want[mode] = {k: _bits(v) for k, v in oracle.items()}
    return got, want


_SIGN = st.sampled_from([1.0, -1.0])
_REAL = st.floats(width=32, allow_nan=False, allow_infinity=False)


def _f32_of(significand: int, exponent: int) -> float:
    return _binary32(math.ldexp(significand, exponent))


# REAL operand pairs, one strategy per path of the rounding text: a normal
# result; a tie (A plus or minus half its ulp, or the product of two odd
# 13-bit significands, an odd 25-bit one); a zero of either sign; a
# subnormal result (products of two values near 2**-70, sums of two
# subnormals); and a result near, at or past the overflow bound
_NORMAL = st.tuples(_REAL, _REAL)
_TIE = st.builds(
    lambda m, e, sa, sb: (sa * _f32_of(m, e - 23), sb * _f32_of(1, e - 24)),
    st.integers(2**23, 2**24 - 1), st.integers(-100, 100), _SIGN, _SIGN,
) | st.builds(
    lambda a, b, i, j: (_f32_of(2 * a + 1, i), _f32_of(2 * b + 1, j)),
    st.integers(2048, 2895), st.integers(2048, 2895), st.integers(-60, 60), st.integers(-60, 60),
)
_ZERO = st.sampled_from([(0.0, 0.0), (-0.0, -0.0), (-0.0, 0.0), (0.0, -0.0)]) | _REAL.flatmap(
    lambda x: st.sampled_from([(x, x), (x, -x), (-0.0, x), (x, 0.0)])
)
_SUBNORMAL = st.builds(
    lambda m, n, sa, sb: (sa * _f32_of(m, -93), sb * _f32_of(n, -93)),
    st.integers(2**23, 2**24 - 1), st.integers(2**23, 2**24 - 1), _SIGN, _SIGN,
) | st.tuples(*[st.floats(width=32, min_value=-(2.0**-126), max_value=2.0**-126)] * 2)
_OVERFLOW = st.tuples(
    st.floats(width=32, min_value=2.0**126, max_value=V.F32_MAX), st.floats(width=32, min_value=0.25, max_value=4.0)
) | st.builds(lambda k, s: (s * V.F32_MAX, s * 2.0**k), st.integers(100, 106), _SIGN)
_OPERANDS = _NORMAL | _TIE | _ZERO | _SUBNORMAL | _OVERFLOW

# LREAL_TO_REAL's arguments, by path likewise: a double in binary32's
# range, a halfway point and its neighbours, a zero, a subnormal, and the
# overflow bound give or take a few ulps and beyond
_LREALS = (
    st.floats(min_value=-1e39, max_value=1e39)
    | st.builds(
        # toward 0, x itself or 2x: the halfway point x or a neighbour
        lambda m, e, d, s: s * math.nextafter(x := math.ldexp(2 * m + 1, e), d * x),
        st.integers(2**23, 2**24 - 1), st.integers(-170, 103), st.sampled_from([0.0, 1.0, 2.0]), _SIGN,
    )
    | st.sampled_from([0.0, -0.0, math.inf, -math.inf])
    | st.floats(min_value=-(2.0**-126), max_value=2.0**-126)
    | st.builds(lambda k, s: s * (V.F32_OVERFLOW + k * 2.0**75), st.integers(-3, 3), _SIGN)
)
# DINT_TO_REAL's: any DINT, 0 and ties (an odd 25-bit number times 2**k)
_DINTS = (
    st.integers(-(2**31), 2**31 - 1)
    | st.just(0)
    | st.builds(lambda m, k, s: s * (2 * m + 1) << k, st.integers(2**23, 2**24 - 1), st.integers(0, 6), st.sampled_from([1, -1]))
)

# one input per path, (A, B, L, D), named by the path of A + B or A * B,
# LREAL_TO_REAL(L) and DINT_TO_REAL(D) that it takes
PATH_EXAMPLES = {
    "normal": (1.5, 0.10000000149011612, 0.1, 123456789),
    "tie": (1.0, 2.0**-24, 1 + 2.0**-24, 2**24 + 1),
    "negative tie": (1 + 2.0**-23, -(2.0**-24), -(1 + 3 * 2.0**-24), -(2**25 + 6)),
    "zero": (0.0, 0.0, 0.0, 0),
    "-0.0": (-0.0, -0.0, -0.0, 0),
    "subnormal": (2.0**-140, 2.0**-146, 2.0**-140 * (1 + 2.0**-30), 1),
    "overflow": (V.F32_MAX, 2.0**103, V.F32_OVERFLOW, 2**31 - 1),
    "past overflow": (-V.F32_MAX, -2.0, -1e39, -(2**31)),
}


def _path(x: float) -> str:
    """Which path of the rounding text a raw double result takes, and
    whether it is a tie."""
    if x == 0.0:
        return "zero"
    if not 2.0**-126 <= abs(x) < V.F32_OVERFLOW:
        return "subnormal" if abs(x) < 2.0**-126 else "overflow"
    # a tie lies halfway between two 24-bit significands
    return "tie" if math.ldexp(abs(x), 24 - math.frexp(x)[1]) % 1 == 0.5 else "normal"


def test_the_path_examples_take_every_path():
    paths = {"normal", "tie", "zero", "subnormal", "overflow"}
    for a, b, ld, d in PATH_EXAMPLES.values():
        seen = {_path(a + b), _path(a * b), _path(ld), _path(float(d))}
        paths -= seen
    assert paths == set()
    # and the zeros come in both signs
    assert {math.copysign(1.0, a + b) for a, b, _, _ in PATH_EXAMPLES.values() if a + b == 0} == {1.0, -1.0}


def _with_path_examples(test):
    for a, b, ld, d in PATH_EXAMPLES.values():
        test = example(ab=(a, b), ld=ld, d=d)(test)
    return test


@settings(derandomize=True, max_examples=40, deadline=None)
@given(ab=_OPERANDS, ld=_LREALS, d=_DINTS)
@_with_path_examples
def test_generated_rounding_matches_the_oracle_bit_for_bit(ab, ld, d):
    # REAL + - * /, SIN, LREAL_TO_REAL and DINT_TO_REAL in bounded and in
    # checked code give the oracle's float32 results, bit for bit: the
    # sign of a zero and the raw type count
    got, want = _rounds(*ab, ld, d)
    assert got == want


def test_a_40_term_real_sum_runs_and_matches_the_oracle():
    # the deepest chain the parser accepts: the rounding text adds two
    # levels of Python nesting per operator, as an INT's wrap does, so the
    # generated source stays below CPython's 200
    terms = ["A", "B", "C", "D"] * 10
    src = (
        "FUNCTION_BLOCK CHAIN\nVAR_INPUT A : REAL; B : REAL; C : REAL; D : REAL; END_VAR\n"
        "VAR_OUTPUT Y : REAL; END_VAR\nY := {};\nEND_FUNCTION_BLOCK\n"
    )
    with pytest.raises(FrontendError, match="nested deeper than 40"):
        parse_text(src.format(" + ".join(terms + ["A"])))
    prog = resolve(parse_text(src.format(" + ".join(terms))))
    values = {"A": 0.1, "B": 1e-8, "C": -0.3, "D": 2.0**-130}
    inputs = {k: V.make(T.REAL, v) for k, v in values.items()}
    out, _ = execute_cycle(instantiate(prog, "CHAIN"), inputs, SimClock())
    want = OracleSim(prog, "CHAIN").scan(values, 0)["Y"]
    assert _bits(out["Y"].v) == _bits(want)
    assert want != sum([V.f32(values[t]) for t in terms])  # each step rounds


# ---------------------------------------------------------------------------
# CASE tables
# ---------------------------------------------------------------------------

CASE_SRC = """
FUNCTION_BLOCK CASES
VAR_INPUT N : INT; M : INT; END_VAR
VAR_OUTPUT A : INT; B : INT; C : INT; D : INT; E : INT; F : INT; G : INT; END_VAR
VAR I : INT; END_VAR
(* duplicate labels: the first arm holding a value wins *)
CASE N OF
    1: A := 10;
    2, 1: A := 20;
    3: A := 30;
    3, 4: A := 40;
END_CASE;
(* a range among single values: the arms are scanned *)
CASE N OF
    1: B := B + 1;
    3..4: B := B + 2;
    2: B := B + 3;
    4: B := B + 4;
ELSE
    B := B + 5;
END_CASE;
(* no match and no ELSE runs nothing *)
CASE M OF
    7: C := C + 1;
    8: C := C + 2;
END_CASE;
(* a value between labels runs the ELSE *)
CASE N OF
    -1: F := F + 1;
    1: F := F + 3;
ELSE
    F := F + 7;
END_CASE;
(* labels spanning twice as many values as there are labels: the arms are
   scanned *)
CASE N OF
    0: G := G + 1;
    4: G := G + 2;
END_CASE;
{loop}
(* an arm that RETURNs ends the block's scan *)
CASE M OF
    1: E := E + 1;
       RETURN;
    2: E := E + 2;
END_CASE;
E := E + 10;
END_FUNCTION_BLOCK
"""

# an arm that EXITs inside a FOR ends the loop, not the block
LOOP = """FOR I := 1 TO 5 DO
    CASE I OF
        1, 2: D := D + I;
        3: IF N = 3 THEN
               EXIT;
           END_IF;
           D := D + 100;
    END_CASE;
    D := D + 1000;
END_FOR;"""

# the same arms without the loop: loop-free code runs as bounded code
FLAT = """CASE N OF
    1, 2: D := D + N;
    3: D := D + 100;
END_CASE;"""


@pytest.mark.parametrize("loop,bounded", [(LOOP, False), (FLAT, True)], ids=["checked", "bounded"])
def test_case_tables_match_the_oracle(loop, bounded):
    prog = resolve(parse_text(CASE_SRC.replace("{loop}", loop)))
    assert interp._bounded(prog, "CASES") is bounded
    configs = [{"N": ("INT", n), "M": ("INT", m)} for n in (-2, -1, 0, 1, 2, 3, 4, 5) for m in (1, 2, 7)]
    for half in (configs[:12], configs[12:]):
        assert_matches_oracle(prog, "CASES", 3, half)
    # a table per CASE of dense single values, a slot per value from the
    # least label to the greatest, holding the first arm of each label and
    # the ELSE in a hole; the CASEs with a range or far-apart labels keep
    # their arms in order
    values = _generated_values(prog, "CASES")
    tables = [
        (v, *values[i + 1:i + 4]) for i, v in enumerate(values)
        if isinstance(v, tuple) and v and all([callable(x) for x in v])
    ]
    assert sorted([(lo, hi) for _, lo, hi, _ in tables]) == [(-1, 1), (1, 2), (1, 3), (1, 4), (7, 8)]
    assert all([len(slots) == hi - lo + 1 for slots, lo, hi, _ in tables])
    (duplicates,) = [slots for slots, lo, hi, _ in tables if (lo, hi) == (1, 4)]
    assert len({id(body) for body in duplicates}) == 4  # each label's own arm
    ((hole, else_),) = [(slots, e) for slots, lo, _, e in tables if lo == -1]
    assert hole[1] is else_ and else_ not in (hole[0], hole[2])
    arms = [v for v in values if isinstance(v, tuple) and v and isinstance(v[0], tuple)]
    assert [[(lo, hi) for lo, hi, _ in t] for t in arms] == [[(1, 1), (3, 4), (2, 2), (4, 4)], [(0, 0), (4, 4)]]


def test_a_case_table_selects_the_first_label_on_every_path():
    prog = resolve(parse_text(CASE_SRC.replace("{loop}", FLAT)))
    ns = (-2, -1, 0, 1, 3, 4, 9)
    got = {
        n: {k: v.v for k, v in execute_cycle(instantiate(prog, "CASES"), {"N": V.make(T.INT, n), "M": V.make(T.INT, 7)}, SimClock())[0].items()}
        for n in ns
    }
    assert [got[n]["A"] for n in ns] == [0, 0, 0, 10, 30, 40, 0]
    assert [got[n]["B"] for n in ns] == [5, 5, 5, 1, 2, 2, 5]  # 4 is in 3..4, which comes first
    assert {got[n]["C"] for n in got} == {1}
    assert [got[n]["F"] for n in ns] == [7, 1, 7, 3, 7, 7, 7]  # below, at, between and above the labels
    assert [got[n]["G"] for n in ns] == [0, 0, 1, 0, 0, 2, 0]
