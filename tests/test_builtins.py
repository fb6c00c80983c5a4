"""Built-in conversions and standard blocks keep today's raw values.

The runtime picks each conversion's implementation from its source
family and lets each standard block step on its raw store, so nothing
re-coerces a value at run time.  The conformance table pins every X_TO_Y
conversion to the generic semantics it replaced, value and raw python
type alike; the block tests pin the raw-store invariant the report's
rendering relies on: a BOOL output is a bool, a TIME or INT one an int.
"""

import math

import pytest

from stbench.frontend import parse_text, resolve
from stbench.frontend import types as T
from stbench.frontend.builtins import BUILTIN_FBS, conversion_target
from stbench.frontend.nodes import Section
from stbench.runtime import SimClock, execute_cycle, instantiate, make
from stbench.runtime import values as V
from stbench.runtime.stdfb import make_builtin
from stbench.runtime.stdfuncs import BuiltinFuncError, builtin_impl

CONVERSIONS = sorted(
    f"{a}_TO_{b}" for a in T.SCALARS for b in T.SCALARS if conversion_target(f"{a}_TO_{b}")
)

# 0, +-1, and each integer range's ends and one past them
_INTEGERS = sorted(
    {0, 1, -1}
    | {end + d for lo, hi in T.INT_RANGES.values() for end in (lo, hi) for d in (-1, 0, 1)}
)
_FLOATS = [float(i) for i in _INTEGERS] + [
    0.5, -0.5, 1.5, -1.5, 2.5, -2.5, -0.0,
    math.nan, math.inf, -math.inf, V.F32_MAX, -V.F32_MAX,
]


def source_raws(src: T.STType) -> list:
    """Boundary raw values a variable of type src can hold."""
    k = src.kind
    if k is T.Kind.BOOL:
        return [False, True]
    if k is T.Kind.TIME:
        return _INTEGERS
    if k in T.INT_RANGES:
        lo, hi = T.INT_RANGES[k]
        return [i for i in _INTEGERS if lo <= i <= hi]
    if k is T.Kind.REAL:
        return sorted(set(map(V.f32, _FLOATS)), key=repr)
    return _FLOATS


def reference(name: str, raw):
    """The generic conversion every X_TO_Y used to run: the raw value's
    python type checked at run time, then the result coerced to the target
    type.  Returns the value, or raises its BuiltinFuncError."""
    _src, dst = conversion_target(name)
    k = dst.kind
    if k is T.Kind.BOOL:
        return raw != 0
    if k in T.INT_RANGES:
        lo, hi = T.INT_RANGES[k]
        if isinstance(raw, bool):
            return V.wrap_int(1 if raw else 0, k)
        if isinstance(raw, float):
            if math.isnan(raw) or math.isinf(raw):
                raise BuiltinFuncError(f"{name}: value {raw} out of range")
            raw = round(raw)
        raw = int(raw)
        if not (lo <= raw <= hi):
            raise BuiltinFuncError(f"{name}: value {raw} out of range")
        return V.wrap_int(raw, k)
    if k is T.Kind.REAL:
        return V.f32(float(raw))
    if k is T.Kind.LREAL:
        return float(raw)
    assert k is T.Kind.TIME
    if raw < 0:
        raise BuiltinFuncError(f"{name}: negative duration {raw}")
    return int(raw)


def outcome(fn, name, raw):
    """What a conversion gives for raw: its raw type and spelling (which
    tells nan and -0.0 apart), or its fault message."""
    try:
        v = fn(name, raw)
    except BuiltinFuncError as exc:
        return ("fault", str(exc))
    return (type(v), repr(v))


def test_the_table_covers_every_conversion_family():
    assert len(CONVERSIONS) == 46
    sources = {conversion_target(name)[0].kind for name in CONVERSIONS}
    assert sources == {T.SCALARS[n].kind for n in T.SCALARS}


@pytest.mark.parametrize("name", CONVERSIONS)
def test_conversion_matches_the_generic_reference(name):
    src, dst = conversion_target(name)
    impl = builtin_impl(name, [src], dst)
    for raw in source_raws(src):
        want = outcome(reference, name, raw)
        got = outcome(lambda _name, x: impl(x), name, raw)
        assert got == want, (name, raw)


@pytest.mark.parametrize("name", ["DINT_TO_REAL", "DINT_TO_LREAL", "WORD_TO_INT", "LREAL_TO_INT"])
def test_a_widened_argument_converts_like_its_source(name):
    # INT, BYTE and REAL arguments widen into DINT, WORD and LREAL sources
    src, dst = conversion_target(name)
    narrow = {T.Kind.DINT: T.INT, T.Kind.WORD: T.BYTE, T.Kind.LREAL: T.REAL}[src.kind]
    impl = builtin_impl(name, [narrow], dst)
    for raw in source_raws(narrow):
        assert outcome(lambda _name, x: impl(x), name, raw) == outcome(reference, name, raw)


def _drive(fb_type: str, scans: int):
    """Step a block over a fixed input sequence, yielding its store after
    each step; BOOL input i flips every 8 * 2**i scans of 10 ms."""
    inst = make_builtin(fb_type)
    decls = BUILTIN_FBS[fb_type]
    bools = [n for n, (ty, sec) in decls.items() if sec is Section.INPUT and ty is T.BOOL]
    for scan in range(scans):
        for bit, name in enumerate(bools):
            inst.store[name] = bool(scan >> (3 + bit) & 1)
        if "PT" in decls:
            inst.store["PT"] = 40
        if "PV" in decls:
            inst.store["PV"] = 1
        inst.step(scan * 10)
        yield inst.store


@pytest.mark.parametrize("fb_type", sorted(BUILTIN_FBS))
def test_block_outputs_keep_their_raw_types(fb_type):
    decls = BUILTIN_FBS[fb_type]
    seen = set()
    for store in _drive(fb_type, 60):
        assert type(store["Q"]) is bool
        for name in ("ET", "CV"):
            if name in decls:
                assert type(store[name]) is int
        seen.add(store["Q"])
    assert seen == {False, True}  # the sequence drives Q both ways


BLOCKS_SRC = """
FUNCTION_BLOCK BLOCKS
VAR_INPUT A : BOOL; B : BOOL; N : DINT; END_VAR
VAR
    T1 : TON; T2 : TOF; T3 : TP; E1 : R_TRIG; E2 : F_TRIG; C1 : CTU; C2 : CTD;
END_VAR
T1(IN := A AND NOT B, PT := DINT_TO_TIME(N * 10));
T2(IN := A OR B, PT := T#30ms);
T3(IN := A, PT := T#20ms);
E1(CLK := A XOR B);
E2(CLK := N > 4);
C1(CU := A, R := B AND N > 6, PV := DINT_TO_INT(N));
C2(CD := B, LD := NOT A AND NOT B, PV := 2);
END_FUNCTION_BLOCK
"""


def test_interpreted_calls_leave_raw_values_of_the_declared_types():
    inst = instantiate(resolve(parse_text(BLOCKS_SRC, "blocks.st")), "BLOCKS")
    clock = SimClock(0, 10)
    raw_type = {T.Kind.BOOL: bool, T.Kind.TIME: int, T.Kind.INT: int}
    for k in range(60):
        inputs = {"A": make(T.BOOL, k // 3 % 2 == 0), "B": make(T.BOOL, k // 5 % 2 == 1), "N": make(T.DINT, k % 9)}
        execute_cycle(inst, inputs, clock)
        for block in inst.nested.values():
            for name, (ty, _sec) in BUILTIN_FBS[block.fb_type].items():
                assert type(block.store[name]) is raw_type[ty.kind], (block.fb_type, name)


@pytest.mark.parametrize("ty", [T.REAL, T.LREAL])
@pytest.mark.parametrize("name", ["SIN", "COS", "TAN"])
def test_trig_of_an_infinity_is_nan(name, ty):
    impl = builtin_impl(name, [ty], ty)
    assert math.isnan(impl(math.inf)) and math.isnan(impl(-math.inf))
    assert type(impl(0.0)) is float


SEL_ARRAYS_SRC = """
FUNCTION_BLOCK PICK
VAR_INPUT G : BOOL; END_VAR
VAR_OUTPUT Y : INT; Z : INT; END_VAR
VAR A : ARRAY[1..2] OF INT := [1, 2]; B : ARRAY[1..2] OF INT := [3, 4]; C : ARRAY[1..2] OF INT; END_VAR
C := SEL(G, A, B);
C[1] := C[1] * 10;
Y := C[1];
Z := B[1];
END_FUNCTION_BLOCK
"""


def test_sel_of_arrays_stores_a_copy_of_the_chosen_one():
    inst = instantiate(resolve(parse_text(SEL_ARRAYS_SRC, "pick.st")), "PICK")
    outputs, _ = execute_cycle(inst, {"G": make(T.BOOL, True)}, SimClock())
    assert (outputs["Y"].v, outputs["Z"].v) == (30, 3)
    outputs, _ = execute_cycle(inst, {"G": make(T.BOOL, False)}, SimClock())
    assert (outputs["Y"].v, outputs["Z"].v) == (10, 3)
