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
from stbench.runtime import RuntimeFault, SimClock, execute_cycle, instantiate, make
from stbench.runtime import values as V
from stbench.runtime.stdfb import make_builtin
from stbench.runtime.stdfuncs import BuiltinFuncError, builtin_impl

from oracle_sim import OracleFault, OracleSim

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


# Each built-in function on edge inputs, through the interpreter and the
# oracle: (name, argument types, result type, argument tuples).  The
# arguments are the block's inputs, so nothing is folded at compile time.
_NAN, _INF = math.nan, math.inf
_REAL_EDGES = [0.0, -0.0, 1.5, -1.5, _NAN, _INF, -_INF, V.F32_MAX, -V.F32_MAX]
_INT_LO, _INT_HI = T.INT_RANGES[T.Kind.INT]
_DINT_LO, _DINT_HI = T.INT_RANGES[T.Kind.DINT]
_PAIRS = [(_NAN, 1.0), (1.0, _NAN), (-0.0, 0.0), (0.0, -0.0), (_INF, -_INF), (-V.F32_MAX, V.F32_MAX)]
_SHIFTS = [(1, 0), (1, 7), (1, 8), (255, 1), (129, 100), (1, -1)]
FUNCTION_TABLE = [
    ("ABS", ["REAL"], "REAL", [(x,) for x in _REAL_EDGES]),
    ("ABS", ["INT"], "INT", [(_INT_LO,), (_INT_HI,), (-1,), (0,)]),
    ("ABS", ["DINT"], "DINT", [(_DINT_LO,), (_DINT_HI,)]),
    ("MIN", ["REAL", "REAL"], "REAL", _PAIRS),
    ("MAX", ["REAL", "REAL"], "REAL", _PAIRS),
    ("MIN", ["INT", "DINT"], "DINT", [(_INT_LO, _DINT_HI), (_INT_HI, _DINT_LO)]),
    ("MAX", ["BYTE", "WORD"], "WORD", [(0, 65535), (255, 0)]),
    ("MAX", ["TIME", "TIME"], "TIME", [(0, 1), (2**40, 5)]),
    ("LIMIT", ["INT", "INT", "INT"], "INT",
     [(0, 5, 10), (0, -5, 10), (0, 15, 10), (10, 5, 0), (_INT_LO, 0, _INT_HI), (5, 5, 5)]),
    ("LIMIT", ["REAL", "REAL", "REAL"], "REAL",
     [(0.0, _NAN, 1.0), (_NAN, 0.5, 1.0), (0.0, 0.5, _NAN), (1.0, 0.5, 0.0), (-_INF, _INF, 0.0), (-0.0, 0.0, -0.0)]),
    ("SEL", ["BOOL", "REAL", "REAL"], "REAL", [(False, _NAN, 1.0), (True, _NAN, -0.0)]),
    ("SEL", ["BOOL", "INT", "DINT"], "DINT", [(False, _INT_LO, _DINT_HI), (True, 0, _DINT_LO)]),
    *[(f, [ty], ty, [(x,) for x in _REAL_EDGES + [1e30, 100.0, -100.0]])
      for f in ("SIN", "COS", "TAN", "EXP", "LN", "SQRT") for ty in ("REAL", "LREAL")],
    ("EXP", ["LREAL"], "LREAL", [(709.0,), (710.0,), (1000.0,), (-1000.0,)]),
    ("TRUNC", ["REAL"], "DINT", [(x,) for x in _REAL_EDGES + [2147483520.0, 2147483648.0, -2147483648.0]]),
    ("TRUNC", ["LREAL"], "DINT",
     [(2147483647.9,), (2147483648.0,), (-2147483648.9,), (-2147483649.0,), (_NAN,), (-_INF,)]),
    ("SHL", ["BYTE", "INT"], "BYTE", _SHIFTS),
    ("SHR", ["BYTE", "INT"], "BYTE", _SHIFTS),
    ("SHL", ["WORD", "DINT"], "WORD", [(1, 15), (1, 16), (65535, 4), (3, _DINT_HI), (1, _DINT_LO)]),
    ("SHR", ["WORD", "DINT"], "WORD", [(32768, 15), (32768, 16), (65535, 4), (1, -5)]),
    ("CONCAT", ["STRING", "STRING[3]"], "STRING[83]", [("", ""), ("ab", "cde")]),
    ("LEN", ["STRING"], "INT", [("",), ("abc",), ("x" * 80,)]),
    ("MID", ["STRING", "INT", "INT"], "STRING",
     [("hello", 2, 2), ("hello", 0, 1), ("hello", 10, 4), ("hello", 1, 6), ("hello", 3, 100),
      ("hello", 1, 0), ("hello", -1, 1), ("", 1, 1)]),
]


def _function_block(name: str, arg_types: list[str], result: str):
    params = [f"P{i}" for i in range(len(arg_types))]
    src = (
        "FUNCTION_BLOCK F\n"
        f"VAR_INPUT {' '.join(f'{p} : {ty};' for p, ty in zip(params, arg_types))} END_VAR\n"
        f"VAR_OUTPUT Y : {result}; END_VAR\n"
        f"Y := {name}({', '.join(params)});\n"
        "END_FUNCTION_BLOCK\n"
    )
    return resolve(parse_text(src, "f.st")), params


def _same(a, b) -> bool:
    """Equal values of one raw type, where NaN equals NaN; as with ==,
    0.0 equals -0.0."""
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return type(a) is type(b) and a == b


@pytest.mark.parametrize(
    "name,arg_types,result,args", FUNCTION_TABLE,
    ids=[f"{n}-{'-'.join(a)}" for n, a, _r, _args in FUNCTION_TABLE],
)
def test_each_builtin_function_agrees_with_the_oracle_on_edge_inputs(name, arg_types, result, args):
    prog, params = _function_block(name, arg_types, result)
    types = [prog.lookup_pou("F").vars[p].ty for p in params]
    for values in args:
        try:
            outputs, _ = execute_cycle(
                instantiate(prog, "F"), {p: make(ty, v) for p, ty, v in zip(params, types, values)}, SimClock()
            )
            got = outputs["Y"].v
        except RuntimeFault as fault:
            got = fault
        try:
            want = OracleSim(prog, "F").scan(dict(zip(params, values)), 0)["Y"]
        except OracleFault as fault:
            want = fault
        faulted = (isinstance(got, RuntimeFault), isinstance(want, OracleFault))
        assert faulted in ((True, True), (False, False)), (values, got, want)
        assert faulted == (True, True) or _same(got, want), (values, got, want)


STRING_CAP_SRC = """
FUNCTION_BLOCK LONG
VAR_INPUT A : STRING[200]; G : BOOL; END_VAR
VAR_OUTPUT PICKED : STRING[200]; CUT : STRING[200]; JOINED : STRING[400]; NARROW : STRING[10]; END_VAR
PICKED := SEL(G, A, A);
CUT := MID(A, 150, 1);
JOINED := CONCAT(A, A);
NARROW := CONCAT(A, A);
END_FUNCTION_BLOCK
"""


def test_string_results_keep_the_capacity_of_their_arguments():
    # SEL unifies to the larger capacity, MID keeps its argument's and
    # CONCAT sums them; only a store cuts a value, to its target
    inst = instantiate(resolve(parse_text(STRING_CAP_SRC, "long.st")), "LONG")
    text = "".join(chr(ord("a") + i % 26) for i in range(150))
    outputs, _ = execute_cycle(inst, {"A": make(T.string(200), text), "G": make(T.BOOL, True)}, SimClock())
    assert {k: len(v.v) for k, v in outputs.items()} == {"PICKED": 150, "CUT": 150, "JOINED": 300, "NARROW": 10}
    assert outputs["JOINED"].v == text + text and outputs["NARROW"].v == text[:10]
    assert str(T.unify(T.string(200), T.string(3))) == "STRING[200]"
    assert str(T.unify(T.string(3), T.string(200))) == "STRING[200]"
