import ast
import math
import struct
import tokenize
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from stbench.frontend import parse_text, resolve
from stbench.frontend import types as T
from stbench.frontend.builtins import string_conversion_source
from stbench.runtime import SimClock, execute_cycle, instantiate
from stbench.runtime import values as V
from stbench.runtime.stdfuncs import builtin_impl


@pytest.mark.parametrize(
    "kind,raw,expected",
    [
        (T.Kind.INT, 32767, 32767),
        (T.Kind.INT, 32768, -32768),
        (T.Kind.INT, -32769, 32767),
        (T.Kind.DINT, 2**31, -(2**31)),
        (T.Kind.BYTE, 256, 0),
        (T.Kind.BYTE, -1, 255),
        (T.Kind.WORD, 65536, 0),
    ],
)
def test_integer_wrapping(kind, raw, expected):
    assert V.wrap_int(raw, kind) == expected


@given(st.integers(-(2**40), 2**40))
def test_int_wrap_is_twos_complement(v):
    w = V.wrap_int(v, T.Kind.INT)
    assert -(2**15) <= w <= 2**15 - 1
    assert (w - v) % 2**16 == 0


def _ulps(x: float, steps: int) -> float:
    """x moved `steps` doubles up or down."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


_SIGNS = st.sampled_from([1.0, -1.0])
_STEPS = st.integers(-3, 3)
# every finite double, and more often those where rounding to binary32
# is hardest: near the binary32 overflow bound, where round-to-nearest
# goes to F32_MAX or to an infinity; halfway between two binary32 values
# (in the normal range and below it), where a tie goes to the even one,
# and a few doubles either side; a few binary32 or binary64 ulps from
# 2**-126, the least normal binary32 magnitude; and subnormal results
_NEAR_BOUND = st.floats(min_value=3.0e38, max_value=3.5e38)
_AT_BOUND = st.builds(lambda s, k: s * _ulps(V.F32_OVERFLOW, k), _SIGNS, st.integers(-4, 4))
# a 24-bit significand m plus half its ulp, 2m + 1 halves, times 2**e
_HALFWAY = st.builds(
    lambda s, m, e, k: s * _ulps(math.ldexp(2 * m + 1, e), k),
    _SIGNS, st.integers(2**23, 2**24 - 1), st.integers(-175, 103), _STEPS,
)
_LEAST_NORMAL = st.builds(
    lambda s, j, k: s * _ulps(2.0**-126 + j * 2.0**-149, k), _SIGNS, st.integers(-4, 4), _STEPS
)
_SUBNORMAL = st.floats(min_value=-(2.0**-126), max_value=2.0**-126)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@given(
    st.floats(allow_nan=False, allow_infinity=False, width=64)
    | _NEAR_BOUND | _NEAR_BOUND.map(lambda x: -x) | _AT_BOUND | _HALFWAY | _LEAST_NORMAL | _SUBNORMAL
)
@example(V.F32_MAX * (1 + 2**-25))
@example(math.nextafter(V.F32_OVERFLOW, 0.0))
@example(-V.F32_OVERFLOW)
@example(-0.0)
@example(1 + 2.0**-24)  # a tie that goes down to 1.0
@example(1 + 3 * 2.0**-24)  # a tie that goes up
@example(2.0**-126 - 2.0**-150)  # a subnormal that rounds up to the least normal
@example(2.0**-150)  # half the least subnormal: a tie to +0.0
@example(-(2.0**-150) * (1 + 2.0**-52))  # just past it: the least subnormal
def test_f32_matches_struct_roundtrip(x):
    try:
        via_struct = struct.unpack("<f", struct.pack("<f", x))[0]
    except OverflowError:  # C's (float) rounds it to an infinity
        via_struct = math.copysign(math.inf, x)
    # bit for bit: a zero's sign counts
    assert _bits(V.f32(x)) == _bits(via_struct)


def test_binary32_rounding_has_one_home():
    # only values.f32 rounds by struct, in its fallback: every other
    # rounding calls it or writes its split out
    src = Path(V.__file__).resolve().parents[1]
    users = set()
    for path in src.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.alias) and node.name == "struct" or isinstance(node, ast.Attribute) and node.attr == "F32":
                users.add(path.relative_to(src).as_posix())
    assert users == {"runtime/values.py"}


# INT's and DINT's offsets and masks and WORD's mask; BYTE's 255 is left
# out, since it is also a string byte's mask
_WIDTH_BOUNDS = {2**15, 2**16 - 1, 2**31, 2**32 - 1}


def test_integer_widths_have_one_home():
    # only frontend/types.py may write an integer kind's bounds as a number
    # (T.INT_RANGES): every other module derives them from it.  Comments do
    # not count, as tokenize reads them apart from numbers
    src = Path(V.__file__).resolve().parents[1]
    writers = set()
    for path in src.rglob("*.py"):
        with tokenize.open(path) as f:
            for tok in tokenize.generate_tokens(f.readline):
                if tok.type == tokenize.NUMBER and ast.literal_eval(tok.string) in _WIDTH_BOUNDS:
                    writers.add(path.relative_to(src).as_posix())
    assert writers <= {"frontend/types.py"}


def _kind_member(node) -> str | None:
    """The member a `Kind.X` or `T.Kind.X` expression names, or None."""
    if not isinstance(node, ast.Attribute) or node.attr not in T.Kind.__members__:
        return None
    owner = node.value
    return node.attr if getattr(owner, "id", getattr(owner, "attr", None)) == "Kind" else None


def test_kind_families_have_one_home():
    # frontend/types.py names each kind family (T.REAL_KINDS and the rest):
    # no tuple, list or set of Kind members elsewhere spells one out again
    families = {
        frozenset(kind.name for kind in members): name
        for name, members in vars(T).items() if name.endswith("_KINDS")
    }
    assert len(families) >= 8
    src = Path(V.__file__).resolve().parents[1]
    copies = []
    for path in src.rglob("*.py"):
        where = path.relative_to(src).as_posix()
        if where == "frontend/types.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Tuple, ast.List, ast.Set)) and node.elts:
                members = frozenset(_kind_member(e) for e in node.elts)
                if members in families:
                    copies.append(f"{where}:{node.lineno} spells T.{families[members]}")
    assert copies == []


def test_f32_overflow_to_inf():
    assert V.f32(1e39) == math.inf
    assert V.f32(-1e39) == -math.inf


def test_defaults():
    assert V.default(T.BOOL).v is False
    assert V.default(T.INT).v == 0
    assert V.default(T.TIME).v == 0
    assert V.default(T.string()).v == ""
    arr = V.default(T.array(1, 3, T.INT))
    assert [x.v for x in arr.v] == [0, 0, 0]


def test_string_truncates_to_capacity():
    val = V.make(T.string(3), "ABCDEF")
    assert val.v == "ABC"


def test_store_conversion_widens_only():
    # execute_cycle stores an input as a generated store does: a widening
    # converts, a STRING truncates to the input's capacity, and any other
    # type is refused before the scan
    prog = resolve(parse_text(
        "FUNCTION_BLOCK SINK\n"
        "VAR_INPUT D : DINT; L : LREAL; W : WORD; S : STRING[3]; I : INT; R : REAL; END_VAR\n"
        "VAR_OUTPUT OD : DINT; OL : LREAL; OW : WORD; OS : STRING[3]; END_VAR\n"
        "OD := D; OL := L; OW := W; OS := S;\n"
        "END_FUNCTION_BLOCK\n"
    ))
    inst = instantiate(prog, "SINK")
    given = {"D": V.make(T.INT, -5), "L": V.make(T.REAL, 0.1), "W": V.make(T.BYTE, 255), "s": V.make(T.string(), "ABCDEF")}
    out, _ = execute_cycle(inst, given, SimClock())
    assert out == {
        "OD": V.Value(T.DINT, -5),
        "OL": V.Value(T.LREAL, V.f32(0.1)),
        "OW": V.Value(T.WORD, 255),
        "OS": V.Value(T.string(3), "ABC"),
    }
    for name, val, dst in (("I", V.make(T.DINT, 5), T.INT), ("R", V.make(T.INT, 5), T.REAL)):
        with pytest.raises(ValueError) as err:
            execute_cycle(inst, {name: val}, SimClock())
        assert str(err.value) == f"input {name}: cannot store {val.ty} into {dst}"
    assert (inst.store["I"], inst.store["R"]) == (0, 0.0)


def test_render_forms():
    assert V.render(V.make(T.BOOL, True)) == "TRUE"
    assert V.render(V.make(T.INT, -7)) == "-7"
    assert V.render(V.make(T.TIME, 1500)) == "T#1500ms"
    assert V.render(V.make(T.string(), "hi")) == "'hi'"
    assert V.render(V.make(T.REAL, 0.5)) == "0.5"


TO_STRING_SAMPLES = {
    "BOOL": [True, False],
    "INT": [-7, 32767],
    "DINT": [-(2**31), 100_000],
    "BYTE": [0, 255],
    "WORD": [65535],
    "REAL": [0.1, -2.5, math.inf],
    "LREAL": [0.1, 1e300, math.nan],
    "TIME": [0, 1500],
}


def test_to_string_samples_cover_every_conversion():
    convertible = {name for name in T.SCALARS if string_conversion_source(f"{name}_TO_STRING")}
    assert set(TO_STRING_SAMPLES) == convertible


@pytest.mark.parametrize(
    "kind,raw", [(k, raw) for k, raws in TO_STRING_SAMPLES.items() for raw in raws]
)
def test_to_string_spells_a_value_as_render_does(kind, raw):
    ty = T.SCALARS[kind]
    val = V.make(ty, raw)
    to_string = builtin_impl(f"{kind}_TO_STRING", [ty], T.string())
    assert to_string(val.v) == V.render(val)



def test_f32_passes_nan_and_infinities_through():
    assert math.isnan(V.f32(math.nan))
    assert V.f32(math.inf) == math.inf
    assert V.f32(-math.inf) == -math.inf
    assert math.copysign(1.0, V.f32(-0.0)) == -1.0


@pytest.mark.parametrize("ty", [T.BOOL, T.INT, T.DINT, T.BYTE, T.WORD, T.REAL, T.LREAL, T.TIME])
def test_one_coercer_per_kind(ty):
    assert V.coercer(ty) is V.coercer(ty)
    assert V.coercer(ty) is V.coercer(T.STType(ty.kind))


def test_one_coercer_per_string_capacity():
    assert V.coercer(T.string(4)) is V.coercer(T.string(4))
    assert V.coercer(T.string(4))("ABCDEF") == "ABCD"
    assert V.coercer(T.string(5))("ABCDEF") == "ABCDE"


@pytest.mark.parametrize(
    "ty,raw,expected",
    [
        (T.INT, 32767, 32767),
        (T.INT, 32768, -32768),
        (T.INT, -32768, -32768),
        (T.INT, -32769, 32767),
        (T.INT, 70000.9, 4464),
        (T.DINT, 2**31 - 1, 2**31 - 1),
        (T.DINT, 2**31, -(2**31)),
        (T.DINT, -(2**31) - 1, 2**31 - 1),
        (T.BYTE, 255, 255),
        (T.BYTE, 256, 0),
        (T.BYTE, -1, 255),
        (T.WORD, 65535, 65535),
        (T.WORD, 65536, 0),
        (T.WORD, -1, 65535),
        (T.REAL, 3.4028234663852886e38, 3.4028234663852886e38),
        (T.REAL, -3.4028234663852886e38, -3.4028234663852886e38),
        (T.REAL, 1e39, math.inf),
        (T.REAL, 0.1, 0.10000000149011612),
        (T.LREAL, 1, 1.0),
        (T.TIME, 1500.7, 1500),
        (T.BOOL, 0, False),
        (T.string(3), "ABCD", "ABC"),
        (T.string(3), "AB", "AB"),
    ],
)
def test_coercers_wrap_round_and_truncate_boundary_values(ty, raw, expected):
    got = V.coercer(ty)(raw)
    assert got == expected and type(got) is type(expected)
