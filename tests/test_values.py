import math
import struct

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from stbench.frontend import types as T
from stbench.frontend.builtins import string_conversion_source
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


# every finite double, and more often those near the binary32 overflow
# bound, where round-to-nearest goes to F32_MAX or to an infinity
_NEAR_BOUND = st.floats(min_value=3.0e38, max_value=3.5e38)


@given(st.floats(allow_nan=False, allow_infinity=False, width=64) | _NEAR_BOUND | _NEAR_BOUND.map(lambda x: -x))
@example(V.F32_MAX * (1 + 2**-25))
@example(math.nextafter(V.F32_OVERFLOW, 0.0))
@example(-V.F32_OVERFLOW)
def test_f32_matches_struct_roundtrip(x):
    try:
        via_struct = struct.unpack("<f", struct.pack("<f", x))[0]
    except OverflowError:  # C's (float) rounds it to an infinity
        via_struct = math.copysign(math.inf, x)
    assert V.f32(x) == via_struct


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
    assert V.convert_for_store(V.make(T.INT, 5), T.DINT).ty == T.DINT
    assert V.convert_for_store(V.make(T.REAL, 0.5), T.LREAL).ty == T.LREAL
    assert V.convert_for_store(V.make(T.BYTE, 5), T.WORD).ty == T.WORD
    with pytest.raises(TypeError):
        V.convert_for_store(V.make(T.DINT, 5), T.INT)
    with pytest.raises(TypeError):
        V.convert_for_store(V.make(T.INT, 5), T.REAL)


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
