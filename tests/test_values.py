import math
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stbench.frontend import types as T
from stbench.runtime import values as V


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


@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_f32_matches_struct_roundtrip(x):
    via_struct = struct.unpack("<f", struct.pack("<f", max(min(x, 3.4e38), -3.4e38)))[0]
    if abs(x) <= 3.4e38:
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



def test_f32_passes_nan_and_infinities_through():
    assert math.isnan(V.f32(math.nan))
    assert V.f32(math.inf) == math.inf
    assert V.f32(-math.inf) == -math.inf
    assert math.copysign(1.0, V.f32(-0.0)) == -1.0
