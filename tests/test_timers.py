"""Timer block semantics against the independent hand-table references."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stbench.frontend import types as T
from stbench.runtime import values as V
from stbench.runtime.stdfb import make_builtin

from timer_reference import held_input, input_pattern, tof_table, ton_table, tp_table


def drive_timer(fb_type, scans, pt):
    inst = make_builtin(fb_type)
    rows = []
    for now, in_v in scans:
        inst.store["IN"] = V.coercer(T.BOOL)(in_v)
        inst.store["PT"] = V.coercer(T.TIME)(pt)
        inst.step(now)
        rows.append((inst.store["ET"], inst.store["Q"]))
    return rows


# frozen from the hand table: PT=100ms, cycle 50ms, IN held TRUE
# -> Q is FALSE, FALSE, then TRUE on the third scan (elapsed >= PT)
def test_ton_expiry_frozen_example():
    scans = held_input(50, 4)
    expected = [(0, False), (50, False), (100, True), (100, True)]
    assert ton_table(scans, 100) == expected  # the reference itself
    assert drive_timer("TON", scans, 100) == expected


def test_ton_reset_on_low_input():
    scans = input_pattern(50, [True, True, False, True, True, True])
    assert drive_timer("TON", scans, 100) == ton_table(scans, 100)
    assert drive_timer("TON", scans, 100)[2] == (0, False)


@pytest.mark.parametrize("pt,cycle", [(100, 50), (120, 50), (400, 50), (0, 10), (35, 10)])
def test_ton_against_reference(pt, cycle):
    scans = held_input(cycle, 12)
    assert drive_timer("TON", scans, pt) == ton_table(scans, pt)


def test_ton_monotone_and_saturating():
    rows = drive_timer("TON", held_input(10, 30), 140)
    ets = [et for et, _q in rows]
    assert ets == sorted(ets)
    assert max(ets) == 140
    for et, q in rows:
        assert q == (et == 140)


@pytest.mark.parametrize("pt,cycle", [(100, 50), (120, 50), (75, 25), (0, 10)])
def test_tof_holds_ceil_pt_over_cycle_scans_after_falling_edge(pt, cycle):
    # IN high for 3 scans, then low
    values = [True] * 3 + [False] * 12
    scans = input_pattern(cycle, values)
    rows = drive_timer("TOF", scans, pt)
    assert rows == tof_table(scans, pt)
    held = sum(1 for et, q in rows[3:] if q)
    assert held == math.ceil(pt / cycle)


def test_tp_pulse_width_and_new_pulse_after_completion():
    values = [False, True, True, False, True, False, False, False]
    scans = input_pattern(50, values)
    rows = drive_timer("TP", scans, 100)
    assert rows == tp_table(scans, 100)
    # first pulse spans PT/cycle scans; the edge at t=200 starts a new pulse
    assert [q for _et, q in rows] == [False, True, True, False, True, True, False, False]


def test_tp_retrigger_during_pulse_ignored():
    values = [False, True, False, True, True, False]
    scans = input_pattern(50, values)
    rows = drive_timer("TP", scans, 150)
    assert rows == tp_table(scans, 150)
    # the rising edge at t=150 lands inside the running pulse: ignored,
    # so the pulse still ends at t=200
    assert [q for _et, q in rows] == [False, True, True, True, False, False]


@given(
    st.integers(0, 400),
    st.sampled_from([10, 25, 50]),
    st.lists(st.booleans(), min_size=1, max_size=25),
)
def test_timers_match_reference_tables(pt, cycle, pattern):
    scans = input_pattern(cycle, pattern)
    for fb_type, table in (("TON", ton_table), ("TOF", tof_table), ("TP", tp_table)):
        assert drive_timer(fb_type, scans, pt) == table(scans, pt)


def drive(fb_type, seq):
    inst = make_builtin(fb_type)
    out = []
    for step_vals in seq:
        for k, v in step_vals.items():
            ty = T.BOOL if isinstance(v, bool) else T.INT
            inst.store[k] = V.coercer(ty)(v)
        inst.step(0)
        out.append(dict(inst.store))
    return out


def test_r_trig_fires_once_per_rising_edge():
    rows = drive("R_TRIG", [{"CLK": c} for c in (False, True, True, False, True)])
    assert [r["Q"] for r in rows] == [False, True, False, False, True]


def test_f_trig_no_startup_pulse():
    rows = drive("F_TRIG", [{"CLK": c} for c in (False, True, False, False)])
    assert [r["Q"] for r in rows] == [False, False, True, False]


def test_ctu_counts_edges_resets_and_saturates():
    seq = [
        {"CU": False, "R": False, "PV": 2},
        {"CU": True},
        {"CU": False},
        {"CU": True},
        {"CU": True},
        {"R": True},
        {"R": False, "CU": False},
    ]
    rows = drive("CTU", seq)
    assert [r["CV"] for r in rows] == [0, 1, 1, 2, 2, 0, 0]
    assert [r["Q"] for r in rows] == [False, False, False, True, True, False, False]


def test_ctd_counts_down_from_load():
    seq = [
        {"CD": False, "LD": True, "PV": 2},
        {"LD": False, "CD": True},
        {"CD": False},
        {"CD": True},
    ]
    rows = drive("CTD", seq)
    assert [r["CV"] for r in rows] == [2, 1, 1, 0]
    assert [r["Q"] for r in rows] == [False, False, False, True]
