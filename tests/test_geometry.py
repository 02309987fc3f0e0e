import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from boxball import (
    POS_INF,
    CapacityProfile,
    CarrierSchedule,
    EulerState,
    FiniteOverflow,
    TodaState,
    XInt,
    expand,
    to_euler,
)


def test_profile_lookup():
    p = CapacityProfile(capacities=(3, 5), window_start=2, default_capacity=4)
    assert [p.capacity(n) for n in range(-1, 6)] == [4, 4, 4, 3, 5, 4, 4]
    assert p.caps_array(0, 6).tolist() == [4, 4, 3, 5, 4, 4]
    assert p.caps_array(-2, 3).tolist() == [4, 4, 4]


@pytest.mark.parametrize(
    "profile",
    [
        CapacityProfile(default_capacity=3),
        CapacityProfile(capacities=(2, 5, 1)),
        CapacityProfile(capacities=(3, 5), window_start=2, default_capacity=4),
    ],
)
def test_table_inline_rule_matches_capacity(profile):
    caps, ws, we, d = profile.table()
    assert caps == profile.capacities and d == profile.default_capacity
    assert (ws, we) == (profile.window_start, profile.window_start + len(caps))
    boxes = range(-2, ws + len(caps) + 4)
    inline = [caps[n - ws] if ws <= n < we else d for n in boxes]
    assert inline == [profile.capacity(n) for n in boxes]
    assert inline[2:] == profile.caps_array(0, len(boxes) - 2).tolist()


def test_profile_validation():
    with pytest.raises(ValueError):
        CapacityProfile(capacities=(0,))
    with pytest.raises(ValueError):
        CapacityProfile(default_capacity=0)
    with pytest.raises(ValueError):
        CapacityProfile(window_start=-1)
    with pytest.raises(ValueError):
        CapacityProfile(capacities=(2**63,))
    with pytest.raises(ValueError):
        CapacityProfile(default_capacity=2**63)


def test_boundaries_past_int64_raise():
    # four boxes of 2^62 segments end at segment 2^64, which int64 wraps to 0
    p = CapacityProfile(default_capacity=2**62)
    assert [p.boundary(0), p.boundary(1)] == [0, 2**62]
    with pytest.raises(FiniteOverflow):
        p.boundary(2)
    with pytest.raises(FiniteOverflow):
        # the last run covers segments 2^63 - 1 and 2^63: box 1's end and past it
        to_euler(TodaState(Q=(1, 2), E=(2**63 - 2,), X0=0, profile=p))
    # inside a stretch of adjacent boxes box 1 ends at s_2 = 2^63, reached
    # from s_1 by its capacity; after a gap box 2 starts there
    past = r"^segment boundary s_2 = 9223372036854775808 is past the int64 range$"
    with pytest.raises(FiniteOverflow, match=past):
        expand(EulerState(counts=[1, 1, 0, 1], profile=p))
    with pytest.raises(FiniteOverflow, match=past):
        expand(EulerState(counts=[1, 0, 1], profile=p))


def test_to_euler_checks_the_end_of_every_box_a_run_visits():
    # the run starts in box 2, which ends at s_3 = 3 * 2^61, inside int64;
    # it goes on into box 3, whose end s_4 = 2^63 is past it
    p = CapacityProfile(default_capacity=2**61)
    with pytest.raises(FiniteOverflow, match="s_4"):
        to_euler(TodaState(Q=(2**61 + 1,), E=(), X0=3 * 2**61 - 1, profile=p))
    # a run that ends with box 2 is fine
    st = to_euler(TodaState(Q=(1,), E=(), X0=3 * 2**61 - 1, profile=p))
    assert st.occupied == ((2, 1),)


def test_schedule_lookup_and_validation():
    s = CarrierSchedule(entries={1: 6, 3: XInt(2)}, default=POS_INF)
    assert s.at(1) == XInt(6)
    assert s.at(3) == XInt(2)
    assert s.at(0) == POS_INF
    assert s.at(99) == POS_INF
    with pytest.raises(ValueError):
        CarrierSchedule(entries={1: -1})
    with pytest.raises(ValueError):
        CarrierSchedule(default=XInt(-5))


def test_schedule_time_listed_twice_raises():
    # at(), schedule_json and the closed forms would each read another schedule
    # XInt has no order: a sort by (time, capacity) raises TypeError on the last
    for entries in (
        ((1, 3), (1, 1)),
        ((2, XInt(4)), (5, 1), (np.int64(2), 4)),
        ((3, POS_INF), (3, XInt(4))),
    ):
        with pytest.raises(ValueError, match=f"schedule time {entries[0][0]} is listed twice"):
            CarrierSchedule(entries=entries)


def test_schedule_times_past_int64_raise():
    # the closed forms put schedule times into int64 arrays
    for t in (2**63, -(2**63) - 1, 2**64):
        with pytest.raises(FiniteOverflow, match="schedule time"):
            CarrierSchedule(entries={t: 3})
    s = CarrierSchedule(entries={2**63 - 1: 3, -(2**63): 4})
    assert (s.at(2**63 - 1), s.at(-(2**63))) == (XInt(3), XInt(4))


def test_segment_geometry_alternating():
    p = CapacityProfile(capacities=(3, 5, 3, 5))
    assert p.boundary(0) == 0
    assert p.boundary(2) == 8
    assert p.segment_to_box(0) == 0
    assert p.segment_to_box(4) == 1
    assert p.segment_to_box(7) == 1
    assert p.segment_to_box(8) == 2
    with pytest.raises(ValueError):
        p.boundary(-1)
    with pytest.raises(ValueError):
        p.segment_to_box(-1)


def test_unit_geometry_is_identity():
    p = CapacityProfile()
    for k in (0, 1, 17, 400):
        assert p.segment_to_box(k) == k


def test_geometry_extends_with_default():
    p = CapacityProfile(capacities=(2,), default_capacity=3)
    # box 0 covers segments 0..1, later boxes 3 segments each
    assert p.segment_to_box(1) == 0
    assert p.segment_to_box(2) == 1
    assert p.segment_to_box(2 + 3 * 10) == 11
    assert [p.boundary(n) for n in range(4)] == [0, 2, 5, 8]


def test_caps_array_returns_a_copy():
    p = CapacityProfile(capacities=(2, 4))
    v = p.caps_array(0, 4)
    assert v.tolist() == [2, 4, 1, 1]
    v[0] = 9
    assert p.caps_array(0, 4).tolist() == [2, 4, 1, 1]
    assert np.array_equal(p.caps_array(1, 2), [4, 1])


def running_sum_bounds(profile, nboxes):
    """s_0 .. s_nboxes by adding up capacity(n) one box at a time."""
    bounds = [0]
    for n in range(nboxes):
        bounds.append(bounds[-1] + profile.capacity(n))
    return bounds


@st.composite
def profiles(draw):
    return CapacityProfile(
        capacities=draw(st.lists(st.integers(1, 6), max_size=8)),
        window_start=draw(st.integers(0, 6)),
        default_capacity=draw(st.integers(1, 4)),
    )


@given(profiles(), st.integers(0, 20), st.integers(0, 12))
@example(CapacityProfile(), 0, 3)
@example(CapacityProfile(default_capacity=3, window_start=4), 2, 5)
@example(CapacityProfile(capacities=(2, 5, 1), window_start=3, default_capacity=4), 1, 9)
def test_closed_form_geometry_matches_running_sum(profile, start, count):
    # every segment of every box from 0 to well past the window (and past
    # start+count), so both window edges and the default regions on each
    # side are covered
    nboxes = profile.window_start + len(profile.capacities) + 33
    ref = running_sum_bounds(profile, nboxes + 1)
    assert [profile.boundary(n) for n in range(nboxes + 2)] == ref
    for n in range(nboxes + 1):
        for s in range(ref[n], ref[n + 1]):
            assert profile.segment_to_box(s) == n
            assert profile.segment_capacity(s) == profile.capacity(n)
    window = ref[start : start + count + 1]
    assert [profile.boundary(n) for n in range(start, start + count + 1)] == window
    assert profile.caps_array(start, count).tolist() == [
        b - a for a, b in zip(window, window[1:])
    ]
