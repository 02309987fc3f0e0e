import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import capacities_for_state

from boxball import (
    CapacityProfile,
    EmptySequence,
    EulerState,
    TodaState,
    expand,
    from_euler,
    same_occupancy,
    to_euler,
)
from boxball.difftest import DiffBounds, random_case

UNIT = CapacityProfile()


def test_expand_right_then_left_justified():
    p = CapacityProfile(capacities=(2, 3))
    # 0 1 | 1 1 0
    assert expand(EulerState(counts=[1, 2], profile=p)) == ((1,), (4,))


def test_expand_merges_across_boxes():
    p = CapacityProfile(capacities=(3, 5))
    # 1 1 1 | 1 1 0 0 0
    assert expand(EulerState(counts=[3, 2], profile=p)) == ((0,), (5,))


def test_expand_identity_on_unit_capacities():
    st = EulerState(counts=[1, 0, 1, 1, 0, 1], profile=UNIT)
    assert expand(st) == ((0, 2, 5), (1, 4, 6))


def test_expand_preserves_per_box_sums():
    for i in range(300):
        rng = np.random.default_rng([31337, i])
        st, _ = random_case(rng, DiffBounds(window=20, max_delta=5, steps=1))
        runs = list(zip(*expand(st)))
        boxes = range(st.window_start, st.window_start + len(st.counts) + 1)
        bounds = [st.profile.boundary(n) for n in boxes]
        sums = [
            sum(max(0, min(b, y) - max(a, x)) for x, y in runs)
            for a, b in zip(bounds[:-1], bounds[1:])
        ]
        assert sums == st.counts.tolist()


def test_from_euler_capacities_examples():
    p = CapacityProfile(capacities=(2, 3))
    # expands to 0 1 | 1 1 0 (test_expand_right_then_left_justified)
    ts = from_euler(EulerState(counts=[1, 2], profile=p))
    assert (ts.N, ts.Q, ts.E, ts.X0) == (1, (3,), (), 1)
    assert capacities_for_state(ts) == ((2,), (3,))

    ts = from_euler(EulerState(counts=[1, 1, 0, 1], profile=UNIT))
    assert (ts.N, ts.Q, ts.E, ts.X0) == (2, (2, 1), (1,), 0)
    assert capacities_for_state(ts) == ((1, 1), (1, 1))


def test_from_euler_empty():
    with pytest.raises(EmptySequence):
        from_euler(EulerState(counts=[0, 0, 0], profile=UNIT))


@pytest.mark.parametrize("capacity", [10**6, 2**62])
def test_from_euler_memory_follows_the_balls(capacity):
    # 0 1 | 1 0 .. 0 | 0 0 1: the runs come from the occupied boxes'
    # boundaries, not from a segment array as long as the big box
    state = EulerState(counts=[1, 1, 1], profile=CapacityProfile(capacities=(2, capacity, 3)))
    tracemalloc.start()
    try:
        ts = from_euler(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (ts.Q, ts.E, ts.X0) == ((2, 1), (capacity + 1,), 1)
    assert peak < 1_000_000


def test_segment_to_box_examples():
    p = CapacityProfile(capacities=(3, 5, 3, 5))
    assert p.segment_to_box(4) == 1
    assert p.segment_to_box(0) == 0
    assert all(UNIT.segment_to_box(k) == k for k in range(10))


def test_to_euler_examples():
    st = to_euler(TodaState(Q=(3, 1), E=(2,), X0=0, profile=UNIT))
    assert st.counts.tolist() == [1, 1, 1, 0, 0, 1]

    p = CapacityProfile(capacities=(2, 3))
    assert to_euler(TodaState(Q=(3,), E=(), X0=1, profile=p)).counts.tolist() == [1, 2]


def test_round_trip_on_random_states():
    for i in range(300):
        rng = np.random.default_rng([777, i])
        st, _ = random_case(rng, DiffBounds(window=20, max_delta=5, steps=1))
        back = to_euler(from_euler(st))
        assert back.time == st.time
        assert same_occupancy(back, st)


@st.composite
def nonzero_states(draw):
    caps = draw(st.lists(st.integers(1, 5), min_size=1, max_size=12))
    counts = [draw(st.integers(0, c)) for c in caps]
    if sum(counts) == 0:
        counts[draw(st.integers(0, len(caps) - 1))] = 1
    return EulerState(counts=counts, profile=CapacityProfile(capacities=caps))


@given(nonzero_states())
def test_round_trip_property(state):
    assert same_occupancy(to_euler(from_euler(state)), state)


def test_block_decomposition_validation():
    with pytest.raises(ValueError):
        TodaState(Q=(0,), E=(), X0=0, profile=UNIT)
    with pytest.raises(ValueError):
        TodaState(Q=(1, 1), E=(0,), X0=0, profile=UNIT)
    with pytest.raises(ValueError):
        TodaState(Q=(1,), E=(1,), X0=0, profile=UNIT)

