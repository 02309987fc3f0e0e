import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from boxball import (
    POS_INF,
    CapacityProfile,
    CarrierSchedule,
    EulerState,
    XInt,
    carrier_oracle_step,
    constant_schedule,
    euler_step,
    nukdv_step,
    same_occupancy,
    umkdv_residual,
    unbounded_schedule,
    unit_profile,
)
from boxball.difftest import DiffBounds, random_case

UNIT = unit_profile()


def unit_state(counts, time=0):
    return EulerState(counts=counts, profile=UNIT, time=time)


def test_free_carrier_step():
    nxt, _ = euler_step(unit_state([1, 1, 0, 1, 0, 0]), unbounded_schedule())
    assert nxt.counts.tolist() == [0, 0, 1, 0, 1, 1]
    assert nxt.time == 1


def test_all_zero_state_is_fixed():
    st = EulerState(counts=[0, 0, 0], profile=CapacityProfile(capacities=(2, 3, 1)))
    nxt, tr = euler_step(st, constant_schedule(2))
    assert nxt.counts.tolist() == [0, 0, 0]
    assert tr.limited_counts.tolist() == [0, 0, 0]
    assert tr.carrier_loads.tolist() == [0, 0, 0, 0]
    assert tr.removed.tolist() == [0, 0, 0]
    assert carrier_oracle_step(st, constant_schedule(2)).counts.tolist() == [0, 0, 0]


def test_capped_carrier_step_with_recovery():
    st = unit_state([1, 1, 1, 0, 0, 1, 0])
    nxt, tr = euler_step(st, constant_schedule(2))
    assert nxt.counts.tolist() == [0, 0, 1, 1, 1, 0, 1]
    assert tr.limited_counts.tolist() == [0, 0, 0, 1, 1, 0, 1]
    assert tr.removed.tolist() == [0, 0, 1, 0, 0, 0, 0]
    # recovery puts back exactly what the size limit took, box by box
    assert (tr.limited_counts + tr.removed).tolist() == nxt.counts.tolist()
    assert carrier_oracle_step(st, constant_schedule(2)) == nxt


def test_oracle_matches_on_worked_examples():
    sched = unbounded_schedule()
    for counts in ([1, 1, 0, 1, 0, 0], [1, 1, 1, 0, 0, 1, 0], [1, 0, 1, 1, 0, 0]):
        st = unit_state(counts)
        assert carrier_oracle_step(st, sched) == euler_step(st, sched)[0]


def test_oracle_removal_tiny_case():
    st = unit_state([1, 1])
    sched = constant_schedule(1)
    nxt, tr = euler_step(st, sched)
    assert tr.removed.tolist()[:2] == [0, 1]
    assert carrier_oracle_step(st, sched) == nxt
    assert nxt.total_balls == 2


@pytest.mark.parametrize("m", [1, 3, None])
def test_single_ball_advances_one_box(m):
    sched = unbounded_schedule() if m is None else constant_schedule(m)
    for k in range(4):
        st = unit_state([0] * k + [1])
        nxt = carrier_oracle_step(st, sched)
        assert nxt.counts.tolist()[: k + 2] == [0] * (k + 1) + [1]


def test_nukdv_examples():
    assert nukdv_step(unit_state([1, 0, 1, 1, 0, 0])).counts.tolist() == [0, 1, 0, 0, 1, 1]
    # single ball moves right regardless of position
    st = nukdv_step(unit_state([0, 0, 1]))
    assert st.counts.tolist()[:4] == [0, 0, 0, 1]


def test_nukdv_equals_unbounded_euler_on_random_states():
    for i in range(400):
        rng = np.random.default_rng([2024, i])
        st, _ = random_case(rng, DiffBounds(window=20, max_delta=4, steps=1))
        nxt, tr = euler_step(st, unbounded_schedule())
        assert nukdv_step(st) == nxt
        # no capacity bound: nothing removed, new counts equal the limited ones
        assert tr.removed.sum() == 0
        assert np.array_equal(tr.limited_counts, nxt.counts)


def test_ball_conservation_and_bounds_on_random_states():
    for i in range(400):
        rng = np.random.default_rng([99, i])
        st, sched = random_case(rng, DiffBounds(window=24, max_delta=5, steps=6))
        cur = st
        for _ in range(6):
            m = sched.at(cur.time + 1)
            ext = len(cur.counts) + cur.total_balls
            caps = cur.profile.caps_array(cur.window_start, ext)
            cur, tr = euler_step(cur, sched)
            assert cur.total_balls == st.total_balls
            assert tr.carrier_loads.min() >= 0
            if not m.is_pos_inf:
                assert tr.carrier_loads.max() <= m.finite
            lim = tr.limited_counts
            assert lim.min() >= 0
            assert np.all(lim <= caps[: len(lim)])
            assert tr.removed.min() >= 0


def test_umkdv_residual_zero_and_detects_corruption():
    st = unit_state([1, 1, 1, 0, 0, 1, 0])
    nxt, tr = euler_step(st, constant_schedule(2))
    rep = umkdv_residual(st, nxt, tr, XInt(2))
    assert rep.ok and rep.max_violation == 0 and rep.carrier_identity_max == 0

    bad_counts = nxt.counts.copy()
    bad_counts[1], bad_counts[2] = bad_counts[2], bad_counts[1]  # shift a ball left
    bad = EulerState(counts=bad_counts, profile=UNIT, time=nxt.time)
    assert not umkdv_residual(st, bad, tr, XInt(2)).ok


def test_umkdv_residual_infinite_capacity():
    st = unit_state([1, 0, 1, 1, 0, 0])
    nxt, tr = euler_step(st, unbounded_schedule())
    assert umkdv_residual(st, nxt, tr, POS_INF).ok


def test_umkdv_residual_all_zero_state():
    st = EulerState(counts=[0, 0], profile=CapacityProfile(capacities=(2, 3)))
    nxt, tr = euler_step(st, constant_schedule(1))
    rep = umkdv_residual(st, nxt, tr, XInt(1))
    assert rep.ok and rep.boxes == 2


def test_umkdv_residual_random_states():
    for i in range(300):
        rng = np.random.default_rng([5150, i])
        st, sched = random_case(rng, DiffBounds(window=24, max_delta=5, steps=1))
        nxt, tr = euler_step(st, sched)
        assert umkdv_residual(st, nxt, tr, sched.at(st.time + 1)).ok


@st.composite
def windows(draw):
    caps = draw(st.lists(st.integers(1, 5), min_size=1, max_size=12))
    counts = [draw(st.integers(0, c)) for c in caps]
    m = draw(st.one_of(st.integers(1, 10).map(XInt), st.just(POS_INF)))
    return caps, counts, m


@given(windows())
def test_oracle_equivalence_property(case):
    caps, counts, m = case
    st_ = EulerState(counts=counts, profile=CapacityProfile(capacities=caps))
    sched = CarrierSchedule(default=m)
    nxt, tr = euler_step(st_, sched)
    assert carrier_oracle_step(st_, sched) == nxt
    assert nxt.total_balls == st_.total_balls
    assert umkdv_residual(st_, nxt, tr, m).ok
    if m.is_pos_inf:
        assert nukdv_step(st_) == nxt


def test_window_overflow_guard(monkeypatch):
    from boxball import euler as euler_mod

    real_sweep = euler_mod._kernels.carrier_sweep

    def broken_sweep(c, caps, m_val, m_capped):
        new_counts, limited, loads, removed = real_sweep(c, caps, m_val, m_capped)
        loads = loads.copy()
        loads[-1] = 1  # pretend the carrier never emptied
        return new_counts, limited, loads, removed

    monkeypatch.setattr(euler_mod._kernels, "carrier_sweep", broken_sweep)
    with pytest.raises(euler_mod.WindowOverflow):
        euler_step(unit_state([1, 0]), unbounded_schedule())


def test_window_start_offsets_are_respected():
    p = CapacityProfile(capacities=(4, 4), window_start=3)
    st = EulerState(counts=[2, 1], profile=p, window_start=3)
    nxt, _ = euler_step(st, unbounded_schedule())
    assert nxt.window_start == 3
    assert nxt.total_balls == 3


def test_state_validation():
    with pytest.raises(ValueError):
        EulerState(counts=[2], profile=UNIT)  # above capacity
    with pytest.raises(ValueError):
        EulerState(counts=[-1], profile=UNIT)
    with pytest.raises(ValueError):
        EulerState(counts=[1], profile=UNIT, window_start=-2)


def test_same_occupancy_alignment():
    a = EulerState(counts=[0, 1, 0], profile=UNIT, window_start=0)
    b = EulerState(counts=[1, 0, 0, 0], profile=UNIT, window_start=1)
    c = EulerState(counts=[1], profile=UNIT, window_start=2)
    assert same_occupancy(a, b)
    assert not same_occupancy(a, c)


@st.composite
def padded_windows(draw):
    """Two windows over one zero-padded line: each draws its own nonzero
    core (or shares the first one) and its own leading/trailing zeros, so
    equal and unequal lines both occur, with any window_start and length."""
    cap = 3
    profile = CapacityProfile(default_capacity=cap)
    core_a = draw(st.lists(st.integers(0, cap), max_size=6))
    at_a = draw(st.integers(0, 6))
    if draw(st.booleans()):
        core_b, at_b = core_a, at_a
    else:
        core_b = draw(st.lists(st.integers(0, cap), max_size=6))
        at_b = draw(st.integers(0, 6))
    states = []
    for core, at in ((core_a, at_a), (core_b, at_b)):
        start = draw(st.integers(0, at))
        trail = draw(st.integers(0, 3))
        counts = [0] * (at - start) + core + [0] * trail
        states.append(EulerState(counts=counts, profile=profile, window_start=start))
    return states


def occupancy_oracle(state):
    return {
        state.window_start + i: int(c) for i, c in enumerate(state.counts) if c
    }


@given(padded_windows())
def test_same_occupancy_matches_box_oracle(pair):
    a, b = pair
    expected = occupancy_oracle(a) == occupancy_oracle(b)
    assert same_occupancy(a, b) == expected
    assert same_occupancy(b, a) == expected


def test_schedule_entry_applies_to_arriving_time():
    # stepping from t=0 uses the capacity labelled t=1
    st = unit_state([1, 1, 1, 0, 0, 1, 0])
    sched = CarrierSchedule(entries={1: 2}, default=POS_INF)
    nxt, _ = euler_step(st, sched)
    assert nxt.counts.tolist() == [0, 0, 1, 1, 1, 0, 1]
    # from t=1 the default (+inf) applies again
    nxt2, tr2 = euler_step(nxt, sched)
    assert tr2.removed.sum() == 0
