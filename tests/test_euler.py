import tracemalloc

import numpy as np
import pytest
from dense_views import lay, trace_arrays
from hypothesis import example, given
from hypothesis import strategies as st

from boxball import (
    EulerStepTrace,
    POS_INF,
    CapacityProfile,
    CarrierSchedule,
    EulerState,
    FiniteOverflow,
    TodaState,
    XInt,
    carrier_oracle_step,
    euler_step,
    expand,
    first_difference,
    same_occupancy,
    to_euler,
    umkdv_residual,
)
from boxball.difftest import DiffBounds, random_case
from boxball.euler import MAX_SPAN, ResidualReport

UNIT = CapacityProfile()


def unit_state(counts, time=0):
    return EulerState(counts=counts, profile=UNIT, time=time)


def by_box(state):
    """Nonzero counts by absolute box."""
    return {
        state.window_start + i: int(c) for i, c in enumerate(state.counts) if c
    }


def line(state, stop):
    """Counts on absolute boxes 0 .. stop-1, zero outside the window."""
    boxes = by_box(state)
    return [boxes.get(n, 0) for n in range(stop)]


def test_free_carrier_step():
    nxt, _ = euler_step(unit_state([1, 1, 0, 1, 0, 0]), CarrierSchedule())
    assert nxt.counts.tolist() == [0, 0, 1, 0, 1, 1]
    assert nxt.time == 1


def test_all_zero_state_is_fixed():
    st = EulerState(counts=[0, 0, 0], profile=CapacityProfile(capacities=(2, 3, 1)))
    nxt, tr = euler_step(st, CarrierSchedule(default=2))
    assert nxt.counts.tolist() == [0, 0, 0]
    limited, loads, removed = trace_arrays(tr, nxt)
    assert limited.tolist() == [0, 0, 0]
    assert loads.tolist() == [0, 0, 0, 0]
    assert removed.tolist() == [0, 0, 0]
    assert carrier_oracle_step(st, CarrierSchedule(default=2)).counts.tolist() == [0, 0, 0]


def test_capped_carrier_step_with_recovery():
    st = unit_state([1, 1, 1, 0, 0, 1, 0])
    nxt, tr = euler_step(st, CarrierSchedule(default=2))
    assert nxt.counts.tolist() == [0, 0, 1, 1, 1, 0, 1]
    limited, _, removed = trace_arrays(tr, nxt)
    assert limited.tolist() == [0, 0, 0, 1, 1, 0, 1]
    assert removed.tolist() == [0, 0, 1, 0, 0, 0, 0]
    # recovery puts back exactly what the size limit took, box by box
    assert (limited + removed).tolist() == nxt.counts.tolist()
    assert carrier_oracle_step(st, CarrierSchedule(default=2)) == nxt


def test_oracle_matches_on_worked_examples():
    sched = CarrierSchedule()
    for counts in ([1, 1, 0, 1, 0, 0], [1, 1, 1, 0, 0, 1, 0], [1, 0, 1, 1, 0, 0]):
        st = unit_state(counts)
        assert carrier_oracle_step(st, sched) == euler_step(st, sched)[0]


def test_oracle_removal_tiny_case():
    st = unit_state([1, 1])
    sched = CarrierSchedule(default=1)
    nxt, tr = euler_step(st, sched)
    assert trace_arrays(tr, nxt)[2].tolist()[:2] == [0, 1]
    assert carrier_oracle_step(st, sched) == nxt
    assert nxt.total_balls == 2


@pytest.mark.parametrize("m", [1, 3, None])
def test_single_ball_advances_one_box(m):
    sched = CarrierSchedule() if m is None else CarrierSchedule(default=m)
    for k in range(4):
        st = unit_state([0] * k + [1])
        nxt = carrier_oracle_step(st, sched)
        assert line(nxt, k + 2) == [0] * (k + 1) + [1]


def test_unbounded_trace_removes_nothing_on_random_states():
    for i in range(400):
        rng = np.random.default_rng([2024, i])
        st, _ = random_case(rng, DiffBounds(window=20, max_delta=4, steps=1))
        nxt, tr = euler_step(st, CarrierSchedule())
        # no capacity bound: nothing removed, new counts equal the limited ones
        limited, _, removed = trace_arrays(tr, nxt)
        assert removed.sum() == 0
        assert np.array_equal(limited, nxt.counts)


def test_ball_conservation_and_bounds_on_random_states():
    for i in range(400):
        rng = np.random.default_rng([99, i])
        st, sched = random_case(rng, DiffBounds(window=24, max_delta=5, steps=6))
        cur = st
        for _ in range(6):
            m = sched.at(cur.time + 1)
            cur, tr = euler_step(cur, sched)
            # the trace lies inside the new state's window
            lim, loads, removed = trace_arrays(tr, cur)
            caps = cur.profile.caps_array(cur.window_start, len(lim))
            assert cur.total_balls == st.total_balls
            assert loads.min() >= 0
            if m.bound is not None:
                assert loads.max() <= m.bound
            assert lim.min() >= 0
            assert np.all(lim <= caps)
            assert removed.min() >= 0


def test_umkdv_residual_zero_and_detects_corruption():
    st = unit_state([1, 1, 1, 0, 0, 1, 0])
    nxt, tr = euler_step(st, CarrierSchedule(default=2))
    rep = umkdv_residual(st, nxt, tr, XInt(2))
    assert rep.ok and rep.max_violation == 0 and rep.carrier_identity_max == 0

    bad_counts = nxt.counts.copy()
    bad_counts[1], bad_counts[2] = bad_counts[2], bad_counts[1]  # shift a ball left
    bad = EulerState(counts=bad_counts, profile=UNIT, time=nxt.time)
    assert not umkdv_residual(st, bad, tr, XInt(2)).ok


def test_umkdv_residual_infinite_capacity():
    st = unit_state([1, 0, 1, 1, 0, 0])
    nxt, tr = euler_step(st, CarrierSchedule())
    assert umkdv_residual(st, nxt, tr, POS_INF).ok


def test_umkdv_residual_rejects_a_negative_capacity():
    # read as a bound, M = -1 reported a violation of 4 instead of raising
    st = unit_state([1, 1, 1, 0, 0, 1, 0])
    nxt, tr = euler_step(st, CarrierSchedule(default=2))
    for m in (-1, np.int64(-5)):
        with pytest.raises(ValueError, match="carrier capacity must be >= 0"):
            umkdv_residual(st, nxt, tr, m)


def test_umkdv_residual_all_zero_state():
    st = EulerState(counts=[0, 0], profile=CapacityProfile(capacities=(2, 3)))
    nxt, tr = euler_step(st, CarrierSchedule(default=1))
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
# the queue empties at box 1 and refills at box 5
@example(([1] * 6, [1, 0, 0, 0, 0, 1], POS_INF))
@example(([1] * 6, [1, 0, 0, 0, 0, 1], XInt(1)))
# a ball trimmed at box 0, restored there, where the sweep put nothing
@example(([2], [2], XInt(1)))
@example(([3, 1], [3, 0], XInt(0)))
@example(([1, 2], [0, 0], XInt(1)))  # all zero
@example(([], [], POS_INF))  # empty
def test_oracle_equivalence_property(case):
    caps, counts, m = case
    st_ = EulerState(counts=counts, profile=CapacityProfile(capacities=caps))
    sched = CarrierSchedule(default=m)
    nxt, tr = euler_step(st_, sched)
    assert carrier_oracle_step(st_, sched) == nxt
    assert nxt.total_balls == st_.total_balls
    assert umkdv_residual(st_, nxt, tr, m).ok


def test_window_overflow_guard(monkeypatch):
    # the sparse sweep walks until the carrier is empty; the ball-by-ball
    # oracle walks its own dense window and guards its right edge
    from boxball import euler as euler_mod

    real_walk = euler_mod._kernels.ball_queue_sweep

    def broken_walk(*args):
        out, _ = real_walk(*args)
        return out, 1  # pretend the carrier never emptied

    monkeypatch.setattr(euler_mod._kernels, "ball_queue_sweep", broken_walk)
    with pytest.raises(euler_mod.WindowOverflow):
        carrier_oracle_step(unit_state([1, 0]), CarrierSchedule())


def test_window_start_offsets_are_respected():
    p = CapacityProfile(capacities=(4, 4), window_start=3)
    st = EulerState(counts=[2, 1], profile=p, window_start=3)
    nxt, _ = euler_step(st, CarrierSchedule())
    assert nxt.window_start == 3
    assert nxt.total_balls == 3


def test_window_follows_a_lone_soliton():
    # a size-3 soliton moves 3 boxes a step; its window stays short while
    # the distance travelled grows
    st = unit_state([1, 1, 1])
    free = CarrierSchedule()
    for _ in range(10**4):
        st, _ = euler_step(st, free)
        assert len(st.counts) <= 10
    assert st.window_start >= 3 * (10**4 - 1)
    assert by_box(st) == {3 * 10**4 + i: 1 for i in range(3)}


def test_window_starts_at_the_first_ball():
    p = CapacityProfile(default_capacity=2)
    st = EulerState(counts=[0, 0, 2, 1, 0], profile=p, window_start=4)
    sched = CarrierSchedule(default=2)
    nxt, tr = euler_step(st, sched)
    assert nxt.window_start == 6
    # the right edge stays where it was unless a ball passes it
    assert nxt.window_start + len(nxt.counts) == nxt.window_end == 9
    # every box the trace names lies in the new window
    trace_arrays(tr, nxt)
    assert carrier_oracle_step(st, sched) == nxt
    assert carrier_oracle_step(st, sched).window_start == 6
    assert umkdv_residual(st, nxt, tr, XInt(2)).ok
    # an all-zero state keeps its window
    zero = EulerState(counts=[0, 0], profile=p, window_start=4)
    assert euler_step(zero, sched)[0].window_start == 4


def _on_boxes(values, start, lo, length):
    # values (from box `start`) on boxes lo .. lo+length-1, zero elsewhere
    out = np.zeros(length, dtype=np.int64)
    out[start - lo : start - lo + len(values)] = values
    return out


def _union(a, b):
    # (first box, length) of the smallest window holding both windows
    lo = min(a.window_start, b.window_start)
    hi = max(a.window_start + len(a.counts), b.window_start + len(b.counts))
    return lo, hi - lo


def dense_first_difference(a, b):
    """first_difference over the two dense windows laid onto their union."""
    lo, w = _union(a, b)
    ua = _on_boxes(a.counts, a.window_start, lo, w)
    ub = _on_boxes(b.counts, b.window_start, lo, w)
    diff = np.flatnonzero(ua != ub)
    if not len(diff):
        return None
    i = int(diff[0])
    return lo + i, int(ua[i]), int(ub[i])


def dense_umkdv_residual(before, after, trace, m):
    """umkdv_residual as whole-array arithmetic over every box of the union
    of the two windows, with the trace laid onto after's window."""
    lo, w = _union(before, after)
    u = _on_boxes(before.counts, before.window_start, lo, w)
    up = _on_boxes(after.counts, after.window_start, lo, w)
    caps = before.profile.caps_array(lo, w)

    s_full = np.zeros(w + 1, dtype=np.int64)
    np.cumsum(u - up, out=s_full[1:])
    s = s_full[:-1]

    base = np.minimum(caps - u, s)
    if m.bound is None:
        excess = np.zeros(w, dtype=np.int64)
    else:
        excess = np.maximum(0, s + u - m.bound)
    max_violation = int(np.max(np.abs(up - (base + excess)), initial=0))

    loads = _on_boxes(trace_arrays(trace, after)[1], after.window_start, lo, w + 1)
    carrier_identity_max = int(np.max(np.abs(loads - s_full), initial=0))
    return ResidualReport(
        max_violation=max_violation,
        carrier_identity_max=carrier_identity_max,
        boxes=w,
    )


def _pairs(values, start):
    return tuple((start + i, v) for i, v in enumerate(values) if v)


@st.composite
def residual_cases(draw):
    """A step from a state with a random window start and leading zeros;
    `after` is the true step or, half the time, a random state on its own
    random window with a random trace inside that window."""
    caps = draw(st.lists(st.integers(1, 4), min_size=1, max_size=10))
    profile = CapacityProfile(capacities=caps, window_start=2)
    lead = draw(st.integers(0, 4))
    start = draw(st.integers(0, 4))
    counts = [0] * lead + [
        draw(st.integers(0, profile.capacity(start + lead + i))) for i in range(len(caps))
    ]
    before = EulerState(counts=counts, profile=profile, window_start=start)
    m = draw(st.one_of(st.integers(0, 6).map(XInt), st.just(POS_INF)))
    after, trace = euler_step(before, CarrierSchedule(default=m))
    if draw(st.booleans()):
        a_start = draw(st.integers(0, 12))
        a_counts = [
            draw(st.integers(0, profile.capacity(a_start + i)))
            for i in range(draw(st.integers(1, 12)))
        ]
        after = EulerState(counts=a_counts, profile=profile, window_start=a_start)
        w = len(a_counts)
        trace = EulerStepTrace(
            limited_counts=_pairs(draw(st.lists(st.integers(0, 4), min_size=w, max_size=w)), a_start),
            carrier_loads=_pairs(draw(st.lists(st.integers(0, 4), min_size=w + 1, max_size=w + 1)), a_start),
            removed=(),
        )
    return before, after, trace, m


@given(residual_cases())
def test_residual_matches_dense_reference(case):
    before, after, trace, m = case
    assert umkdv_residual(before, after, trace, m) == dense_umkdv_residual(before, after, trace, m)


@given(residual_cases(), st.data())
def test_residual_reads_no_load_outside_lo_hi(case, data):
    # loads left of lo and right of hi, which a true step never lists
    before, after, trace, m = case
    lo = min(before.window_start, after.window_start)
    hi = max(before.window_end, after.window_end)
    boxes = data.draw(st.lists(st.integers(0, lo - 1), unique=True)) if lo else []
    boxes += data.draw(st.lists(st.integers(hi + 1, hi + 6), min_size=1, unique=True))
    value = data.draw(st.integers(1, 9))
    loads = tuple(sorted(trace.carrier_loads + tuple((b, value) for b in boxes)))
    outside = EulerStepTrace(trace.limited_counts, loads, trace.removed)
    assert umkdv_residual(before, after, outside, m) == umkdv_residual(before, after, trace, m)


@given(residual_cases())
def test_residual_on_different_windows_matches_one_common_window(case):
    before, after, trace, m = case
    lo = min(before.window_start, after.window_start)
    hi = max(before.window_end, after.window_end)

    def common(state):
        counts = lay(state.occupied, lo, hi - lo)
        return EulerState(counts=counts, profile=state.profile, window_start=lo)

    # the trace names absolute boxes, so it needs no re-laying
    assert umkdv_residual(before, after, trace, m) == umkdv_residual(
        common(before), common(after), trace, m
    )


def test_residual_flags_a_ball_missing_left_of_the_window():
    st = unit_state([0, 1, 1, 0, 0, 0])
    nxt, tr = euler_step(st, CarrierSchedule(default=1))
    # M = 1 trims the second ball, and recovery puts it back at box 2
    assert nxt.window_start == 1 and by_box(nxt) == {2: 1, 3: 1}
    assert umkdv_residual(st, nxt, tr, XInt(1)).ok
    # drop box 2 from the window: the ball there is missing, and it lies
    # left of the new window
    k = 2 - nxt.window_start + 1
    short = EulerState(counts=nxt.counts[k:], profile=UNIT, time=1, window_start=3)
    short_tr = EulerStepTrace(
        *(tuple(p for p in pairs if p[0] >= 3) for pairs in (tr.limited_counts, tr.carrier_loads, tr.removed))
    )
    assert by_box(short) == {3: 1}
    assert not umkdv_residual(st, short, short_tr, XInt(1)).ok


def test_residual_reads_a_gap_at_its_largest_capacity():
    # the claimed step leaves every box empty: S = 3 over boxes 1 .. 5,
    # whose largest capacity (4, at box 3) bounds the expected count there
    profile = CapacityProfile(capacities=(3, 1, 2, 4, 1), default_capacity=1)
    before = EulerState(counts=[3], profile=profile)
    after = EulerState(counts=[0] * 6, profile=profile)
    empty = EulerStepTrace((), (), ())
    for m, worst in ((POS_INF, 3), (XInt(1), 3 + 2)):
        rep = umkdv_residual(before, after, empty, m)
        assert rep == dense_umkdv_residual(before, after, empty, m)
        assert (rep.max_violation, rep.carrier_identity_max, rep.boxes) == (worst, 3, 6)


def one_ball_changes(counts, caps):
    """Every count array one ball away from `counts` within 0 .. caps: a
    ball removed, added, or moved to another box."""
    for a in range(len(counts)):
        if counts[a]:
            removed = counts.copy()
            removed[a] -= 1
            yield removed
            for b in range(len(counts)):
                if b != a and removed[b] < caps[b]:
                    moved = removed.copy()
                    moved[b] += 1
                    yield moved
        if counts[a] < caps[a]:
            added = counts.copy()
            added[a] += 1
            yield added


@pytest.mark.parametrize("m_choices", [(), (*map(XInt, range(4)), POS_INF), (POS_INF,)],
                         ids=["criterion_3", "small_m", "inf"])
def test_residual_has_exactly_one_zero(m_choices):
    # S_n reads only boxes left of n, so the single equation fixes U' box by
    # box: every state one ball away from euler_step's output violates it,
    # on the two windows and the box past them
    bounds = DiffBounds(window=32, max_delta=5, m_choices=m_choices, steps=1, include_toda=False)
    for i in range(25):
        st, sched = random_case(np.random.default_rng([77, i]), bounds)
        m = sched.at(1)
        nxt, tr = euler_step(st, sched)
        lo = min(st.window_start, nxt.window_start)
        w = max(st.window_end, nxt.window_end) + 1 - lo
        assert umkdv_residual(st, nxt, tr, m).ok
        caps = st.profile.caps_array(lo, w)
        for counts in one_ball_changes(lay(nxt.occupied, lo, w), caps):
            other = EulerState(counts=counts, profile=st.profile, time=1, window_start=lo)
            assert umkdv_residual(st, other, tr, m).max_violation > 0, (st, m, counts)


def test_far_apart_balls_cost_no_memory_for_the_gap():
    # two balls 10^7 boxes apart: one dense int64 array over the gap is 80 MB
    state = to_euler(TodaState(Q=(1, 1), E=(10**7 - 1,), X0=0, profile=UNIT))
    tracemalloc.start()
    try:
        nxt, tr = euler_step(state, CarrierSchedule())
        rep = umkdv_residual(state, nxt, tr, POS_INF)
        same = same_occupancy(nxt, to_euler(TodaState(Q=(1, 1), E=(10**7 - 1,), X0=1, profile=UNIT)))
        runs = expand(nxt)
        oracle = carrier_oracle_step(state, CarrierSchedule(default=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert nxt.occupied == ((1, 1), (10**7 + 1, 1))
    assert oracle == nxt
    assert rep.ok and rep.boxes == 10**7 + 2
    assert same
    assert runs == ((1, 10**7 + 1), (2, 10**7 + 2))
    assert peak < 1_000_000


def test_repr_writes_the_window_ends_and_the_pairs():
    # a dense view over 10^7 boxes is 80 MB, and one near MAX_SPAN boxes
    # could not be allocated at all
    near = to_euler(TodaState(Q=(1, 1), E=(10**7 - 1,), X0=0, profile=UNIT))
    widest = to_euler(TodaState(Q=(1, 1), E=(MAX_SPAN - 2,), X0=0, profile=UNIT))
    tracemalloc.start()
    try:
        texts = [repr(near), repr(widest)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert texts[0] == "EulerState(t=0, window=[0, 10000001), occupied=[(0, 1), (10000000, 1)])"
    assert texts[1] == (
        f"EulerState(t=0, window=[0, {MAX_SPAN}), occupied=[(0, 1), ({MAX_SPAN - 1}, 1)])"
    )
    assert peak < 1_000_000


def test_window_past_an_int64_array_raises_before_the_walk():
    # the second ball at box MAX_SPAN - 2 moves on to the window's last
    # possible box; one box further, the window would not fit an int64 array
    def pair(gap):
        return to_euler(TodaState(Q=(1, 1), E=(gap,), X0=0, profile=UNIT))

    nxt, _ = euler_step(pair(MAX_SPAN - 3), CarrierSchedule())
    assert nxt.occupied == ((1, 1), (MAX_SPAN - 1, 1))
    assert (nxt.window_start, nxt.window_end) == (0, MAX_SPAN)
    with pytest.raises(FiniteOverflow, match="int64 window"):
        euler_step(pair(MAX_SPAN - 2), CarrierSchedule())
    with pytest.raises(FiniteOverflow, match="int64 array"):
        pair(MAX_SPAN - 1)
    # a carrier of 2^62 balls leaving a box of capacity 2^62 would fill the
    # next 2^62 unit boxes
    big = CapacityProfile(capacities=(2**62,))
    with pytest.raises(FiniteOverflow, match="4611686018427387904 balls"):
        euler_step(EulerState(counts=[2**62], profile=big), CarrierSchedule())


def test_first_difference_reads_absolute_boxes():
    a = EulerState(counts=[0, 1, 0, 2], profile=CapacityProfile(default_capacity=2))
    b = EulerState(counts=[1, 0, 1], profile=a.profile, window_start=1)
    assert first_difference(a, b) == (3, 2, 1)
    assert first_difference(b, a) == (3, 1, 2)
    c = EulerState(counts=[1, 0, 2, 0], profile=a.profile, window_start=1)
    assert first_difference(a, c) is None


def test_state_validation():
    with pytest.raises(ValueError):
        EulerState(counts=[2], profile=UNIT)  # above capacity
    with pytest.raises(ValueError):
        EulerState(counts=[-1], profile=UNIT)
    with pytest.raises(ValueError):
        EulerState(counts=[1], profile=UNIT, window_start=-2)


@pytest.mark.parametrize("counts", [[1.5], [1.0], ["1"], [True], [0, 1, 0.5], np.array([1.0])])
def test_non_integral_counts_raise(counts):
    # an int64 cast would hold [1.5] as 1 ball and parse "1"
    with pytest.raises(ValueError, match="counts must be int64 integers"):
        EulerState(counts=counts, profile=CapacityProfile(default_capacity=2))


def test_integer_counts_of_any_integer_type_are_accepted():
    p = CapacityProfile(default_capacity=3)
    for counts in ([0, 2, 1], [np.int32(0), np.int64(2), 1], np.array([0, 2, 1], dtype=np.uint8)):
        st = EulerState(counts=counts, profile=p)
        assert st.occupied == ((1, 2), (2, 1))
        assert all(type(v) is int for pair in st.occupied for v in pair)
    for empty in ([], (), np.array([], dtype=np.float64)):
        assert EulerState(counts=empty, profile=p).occupied == ()


def test_ball_total_past_int64_raises():
    # every count fits, but their int64 sum wraps negative
    big = CapacityProfile(capacities=(2**62, 2**62))
    with pytest.raises(FiniteOverflow, match="ball total 9223372036854775808"):
        EulerState(counts=[2**62, 2**62], profile=big)
    assert EulerState(counts=[2**62, 2**62 - 1], profile=big).total_balls == 2**63 - 1


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


@given(padded_windows())
def test_first_difference_matches_dense_reference(pair):
    a, b = pair
    assert first_difference(a, b) == dense_first_difference(a, b)
    assert first_difference(b, a) == dense_first_difference(b, a)


@given(residual_cases())
def test_first_difference_matches_dense_reference_after_a_step(case):
    before, after, _, _ = case
    assert first_difference(before, after) == dense_first_difference(before, after)


@given(padded_windows())
def test_same_occupancy_matches_box_oracle(pair):
    a, b = pair
    expected = by_box(a) == by_box(b)
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
    assert trace_arrays(tr2, nxt2)[2].sum() == 0
