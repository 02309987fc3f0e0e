import tracemalloc
from collections import Counter
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from oracles import capacities_for_state, extoda_step, lagrange_step, utoda_step, utoda_step_sumform

from boxball import (
    CapacityProfile,
    CapacityViolation,
    CarrierSchedule,
    DegenerateState,
    EulerState,
    FiniteOverflow,
    InconsistentPositions,
    TodaState,
    TodaStepTrace,
    enutoda_step,
    euler_step,
    from_euler,
    lagrange_to_toda,
    same_occupancy,
    to_euler,
    toda_to_lagrange,
)
from boxball.difftest import DiffBounds, random_case

UNIT = CapacityProfile()


def random_toda_states(count, seed, max_delta=5, window=20):
    """In-image states: extracted from random counts-level states."""
    out = []
    for i in range(count):
        rng = np.random.default_rng([seed, i])
        st, _ = random_case(rng, DiffBounds(window=window, max_delta=max_delta, steps=1))
        out.append(from_euler(st))
    return out


def test_utoda_examples():
    assert utoda_step((2, 2), (1,))[:2] == ((1, 3), (2,))
    assert utoda_step((5,), ())[:2] == ((5,), ())
    assert utoda_step((1, 2), (1,))[:2] == ((1, 2), (2,))


def test_sumform_examples_and_equality():
    assert utoda_step_sumform((2, 2), (1,)) == ((1, 3), (2,))
    assert utoda_step_sumform((5,), ()) == ((5,), ())
    rng = np.random.default_rng(4242)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        q = tuple(int(v) for v in rng.integers(1, 8, size=n))
        e = tuple(int(v) for v in rng.integers(1, 8, size=n - 1))
        assert utoda_step(q, e)[:2] == utoda_step_sumform(q, e)


def test_utoda_positivity_and_conservation():
    rng = np.random.default_rng(11)
    for _ in range(500):
        n = int(rng.integers(1, 8))
        q = tuple(int(v) for v in rng.integers(1, 9, size=n))
        e = tuple(int(v) for v in rng.integers(1, 9, size=n - 1))
        qp, ep, d = utoda_step(q, e)
        assert all(v >= 1 for v in qp) and all(v >= 1 for v in ep)
        assert sum(qp) == sum(q)
        assert all(x <= y for x, y in zip(qp, d))


def test_lagrange_example():
    x, y = toda_to_lagrange((2, 2), (1,), 0)
    assert (x, y) == ((0, 3), (2, 5))
    xp, yp = lagrange_step(x, y)
    assert xp == (2, 5)
    assert lagrange_to_toda(x, y) == ((2, 2), (1,), 0)
    assert lagrange_to_toda(xp, yp)[:2] == utoda_step((2, 2), (1,))[:2]


def test_lagrange_free_soliton():
    x, y = toda_to_lagrange((3,), (), 0)
    xp, _ = lagrange_step(x, y)
    assert xp == (3,)


def test_lagrange_round_trip_and_commutation():
    rng = np.random.default_rng(77)
    for _ in range(500):
        n = int(rng.integers(1, 7))
        q = tuple(int(v) for v in rng.integers(1, 7, size=n))
        e = tuple(int(v) for v in rng.integers(1, 7, size=n - 1))
        x0 = int(rng.integers(0, 10))
        x, y = toda_to_lagrange(q, e, x0)
        assert lagrange_to_toda(x, y) == (q, e, x0)
        xp, yp = lagrange_step(x, y)
        qp, ep, _ = utoda_step(q, e)
        assert lagrange_to_toda(xp, yp) == (qp, ep, x0 + q[0])


def test_lagrange_inconsistent_positions():
    with pytest.raises(InconsistentPositions):
        lagrange_step((0, 1), (1, 5))  # second soliton starts before first ends
    with pytest.raises(InconsistentPositions):
        lagrange_step((0,), (0,))  # empty run


def test_capacities_for_state():
    st = TodaState(Q=(2,), E=(), X0=3, profile=UNIT)
    assert capacities_for_state(st) == ((1,), (1,))

    alt = CapacityProfile(capacities=tuple([3, 5] * 10))
    st = TodaState(Q=(2,), E=(), X0=4, profile=alt)
    k, lam = capacities_for_state(st)
    assert k == (5,)  # segment 4 sits in box 1

    p = CapacityProfile(capacities=(2, 3))
    st = TodaState(Q=(3,), E=(), X0=1, profile=p)
    assert capacities_for_state(st) == ((2,), (3,))


def test_enutoda_worked_example():
    st = TodaState(Q=(3, 1), E=(2,), X0=0, profile=UNIT)
    nxt, tr = enutoda_step(st, CarrierSchedule(default=2))
    assert (nxt.Q, nxt.E, nxt.X0) == ((3, 1), (1,), 2)
    assert tr.Cbar == (1, 1, 0)
    assert tr.Dbar == (2, 1)
    assert tr.Qbar == (2, 1)
    assert tr.Ebar == (1,)
    assert tr.Xbar0 == 3


def test_enutoda_infinite_capacity_reduces_to_utoda():
    st = TodaState(Q=(2, 2), E=(1,), X0=0, profile=UNIT)
    nxt, tr = enutoda_step(st, CarrierSchedule())
    assert (nxt.Q, nxt.E) == ((1, 3), (2,))
    # with no trimming the intermediate sizes equal the outputs
    assert tr.Qbar == nxt.Q and tr.Ebar == nxt.E


def test_enutoda_capacity_violation():
    st = TodaState(Q=(2,), E=(), X0=0, profile=CapacityProfile(default_capacity=4))
    with pytest.raises(CapacityViolation):
        enutoda_step(st, CarrierSchedule(default=3))


@st.composite
def euler_states_and_carriers(draw):
    """A counts-level state with at least one ball on a capacity window
    (default capacity past it), and M from 1 to one past the largest
    capacity, or +inf."""
    default = draw(st.integers(1, 4))
    caps = draw(st.lists(st.integers(1, 5), min_size=1, max_size=8))
    profile = CapacityProfile(
        capacities=caps, window_start=draw(st.integers(0, 3)), default_capacity=default
    )
    counts = [draw(st.integers(0, c)) for c in caps]
    assume(any(counts))
    state = EulerState(counts=counts, profile=profile, window_start=profile.window_start)
    m = draw(st.one_of(st.none(), st.integers(1, max(*caps, default) + 1)))
    return state, CarrierSchedule() if m is None else CarrierSchedule(default=m)


@given(euler_states_and_carriers())
# K = (2) but Lam = (3) > M = 2: the run ends in box 2, where euler_step
# puts all 3 balls
@example((EulerState(counts=[0, 2, 1], profile=CapacityProfile(capacities=(2, 2, 3),
                                                               default_capacity=2)),
          CarrierSchedule(default=2)))
def test_enutoda_step_follows_euler_step_on_its_domain(case):
    # the domain is every K_n and Lam_n <= M: inside it the Toda step maps
    # back to euler_step's state, outside it the step raises
    state, schedule = case
    ts = from_euler(state)
    k, lam = capacities_for_state(ts)
    m = schedule.at(ts.time + 1).bound
    if m is not None and max(k + lam) > m:
        with pytest.raises(CapacityViolation):
            enutoda_step(ts, schedule)
    else:
        toda, _ = enutoda_step(ts, schedule)
        assert same_occupancy(to_euler(toda), euler_step(state, schedule)[0])


def test_boundary_cap_choice_does_not_matter():
    # enutoda_step fixes K_N = 0; the staged equations take any K_N in [0, M]
    sched = CarrierSchedule(default=6)
    for st in random_toda_states(200, seed=909, max_delta=4):
        base = enutoda_step(st, sched)
        for kb in (0, 1, 6):
            alt = staged_enutoda_step(st, sched, kb)
            assert alt[0] == base[0]
            assert alt[1].Dbar == base[1].Dbar
            assert alt[1].Qbar == base[1].Qbar
            assert alt[1].Ebar == base[1].Ebar
            assert alt[1].Xbar0 == base[1].Xbar0


def test_extoda_equals_enutoda_unbounded():
    sched = CarrierSchedule()
    for st in random_toda_states(300, seed=31, max_delta=5):
        a, tra = enutoda_step(st, sched)
        b, trb = extoda_step(st)
        assert a == b
        assert tra.Dbar == trb.Dbar
        assert tra.Xbar0 == trb.Xbar0


def test_extoda_reduces_to_utoda_on_unit_capacities():
    for st in random_toda_states(300, seed=32, max_delta=1):
        nxt, _ = extoda_step(st)
        qp, ep, _ = utoda_step(st.Q, st.E)
        assert (nxt.Q, nxt.E) == (qp, ep)
        assert nxt.X0 == st.X0 + st.Q[0]


def test_extoda_degenerates_on_out_of_image_placement():
    # raw placement two tiny runs inside one capacity-5 box
    st = TodaState(Q=(1, 1), E=(1,), X0=0, profile=CapacityProfile(default_capacity=5))
    with pytest.raises(DegenerateState):
        extoda_step(st)


def test_soliton_count_conserved():
    sched = CarrierSchedule(default=7)
    for st in random_toda_states(200, seed=55, max_delta=5):
        nxt, _ = enutoda_step(st, sched)
        assert sum(nxt.Q) == sum(st.Q)
        assert len(nxt.Q) == len(st.Q)


def test_free_soliton_speed():
    for q0 in range(1, 9):
        for m in [1, 2, 3, 8, None]:
            sched = CarrierSchedule() if m is None else CarrierSchedule(default=m)
            st = TodaState(Q=(q0,), E=(), X0=0, profile=UNIT)
            nxt, _ = enutoda_step(st, sched)
            expected = q0 if m is None else min(q0, m)
            assert nxt.X0 == expected
            assert nxt.Q == (q0,)


def test_to_euler_round_trip():
    for st in random_toda_states(100, seed=66, max_delta=4):
        back = from_euler(to_euler(st))
        assert (back.Q, back.E, back.X0) == (st.Q, st.E, st.X0)


def test_far_anchor_matches_shifted_near_anchor():
    # right of the window every box has the default capacity d, so moving
    # the whole state k boxes to the right moves every segment by k*d
    d = 4
    p = CapacityProfile(capacities=(3, 5, 2, 4), window_start=2, default_capacity=d)
    sched = CarrierSchedule(default=6)
    near = TodaState(Q=(4, 2, 3), E=(2, 5), X0=24, profile=p, time=3)
    near_box = p.segment_to_box(near.X0)
    assert near_box >= p.window_start + len(p.capacities)
    k = (10**6 - near.X0) // d
    far = replace(near, X0=near.X0 + k * d)
    assert far.X0 == 10**6

    tracemalloc.start()
    try:
        far_next, far_trace = enutoda_step(far, sched)
        far_counts = to_euler(far_next)
        far_back = from_euler(far_counts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    near_next, near_trace = enutoda_step(near, sched)
    near_counts = to_euler(near_next)
    assert far_next == replace(near_next, X0=near_next.X0 + k * d)
    assert far_trace == replace(near_trace, Xbar0=near_trace.Xbar0 + k * d)
    assert far_counts.window_start == near_counts.window_start + k
    assert far_counts.counts.tolist() == near_counts.counts.tolist()
    near_back = from_euler(near_counts)
    assert far_back == replace(near_back, X0=near_back.X0 + k * d)
    assert peak < 1_000_000


def test_toda_state_validation():
    with pytest.raises(ValueError):
        TodaState(Q=(), E=(), X0=0, profile=UNIT)
    with pytest.raises(ValueError):
        TodaState(Q=(1, 1), E=(0,), X0=0, profile=UNIT)
    with pytest.raises(ValueError):
        TodaState(Q=(1,), E=(), X0=-1, profile=UNIT)
    with pytest.raises(ValueError):
        TodaState(Q=(1, 1), E=(), X0=0, profile=UNIT)


@pytest.mark.parametrize(
    "fields, what",
    [
        ({"Q": (1.5, 2), "E": (1,)}, "Q_n"),  # int() would make it Q = (1, 2)
        ({"Q": (1, 2), "E": (1.0,)}, "E_n"),
        ({"Q": ("1",), "E": ()}, "Q_n"),
        ({"Q": (True,), "E": ()}, "Q_n"),
        ({"Q": (1,), "E": (), "X0": 0.5}, "X0"),  # kept as a float anchor
        ({"Q": (1,), "E": (), "time": 1.5}, "time"),
    ],
)
def test_non_integral_toda_state_raises(fields, what):
    with pytest.raises(ValueError, match=f"{what} must be an integer"):
        TodaState(**{"X0": 0, "profile": UNIT, **fields})


def test_numpy_integers_become_python_ints():
    st = TodaState(
        Q=(np.int64(2), np.int32(1)), E=(np.uint8(3),), X0=np.int64(4), profile=UNIT,
        time=np.int16(5),
    )
    assert st == TodaState(Q=(2, 1), E=(3,), X0=4, profile=UNIT, time=5)
    assert all(type(v) is int for v in (*st.Q, *st.E, st.X0, st.time))


def test_enutoda_outputs_equal_validated_states():
    # the step builds its output past the validating constructor; on a
    # criterion-3 slice that output is what the constructor would build
    bounds = DiffBounds(window=32, max_delta=5, steps=20)
    steps = 0
    for i in range(200):
        rng = np.random.default_rng([17, i])
        st, sched = random_case(rng, bounds)
        ts = from_euler(st)
        for _ in range(bounds.steps):
            try:
                nxt, _ = enutoda_step(ts, sched)
            except DegenerateState:
                break
            checked = TodaState(
                Q=nxt.Q, E=nxt.E, X0=nxt.X0, profile=nxt.profile, time=nxt.time
            )
            assert nxt == checked and hash(nxt) == hash(checked)
            assert all(type(v) is int for v in (*nxt.Q, *nxt.E, nxt.X0, nxt.time))
            assert type(nxt.Q) is tuple and type(nxt.E) is tuple
            ts = nxt
            steps += 1
    assert steps > 2000


def reference_to_euler(state):
    """The walk to_euler made before it added capacities: one checked
    boundary(n + 1) call per box."""
    profile = state.profile
    x, y = toda_to_lagrange(state.Q, state.E, state.X0)
    boxes, counts = [], []
    for a, b in zip(x, y):
        n = profile.segment_to_box(a)
        while a < b:
            end = min(profile.boundary(n + 1), b)
            if boxes and boxes[-1] == n:
                counts[-1] += end - a
            else:
                boxes.append(n)
                counts.append(end - a)
            a = end
            n += 1
    return EulerState._trusted(
        tuple(zip(boxes, counts)), profile, state.time, boxes[0], boxes[-1] + 1
    )


def outcome(fn, state):
    try:
        st = fn(state)
    except FiniteOverflow as exc:
        return str(exc)
    return st.occupied, st.window_start, st.window_end


@st.composite
def far_states(draw):
    """States whose runs cross a few boxes each, with segments up to and
    past the int64 range: sizes and gaps are a few default capacities d."""
    d = draw(st.sampled_from([1, 2, 2**60, 2**61, 2**62]))
    caps = draw(st.lists(st.sampled_from([1, 3, d]), max_size=4))
    profile = CapacityProfile(
        capacities=caps, window_start=draw(st.integers(0, 3)), default_capacity=d
    )
    size = st.builds(lambda k, r: k * d + r, st.integers(0, 4), st.integers(1, 3))
    q = draw(st.lists(size, min_size=1, max_size=3))
    e = draw(st.lists(size, min_size=len(q) - 1, max_size=len(q) - 1))
    return TodaState(Q=tuple(q), E=tuple(e), X0=draw(st.integers(0, 2**63 - 1)), profile=profile)


@given(far_states())
@example(  # the end check falls on a later box of the run
    TodaState(
        Q=(2**61 + 1,), E=(), X0=3 * 2**61 - 1, profile=CapacityProfile(default_capacity=2**61)
    )
)
@example(
    TodaState(
        Q=(3, 2**62), E=(2,), X0=0,
        profile=CapacityProfile(capacities=(2**62,), window_start=1, default_capacity=2),
    )
)
def test_to_euler_matches_the_per_box_boundary_walk(state):
    assert outcome(to_euler, state) == outcome(reference_to_euler, state)


# --- the one-pass step and walks against the paper's equations ----------------


def staged_enutoda_step(state, schedule, k_boundary=0):
    """enutoda_step written as the equations of its docstring, one list per
    stage: size limit (Dbar, Qbar, Cbar, then Ebar), recovery (Q', E') and
    anchor motion, with validating constructors for the outputs."""
    m = schedule.at(state.time + 1)
    m_val = m.bound
    k, lam = capacities_for_state(state)
    if m_val is not None:
        bad = [v for v in k + lam if v > m_val]
        if bad:
            raise CapacityViolation(f"box capacities {bad} exceed carrier capacity {m_val}")
        if not 0 <= k_boundary <= m_val:
            raise ValueError("k_boundary must lie in [0, M]")
    elif k_boundary < 0:
        raise ValueError("k_boundary must be >= 0")

    q, e = state.Q, state.E
    n_runs = state.N

    cbar = [k[0]]
    dbar = []
    qbar = []
    for n in range(n_runs):
        d = cbar[n] + q[n] - k[n]
        if m_val is not None and d > m_val:
            d = m_val
        dbar.append(d)
        qb = d if n == n_runs - 1 else min(e[n] - max(0, lam[n] - d), d)
        qbar.append(qb)
        c = d - qb + (k[n + 1] if n + 1 < n_runs else k_boundary)
        if m_val is not None and c > m_val:
            c = m_val
        cbar.append(c)

    ebar = [
        e[i] - qbar[i] + q[i + 1] - max(0, lam[i] - dbar[i]) + max(0, lam[i + 1] - dbar[i + 1])
        for i in range(n_runs - 1)
    ]
    qp = [
        q[n] + cbar[n] - cbar[n + 1] - k[n] + (k[n + 1] if n + 1 < n_runs else k_boundary)
        for n in range(n_runs)
    ]
    ep = [ebar[i] + qbar[i] - q[i + 1] - dbar[i] + dbar[i + 1] for i in range(n_runs - 1)]

    xbar0 = state.X0 + q[0] + max(0, lam[0] - dbar[0])
    xp0 = state.X0 + max(dbar[0], lam[0])

    if sum(qp) != sum(q):
        raise AssertionError("ball count broke in enutoda_step (bug)")
    if any(v < 1 for v in qp) or any(v < 1 for v in ep):
        raise DegenerateState(f"step produced Q'={qp}, E'={ep}")

    new_state = TodaState(
        Q=tuple(qp), E=tuple(ep), X0=xp0, profile=state.profile, time=state.time + 1
    )
    trace = TodaStepTrace(
        Qbar=tuple(qbar), Ebar=tuple(ebar), Cbar=tuple(cbar), Dbar=tuple(dbar),
        Xbar0=xbar0, K=k, Lam=lam,
    )
    return new_state, trace


def step_outcome(step, state, schedule):
    """The state and full trace a step returns, with the types of every
    field, or the type and message of what it raises."""
    try:
        nxt, tr = step(state, schedule)
    except ValueError as exc:  # CapacityViolation and DegenerateState among them
        return type(exc), str(exc)
    fields = (nxt.Q, nxt.E, nxt.X0, nxt.time, *astuple(tr))
    types = [type(f) for f in fields] + [type(v) for f in fields if type(f) is tuple for v in f]
    return nxt, tr, types


def test_enutoda_step_matches_the_staged_equations():
    # seeded criterion-3 trajectories, each state stepped with the case's
    # schedule (M finite or +inf), an unbounded one, and M = max(K) - 1
    bounds = DiffBounds(window=32, max_delta=5, steps=20)
    kinds = Counter()
    for i in range(20):
        rng = np.random.default_rng([19, i])
        st, sched = random_case(rng, bounds)
        ts = from_euler(st)
        for _ in range(bounds.steps):
            k, _ = capacities_for_state(ts)
            for schedule in (CarrierSchedule(default=max(k) - 1), sched, CarrierSchedule()):
                got = step_outcome(enutoda_step, ts, schedule)
                assert got == step_outcome(staged_enutoda_step, ts, schedule)
                kinds[got[0] if len(got) == 2 else "ok"] += 1
            ts, _ = enutoda_step(ts, sched)
    # every state steps under its own schedule and an unbounded one, and
    # raises under M = max(K) - 1
    assert kinds == {"ok": 800, CapacityViolation: 400}


def test_enutoda_step_matches_the_staged_equations_on_raw_placements():
    # sizes, gaps and anchors drawn freely over a capacity window, so that
    # many states are out of the expansion map's image and degenerate
    kinds = Counter()
    rng = np.random.default_rng(1919)
    for _ in range(3000):
        caps = tuple(int(c) for c in rng.integers(1, 6, size=int(rng.integers(0, 8))))
        profile = CapacityProfile(
            capacities=caps, window_start=int(rng.integers(0, 4)),
            default_capacity=int(rng.integers(1, 5)),
        )
        n = int(rng.integers(1, 6))
        ts = TodaState(
            Q=tuple(int(v) for v in rng.integers(1, 9, size=n)),
            E=tuple(int(v) for v in rng.integers(1, 9, size=n - 1)),
            X0=int(rng.integers(0, 40)), profile=profile, time=int(rng.integers(0, 3)),
        )
        m = int(rng.integers(0, 12))
        schedule = CarrierSchedule() if m > 9 else CarrierSchedule(default=m)
        got = step_outcome(enutoda_step, ts, schedule)
        assert got == step_outcome(staged_enutoda_step, ts, schedule)
        kinds[got[0] if len(got) == 2 else "ok"] += 1
    assert all(kinds[kind] for kind in (CapacityViolation, DegenerateState, "ok"))


@st.composite
def raw_step_inputs(draw):
    d = draw(st.integers(1, 4))
    profile = CapacityProfile(
        capacities=draw(st.lists(st.integers(1, 6), max_size=6)),
        window_start=draw(st.integers(0, 3)), default_capacity=d,
    )
    q = draw(st.lists(st.integers(1, 10), min_size=1, max_size=5))
    e = draw(st.lists(st.integers(1, 10), min_size=len(q) - 1, max_size=len(q) - 1))
    state = TodaState(Q=tuple(q), E=tuple(e), X0=draw(st.integers(0, 50)), profile=profile)
    m = draw(st.one_of(st.none(), st.integers(0, 10)))
    schedule = CarrierSchedule() if m is None else CarrierSchedule(default=m)
    return state, schedule


@given(raw_step_inputs())
@example((TodaState(Q=(1, 1), E=(1,), X0=0, profile=CapacityProfile(default_capacity=5)),
          CarrierSchedule()))
def test_enutoda_step_equals_the_staged_equations_on_drawn_inputs(inputs):
    state, schedule = inputs
    assert step_outcome(enutoda_step, state, schedule) == step_outcome(
        staged_enutoda_step, state, schedule
    )
    # the segment_capacity lookup enutoda_step makes, at the positions
    # toda_to_lagrange gives, against the box-by-box oracle sampler
    cap = state.profile.segment_capacity
    x, y = toda_to_lagrange(state.Q, state.E, state.X0)
    assert (tuple(map(cap, x)), tuple(map(cap, y))) == capacities_for_state(state)


def walk_check_states():
    """Criterion-3 trajectories, the far anchor and the 2^62 gap of the
    to_euler digest."""
    bounds = DiffBounds(window=32, max_delta=5, steps=20)
    for i in range(60):
        st, sched = random_case(np.random.default_rng([23, i]), bounds)
        ts = from_euler(st)
        yield ts
        for _ in range(bounds.steps):
            ts, _ = enutoda_step(ts, sched)
            yield ts
    yield TodaState(Q=(2, 5, 1), E=(4, 2), X0=10**6, profile=CapacityProfile(default_capacity=3))
    yield TodaState(Q=(2, 1), E=(2**62 + 1,), X0=1,
                    profile=CapacityProfile(capacities=(2, 2**62, 3)))


def test_capacities_sample_toda_to_lagrange_positions():
    for state in walk_check_states():
        cap = state.profile.segment_capacity
        x, y = toda_to_lagrange(state.Q, state.E, state.X0)
        assert (tuple(map(cap, x)), tuple(map(cap, y))) == capacities_for_state(state)


def test_to_euler_lays_toda_to_lagrange_runs_box_by_box():
    for state in walk_check_states():
        assert outcome(to_euler, state) == outcome(reference_to_euler, state)
    # a run that ends past the int64 segment range, after a gap the walk
    # crosses with one box lookup
    far = TodaState(Q=(1, 2**61 + 1), E=(3 * 2**61,), X0=0,
                    profile=CapacityProfile(default_capacity=2**61))
    got = outcome(to_euler, far)
    assert got == outcome(reference_to_euler, far)
    assert got == "segment boundary s_4 = 9223372036854775808 is past the int64 range"
