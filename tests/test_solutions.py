import hashlib
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxball import (
    POS_INF,
    CapacityProfile,
    CarrierSchedule,
    EulerSolitonParams,
    EulerState,
    FiniteOverflow,
    TauParams,
    TodaState,
    XInt,
    enutoda_step,
    euler_nsoliton,
    euler_slices,
    euler_step,
    tau_states,
    tau_toda_state,
    verify_euler_solution,
    verify_tau_solution,
)
from boxball.solutions import EulerFieldSlice, TauState, _tau_rows

UNIT = CapacityProfile()
FREE = CarrierSchedule()


def test_single_soliton_block_advances_by_speed():
    params = EulerSolitonParams(P=(3,), Xi=(0,), profile=UNIT, schedule=FREE)
    for t in range(4):
        u = euler_nsoliton(params, -2, 20, t).U.tolist()
        start = u.index(1) - 2  # n_lo offset
        assert start == 3 * t
        assert sum(u) == 3
        assert u[start + 2 : start + 5] == [1, 1, 1]


def test_flat_phases_give_empty_field():
    params = EulerSolitonParams(P=(2, 4), Xi=(10**6, 10**6), profile=UNIT, schedule=FREE)
    sl = euler_nsoliton(params, -5, 30, 0)
    assert not sl.U.any() and not sl.Ubar.any() and not sl.Zbar.any()


def test_verify_two_solitons_and_step_agreement():
    params = EulerSolitonParams(P=(1, 3), Xi=(6, -1), profile=UNIT, schedule=FREE)
    rep = verify_euler_solution(params, -20, 45, 0, 10)
    assert rep.ok, rep.residuals

    # a slice, taken as a state, must evolve onto the next slice
    sl0 = euler_nsoliton(params, 0, 45, 2)
    sl1 = euler_nsoliton(params, 0, 45, 3)
    assert sl0.U[0] == 0 and sl0.U[-1] == 0
    st = EulerState(counts=sl0.U, profile=UNIT, time=2)
    nxt, _ = euler_step(st, FREE)
    # both slices start at box 0, so a box is its index in sl1.U
    lo, hi = nxt.window_start, nxt.window_start + len(nxt.counts)
    assert nxt.counts.tolist() == sl1.U.tolist()[lo:hi]
    assert not sl1.U[:lo].any() and not sl1.U[hi:].any()


def test_verify_with_capacities_and_bounded_carrier():
    params = EulerSolitonParams(
        P=(2, 5),
        Xi=(3, -4),
        profile=CapacityProfile(capacities=(3, 1, 4, 2) * 6, default_capacity=2),
        schedule=CarrierSchedule(entries={t: 3 + t % 3 for t in range(1, 12)}),
    )
    rep = verify_euler_solution(params, -25, 70, 0, 10)
    assert rep.ok, rep.residuals


def test_verify_negative_times():
    params = EulerSolitonParams(P=(2, 4), Xi=(0, 5), profile=UNIT, schedule=FREE)
    rep = verify_euler_solution(params, -40, 40, -5, 3)
    assert rep.ok, rep.residuals


def test_verify_rejects_a_reversed_box_range():
    params = EulerSolitonParams(P=(2, 4), Xi=(0, 5), profile=UNIT, schedule=FREE)
    with pytest.raises(ValueError, match=r"\[n_lo, n_hi\] = \[5, 3\] is reversed"):
        verify_euler_solution(params, 5, 3, 0, 2)
    # [5, 4] is the empty range: nothing to check, nothing violated
    assert verify_euler_solution(params, 5, 4, 0, 2).ok


@pytest.mark.parametrize("entry", [
    lambda p, n_lo, n_hi: list(euler_slices(p, n_lo, n_hi, 0, 2)),
    lambda p, n_lo, n_hi: euler_nsoliton(p, n_lo, n_hi, 0),
    lambda p, n_lo, n_hi: verify_euler_solution(p, n_lo, n_hi, 0, 2),
], ids=["euler_slices", "euler_nsoliton", "verify_euler_solution"])
def test_every_euler_entry_point_rejects_a_reversed_box_range(entry):
    params = EulerSolitonParams(P=(2, 4), Xi=(0, 5), profile=UNIT, schedule=FREE)
    with pytest.raises(ValueError, match=r"^box range \[n_lo, n_hi\] = \[5, 0\] is reversed$"):
        entry(params, 5, 0)
    entry(params, 5, 4)  # the empty range


def test_pair_weight_convention_solves_bilinear_lattice():
    """Exact-rational oracle for the interaction-weight convention: the
    subset-sum ansatz with one w_ij factor per unordered pair satisfies
    both bilinear identities; with ordered pairs (w_ij squared) it does
    not."""
    from fractions import Fraction as Fr
    from itertools import combinations

    p = [Fr(1, 3), Fr(1, 7), Fr(2, 9)]
    q = [1 - v for v in p]
    xi = [Fr(2, 5), Fr(3, 11), Fr(5, 4)]
    delta = Fr(1, 9)
    mu = Fr(1, 13)

    def h(k, t, n, i):
        v = xi[i]
        v *= ((1 + delta - p[i]) / (p[i] + delta)) ** n
        v *= ((mu + p[i]) / (mu + 1 - p[i])) ** t
        if k == 1:
            v *= (1 - p[i]) / p[i]
        return v

    def w(i, j):
        return (p[i] - p[j]) * (q[i] - q[j]) / ((p[i] - q[j]) * (q[i] - p[j]))

    def f(k, t, n, pairs_once):
        tot = Fr(1)
        for r in range(1, len(p) + 1):
            for sub in combinations(range(len(p)), r):
                term = Fr(1)
                for a in range(len(sub)):
                    for b in range(a + 1, len(sub)):
                        term *= w(sub[a], sub[b])
                        if not pairs_once:
                            term *= w(sub[b], sub[a])
                for i in sub:
                    term *= h(k, t, n, i)
                tot += term
        return tot

    def residuals(pairs_once, t=2, n=3):
        r1 = (1 + delta + mu) * f(0, t + 1, n + 1, pairs_once) * f(1, t, n, pairs_once) - (
            (1 + mu) * f(0, t, n + 1, pairs_once) * f(1, t + 1, n, pairs_once)
            + delta * f(0, t + 1, n, pairs_once) * f(1, t, n + 1, pairs_once)
        )
        r2 = (1 + delta + mu) * f(0, t, n, pairs_once) * f(1, t + 1, n + 1, pairs_once) - (
            (1 + delta) * f(0, t, n + 1, pairs_once) * f(1, t + 1, n, pairs_once)
            + mu * f(0, t + 1, n, pairs_once) * f(1, t, n + 1, pairs_once)
        )
        return r1, r2

    assert residuals(pairs_once=True) == (0, 0)
    assert residuals(pairs_once=False) != (0, 0)


def test_verify_many_random_parameter_sets():
    rng = np.random.default_rng(2718)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        p_vals = tuple(int(v) for v in rng.choice(np.arange(1, 9), size=n, replace=False))
        xi = tuple(int(v) for v in rng.integers(-15, 16, size=n))
        caps = tuple(int(v) for v in rng.integers(1, 5, size=8))
        profile = CapacityProfile(capacities=caps, default_capacity=int(rng.integers(1, 5)))
        entries = {
            t: (POS_INF if rng.random() < 0.3 else XInt(int(rng.integers(1, 11))))
            for t in range(1, 12)
        }
        schedule = CarrierSchedule(entries=entries)
        params = EulerSolitonParams(P=p_vals, Xi=xi, profile=profile, schedule=schedule)
        span = max(abs(min(xi)), abs(max(xi))) + 4 * sum(p_vals) + 12 * max(p_vals) + 10
        rep = verify_euler_solution(params, -span, span, 0, 10)
        assert rep.ok, (p_vals, xi, caps, rep.residuals)


def test_tied_speeds_reported_not_asserted():
    # outside the guaranteed regime; the verifier must run and report
    params = EulerSolitonParams(P=(3, 3), Xi=(0, 4), profile=UNIT, schedule=FREE)
    rep = verify_euler_solution(params, -20, 40, 0, 6)
    assert set(rep.residuals) == {"size_limit", "carrier_load", "recovery"}
    assert rep.max_residual >= 0


def test_params_validation():
    with pytest.raises(ValueError):
        EulerSolitonParams(P=(-1,), Xi=(0,), profile=UNIT, schedule=FREE)
    with pytest.raises(ValueError):
        EulerSolitonParams(P=(1, 2), Xi=(0,), profile=UNIT, schedule=FREE)
    with pytest.raises(ValueError):
        TauParams(P=(3, 1), W=(0, 0), Delta=1, schedule=FREE)
    with pytest.raises(ValueError):
        TauParams(P=(1,), W=(0,), Delta=0, schedule=FREE)


def tau_row(params, k, t, barred):
    """T^{k,t}_n (olT if barred) for n = 0 .. N."""
    return _tau_rows(params, [(k, t, barred)])[0].tolist()


def test_tau_potentials_at_boundaries():
    params = TauParams(P=(2, 5), W=(1, -3), Delta=2, schedule=FREE)
    keys = [(k, t, barred) for k in (0, 1) for t in (-2, 0, 3) for barred in (False, True)]
    rows = _tau_rows(params, keys)
    assert rows.shape == (len(keys), params.N + 1)
    assert rows[:, 0].tolist() == [0] * len(keys)


def test_tau_single_soliton_laws():
    sched = CarrierSchedule(entries={t: 3 for t in range(1, 10)})
    params = TauParams(P=(4,), W=(2,), Delta=2, schedule=sched)
    for t in range(-3, 9):
        ts = tau_toda_state(params, t)
        assert ts.Q == (4,)
        m = sched.at(t)
        expected = 4 if m.bound is None else min(4, m.bound)
        assert ts.Dbar == (expected,)
        assert ts.Cbar[0] == params.Delta


def test_tau_permutation_invariance_for_ties():
    sched = CarrierSchedule(entries={1: 5, 2: 4})
    a = TauParams(P=(2, 2, 6), W=(3, -1, 0), Delta=2, schedule=sched)
    b = TauParams(P=(2, 2, 6), W=(-1, 3, 0), Delta=2, schedule=sched)
    for k in (0, 1):
        for t in (-1, 0, 2):
            for n in range(0, 4):
                assert tau_row(a, k, t, False) == tau_row(b, k, t, False)
                assert tau_row(a, k, t, True) == tau_row(b, k, t, True)


def test_verify_tau_solution_cases():
    cases = [
        TauParams(P=(4,), W=(0,), Delta=2, schedule=FREE),
        TauParams(P=(2, 5), W=(0, 0), Delta=2,
                  schedule=CarrierSchedule(entries={t: 5 for t in range(1, 20)})),
        # carrier capacity pinned exactly at Delta
        TauParams(P=(1, 3, 6), W=(-4, 2, 7), Delta=3,
                  schedule=CarrierSchedule(entries={t: 3 for t in range(1, 20)})),
    ]
    for params in cases:
        rep = verify_tau_solution(params, 0, 15)
        assert rep.ok, rep.residuals
        assert rep.min_q >= 1
        if rep.min_interior_e is not None:
            assert rep.min_interior_e >= 1


def test_verify_tau_rejects_capacity_below_delta():
    params = TauParams(P=(2,), W=(0,), Delta=3,
                       schedule=CarrierSchedule(entries={1: 2}))
    with pytest.raises(ValueError):
        verify_tau_solution(params, 0, 2)


def test_tau_slices_match_size_coordinate_evolution():
    sched = CarrierSchedule(entries={t: 4 + (t % 3) for t in range(1, 16)})
    params = TauParams(P=(2, 4, 8), W=(5, -2, 1), Delta=3, schedule=sched)
    profile = CapacityProfile(default_capacity=params.Delta)
    for t in range(0, 10):
        cur = tau_toda_state(params, t)
        nxt = tau_toda_state(params, t + 1)
        st = TodaState(Q=cur.Q, E=cur.E, X0=0, profile=profile, time=t)
        stepped, trace = enutoda_step(st, sched)
        assert stepped.Q == nxt.Q
        assert stepped.E == nxt.E
        assert trace.Qbar == nxt.Qbar
        assert trace.Ebar == nxt.Ebar
        # Cbar_N = min(K_N, M): the step's K_N is 0, the closed form's Delta;
        # K_N cancels from every other field
        assert trace.Cbar == nxt.Cbar[:-1] + (0,)
        assert trace.Dbar == nxt.Dbar


# --- literal enumeration oracle -------------------------------------------


def signed_sum(term, x):
    """sum_{j=0}^{x-1} term(j), and -sum_{j=x}^{-1} term(j) for x < 0."""
    if x >= 0:
        return sum(term(j) for j in range(x))
    return -sum(term(j) for j in range(x, 0))


def carrier_min(p, schedule, j):
    m = schedule.at(j)
    return p if m.bound is None else min(p, m.bound)


def literal_f(params, k, t, n):
    """F^{k,t}_n as a plain minimum over itertools.combinations."""
    p, big_n = params.P, params.N

    h = [
        params.Xi[i]
        - k * p[i]
        - signed_sum(lambda j: min(p[i], params.profile.capacity(j)), n)
        + signed_sum(lambda j: carrier_min(p[i], params.schedule, j), t)
        for i in range(big_n)
    ]
    best = 0
    for size in range(1, big_n + 1):
        for sub in combinations(range(big_n), size):
            pairs = sum(2 * min(p[a], p[b]) for a, b in combinations(sub, 2))
            best = min(best, pairs + sum(h[i] for i in sub))
    return best


def literal_tau(params, k, t, n, barred):
    """T^{k,t}_n (olT if barred) as a plain minimum over itertools.combinations."""
    p, big_n = params.P, params.N
    upper = t - 1 if barred else t
    car = [signed_sum(lambda j: carrier_min(pr, params.schedule, j), upper + 1) for pr in p]
    best = None
    for tup in combinations(range(big_n), n):
        tot = 0
        for i, r in enumerate(tup):
            coeff = 2 * (n - 1 - i) - (0 if barred else 1)
            tot += (
                params.W[r]
                + coeff * p[r]
                - (2 * (n - 1) + t + k) * min(p[r], params.Delta)
                + car[r]
            )
        best = tot if best is None else min(best, tot)
    return best


def assert_fields_match_literal(params, n_lo, n_hi, t):
    """euler_nsoliton over [n_lo, n_hi] at t against differences of literal_f."""
    f = {
        (k, tt): [literal_f(params, k, tt, n) for n in range(n_lo, n_hi + 2)]
        for k in (0, 1)
        for tt in (t, t + 1)
    }
    f0, f1, f0p, f1p = f[0, t], f[1, t], f[0, t + 1], f[1, t + 1]
    idx = range(n_hi - n_lo + 1)
    sl = euler_nsoliton(params, n_lo, n_hi, t)
    assert sl.n_start == n_lo and sl.time == t
    assert sl.U.tolist() == [f0p[i + 1] - f0p[i] + f1p[i] - f1p[i + 1] for i in idx]
    assert sl.Ubar.tolist() == [f0[i] - f0[i + 1] + f0p[i + 1] - f0p[i] for i in idx]
    assert sl.Zbar.tolist() == [f0[i] - f0p[i] + f1p[i] - f1[i] for i in idx]


def assert_potentials_match_literal(params, k, t):
    """The T and olT rows of _tau_rows at every n in 0 .. N against
    literal_tau."""
    for barred in (False, True):
        assert tau_row(params, k, t, barred) == [
            literal_tau(params, k, t, n, barred) for n in range(params.N + 1)
        ]


carrier_values = st.one_of(st.just(POS_INF), st.integers(0, 8).map(XInt))
schedules = st.builds(
    CarrierSchedule,
    entries=st.dictionaries(st.integers(-6, 8), carrier_values, max_size=8),
    default=carrier_values,
)
speeds = st.integers(0, 6)  # ties and P = 0 included


@settings(max_examples=60, deadline=None)
@given(
    p=st.lists(speeds, min_size=1, max_size=6),
    data=st.data(),
    caps=st.lists(st.integers(1, 4), max_size=12),
    window_start=st.integers(0, 6),
    default_capacity=st.integers(1, 4),
    schedule=st.builds(
        CarrierSchedule,
        entries=st.dictionaries(st.integers(-31, 31), carrier_values, max_size=12),
        default=carrier_values,
    ),
    t=st.integers(-30, 30),
    width=st.integers(0, 80),
)
def test_euler_fields_match_literal_enumeration(
    p, data, caps, window_start, default_capacity, schedule, t, width
):
    # wide windows around where the solitons are at t, so that quiet boxes
    # lie on both sides of the phase crossings
    xi = data.draw(st.lists(st.integers(-10, 10), min_size=len(p), max_size=len(p)))
    n_lo = data.draw(st.integers(min(0, 3 * t) - 50, max(0, 3 * t) + 10))
    profile = CapacityProfile(caps, window_start, default_capacity)
    params = EulerSolitonParams(P=p, Xi=xi, profile=profile, schedule=schedule)
    assert_fields_match_literal(params, n_lo, n_lo + width, t)


@settings(max_examples=60)
@given(
    p=st.lists(speeds, min_size=1, max_size=7).map(sorted),
    data=st.data(),
    delta=st.integers(1, 4),
    schedule=schedules,
    k=st.integers(0, 1),
    t=st.integers(-4, 4),
)
def test_tau_potentials_match_literal_enumeration(p, data, delta, schedule, k, t):
    w = data.draw(st.lists(st.integers(-6, 6), min_size=len(p), max_size=len(p)))
    assert_potentials_match_literal(TauParams(P=p, W=w, Delta=delta, schedule=schedule), k, t)


def test_nine_solitons_with_ties_and_zero_speed_match_literal_enumeration():
    # the dynamic programs sort by speed; ties (three 3s, two 5s) and a
    # P = 0 soliton are where an ordering fault would show
    rng = np.random.default_rng(9)
    p = [3, 5, 0, 3, 7, 1, 5, 3, 2]
    profile = CapacityProfile(rng.integers(1, 5, size=8).tolist(), 1, 2)
    schedule = CarrierSchedule(
        entries={t: POS_INF if t % 4 == 0 else XInt(int(rng.integers(0, 8))) for t in range(-3, 6)}
    )
    params = EulerSolitonParams(
        P=p, Xi=rng.integers(-12, 13, size=9).tolist(), profile=profile, schedule=schedule
    )
    for t in (-2, 1, 3):
        assert_fields_match_literal(params, -4, 9, t)
    tau = TauParams(
        P=sorted(p), W=rng.integers(-6, 7, size=9).tolist(), Delta=3, schedule=schedule
    )
    for k in (0, 1):
        for t in (-2, 0, 3):
            assert_potentials_match_literal(tau, k, t)


# --- closed forms beyond enumeration ------------------------------------------


def _capacity_profile():
    rng = np.random.default_rng(4)
    return CapacityProfile(rng.integers(1, 5, size=300).tolist(), default_capacity=3)


def _carrier_schedule():
    rng = np.random.default_rng(5)
    return CarrierSchedule(entries={t: XInt(int(rng.integers(4, 16))) for t in range(1, 101)})


@pytest.mark.parametrize(
    "profile, schedule, n_hi",
    [
        (UNIT, FREE, 2600),
        (_capacity_profile(), FREE, 1400),
        (_capacity_profile(), _carrier_schedule(), 1400),
    ],
    ids=["unit-free", "capacities-free", "capacities-carrier"],
)
def test_twenty_solitons_follow_euler_step_for_100_steps(profile, schedule, n_hi):
    # N = 20 is beyond subset enumeration (2^20 subsets per potential).
    # Phases Xi_i = xi_i + 60 (P_max - P_i) start every soliton at a box
    # >= 0 with the fastest at the back, so they all meet near t = 60.
    rng = np.random.default_rng(20)
    p = rng.choice(np.arange(1, 21), size=20, replace=False).tolist()
    xi = [int(x) + 60 * (20 - pi) for x, pi in zip(rng.integers(0, 30, size=20), p)]
    params = EulerSolitonParams(P=p, Xi=xi, profile=profile, schedule=schedule)
    slices = euler_slices(params, 0, n_hi, 0, 100)
    first = next(slices)
    assert first.U.sum() == sum(p) and first.U[0] == 0
    state = EulerState(counts=first.U, profile=profile)
    mismatches = []
    for sl in slices:
        state, _ = euler_step(state, schedule)
        assert sl.U.sum() == sum(p) and sl.U[-1] == 0  # the window holds every ball
        lo, hi = state.window_start, state.window_start + len(state.counts)
        if sl.U[lo:hi].tolist() != state.counts.tolist() or sl.U[:lo].any() or sl.U[hi:].any():
            mismatches.append(sl.time)
    assert mismatches == []


# --- golden values ----------------------------------------------------------
# Residuals are blind to a wrong phase (shifting every Xi by one keeps them
# at zero), so these pin the evaluated fields themselves.


def test_euler_golden_fields():
    params = EulerSolitonParams(
        P=(1, 3, 5),
        Xi=(6, -2, -9),
        profile=CapacityProfile(capacities=(3, 1, 4, 2, 2, 3), window_start=2, default_capacity=2),
        schedule=CarrierSchedule(entries={t: 2 + t % 4 for t in range(1, 12)}),
    )
    sl = euler_nsoliton(params, 0, 16, 4)
    assert sl.U.tolist() == [0, 0, 2, 1, 2, 0, 0, 3, 0, 0, 0, 0, 0, 0, 1, 0, 0]
    assert sl.Ubar.tolist() == [0, 0, 0, 0, 2, 0, 0, 2, 0, 0, 0, 0, 0, 0, 1, 0, 0]
    assert sl.Zbar.tolist() == [0, 0, 1, 2, 2, 0, 0, 2, 0, 0, 0, 0, 0, 0, 1, 0, 0]


def test_tau_golden_families():
    params = TauParams(
        P=(1, 3, 4, 7), W=(2, -5, 0, 3), Delta=2,
        schedule=CarrierSchedule(entries={t: 3 + t % 4 for t in range(1, 12)}),
    )
    st3 = tau_toda_state(params, 3)
    assert (st3.Q, st3.E) == ((3, 1, 4, 7), (5, 7, 10))
    assert (st3.Qbar, st3.Ebar) == ((3, 1, 4, 6), (5, 7, 11))
    assert (st3.Cbar, st3.Dbar) == ((2, 2, 2, 2, 2), (3, 1, 4, 6))
    st_neg = tau_toda_state(params, -1)
    assert (st_neg.Q, st_neg.E) == ((3, 4, 1, 7), (7, 2, 3))
    assert (st_neg.Qbar, st_neg.Ebar) == ((3, 4, 1, 7), (7, 2, 3))
    assert (st_neg.Cbar, st_neg.Dbar) == ((2, 2, 5, 6, 2), (3, 7, 5, 7))
    assert tau_row(params, 1, 2, False) == [0, -5, -8, -12, -12]
    assert tau_row(params, 0, 2, True) == [0, -3, -5, -7, -3]


def test_late_closed_forms_visit_only_the_listed_terms():
    # pinned from the version that summed the carrier and the capacities
    # over every time and box from 0 (1.2 s and 48 MB for the tau state);
    # the prefix sums are now arithmetic outside the listed entries
    params = TauParams(
        P=(1, 2, 4), W=(3, -2, 5), Delta=2,
        schedule=CarrierSchedule(entries={3: 4, 7: 9, 10**6 - 1: 5}, default=6),
    )
    tracemalloc.start()
    try:
        st = tau_toda_state(params, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert (st.Q, st.E, st.Qbar, st.Ebar) == ((2, 1, 4), (7, 2000003), (2, 1, 4), (7, 2000003))
    assert (st.Cbar, st.Dbar) == ((2, 2, 2, 2), (2, 1, 4))

    euler = EulerSolitonParams(
        P=(3, 1, 2), Xi=(0, 5, 9), profile=CapacityProfile((2, 3, 1, 4), 2, 3),
        schedule=CarrierSchedule(entries={2: 2, 50: POS_INF}, default=5),
    )
    sl = euler_nsoliton(euler, 2 * 10**4 - 12, 2 * 10**4 + 12, 2 * 10**4)
    field = [0] * 12 + [1, 2, 0, 0, 0, 0, 0, 2, 0, 1, 0, 0, 0]
    assert sl.U.tolist() == sl.Ubar.tolist() == sl.Zbar.tolist() == field


def test_late_slice_is_bounded_by_its_solitons():
    # pinned from the version that ran the dynamic program over every box
    # (81-230 ms and 109 MB); only the three dense output arrays (9.6 MB)
    # still follow the window
    params = EulerSolitonParams(
        P=(3, 1, 2), Xi=(0, 5, 9), profile=CapacityProfile((2, 3, 1, 4), 2, 3),
        schedule=CarrierSchedule(entries={2: 2, 50: POS_INF}, default=5),
    )
    tracemalloc.start()
    try:
        sl = euler_nsoliton(params, 0, 4 * 10**5, 10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20
    digest = hashlib.sha256()
    for field in (sl.U, sl.Ubar, sl.Zbar):
        digest.update(field.astype("<i8").tobytes())
    assert digest.hexdigest() == (
        "b8de1b2d88e7716ef390321e4c5e1ecd7dc48bff5315c374062685589690fac2"
    )
    assert np.flatnonzero(sl.U).tolist() == [10**5, 10**5 + 1, 10**5 + 7, 10**5 + 9]


def _record_count_dp(monkeypatch):
    from boxball import solutions as solutions_mod

    calls = []
    real = solutions_mod._count_dp

    def recording(h, p):
        calls.append(h.shape)
        return real(h, p)

    monkeypatch.setattr(solutions_mod, "_count_dp", recording)
    return calls


def test_euler_slices_run_the_dynamic_program_once_per_block(monkeypatch):
    calls = _record_count_dp(monkeypatch)
    # every soliton far behind its phase crossing: no live box, no call
    flat = EulerSolitonParams(P=(2, 4), Xi=(10**6, 10**6), profile=UNIT, schedule=FREE)
    assert not any(sl.U.any() for sl in euler_slices(flat, -5, 30, 0, 20))
    assert calls == []

    params = EulerSolitonParams(
        P=(1, 3, 0, 3), Xi=(6, -1, -2, 4),
        profile=CapacityProfile((3, 1, 2), 4, 2),
        schedule=CarrierSchedule(entries={1: 0, 3: 2, 5: POS_INF}, default=4),
    )
    for n_lo, n_hi, t_lo, t_hi, dp_calls in [
        (0, 3, 0, 0, 2), (0, 0, 3, 3, 0), (-20, 45, 0, 10, 2), (-300, 300, -40, 60, 4),
    ]:
        calls.clear()
        slices = list(euler_slices(params, n_lo, n_hi, t_lo, t_hi))
        assert len(slices) == t_hi - t_lo + 1
        assert len(calls) == dp_calls
    # one call for k = 0 and one for k = 1, whose columns are the
    # potentials that the live boxes read: under 5 % of the 102 x 602
    # (time, box) potentials
    assert all(cols < 0.05 * 102 * 602 for _, cols in calls)


def test_long_euler_slices_hold_one_block_at_a_time():
    # the N = 20 unit-capacity parameters of
    # test_twenty_solitons_follow_euler_step_for_100_steps over t = 0 .. 200,
    # consumed slice by slice: one dynamic program over the whole range
    # peaked at 228 MB (tracemalloc), one per block of slices at 95.4 MiB
    # with k = 0 and 1 in one dynamic program, and one per k per block
    # peaks at 47.2 MiB
    rng = np.random.default_rng(20)
    p = rng.choice(np.arange(1, 21), size=20, replace=False).tolist()
    xi = [int(x) + 60 * (20 - pi) for x, pi in zip(rng.integers(0, 30, size=20), p)]
    params = EulerSolitonParams(P=p, Xi=xi, profile=UNIT, schedule=FREE)
    tracemalloc.start()
    try:
        balls = [int(sl.U.sum()) for sl in euler_slices(params, 0, 2600, 0, 200)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    # the fastest solitons leave the window after t = 100
    assert len(balls) == 201 and balls[:101] == [sum(p)] * 101 and balls[-1] < sum(p)


def test_wide_euler_verify_holds_the_span_of_its_entries():
    # the soliton_pair parameters over 200,021 boxes: a block is checked
    # over the few hundred boxes its live entries span, not over the
    # window (dense (3, 65, 200021) blocks peaked at 885 MiB)
    params = EulerSolitonParams(P=(1, 3), Xi=(4, -2), profile=UNIT, schedule=FREE)
    tracemalloc.start()
    try:
        report = verify_euler_solution(params, -20, 200_000, 0, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 8 * 2**20


def test_long_tau_ranges_hold_one_block_at_a_time(monkeypatch):
    # one dynamic program over the whole range held about 394 KiB per step
    # at N = 64 (154 MiB over t = 0 .. 400); a block of states or
    # transitions at a time holds what one block does, whatever the range
    from boxball import solutions as solutions_mod

    rng = np.random.default_rng(30)
    params = TauParams(
        P=sorted(rng.integers(1, 30, size=32).tolist()),
        W=rng.integers(-50, 50, size=32).tolist(),
        Delta=3,
        schedule=CarrierSchedule(entries={t: 3 + t % 5 for t in range(0, 330, 3)}),
    )

    def run(t_hi):
        report = verify_tau_solution(params, 0, t_hi)
        states = list(tau_states(params, 0, t_hi))
        return (report, states)

    def peak(t_hi):
        tracemalloc.start()
        try:
            run(t_hi)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(320) <= 1.5 * peak(64)
    blocked = run(320)
    # one block over the whole range: the evaluation before blocks
    monkeypatch.setattr(solutions_mod, "_BLOCK", 10**6)
    assert run(320) == blocked
    assert blocked[0].ok and len(blocked[1]) == 321
    # the int64 bound covers the whole range before the first block: the
    # first block of this one fits, a later one would not
    fast = TauParams(P=(2**53,), W=(0,), Delta=1, schedule=FREE)
    assert len(list(tau_states(fast, 0, 63))) == 64
    with pytest.raises(FiniteOverflow):
        tau_states(fast, 0, 300)
    with pytest.raises(FiniteOverflow):
        verify_tau_solution(fast, 0, 300)


def _injecting_euler(monkeypatch, field, time, box):
    # bump the entry of (time, box), or add one there if the box is quiet
    from boxball import solutions as solutions_mod

    real = solutions_mod._euler_fields

    def fields(params, n_lo, n_hi, t_lo, t_hi):
        rows, boxes, values = real(params, n_lo, n_hi, t_lo, t_hi)
        if t_lo <= time <= t_hi:
            at = np.flatnonzero((rows == time - t_lo) & (boxes == box))
            if not len(at):
                at = [len(boxes)]
                rows, boxes = np.append(rows, time - t_lo), np.append(boxes, box)
                values = np.concatenate([values, np.zeros((3, 1), dtype=np.int64)], axis=1)
            values[("U", "Ubar", "Zbar").index(field), at[0]] += 1
        return rows, boxes, values

    monkeypatch.setattr(solutions_mod, "_euler_fields", fields)


FAULT_PARAMS = EulerSolitonParams(
    P=(2, 5), Xi=(3, -4),
    profile=CapacityProfile(capacities=(3, 1, 4, 2) * 6, default_capacity=2),
    schedule=CarrierSchedule(entries={t: 3 + t % 3 for t in range(1, 12)}),
)


@pytest.mark.parametrize("field, key", [
    ("U", "recovery"), ("Ubar", "size_limit"), ("Zbar", "carrier_load"),
])
@pytest.mark.parametrize("where", ["live", "quiet-left", "quiet-right"])
def test_euler_verifier_catches_a_field_fault(monkeypatch, field, key, where):
    params = FAULT_PARAMS
    assert verify_euler_solution(params, -25, 70, 0, 10).ok
    sl = euler_nsoliton(params, -25, 70, 4)
    box = {
        "live": -25 + int(np.flatnonzero(getattr(sl, field))[0]),
        "quiet-left": -22,
        "quiet-right": 69,
    }[where]
    assert (getattr(sl, field)[box + 25] != 0) == (where == "live")
    _injecting_euler(monkeypatch, field, 4, box)
    assert verify_euler_solution(params, -25, 70, 0, 10).residuals[key] > 0


@pytest.mark.parametrize("field, index, key", [
    ("Q", 0, "q_recovery"), ("Q", 2, "q_recovery"),
    ("E", 0, "e_recovery"), ("E", 1, "e_recovery"),
    ("Cbar", 0, "cbar0_boundary"), ("Cbar", 1, "cbar"), ("Cbar", 3, "cbar"),
    ("Dbar", 0, "dbar"), ("Dbar", 2, "dbar"),
])
def test_tau_verifier_catches_a_field_fault(monkeypatch, field, index, key):
    from boxball import solutions as solutions_mod

    params = TauParams(
        P=(1, 3, 6), W=(-4, 2, 7), Delta=3,
        schedule=CarrierSchedule(entries={t: 3 + t % 4 for t in range(1, 20)}),
    )
    assert verify_tau_solution(params, 0, 15).ok
    real = solutions_mod._tau_fields

    def fields(params, t_lo, t_hi):
        out = real(params, t_lo, t_hi)
        out[field][7 - t_lo, index] += 1
        return out

    monkeypatch.setattr(solutions_mod, "_tau_fields", fields)
    assert verify_tau_solution(params, 0, 15).residuals[key] > 0


def loop_euler_residuals(params, slices):
    """The update-rule residuals of consecutive slices over boxes
    [n_lo, n_hi + 1], one transition and one box n_lo .. n_hi at a time, in
    Python integers."""
    res = {"size_limit": 0, "carrier_load": 0, "recovery": 0}
    n_lo = slices[0].n_start
    for cur, nxt in zip(slices, slices[1:]):
        u, u1 = cur.U.tolist(), nxt.U.tolist()
        ub, zb = nxt.Ubar.tolist(), nxt.Zbar.tolist()
        m = params.schedule.at(nxt.time)
        for i in range(len(u) - 1):
            cap = params.profile.capacity(n_lo + i)
            res["size_limit"] = max(res["size_limit"], abs(ub[i] - min(cap - u[i], zb[i])))
            held = zb[i] + u[i]
            capped = held if m.bound is None else min(held, m.bound)
            res["carrier_load"] = max(res["carrier_load"], abs(zb[i + 1] - (capped - ub[i])))
            res["recovery"] = max(res["recovery"], abs(u1[i] - (u[i] + zb[i] - zb[i + 1])))
    return res


def loop_tau_report(params, states):
    """(residuals, min_q, min_interior_e) of consecutive states, one
    transition and one index at a time, in Python integers."""
    dd, big_n = params.Delta, params.N
    res = dict.fromkeys(
        ("qbar", "ebar", "cbar", "dbar", "cbar0_boundary", "q_recovery", "e_recovery"), 0
    )

    def bump(key, lhs, rhs):
        res[key] = max(res[key], abs(lhs - rhs))

    min_q = min_e = None
    for cur, nxt in zip(states, states[1:]):
        m = params.schedule.at(nxt.time)

        def cap(x):
            return x if m.bound is None else min(x, m.bound)

        q, e = cur.Q, cur.E
        qb, eb, cb, db = nxt.Qbar, nxt.Ebar, nxt.Cbar, nxt.Dbar
        min_q = min(q) if min_q is None else min(min_q, *q)
        if e:
            min_e = min(e) if min_e is None else min(min_e, *e)
        bump("cbar0_boundary", cb[0], dd)
        for n in range(big_n):
            bump("dbar", db[n], cap(cb[n] + q[n] - dd))
            lim = db[n] if n == big_n - 1 else min(e[n] - max(0, dd - db[n]), db[n])
            bump("qbar", qb[n], lim)
            bump("cbar", cb[n + 1], cap(db[n] - qb[n] + dd))
            bump("q_recovery", nxt.Q[n], q[n] + cb[n] - cb[n + 1])
        for i in range(big_n - 1):
            short_i, short_j = max(0, dd - db[i]), max(0, dd - db[i + 1])
            bump("ebar", eb[i], e[i] - qb[i] + q[i + 1] - short_i + short_j)
            bump("e_recovery", nxt.E[i], eb[i] + qb[i] - q[i + 1] - db[i] + db[i + 1])
    return res, (0 if min_q is None else min_q), min_e


def _entries_of(fields):
    """An `_euler_fields` stand-in that reads every nonzero cell of the
    dense (3, time, box) fields, time 0 and box n_lo first, as entries."""

    def entries(params, n_lo, n_hi, t_lo, t_hi):
        block = fields[:, t_lo : t_hi + 1]
        rows, cols = np.nonzero(block.any(axis=0))
        return rows, cols + n_lo, block[:, rows, cols]

    return entries


def _span_fault_reports(monkeypatch, inject):
    """The verifier's report over boxes [-25, 70] and the dense loop's on
    the FAULT_PARAMS fields over boxes [-25, 71] and t = 0 .. 10, after
    inject(fields, a, b) changes the dense (3, time, box) fields, a and b
    the first and last box of their live entries."""
    from boxball import solutions as solutions_mod

    rows, boxes, values = solutions_mod._euler_fields(FAULT_PARAMS, -25, 71, 0, 10)
    fields = np.zeros((3, 11, 97), dtype=np.int64)
    fields[:, rows, boxes + 25] = values
    a, b = int(boxes.min()), int(boxes.max())
    assert -25 < a - 1 and b + 1 < 70  # boxes a - 1 and b + 1 are checked
    inject(fields, a, b)
    monkeypatch.setattr(solutions_mod, "_euler_fields", _entries_of(fields))
    slices = [
        EulerFieldSlice(time=t, n_start=-25, U=u, Ubar=ub, Zbar=zb)
        for t, (u, ub, zb) in enumerate(fields.swapaxes(0, 1))
    ]
    rep = verify_euler_solution(FAULT_PARAMS, -25, 70, 0, 10)
    return rep.residuals, loop_euler_residuals(FAULT_PARAMS, slices)


@pytest.mark.parametrize("field", ["U", "Ubar", "Zbar"])
@pytest.mark.parametrize("where", ["span-first", "span-last", "n_lo", "n_hi"])
def test_euler_verifier_equals_the_loop_on_faults_at_the_span_ends(monkeypatch, field, where):
    # the verifier checks a block over its entries' box span [a, b] and
    # the box on each side, which reads into it; a fault at an end of the
    # span or of the window must give the report of the dense loop
    rng = np.random.default_rng([len(where), ord(where[-1]), len(field)])
    # t = 1 .. 9: no fault in slice 0, whose Ubar and Zbar no rule reads
    time, bump = int(rng.integers(1, 10)), int(rng.choice([-2, -1, 1, 2]))

    def inject(fields, a, b):
        box = {"span-first": a, "span-last": b, "n_lo": -25, "n_hi": 70}[where]
        fields[("U", "Ubar", "Zbar").index(field), time, box + 25] += bump

    residuals, dense = _span_fault_reports(monkeypatch, inject)
    assert residuals == dense
    # U at the window's last box is seen by the recovery rule there, which
    # reads Zbar one box past the window
    assert max(residuals.values()) > 0


def test_euler_verifier_reads_the_span_from_the_box_left_of_it(monkeypatch):
    # U and Zbar of the span's first box raised by 3 in the last slice:
    # the recovery rule at box a still holds, U of the last slice is read
    # by no later transition, and only box a - 1, where recovery reads
    # |Zbar_a|, shows the fault in that rule
    def inject(fields, a, b):
        fields[[0, 2], 10, a + 25] += 3

    residuals, dense = _span_fault_reports(monkeypatch, inject)
    assert residuals == dense and residuals["recovery"] == 3


def test_batched_verifiers_equal_the_loops_on_faulty_fields(monkeypatch):
    # random faults of random size in random fields, slices and boxes: the
    # batched residuals must equal those of a transition-by-transition loop
    from boxball import solutions as solutions_mod

    rng = np.random.default_rng(12)
    real_euler, real_tau = solutions_mod._euler_fields, solutions_mod._tau_fields
    names = ["U", "Ubar", "Zbar"]
    for case in range(24):
        # the public generators read the evaluators: no case may see the
        # previous case's patched fields
        monkeypatch.undo()
        n = int(rng.integers(1, 4))
        params = EulerSolitonParams(
            P=rng.choice(np.arange(0, 7), size=n).tolist(),
            Xi=rng.integers(-10, 11, size=n).tolist(),
            profile=CapacityProfile(rng.integers(1, 5, size=6).tolist(), 2, 2),
            schedule=CarrierSchedule(
                entries={t: POS_INF if t % 5 == 0 else int(rng.integers(0, 6)) for t in range(70)}
            ),
        )
        t_hi = 70 if case % 3 == 0 else 9  # several verify blocks, or one
        # the fields reach box n_hi + 1 = 41, which the rules at 40 read
        rows, boxes, values = real_euler(params, -15, 41, 0, t_hi)
        fields = np.zeros((3, t_hi + 1, 57), dtype=np.int64)
        fields[:, rows, boxes + 15] = values
        if t_hi == 70:
            fields[1, 64, 5] += 1  # Ubar at t = 64, read only by the transition that ends a block
        for _ in range(int(rng.integers(0, 6))):
            row = fields[:, int(rng.choice([0, -1, rng.integers(0, fields.shape[1])]))]
            field = row[names.index(str(rng.choice(names)))]
            field[int(rng.choice([0, -1, rng.integers(0, len(field))]))] += int(rng.integers(-3, 4))
        monkeypatch.setattr(solutions_mod, "_euler_fields", _entries_of(fields))
        rep = verify_euler_solution(params, -15, 40, 0, t_hi)
        slices = [
            EulerFieldSlice(time=t, n_start=-15, U=u, Ubar=ub, Zbar=zb)
            for t, (u, ub, zb) in enumerate(fields.swapaxes(0, 1))
        ]
        assert rep.residuals == loop_euler_residuals(params, slices)

        p = sorted(rng.choice(np.arange(1, 9), size=n + 1, replace=False).tolist())
        delta = int(rng.integers(1, 4))
        tau = TauParams(
            P=p, W=rng.integers(-6, 7, size=n + 1).tolist(), Delta=delta,
            schedule=CarrierSchedule(entries={t: delta + t % 3 for t in range(1, 12)}),
        )
        families = real_tau(tau, 0, 10)
        for _ in range(int(rng.integers(0, 6))):
            k = int(rng.choice([0, -1, rng.integers(0, 11)]))
            values = families[str(rng.choice(["Q", "E", "Qbar", "Ebar", "Cbar", "Dbar"]))][k]
            if values.size:
                values[int(rng.choice([0, -1, rng.integers(0, len(values))]))] += int(
                    rng.integers(-3, 4)
                )
        monkeypatch.setattr(solutions_mod, "_tau_fields", lambda params, t_lo, t_hi: families)
        rep = verify_tau_solution(tau, 0, 10)
        states = [
            TauState(time=t, **{name: tuple(a[t].tolist()) for name, a in families.items()})
            for t in range(11)
        ]
        assert (rep.residuals, rep.min_q, rep.min_interior_e) == loop_tau_report(tau, states)


def test_tau_verifier_extremes_and_capacity_error():
    # pinned from the verifier that checked one entry at a time
    # the last two are least at their first transitions only
    cases = [
        (TauParams(P=(4,), W=(3,), Delta=2,
                   schedule=CarrierSchedule(entries={1: 5, 2: POS_INF}, default=3)),
         -2, 4, None),
        (TauParams(P=(1, 3, 6), W=(-4, 2, 7), Delta=3,
                   schedule=CarrierSchedule(entries={t: 3 + t % 4 for t in range(1, 20)})),
         -4, 1, 1),
        (TauParams(P=(2, 2, 5, 9), W=(1, -3, 0, 4), Delta=2,
                   schedule=CarrierSchedule(entries={4: 2, 6: 7}, default=4)),
         1, 2, 2),
    ]
    for params, t_lo, min_q, min_e in cases:
        rep = verify_tau_solution(params, t_lo, 9)
        assert rep.ok, rep.residuals
        assert (rep.min_q, rep.min_interior_e) == (min_q, min_e)
    bad = TauParams(P=(2, 5), W=(0, 1), Delta=3,
                    schedule=CarrierSchedule(entries={4: 2, 6: 0}, default=5))
    with pytest.raises(ValueError, match=r"^carrier capacity XInt\(2\) below Delta at t=4$"):
        verify_tau_solution(bad, 0, 9)


def test_closed_forms_refuse_to_wrap_int64():
    big = EulerSolitonParams(P=(1, 2), Xi=(2**63 - 1, 0), profile=UNIT, schedule=FREE)
    with pytest.raises(FiniteOverflow):
        euler_nsoliton(big, 0, 5, 0)
    with pytest.raises(FiniteOverflow):
        verify_euler_solution(big, 0, 5, 0, 2)
    fast = EulerSolitonParams(P=(2**62,), Xi=(0,), profile=UNIT, schedule=FREE)
    with pytest.raises(FiniteOverflow):
        euler_nsoliton(fast, -3, 3, 0)
    heavy = TauParams(P=(1,), W=(2**63 - 1,), Delta=1, schedule=FREE)
    with pytest.raises(FiniteOverflow):
        tau_toda_state(heavy, 0)


def test_tau_speeds_near_2_62_stop_at_the_carrier_sum():
    # `_tau_headroom` reads the carrier sums of the range's two end rows;
    # `_signed_prefix` refuses them before they can wrap
    fast = TauParams(P=(2**62,), W=(0,), Delta=1, schedule=CarrierSchedule())
    message = r"^sums of 4 terms up to 4611686018427387904 leave int64$"
    with pytest.raises(FiniteOverflow, match=message):
        tau_states(fast, 0, 3)
    with pytest.raises(FiniteOverflow, match=message):
        verify_tau_solution(fast, 0, 3)


def test_an_empty_tau_range_checks_nothing():
    params = TauParams(P=(2, 5), W=(0, 1), Delta=2, schedule=FREE)
    for t_lo, t_hi in ((3, 3), (5, 2)):
        rep = verify_tau_solution(params, t_lo, t_hi)
        assert rep.residuals == dict.fromkeys(
            ("qbar", "ebar", "cbar", "dbar", "cbar0_boundary", "q_recovery", "e_recovery"), 0
        )
        assert (rep.min_q, rep.min_interior_e, rep.boundary_failures) == (0, None, 0)
