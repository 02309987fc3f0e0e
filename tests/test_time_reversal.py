"""The mirrored step undoes the step.

In the crystal-base theory of box-ball systems each time evolution T_M is
a bijection, and its inverse is T_M conjugated by the spatial mirror R
(Hatayama-Kuniba-Okado-Takagi-Yamada, "Soliton cellular automata
associated with crystal bases", 2000).  For a schedule,

    (T_{M_k} ... T_{M_1})^{-1} = R T_{M_1} ... T_{M_k} R,

where R reflects the boxes and the capacity profile over a range [0, L)
that holds every ball.  So k steps forward, the mirror, k steps under the
reversed schedule and the mirror again must give the starting state back:
a check that needs no second implementation of the step.

Each direction runs one route each way: euler_step forward with the
ball-by-ball oracle back, the oracle forward with euler_step back, and,
where every carrier capacity is at least every box capacity, euler_step
forward with the Toda picture back.  The Toda picture starts from the
expansion of the mirrored counts: mirroring (Q, E) and X0 themselves can
give a state that no counts expand to (a box's ones sit at its right end
after the mirror, where the expansion puts them at the left end), and the
Toda step follows the box-ball dynamics only on expanded states.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from boxball import (
    POS_INF,
    CapacityProfile,
    CarrierSchedule,
    EulerState,
    XInt,
    carrier_oracle_step,
    enutoda_step,
    euler_step,
    from_euler,
    to_euler,
)
from boxball.difftest import DiffBounds, random_case

# the generator bounds of acceptance criteria 3 and 2, and an Euler-only mix
# whose carrier capacities lie below the box capacities
MIXES = {
    "criterion_3": DiffBounds(window=32, max_delta=5, steps=20),
    "criterion_2": DiffBounds(window=32, max_delta=1, m_choices=(POS_INF,), steps=20),
    "small_m": DiffBounds(
        window=32, max_delta=5, m_choices=(*map(XInt, range(4)), POS_INF), steps=20,
        include_toda=False,
    ),
}


def euler_run(state, schedule, steps):
    for _ in range(steps):
        state, _trace = euler_step(state, schedule)
    return state


def oracle_run(state, schedule, steps):
    for _ in range(steps):
        state = carrier_oracle_step(state, schedule)
    return state


def toda_run(state, schedule, steps):
    toda = from_euler(state)
    for _ in range(steps):
        toda, _trace = enutoda_step(toda, schedule)
    return to_euler(toda)


DIRECTIONS = {
    "euler_forward": (euler_run, oracle_run),
    "oracle_forward": (oracle_run, euler_run),
    "toda_back": (euler_run, toda_run),
}
CASES = [
    (mix, direction)
    for mix, bounds in MIXES.items()
    for direction in DIRECTIONS
    if bounds.include_toda or direction != "toda_back"
]


def mirror(state, length):
    """R: box n goes to length - 1 - n, for the balls and the capacity
    profile over [0, length); the time restarts at 0.  Outside its window a
    profile holds its default capacity, so the mirrored profile lists the
    window's capacities reversed, ending at box length - 1 - window_start,
    with the same default."""
    profile = state.profile
    ws, caps = profile.window_start, profile.capacities
    assert ws + len(caps) <= length
    occupied = state.occupied
    assert occupied[0][0] >= 0 and occupied[-1][0] < length, "a ball left [0, L)"
    first = length - 1 - occupied[-1][0]
    counts = [0] * (length - occupied[0][0] - first)
    for n, u in occupied:
        counts[length - 1 - n - first] = u
    return EulerState(
        counts=counts,
        profile=CapacityProfile(caps[::-1], length - ws - len(caps), profile.default_capacity),
        window_start=first,
    )


def assert_reverses(state, capacities, direction):
    """k steps forward, then the mirrored state k steps back under the
    reversed schedule, mirrored again, is the starting state."""
    forward, back = DIRECTIONS[direction]
    balls = state.total_balls
    # a step moves no ball more than `balls` boxes past the last one
    length = state.window_end + (len(capacities) + 2) * balls + 8
    ordered = CarrierSchedule(entries={t + 1: m for t, m in enumerate(capacities)})
    backward = CarrierSchedule(entries={t + 1: m for t, m in enumerate(capacities[::-1])})
    cur = forward(state, ordered, len(capacities))
    cur = back(mirror(cur, length), backward, len(capacities))
    assert mirror(cur, length).occupied == state.occupied, (state, capacities, direction)


@pytest.mark.parametrize("mix, direction", CASES)
def test_mirrored_steps_undo_the_steps_seeded(mix, direction):
    bounds = MIXES[mix]
    rng = np.random.default_rng(30)
    for _ in range(100):
        state, schedule = random_case(rng, bounds)
        assert_reverses(state, [m for _, m in schedule.entries], direction)


@settings(max_examples=30, deadline=None)
@pytest.mark.parametrize("mix, direction", CASES)
@given(data=st.data())
def test_mirrored_steps_undo_the_steps(mix, direction, data):
    bounds = MIXES[mix]
    caps = data.draw(st.lists(st.integers(1, bounds.max_delta), min_size=1, max_size=12))
    counts = [data.draw(st.integers(0, c)) for c in caps]
    assume(any(counts))
    steps = data.draw(st.integers(1, 8))
    capacities = data.draw(
        st.lists(st.sampled_from(bounds.m_choices), min_size=steps, max_size=steps)
    )
    state = EulerState(counts=counts, profile=CapacityProfile(capacities=tuple(caps)))
    assert_reverses(state, capacities, direction)
