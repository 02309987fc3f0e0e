"""Time evolutions with different carrier capacities commute.

In the crystal-base theory of box-ball systems the evolutions T_M for
different carrier capacities M commute, for inhomogeneous box capacities
too (Fukuda-Okado-Yamada, "Energy functions in box ball systems", 2000;
Hatayama-Kuniba-Okado-Takagi-Yamada, "Soliton cellular automata associated
with crystal bases", 2000).  So the state after a schedule depends only on
the multiset of its capacities, and a shuffled schedule must end in the
same state: a check that needs no second implementation of the step.

One side runs euler_step in schedule order; the other runs the ball-by-ball
oracle in shuffled order and, on the mixes that include the Toda route,
enutoda_step + to_euler as well.
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
    same_occupancy,
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


def assert_commutes(state, capacities, order, include_toda):
    """The state after `capacities` in schedule order through euler_step is
    the state after them permuted by `order` through each other route."""
    ordered = CarrierSchedule(entries={t + 1: m for t, m in enumerate(capacities)})
    shuffled = CarrierSchedule(entries={t + 1: capacities[i] for t, i in enumerate(order)})
    fast = oracle = state
    toda = from_euler(state) if include_toda else None
    for _ in capacities:
        fast, _trace = euler_step(fast, ordered)
        oracle = carrier_oracle_step(oracle, shuffled)
        if toda is not None:
            toda, _trace = enutoda_step(toda, shuffled)
    assert same_occupancy(fast, oracle), (state, capacities, order)
    if toda is not None:
        assert same_occupancy(fast, to_euler(toda)), (state, capacities, order)


@pytest.mark.parametrize("mix", MIXES)
def test_shuffled_schedule_ends_in_the_same_state_seeded(mix):
    bounds = MIXES[mix]
    rng = np.random.default_rng(23)
    for _ in range(300):
        state, schedule = random_case(rng, bounds)
        capacities = [m for _, m in schedule.entries]
        order = rng.permutation(len(capacities)).tolist()
        assert_commutes(state, capacities, order, bounds.include_toda)


@settings(max_examples=50)
@pytest.mark.parametrize("mix", MIXES)
@given(data=st.data())
def test_shuffled_schedule_ends_in_the_same_state(mix, data):
    bounds = MIXES[mix]
    caps = data.draw(st.lists(st.integers(1, bounds.max_delta), min_size=1, max_size=12))
    counts = [data.draw(st.integers(0, c)) for c in caps]
    assume(any(counts))
    steps = data.draw(st.integers(1, 8))
    capacities = data.draw(
        st.lists(st.sampled_from(bounds.m_choices), min_size=steps, max_size=steps)
    )
    order = data.draw(st.permutations(range(steps)))
    state = EulerState(counts=counts, profile=CapacityProfile(capacities=tuple(caps)))
    assert_commutes(state, capacities, order, bounds.include_toda)
