"""The sparse walks against the literal dense loops they replace.

Each dense_* function below walks every box of the window: the carrier
sweep as it was before it learnt to skip empty boxes under an empty
carrier, and the expansion as the 0/1 segment array it used to be.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boxball import CapacityProfile, EulerState, expand
from boxball._kernels import carrier_sweep


def dense_carrier_sweep(counts, caps, m_val, m_capped):
    w = counts.shape[0]
    new_counts = np.zeros(w, np.int64)
    limited = np.zeros(w, np.int64)
    loads = np.zeros(w + 1, np.int64)
    removed = np.zeros(w, np.int64)
    load = 0
    for n in range(w):
        loads[n] = load
        put = caps[n] - counts[n]
        if put > load:
            put = load
        held = load + counts[n]
        if m_capped and held > m_val:
            removed[n] = held - m_val
            held = m_val
        load = held - put
        limited[n] = put
        new_counts[n] = put + removed[n]
    loads[w] = load
    return new_counts, limited, loads, removed


def dense_expand_sweep(counts, caps, total):
    bits = np.zeros(total, np.int64)
    s = 0
    prev = 0
    for n in range(counts.shape[0]):
        d = caps[n]
        u = counts[n]
        if prev == 1:
            for j in range(u):
                bits[s + j] = 1
        else:
            for j in range(d - u, d):
                bits[s + j] = 1
        s += d
        prev = bits[s - 1]
    return bits


def runs_of(bits):
    """(X, Y) of the maximal runs of ones in a 0/1 array from segment 0."""
    edges = np.flatnonzero(np.diff(np.concatenate(([0], bits, [0]))))
    return tuple(edges[0::2].tolist()), tuple(edges[1::2].tolist())


@st.composite
def windows(draw):
    """(counts, caps) from box 0: clusters of boxes separated by zero gaps
    of up to 60 boxes, capacities 1..5 listed, a default of 2..5 past
    them."""
    listed = draw(st.lists(st.integers(1, 5), max_size=12))
    profile = CapacityProfile(capacities=tuple(listed), default_capacity=draw(st.integers(2, 5)))
    counts = []
    for _ in range(draw(st.integers(0, 5))):
        counts += [0] * draw(st.integers(0, 60))
        for _ in range(draw(st.integers(1, 4))):
            counts.append(draw(st.integers(0, profile.capacity(len(counts)))))
    counts += [0] * draw(st.integers(0, 3))
    return np.array(counts, dtype=np.int64), profile.caps_array(0, len(counts))


# (m_val, m_capped): M = 0, finite M, or +inf
carrier_capacities = st.one_of(
    st.just((0, False)), st.tuples(st.integers(0, 8), st.just(True))
)


def window(counts, caps):
    return np.array(counts, dtype=np.int64), np.array(caps, dtype=np.int64)


EMPTY = window([], [])
ALL_ZERO = window([0] * 9, [3] * 9)
LAST_OCCUPIED = window([0, 0, 2, 0, 3, 3], [3, 5, 3, 5, 3, 3])


def assert_same(got, want):
    for g, w in zip(got, want):
        assert np.asarray(g).dtype == np.asarray(w).dtype
        assert np.array_equal(g, w)


@settings(max_examples=300)
@given(windows(), carrier_capacities)
@example(EMPTY, (0, False))
@example(ALL_ZERO, (0, True))
@example(LAST_OCCUPIED, (0, False))
@example(LAST_OCCUPIED, (4, True))
@example(LAST_OCCUPIED, (0, True))
def test_carrier_sweep_matches_dense_loop(win, m):
    counts, caps = win
    assert_same(carrier_sweep(counts, caps, *m), dense_carrier_sweep(counts, caps, *m))


def test_carrier_sweep_reports_load_leaving_window():
    # the WindowOverflow guard reads loads[w]: balls still carried past
    # the last box must show there, with every box before it accounted
    counts, caps = LAST_OCCUPIED
    new_counts, limited, loads, removed = carrier_sweep(counts, caps, 4, True)
    assert loads.tolist() == [0, 0, 0, 2, 0, 3, 4]
    assert new_counts.tolist() == [0, 0, 0, 2, 0, 2]
    assert removed.tolist() == [0, 0, 0, 0, 0, 2]
    assert limited.tolist() == [0, 0, 0, 2, 0, 0]


@settings(max_examples=300)
@given(windows())
@example(EMPTY)
@example(ALL_ZERO)
@example(LAST_OCCUPIED)
@example(window([2, 3, 1, 0, 5], [2, 3, 4, 1, 5]))  # full boxes chain left-justification
def test_expand_matches_dense_loop(win):
    counts, caps = win
    state = EulerState(counts=counts, profile=CapacityProfile(capacities=tuple(caps.tolist())))
    assert expand(state) == runs_of(dense_expand_sweep(counts, caps, int(caps.sum())))
