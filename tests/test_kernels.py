"""The sparse walks against the literal dense loops they replace.

Each dense_* function below walks every box of the window: the carrier
sweep as it was before it learnt to skip empty boxes under an empty
carrier, the expansion as the 0/1 segment array it used to be, and the
way back as the per-run binary search over a whole-span boundary array.
"""

import ast
import inspect

import numpy as np
import pytest
from dense_views import lay
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boxball import CapacityProfile, EulerState, TodaState, expand, to_euler, toda_to_lagrange
from boxball import _kernels
from boxball._kernels import ball_queue_sweep, carrier_sweep
from boxball.euler import MAX_SPAN


def dense_carrier_sweep(counts, caps, m):
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
        if m is not None and held > m:
            removed[n] = held - m
            held = m
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


def dense_counts_from_runs(starts, lengths, bounds):
    w = bounds.shape[0] - 1
    counts = np.zeros(w, np.int64)
    for r in range(starts.shape[0]):
        a = starts[r]
        b = a + lengths[r]
        n = np.searchsorted(bounds, a, side="right") - 1
        while a < b:
            end = bounds[n + 1]
            if end > b:
                end = b
            counts[n] += end - a
            a = end
            n += 1
    return counts


def runs_of(bits):
    """(X, Y) of the maximal runs of ones in a 0/1 array from segment 0."""
    edges = np.flatnonzero(np.diff(np.concatenate(([0], bits, [0]))))
    return tuple(edges[0::2].tolist()), tuple(edges[1::2].tolist())


@st.composite
def windows(draw):
    """(counts, profile), counts from box 0: clusters of boxes separated by
    zero gaps of up to 60 boxes, capacities 1..5 listed from box 0..6, a
    default of 2..5 on either side."""
    listed = draw(st.lists(st.integers(1, 5), max_size=12))
    profile = CapacityProfile(
        capacities=tuple(listed),
        window_start=draw(st.integers(0, 6)),
        default_capacity=draw(st.integers(2, 5)),
    )
    counts = []
    for _ in range(draw(st.integers(0, 5))):
        counts += [0] * draw(st.integers(0, 60))
        for _ in range(draw(st.integers(1, 4))):
            counts.append(draw(st.integers(0, profile.capacity(len(counts)))))
    counts += [0] * draw(st.integers(0, 3))
    return np.array(counts, dtype=np.int64), profile


# the XInt bound: M = 0, finite M, or None for +inf
carrier_capacities = st.one_of(st.none(), st.integers(0, 8))


def window(counts, caps):
    return np.array(counts, dtype=np.int64), CapacityProfile(capacities=tuple(caps))


EMPTY = window([], [])
ALL_ZERO = window([0] * 9, [3] * 9)
LAST_OCCUPIED = window([0, 0, 2, 0, 3, 3], [3, 5, 3, 5, 3, 3])
CROSSING = window([3, 0, 0, 2, 0, 0], [3, 1, 1, 3, 1, 1])
# the queue holds at most M between boxes, so a trim never reaches past
# the balls of the box it is at; this is the edge where it takes them all
FULL_TRIM = window([2, 3], [2, 5])


def assert_same(got, want):
    for g, w in zip(got, want):
        assert np.asarray(g).dtype == np.asarray(w).dtype
        assert np.array_equal(g, w)


def occupied(counts):
    return tuple((n, u) for n, u in enumerate(counts.tolist()) if u)


@settings(max_examples=300)
@given(windows(), carrier_capacities)
@example(EMPTY, None)
@example(ALL_ZERO, 0)
@example(LAST_OCCUPIED, None)
@example(LAST_OCCUPIED, 4)
@example(LAST_OCCUPIED, 0)
def test_carrier_sweep_matches_dense_loop(win, m):
    counts, profile = win
    got = carrier_sweep(occupied(counts), profile, m, MAX_SPAN)
    for pairs in got:
        boxes = [box for box, _ in pairs]
        assert boxes == sorted(set(boxes))
        assert all(value != 0 for _, value in pairs)
    # the dense loop runs over the window extended by the ball total, where
    # the carrier provably empties
    w = len(counts) + int(counts.sum())
    padded = np.zeros(w, dtype=np.int64)
    padded[: len(counts)] = counts
    want = dense_carrier_sweep(padded, profile.caps_array(0, w), m)
    assert want[2][w] == 0
    laid = [lay(pairs, 0, w) for pairs in got]
    laid[2] = lay(got[2], 0, w + 1)
    assert_same(laid, want)


@settings(max_examples=300)
@given(windows(), carrier_capacities)
@example(EMPTY, None)
@example(ALL_ZERO, 0)
@example(LAST_OCCUPIED, None)
@example(LAST_OCCUPIED, 4)
@example(LAST_OCCUPIED, 0)
@example(CROSSING, None)  # a loaded queue crosses empty boxes to an occupied one
@example(CROSSING, 0)
@example(FULL_TRIM, 2)  # arriving = M, so the trim takes every ball of box 1
def test_oracle_sweeps_match_dense_loop(win, m):
    # the ball-by-ball walk lays the dense loop's new counts and ends with
    # an empty carrier
    counts, profile = win
    w = len(counts) + int(counts.sum())
    padded = np.zeros(w, dtype=np.int64)
    padded[: len(counts)] = counts
    caps = profile.caps_array(0, w)
    new, leftover = ball_queue_sweep(occupied(counts), profile, m)
    assert leftover == 0
    assert np.array_equal(lay(new, 0, w), dense_carrier_sweep(padded, caps, m)[0])


@pytest.mark.parametrize("oracle", ["ball_queue_sweep"])
def test_oracle_walks_share_no_code_with_carrier_sweep(oracle):
    # an oracle rewritten in terms of the sweep it checks would agree with
    # it whatever the sweep got wrong
    tree = ast.parse(inspect.getsource(_kernels))
    (body,) = [node for node in tree.body if getattr(node, "name", None) == oracle]
    names = {node.id for node in ast.walk(body) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(body) if isinstance(node, ast.Attribute)}
    assert names.isdisjoint({"carrier_sweep", "_require_reach", "last_box_filled"})
    assert not [node for node in ast.walk(body) if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_carrier_sweep_reports_load_leaving_window():
    # balls still carried past the last occupied box show in the loads
    # beyond the input window, and the sweep walks on until they are laid
    counts, profile = LAST_OCCUPIED
    new, limited, loads, removed = carrier_sweep(occupied(counts), profile, 4, MAX_SPAN)
    assert loads == ((3, 2), (5, 3), (6, 4), (7, 3), (8, 2), (9, 1))
    assert new == ((3, 2), (5, 2), (6, 1), (7, 1), (8, 1), (9, 1))
    assert removed == ((5, 2),)
    assert limited == ((3, 2), (6, 1), (7, 1), (8, 1), (9, 1))


@settings(max_examples=300)
@given(windows())
@example(EMPTY)
@example(ALL_ZERO)
@example(LAST_OCCUPIED)
@example(window([2, 3, 1, 0, 5], [2, 3, 4, 1, 5]))  # full boxes chain left-justification
def test_expand_matches_dense_loop(win):
    counts, profile = win
    caps = profile.caps_array(0, len(counts))
    state = EulerState(counts=counts, profile=profile)
    assert expand(state) == runs_of(dense_expand_sweep(counts, caps, int(caps.sum())))


@st.composite
def toda_states(draw):
    """Toda states over 0..8 listed capacities (1..5, or one of 2^40)
    placed at box 0..6, a default of 1..5 elsewhere, anchored at 0..40."""
    listed = draw(st.lists(st.integers(1, 5), max_size=8))
    n_runs = draw(st.integers(1, 6))
    return TodaState(
        Q=draw(st.lists(st.integers(1, 9), min_size=n_runs, max_size=n_runs)),
        E=draw(st.lists(st.integers(1, 12), min_size=n_runs - 1, max_size=n_runs - 1)),
        X0=draw(st.integers(0, 40)),
        profile=CapacityProfile(
            capacities=tuple(listed),
            window_start=draw(st.integers(0, 6)),
            default_capacity=draw(st.integers(1, 5)),
        ),
    )


# two runs sharing box 2, the second spilling into box 3
SHARED_BOX = CapacityProfile(capacities=(2, 5), window_start=1, default_capacity=3)
# 0 1 | 1 0 .. 0 | 0 0 1 on a capacity-2^40 middle box
HUGE_BOX = CapacityProfile(capacities=(2, 2**40, 3))


@settings(max_examples=300)
@given(toda_states())
@example(TodaState(Q=(1,), E=(), X0=0, profile=CapacityProfile()))
@example(TodaState(Q=(1, 4), E=(1,), X0=5, profile=SHARED_BOX))
@example(TodaState(Q=(2, 1), E=(2**40 + 1,), X0=1, profile=HUGE_BOX))
def test_to_euler_matches_dense_loop(state):
    # boundaries s_0 .. s_w by a running sum of capacities, from box 0 past
    # the last run's end
    x, y = toda_to_lagrange(state.Q, state.E, state.X0)
    bounds = [0]
    while bounds[-1] < y[-1]:
        bounds.append(bounds[-1] + state.profile.capacity(len(bounds) - 1))
    want = dense_counts_from_runs(
        np.array(x, np.int64), np.array(state.Q, np.int64), np.array(bounds, np.int64)
    )
    got = to_euler(state)
    start = got.window_start
    assert got.counts.dtype == np.int64
    assert got.counts[0] > 0 and got.counts[-1] > 0
    assert not want[:start].any()
    assert np.array_equal(got.counts, want[start:])
