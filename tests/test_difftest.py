"""Fault injection: a Toda route that goes wrong must be reported under the
right failure label."""

from dataclasses import replace

import numpy as np

from boxball import CapacityProfile, EulerState, euler_step, expand, unbounded_schedule
from boxball import difftest
from boxball.difftest import DiffBounds, run_difftest

REAL_STEP = difftest.enutoda_step


def patch_toda_anchor(monkeypatch, move):
    """Every Toda step returns its true state with X0 replaced by
    move(state)."""

    def step(state, schedule):
        nxt, trace = REAL_STEP(state, schedule)
        return replace(nxt, X0=move(nxt)), trace

    monkeypatch.setattr(difftest, "enutoda_step", step)


def test_toda_state_moved_one_box_reports_toda_counts(monkeypatch):
    def next_box(state):
        p = state.profile
        return state.X0 + p.capacity(p.segment_to_box(state.X0))

    patch_toda_anchor(monkeypatch, next_box)
    bounds = DiffBounds(window=12, max_delta=4, steps=3)
    report = run_difftest(40, 11, bounds)
    assert len(report.failures) == 40
    assert {(f.step, f.quantity) for f in report.failures} == {(0, "toda_counts")}
    # the Euler window of step 0 starts at the case's first ball
    for f in report.failures:
        state, _ = difftest.random_case(np.random.default_rng([11, f.case]), bounds)
        first = state.window_start + int(np.flatnonzero(state.counts)[0])
        assert f.detail.startswith(f"euler[{first}:]=")


def test_run_moved_inside_its_box_reports_anchor(monkeypatch):
    # one step takes the balls of the two unit boxes into the capacity-5
    # box, where they expand right-justified (segments 5, 6); laying the
    # run at the box's first segment (2, 3) keeps the counts but not the
    # anchor
    profile = CapacityProfile(capacities=(1, 1, 5))
    state = EulerState(counts=[1, 1, 0], profile=profile)
    nxt, _ = euler_step(state, unbounded_schedule())
    assert expand(nxt) == ((5,), (7,))
    monkeypatch.setattr(
        difftest, "random_case", lambda rng, bounds: (state, unbounded_schedule())
    )

    def box_start(st):
        p = st.profile
        return p.boundary(p.segment_to_box(st.X0))

    patch_toda_anchor(monkeypatch, box_start)
    report = run_difftest(1, 0, DiffBounds(steps=1))
    assert [(f.step, f.quantity) for f in report.failures] == [(0, "anchor")]

    monkeypatch.setattr(difftest, "enutoda_step", REAL_STEP)
    assert run_difftest(1, 0, DiffBounds(steps=1)).ok
