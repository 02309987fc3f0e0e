"""Fault injection: a Toda route that goes wrong must be reported under the
right failure label, and a run split over forked workers must report
exactly what a serial run reports."""

import os
import signal
from dataclasses import replace

import numpy as np
import pytest

from boxball import CapacityProfile, EulerState, euler_step, expand, unbounded_schedule
from boxball import difftest
from boxball.difftest import DiffBounds, run_difftest
from boxball.toda import DegenerateState
from boxball.xint import POS_INF

REAL_STEP = difftest.enutoda_step
REAL_ORACLE = difftest.carrier_oracle_step
REAL_EULER = difftest.euler_step
REAL_RESIDUAL = difftest.umkdv_residual
REAL_CASE = difftest._run_case


def use_cpus(monkeypatch, n):
    """run_difftest splits its cases into one block per usable CPU."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
    use_cpus(monkeypatch, 1)
    serial = run_difftest(40, 11, bounds)
    # the failures of both blocks (cases 0..19 and 20..39) come back in order
    use_cpus(monkeypatch, 2)
    report = run_difftest(40, 11, bounds)
    assert report.to_json_dict() == serial.to_json_dict()
    assert [f.case for f in report.failures] == list(range(40))
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


def oracle_stands_still(state, schedule):
    return state


def euler_loses_a_ball(state, schedule):
    # both routes are handed one state object at step 0, so a step that
    # takes a ball out of its input takes it from the oracle's too
    (n, u), rest = state.occupied[0], state.occupied[1:]
    state.__dict__["occupied"] = (((n, u - 1),) if u > 1 else ()) + rest
    return REAL_EULER(state, schedule)


def residual_off_by_one(before, after, trace, m):
    return replace(REAL_RESIDUAL(before, after, trace, m), max_violation=1)


def identity_off_by_two(before, after, trace, m):
    return replace(REAL_RESIDUAL(before, after, trace, m), carrier_identity_max=2)


def euler_load_past_m(state, schedule):
    # a load past both windows, where the residual reads no box
    nxt, trace = REAL_EULER(state, schedule)
    box = max(state.window_end, nxt.window_end) + 1
    m = schedule.at(nxt.time).finite
    return nxt, replace(trace, carrier_loads=trace.carrier_loads + ((box, m + 1),))


def toda_degenerates(state, schedule):
    raise DegenerateState("step produced Q'=[2, 0], E'=[3]")


def toda_gains_a_ball(state, schedule):
    nxt, trace = REAL_STEP(state, schedule)
    return replace(nxt, Q=nxt.Q[:-1] + (nxt.Q[-1] + 1,)), trace


def toda_qbar_past_dbar(state, schedule):
    nxt, trace = REAL_STEP(state, schedule)
    return nxt, replace(trace, Qbar=(trace.Dbar[0] + 1,) + trace.Qbar[1:])


FAULTS = [
    ("carrier_oracle_step", oracle_stands_still, "oracle_counts",
     "euler=[0, 2, 0, 1, 1] oracle=[2, 0, 1, 1, 0]"),
    ("euler_step", euler_loses_a_ball, "ball_conservation", "4 -> 3"),
    ("umkdv_residual", residual_off_by_one, "umkdv_residual", "max=1"),
    ("umkdv_residual", identity_off_by_two, "carrier_identity", "max=2"),
    ("euler_step", euler_load_past_m, "carrier_bound", "loads in [0, 5], M=XInt(4)"),
    ("enutoda_step", toda_degenerates, "toda_degenerate", "step produced Q'=[2, 0], E'=[3]"),
    ("enutoda_step", toda_gains_a_ball, "soliton_conservation", "4 -> 5"),
    ("enutoda_step", toda_qbar_past_dbar, "trace_bounds",
     "Qbar=(3, 2) Dbar=(2, 2) Cbar=(2, 2, 0)"),
]


@pytest.mark.parametrize("name, fault, quantity, detail", FAULTS, ids=[f[2] for f in FAULTS])
def test_each_check_reports_its_label_and_detail(monkeypatch, name, fault, quantity, detail):
    # case 0 of seed 4: boxes 0..4 of capacity 2 holding 2, 0, 1, 1, 0
    # balls, (Q, E, X0) = ((2, 2), (3,), 0), and M = 4 then 6; the first
    # failure ends the case
    monkeypatch.setattr(difftest, name, fault)
    report = run_difftest(1, 4, DiffBounds(window=6, max_delta=2, steps=2))
    assert [(f.case, f.step, f.quantity, f.detail) for f in report.failures] == [
        (0, 0, quantity, detail)
    ]


@pytest.mark.parametrize(
    "bounds",
    [
        DiffBounds(window=32, max_delta=5, steps=20),
        DiffBounds(window=32, max_delta=1, m_choices=(POS_INF,), steps=20),
    ],
    ids=["capacity", "unit"],
)
def test_parallel_report_equals_serial(monkeypatch, bounds):
    reports = {}
    for cpus in (1, 2, 3):
        use_cpus(monkeypatch, cpus)
        reports[cpus] = run_difftest(200, 7, bounds).to_json_dict()
    assert reports[2] == reports[1]
    assert reports[3] == reports[1]
    assert_no_child_left()


def test_one_cpu_or_one_case_runs_in_process(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    use_cpus(monkeypatch, 1)
    assert run_difftest(30, 3, DiffBounds(steps=2)).ok
    use_cpus(monkeypatch, 2)
    assert run_difftest(1, 3, DiffBounds(steps=2)).ok


def test_a_route_raising_in_a_worker_reraises_in_the_caller(monkeypatch):
    caller = os.getpid()

    def oracle(state, schedule):
        if os.getpid() != caller:
            raise ZeroDivisionError("worker route")
        return REAL_ORACLE(state, schedule)

    monkeypatch.setattr(difftest, "carrier_oracle_step", oracle)
    use_cpus(monkeypatch, 2)
    with pytest.raises(ZeroDivisionError, match="worker route") as info:
        run_difftest(40, 0, DiffBounds(steps=2))
    # the worker's traceback travels as a note
    assert "carrier_oracle_step" in "".join(info.value.__notes__)
    assert_no_child_left()


@pytest.mark.parametrize("raising, first", [({25, 35}, 25), ({5, 30}, 5), ({35}, 35)])
def test_the_lowest_raising_case_wins(monkeypatch, raising, first):
    # blocks are cases 0..12, 13..25 and 26..39; a serial run would stop at
    # the lowest raising case
    def run_case(i, *args):
        if i in raising:
            raise LookupError(i)
        REAL_CASE(i, *args)

    monkeypatch.setattr(difftest, "_run_case", run_case)
    use_cpus(monkeypatch, 3)
    with pytest.raises(LookupError) as info:
        run_difftest(40, 0, DiffBounds(steps=2))
    assert info.value.args == (first,)
    assert_no_child_left()


def test_a_killed_worker_gives_a_named_error(monkeypatch):
    caller = os.getpid()

    def oracle(state, schedule):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return REAL_ORACLE(state, schedule)

    monkeypatch.setattr(difftest, "carrier_oracle_step", oracle)
    use_cpus(monkeypatch, 2)
    with pytest.raises(difftest.WorkerLost, match=r"cases 20\.\.39 .*exit code -9"):
        run_difftest(40, 0, DiffBounds(steps=2))
    assert_no_child_left()
