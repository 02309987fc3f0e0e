"""Fault injection: a Toda route that goes wrong must be reported under the
right failure label, a case checked route by route must report what a
step-by-step walk meets first, and a run split over forked workers must
report exactly what a serial run reports."""

import os
import re
import signal
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from boxball import CapacityProfile, CarrierSchedule, EulerState, euler_step, expand
from boxball import difftest
from boxball.config import dump
from boxball.difftest import DiffBounds, DiffReport, random_case, run_difftest
from boxball.euler import MAX_SPAN
from boxball.toda import DegenerateState
from boxball.xint import INT64_MAX, POS_INF, FiniteOverflow, XInt

REAL_STEP = difftest.enutoda_step
REAL_ORACLE = difftest.carrier_oracle_step
REAL_EULER = difftest.euler_step
REAL_RESIDUAL = difftest.umkdv_residual
REAL_CASE = difftest._run_case


def use_cpus(monkeypatch, n):
    """run_difftest runs its cases in one process per usable CPU."""
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
    # the failures of both processes come back in case order
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
    nxt, _ = euler_step(state, CarrierSchedule())
    assert expand(nxt) == ((5,), (7,))
    monkeypatch.setattr(
        difftest, "random_case", lambda rng, bounds: (state, CarrierSchedule())
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
    m = schedule.at(nxt.time).bound
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


def step_by_step_case(case_index, state, schedule, bounds, report):
    """The reference: every route and check of one step before the next
    step, whose first failure or raise `_run_case` must report; it reads
    each route through the module, so a patch reaches both."""
    d = difftest
    fail = report.failures

    def record(step, quantity, detail):
        fail.append(d.DiffFailure(case=case_index, step=step, quantity=quantity, detail=detail))

    ea = eb = state
    ts = None
    if bounds.include_toda:
        ts = d.from_euler(state)
        solitons_before = sum(ts.Q)
    total_before = ea.total_balls
    for step in range(bounds.steps):
        m = schedule.at(ea.time + 1)
        ea_next, trace = d.euler_step(ea, schedule)
        eb_next = d.carrier_oracle_step(eb, schedule)
        report.steps_checked += 1
        if not d.same_occupancy(ea_next, eb_next):
            record(step, "oracle_counts",
                   f"euler={ea_next.counts.tolist()} oracle={eb_next.counts.tolist()}")
            return
        total_after = ea_next.total_balls
        if total_after != total_before:
            record(step, "ball_conservation", f"{total_before} -> {total_after}")
            return
        res = d.umkdv_residual(ea, ea_next, trace, m)
        if res.max_violation != 0:
            record(step, "umkdv_residual", f"max={res.max_violation}")
            return
        if res.carrier_identity_max != 0:
            record(step, "carrier_identity", f"max={res.carrier_identity_max}")
            return
        low = high = 0
        for _, v in trace.carrier_loads:
            if v < low:
                low = v
            elif v > high:
                high = v
        if low < 0 or (m.bound is not None and high > m.bound):
            record(step, "carrier_bound", f"loads in [{low}, {high}], M={m}")
            return
        if ts is not None:
            try:
                ts_next, ttrace = d.enutoda_step(ts, schedule)
            except DegenerateState as exc:
                record(step, "toda_degenerate", str(exc))
                return
            solitons_after = sum(ts_next.Q)
            if solitons_after != solitons_before:
                record(step, "soliton_conservation", f"{solitons_before} -> {solitons_after}")
                return
            m_ok = m.bound is None or (
                max(ttrace.Dbar) <= m.bound and max(ttrace.Cbar) <= m.bound
            )
            if not m_ok or any(q > dd for q, dd in zip(ttrace.Qbar, ttrace.Dbar)):
                record(step, "trace_bounds",
                       f"Qbar={ttrace.Qbar} Dbar={ttrace.Dbar} Cbar={ttrace.Cbar}")
                return
            back = d.to_euler(ts_next)
            if not d.same_occupancy(back, ea_next):
                record(step, "toda_counts",
                       f"euler[{ea_next.window_start}:]={ea_next.counts.tolist()} "
                       f"toda[{back.window_start}:]={back.counts.tolist()}")
                return
            if d.expand(ea_next) != d.toda_to_lagrange(ts_next.Q, ts_next.E, ts_next.X0):
                record(step, "anchor",
                       f"(Q,E,X0)=({ts_next.Q},{ts_next.E},{ts_next.X0}) "
                       f"does not match the evolved expansion")
                return
            ts = ts_next
            solitons_before = solitons_after
        ea, eb = ea_next, eb_next
        total_before = total_after


def moved(state):
    """The last run of balls one box to the right, as many balls."""
    *rest, (n, u) = state.occupied
    return EulerState._trusted(
        tuple(rest) + ((n + 1, u),), state.profile, state.time,
        state.window_start, max(state.window_end, n + 2),
    )


def short(state):
    """One ball fewer in the last occupied box."""
    *rest, (n, u) = state.occupied
    return EulerState._trusted(
        tuple(rest) + (((n, u - 1),) if u > 1 else ()), state.profile, state.time,
        state.window_start, state.window_end,
    )


# holds the same pairs as no state, and has no counts or window to name
HOLLOW = SimpleNamespace(occupied=((-1, 1),))


def off_by_one_runs(runs):
    X, Y = runs
    return tuple(x + 1 for x in X), Y


# each route's wrong values, applied to what the true route returned
WRONG = {
    "euler_step": [
        lambda r: (moved(r[0]), r[1]),
        lambda r: (short(r[0]), r[1]),
        lambda r: (HOLLOW, r[1]),
        # a load past the window, where the residual reads no box
        lambda r: (r[0], replace(r[1], carrier_loads=r[1].carrier_loads
                                 + ((r[0].window_end + 1, -1),))),
        lambda r: None,
    ],
    "carrier_oracle_step": [moved, short, lambda r: HOLLOW, lambda r: None],
    "umkdv_residual": [
        lambda r: replace(r, max_violation=1),
        lambda r: replace(r, carrier_identity_max=2),
        lambda r: None,
    ],
    "enutoda_step": [
        lambda r: (replace(r[0], Q=r[0].Q[:-1] + (r[0].Q[-1] + 1,)), r[1]),
        lambda r: (r[0], replace(r[1], Qbar=(r[1].Dbar[0] + 1,) + r[1].Qbar[1:])),
        lambda r: (replace(r[0], X0=r[0].X0 + 1), r[1]),
        lambda r: (r[0], None),
    ],
    "to_euler": [moved, short, lambda r: HOLLOW, lambda r: None],
    "expand": [off_by_one_runs, lambda r: None],
    "toda_to_lagrange": [off_by_one_runs, lambda r: ((), ())],
}


class FaultPlan:
    """Each route passes, raises at its call for step k, or returns a
    wrong value there; calls are counted per case, and a route is called
    once per step it reaches on either walk."""

    def __init__(self, monkeypatch):
        self.plan = {}
        self.calls = {}
        for name in WRONG:
            monkeypatch.setattr(difftest, name, self.route(name, getattr(difftest, name)))

    def route(self, name, real):
        def call(*args):
            step = self.calls.get(name, 0)
            self.calls[name] = step + 1
            fault = self.plan.get(name)
            if fault is None or fault[1] != step:
                return real(*args)
            if fault[0] == "raise":
                raise LookupError(f"{name} raised at step {step}")
            if fault[0] == "degenerate":
                raise DegenerateState(f"{name} degenerate at step {step}")
            return fault[0](real(*args))

        return call

    def draw(self, rng, steps):
        self.plan = {}
        for name, wrong in WRONG.items():
            kind = rng.integers(10)
            if kind < 7:
                continue
            if kind == 7:
                fault = "raise"
            elif name == "enutoda_step" and rng.integers(5) == 0:
                fault = "degenerate"
            else:
                fault = wrong[rng.integers(len(wrong))]
            self.plan[name] = (fault, int(rng.integers(steps)))

    def outcome(self, run_case, cases, bounds):
        """The report's failures and steps_checked after the cases, or the
        type and message of the first raise."""
        report = DiffReport(cases=len(cases), seed=0, bounds=bounds)
        try:
            for i, (state, schedule) in enumerate(cases):
                self.calls = {}
                run_case(i, state, schedule, bounds, report)
        except Exception as exc:
            return type(exc), str(exc)
        return report.to_json_dict()


@pytest.mark.parametrize(
    "bounds",
    [
        DiffBounds(window=8, max_delta=4, steps=6),
        DiffBounds(window=8, max_delta=1, m_choices=(POS_INF,), steps=6),
        DiffBounds(window=8, max_delta=4, m_choices=(XInt(1), XInt(2), POS_INF), steps=6,
                   include_toda=False),
    ],
    ids=["capacity", "unit", "euler-only"],
)
def test_route_by_route_meets_the_first_failure_of_a_step_by_step_walk(monkeypatch, bounds):
    faults = FaultPlan(monkeypatch)
    rng = np.random.default_rng(27)
    kinds = set()
    for trial in range(100):
        cases = [random_case(np.random.default_rng([trial, i]), bounds) for i in range(3)]
        faults.draw(rng, bounds.steps)
        want = faults.outcome(step_by_step_case, cases, bounds)
        assert faults.outcome(REAL_CASE, cases, bounds) == want, (trial, faults.plan)
        kinds.add("raised" if isinstance(want, tuple) else "failed" if want["failures"] else "ok")
    assert {"raised", "failed"} <= kinds


def fault_at(monkeypatch, name, step, fault):
    """Route `name` does fault(true result) at its call for `step`."""
    real = getattr(difftest, name)
    calls = []

    def call(*args):
        calls.append(None)
        if len(calls) == step + 1:
            return fault(real, args)
        return real(*args)

    monkeypatch.setattr(difftest, name, call)


def raises(real, args):
    raise LookupError("raised")


def test_a_toda_failure_pre_empts_a_later_euler_step_raise(monkeypatch):
    fault_at(monkeypatch, "euler_step", 3, raises)
    fault_at(monkeypatch, "enutoda_step", 1, lambda real, args: toda_gains_a_ball(*args))
    report = run_difftest(1, 4, DiffBounds(window=6, max_delta=2, steps=5))
    assert [(f.step, f.quantity, f.detail) for f in report.failures] == [
        (1, "soliton_conservation", "4 -> 5")
    ]
    assert report.steps_checked == 2


def test_oracle_counts_ranks_before_ball_conservation_at_one_step(monkeypatch):
    def one_ball_short(real, args):
        nxt, trace = real(*args)
        return short(nxt), trace

    fault_at(monkeypatch, "euler_step", 1, one_ball_short)
    report = run_difftest(1, 4, DiffBounds(window=6, max_delta=2, steps=5))
    assert [(f.step, f.quantity) for f in report.failures] == [(1, "oracle_counts")]
    assert report.steps_checked == 2


def test_a_toda_raise_pre_empts_a_later_euler_check_failure(monkeypatch):
    fault_at(monkeypatch, "enutoda_step", 2, raises)
    fault_at(monkeypatch, "umkdv_residual", 4, lambda real, args: residual_off_by_one(*args))
    with pytest.raises(LookupError, match="raised"):
        run_difftest(1, 4, DiffBounds(window=6, max_delta=2, steps=5))
    # and the other way round: the Euler failure comes first
    monkeypatch.undo()
    fault_at(monkeypatch, "enutoda_step", 3, raises)
    fault_at(monkeypatch, "umkdv_residual", 2, lambda real, args: residual_off_by_one(*args))
    report = run_difftest(1, 4, DiffBounds(window=6, max_delta=2, steps=5))
    assert [(f.step, f.quantity) for f in report.failures] == [(2, "umkdv_residual")]


def test_a_passing_case_calls_each_route_once_per_step(monkeypatch):
    # the passes add no route call to a passing case, so traced call counts
    # stay those of a step-by-step walk
    routes = tuple(WRONG)
    calls = dict.fromkeys(routes, 0)

    def counted(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)

        return call

    for name in routes:
        monkeypatch.setattr(difftest, name, counted(name, getattr(difftest, name)))
    bounds = DiffBounds()
    report = run_difftest(1, 0, bounds)
    assert report.ok and report.steps_checked == bounds.steps
    assert calls == dict.fromkeys(routes, bounds.steps)


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


def wait_for(path):
    """Until another process has made `path`, at most one minute."""
    deadline = time.monotonic() + 60
    while not path.exists() and time.monotonic() < deadline:
        time.sleep(0.001)


def patch_worker_oracle(monkeypatch, tmp_path, in_worker):
    """The oracle calls in_worker() in a forked worker; in the caller it
    first waits until a worker has started a case, so that the caller
    cannot take every chunk before the worker takes one."""
    caller = os.getpid()
    started = tmp_path / "worker-started"

    def oracle(state, schedule):
        if os.getpid() != caller:
            started.touch()
            in_worker()
        else:
            wait_for(started)
        return REAL_ORACLE(state, schedule)

    monkeypatch.setattr(difftest, "carrier_oracle_step", oracle)


def test_a_route_raising_in_a_worker_reraises_in_the_caller(monkeypatch, tmp_path):
    def worker_route():
        raise ZeroDivisionError("worker route")

    patch_worker_oracle(monkeypatch, tmp_path, worker_route)
    use_cpus(monkeypatch, 2)
    with pytest.raises(ZeroDivisionError, match="worker route") as info:
        run_difftest(40, 0, DiffBounds(steps=2))
    # the worker's traceback travels as a note
    assert "carrier_oracle_step" in "".join(info.value.__notes__)
    assert_no_child_left()


@pytest.mark.parametrize("raising, first", [({25, 35}, 25), ({5, 30}, 5), ({35}, 35)])
def test_the_lowest_raising_case_wins(monkeypatch, raising, first):
    # chunks of one case each go to whichever of the three processes asks
    # first; a serial run would stop at the lowest raising case
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


@pytest.mark.parametrize("worker_fails", ["raises", "dies"])
def test_a_worker_case_below_the_callers_raising_case_wins(monkeypatch, tmp_path, worker_fails):
    # the worker fails at its first case; the caller finishes its first
    # case only after that, so its next case, which raises, comes from a
    # later token and is higher
    caller = os.getpid()
    failed = tmp_path / "worker-failed"
    ran = []

    def run_case(i, *args):
        if os.getpid() != caller:
            failed.write_text(str(i))
            if worker_fails == "dies":
                os.kill(os.getpid(), signal.SIGKILL)
            raise LookupError(i)
        if ran:
            raise LookupError(i)
        wait_for(failed)
        ran.append(i)
        REAL_CASE(i, *args)

    monkeypatch.setattr(difftest, "_run_case", run_case)
    use_cpus(monkeypatch, 2)
    with pytest.raises((LookupError, difftest.WorkerLost)) as info:
        run_difftest(40, 0, DiffBounds(steps=2))
    case = int(failed.read_text())
    if worker_fails == "raises":
        assert info.type is LookupError and info.value.args == (case,)
    else:
        # the lost case could have raised first
        assert info.type is difftest.WorkerLost and f"cases {case}..{case} (" in str(info.value)
    assert_no_child_left()


def test_a_callers_raising_case_below_every_lost_chunk_wins(monkeypatch, tmp_path):
    # the worker runs its first case once the caller has started its
    # raising case, and dies at its next, which is therefore higher; the
    # first case, which may lie below, came back as it ended
    caller = os.getpid()
    took, dying = tmp_path / "caller-took", tmp_path / "worker-dying"
    log = tmp_path / "worker-cases"
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    seen = []

    def run_case(i, *args):
        if os.getpid() == caller:
            took.write_text(str(i))
            wait_for(dying)
            raise LookupError(i)
        os.write(fd, f"{i}\n".encode())
        if seen:
            dying.touch()
            os.kill(os.getpid(), signal.SIGKILL)
        wait_for(took)
        REAL_CASE(i, *args)
        seen.append(i)

    monkeypatch.setattr(difftest, "_run_case", run_case)
    use_cpus(monkeypatch, 2)
    try:
        with pytest.raises((LookupError, difftest.WorkerLost)) as info:
            run_difftest(40, 0, DiffBounds(steps=2))
    finally:
        os.close(fd)
    raising = int(took.read_text())
    ran, died = [int(i) for i in log.read_text().split()]
    assert dying.exists() and died > raising
    assert info.type is LookupError and info.value.args == (raising,)
    assert_no_child_left()


def test_a_raising_caller_stops_the_workers(monkeypatch, tmp_path):
    # the caller raises at its first case and takes the tokens left in the
    # pipe, so each worker stops after the one-case chunk it is running;
    # the workers start their cases only once the caller raises
    caller = os.getpid()
    raising = tmp_path / "caller-raising"
    log = tmp_path / "cases"
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def run_case(i, *args):
        if os.getpid() == caller:
            raising.touch()
            raise LookupError(i)
        wait_for(raising)
        os.write(fd, f"{i}\n".encode())
        REAL_CASE(i, *args)

    monkeypatch.setattr(difftest, "_run_case", run_case)
    use_cpus(monkeypatch, 3)
    try:
        with pytest.raises(LookupError):
            run_difftest(256, 0, DiffBounds())
    finally:
        os.close(fd)
    # the workers would run the other 255 cases if the caller left them
    assert len(log.read_text().split()) < 128
    assert_no_child_left()


def test_a_raising_worker_stops_the_caller(monkeypatch, tmp_path):
    # the worker raises at its first case and takes the tokens left in the
    # pipe before it exits; the caller starts its first case only then, so
    # it takes no other chunk
    caller = os.getpid()
    exited = tmp_path / "worker-exited"
    real_exit = os._exit
    ran = []

    def run_case(i, *args):
        if os.getpid() != caller:
            raise LookupError(i)
        wait_for(exited)
        ran.append(i)
        REAL_CASE(i, *args)

    def exit_(status):
        exited.touch()
        real_exit(status)

    monkeypatch.setattr(difftest, "_run_case", run_case)
    monkeypatch.setattr(os, "_exit", exit_)
    use_cpus(monkeypatch, 2)
    with pytest.raises(LookupError) as info:
        run_difftest(40, 0, DiffBounds(steps=2))
    # the caller would run the other 39 one-case chunks if the worker left them
    assert len(ran) == 1 and info.value.args[0] not in ran
    assert_no_child_left()


def test_a_worker_killed_late_loses_only_the_chunk_it_died_in(monkeypatch, tmp_path):
    # the worker finishes its first case and dies at its next; the caller
    # starts its first case only then
    caller = os.getpid()
    dying = tmp_path / "worker-dying"
    seen = []

    def run_case(i, *args):
        if os.getpid() == caller:
            wait_for(dying)
        elif seen:
            dying.write_text(str(i))
            os.kill(os.getpid(), signal.SIGKILL)
        REAL_CASE(i, *args)
        seen.append(i)

    monkeypatch.setattr(difftest, "_run_case", run_case)
    use_cpus(monkeypatch, 2)
    with pytest.raises(difftest.WorkerLost) as info:
        run_difftest(40, 0, DiffBounds(steps=2))
    died = int(dying.read_text())
    assert str(info.value) == (
        f"no result came back for cases {died}..{died} (worker exit code -9)"
    )
    assert_no_child_left()


def test_no_cases_give_an_empty_report(monkeypatch):
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        for cases in (0, -3):
            report = run_difftest(cases, 5, DiffBounds(steps=2))
            assert report.ok and report.steps_checked == 0
            assert report.to_json_dict()["cases"] == cases
    assert_no_child_left()


def test_a_killed_worker_gives_a_named_error(monkeypatch, tmp_path):
    patch_worker_oracle(monkeypatch, tmp_path, lambda: os.kill(os.getpid(), signal.SIGKILL))
    use_cpus(monkeypatch, 2)
    with pytest.raises(difftest.WorkerLost) as info:
        run_difftest(40, 0, DiffBounds(steps=2))
    # 40 cases make 40 one-case chunks, and the worker dies in its first
    lost = re.fullmatch(
        r"no result came back for cases (\d+)\.\.(\d+) \(worker exit code -9\)", str(info.value)
    )
    assert lost and lost[1] == lost[2] and 0 <= int(lost[1]) < 40
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [2, 3])
def test_every_case_runs_exactly_once(monkeypatch, tmp_path, cpus):
    # 601 cases make 201 chunks of 3 cases, the last one of 1 case
    log = tmp_path / "cases"
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def run_case(i, *args):
        os.write(fd, f"{i}\n".encode())
        REAL_CASE(i, *args)

    monkeypatch.setattr(difftest, "_run_case", run_case)
    use_cpus(monkeypatch, cpus)
    try:
        report = run_difftest(601, 2, DiffBounds(window=8, steps=1))
    finally:
        os.close(fd)
    assert sorted(int(i) for i in log.read_text().split()) == list(range(601))
    assert report.steps_checked == 601
    assert_no_child_left()


def per_step_case(rng, bounds):
    """random_case as it drew the schedule before: one scalar draw per step.
    Returns (capacities, occupied pairs, schedule entries)."""
    wlen = int(rng.integers(1, bounds.window + 1))
    caps = rng.integers(1, bounds.max_delta + 1, size=wlen)
    while True:
        counts = rng.integers(0, caps + 1)
        if counts.sum() > 0:
            break
    choices = bounds.m_choices
    entries = {t: choices[int(rng.integers(len(choices)))] for t in range(1, bounds.steps + 1)}
    occupied = tuple((n, u) for n, u in enumerate(counts.tolist()) if u)
    return tuple(caps.tolist()), occupied, entries


@pytest.mark.parametrize(
    "bounds",
    [
        DiffBounds(window=32, max_delta=5, steps=20),
        DiffBounds(window=32, max_delta=1, m_choices=(POS_INF,), steps=20),
        DiffBounds(m_choices=(XInt(1), XInt(2), XInt(3), POS_INF), include_toda=False),
    ],
    ids=["criterion-3", "criterion-2", "euler-only"],
)
def test_one_schedule_draw_per_case_matches_one_draw_per_step(bounds):
    # numpy's bounded integer fill takes the same 32-bit stream as as many
    # scalar draws, so drawing every step's index at once leaves each case,
    # and the generator state after it, as the per-step draw did; the report
    # digests pin only a few seeds
    for seed in range(500):
        state, schedule = random_case(rng := np.random.default_rng([seed, 7]), bounds)
        want = per_step_case(old := np.random.default_rng([seed, 7]), bounds)
        assert (state.profile.capacities, state.occupied, dict(schedule.entries)) == want
        assert schedule.default == POS_INF
        assert rng.bit_generator.state == old.bit_generator.state


@pytest.mark.parametrize(
    "kwargs, named",
    [
        (dict(window=0), "window must be >= 1, got 0"),
        (dict(max_delta=0), "max_delta must be >= 1, got 0"),
        (dict(steps=-1), "steps must be >= 0, got -1"),
        (dict(m_choices=(XInt(4), POS_INF)), "m_choices holds 4, below max_delta 5"),
        (dict(max_delta=3, m_choices=(np.int64(2),)), "m_choices holds 2, below max_delta 3"),
        # the one capacity check, on every route mix
        (dict(m_choices=(-1,), include_toda=False), "carrier capacity must be >= 0"),
        (dict(m_choices=(1.5,), include_toda=False), "expected XInt or int, got float"),
    ],
)
def test_bad_bounds_name_their_field(kwargs, named):
    with pytest.raises((TypeError, ValueError), match=re.escape(named)):
        DiffBounds(**kwargs)


@pytest.mark.parametrize(
    "name, value, rule",
    [
        pytest.param(name, 2**63, f"must be <= {INT64_MAX}", id=name)
        for name in ("window", "max_delta", "steps")
    ]
    + [
        # past the longest int64 array, which numpy refuses before it
        # allocates; never a value below it, which numpy would allocate
        pytest.param(name, 2**60, f"must be <= {MAX_SPAN} to size an array",
                     id=f"{name}-past-array-bound")
        for name in ("window", "steps")
    ],
)
def test_bounds_past_int64_name_their_field(name, value, rule):
    # numpy's generator would reject them only inside the first case, with
    # an error that names no field; FiniteOverflow, not the ValueError of
    # the M rule
    with pytest.raises(FiniteOverflow, match=f"^{name} {rule}, got {value}$"):
        DiffBounds(**{name: value})


def test_default_m_choices_past_int64_name_max_delta():
    # the default M choices run to max_delta + 5; past int64 the XInt of
    # that choice would raise an error that names no field.  The bounds
    # are only built: cases this close to int64 take too long to run
    top = DiffBounds(max_delta=2**63 - 6)
    assert top.m_choices[-2] == XInt(INT64_MAX)
    with pytest.raises(FiniteOverflow, match=r"^max_delta must be <= .* default M choices"):
        DiffBounds(max_delta=2**63 - 5)
    # given choices leave max_delta its int64 bound
    assert DiffBounds(max_delta=2**63 - 5, m_choices=(POS_INF,)).m_choices == (POS_INF,)


def test_a_case_past_max_case_balls_is_named_before_any_route_runs(monkeypatch):
    # max_delta near int64 draws about 3.5e17 balls, and a step's carrier
    # walks one box per ball; two such counts also wrap an int64 sum
    def no_route(*args):
        raise AssertionError("a route ran")

    for name in ("from_euler", "euler_step", "carrier_oracle_step"):
        monkeypatch.setattr(difftest, name, no_route)
    start = time.perf_counter()
    bounds = DiffBounds(max_delta=2**63 - 1, m_choices=(2**63 - 1,), window=2, steps=2)
    drew = r"^the case drew \d+ balls, more than MAX_CASE_BALLS"
    with pytest.raises(FiniteOverflow, match=drew):
        run_difftest(1, 0, bounds)
    assert time.perf_counter() - start < 1


def test_max_case_balls_is_the_most_a_case_may_draw(monkeypatch):
    bounds = DiffBounds(window=32, max_delta=5, steps=1)
    state, _ = random_case(np.random.default_rng([0, 0]), bounds)
    monkeypatch.setattr(difftest, "MAX_CASE_BALLS", state.total_balls)
    assert random_case(np.random.default_rng([0, 0]), bounds)[0] == state
    monkeypatch.setattr(difftest, "MAX_CASE_BALLS", state.total_balls - 1)
    with pytest.raises(FiniteOverflow, match=f"drew {state.total_balls} balls"):
        random_case(np.random.default_rng([0, 0]), bounds)


def test_m_choices_are_resolved_with_the_bounds():
    default = (*map(XInt, range(5, 11)), POS_INF)
    assert DiffBounds().m_choices == default
    assert DiffBounds(m_choices=()).m_choices == default
    assert DiffBounds() == DiffBounds(m_choices=default)
    stored = DiffBounds(m_choices=(np.int64(6), np.uint16(7), POS_INF)).m_choices
    assert stored == (XInt(6), XInt(7), POS_INF)
    assert all(type(m) is XInt and type(m.bound) in (int, type(None)) for m in stored)
    implicit = run_difftest(20, 3, DiffBounds()).to_json_dict()
    explicit = run_difftest(20, 3, DiffBounds(m_choices=default)).to_json_dict()
    assert dump(implicit) == dump(explicit)


def test_a_negative_seed_is_named_before_any_fork(monkeypatch):
    # numpy's generator would reject it only inside the first case
    def no_pipe():
        raise AssertionError("pipe made")

    monkeypatch.setattr(os, "pipe", no_pipe)
    use_cpus(monkeypatch, 2)
    with pytest.raises(ValueError, match=re.escape("seed must be >= 0, got -1")):
        run_difftest(3, -1)


def test_small_carrier_capacities_need_euler_only():
    # the size-coordinate route needs every finite M >= every box capacity;
    # the other two routes take any M, and M = max_delta is allowed
    small = DiffBounds(m_choices=(XInt(0), XInt(2), POS_INF), include_toda=False)
    assert small.m_choices == (XInt(0), XInt(2), POS_INF)
    assert DiffBounds(m_choices=(XInt(5), POS_INF)).m_choices == (XInt(5), POS_INF)
    assert run_difftest(2, 0, DiffBounds(steps=0)).steps_checked == 0
