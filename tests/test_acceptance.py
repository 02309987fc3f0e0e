"""Acceptance suite: every exit criterion, exact integer equality
(tolerance 0), one printed pass/fail line per criterion.

Run as  pytest tests/test_acceptance.py -v -s
"""

import json
import time

import numpy as np
import pytest
from oracles import extoda_step, lagrange_step, utoda_step, utoda_step_sumform

from boxball import (
    POS_INF,
    CapacityProfile,
    CarrierSchedule,
    EulerSolitonParams,
    EulerState,
    TauParams,
    TodaState,
    XInt,
    enutoda_step,
    euler_step,
    from_euler,
    lagrange_to_toda,
    tau_toda_state,
    toda_to_lagrange,
    verify_euler_solution,
    verify_tau_solution,
)
from boxball.cli import main
from boxball.difftest import DiffBounds, random_case, run_difftest

CASES = 10_000


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def oracle_report():
    bounds = DiffBounds(
        window=32,
        max_delta=5,
        m_choices=tuple(XInt(v) for v in range(1, 11)) + (POS_INF,),
        steps=1,
        include_toda=False,
    )
    return run_difftest(CASES, seed=101, bounds=bounds)


@pytest.fixture(scope="module")
def unit_report():
    bounds = DiffBounds(
        window=32, max_delta=1, m_choices=(POS_INF,), steps=20, include_toda=True
    )
    return run_difftest(CASES, seed=202, bounds=bounds)


@pytest.fixture(scope="module")
def capacity_report():
    bounds = DiffBounds(window=32, max_delta=5, steps=20, include_toda=True)
    return run_difftest(CASES, seed=303, bounds=bounds)


def test_criterion_1_oracle_equivalence(oracle_report):
    rep = oracle_report
    ok = rep.ok and rep.cases == CASES and rep.elapsed < 10.0
    report(
        1,
        ok,
        f"euler_step vs ball-by-ball oracle, {rep.cases} states, "
        f"{len(rep.failures)} mismatches, {rep.elapsed:.2f}s (< 10s)",
    )


def test_criterion_2_unit_capacity_cross_representation(unit_report):
    rep = unit_report
    ok = rep.ok and rep.cases == CASES and rep.steps_checked >= 0
    report(
        2,
        ok,
        f"unit capacities, unbounded carrier: {rep.cases} states x 20 steps, "
        f"{rep.steps_checked} steps compared, {len(rep.failures)} failures",
    )


def test_criterion_3_capacity_cross_representation(capacity_report):
    rep = capacity_report
    ok = rep.ok and rep.cases == CASES
    report(
        3,
        ok,
        f"caps 1..5, carrier 5..10 or inf, anchor tracked: {rep.cases} states "
        f"x 20 steps, {len(rep.failures)} failures",
    )


def test_criterion_4_reduction_chain():
    free = CarrierSchedule()
    failures = 0
    checked = 0
    for i in range(1000):
        rng = np.random.default_rng([404, i])
        st, _ = random_case(rng, DiffBounds(window=20, max_delta=5, steps=1))
        ts = from_euler(st)
        a_state, a_trace = enutoda_step(ts, free)
        b_state, b_trace = extoda_step(ts)
        if a_state != b_state or a_trace.Dbar != b_trace.Dbar:
            failures += 1
        checked += 1

        # unit-capacity chain down to the classical recurrence
        stu, _ = random_case(rng, DiffBounds(window=20, max_delta=1, steps=1))
        tsu = from_euler(stu)
        c_state, _ = extoda_step(tsu)
        qp, ep, _ = utoda_step(tsu.Q, tsu.E)
        if (c_state.Q, c_state.E) != (qp, ep):
            failures += 1
        if utoda_step_sumform(tsu.Q, tsu.E) != (qp, ep):
            failures += 1
        x, y = toda_to_lagrange(tsu.Q, tsu.E, tsu.X0)
        xp, yp = lagrange_step(x, y)
        if lagrange_to_toda(xp, yp) != (qp, ep, tsu.X0 + tsu.Q[0]):
            failures += 1
        checked += 1
    report(4, failures == 0, f"reduction chain on {checked} random states, {failures} failures")


def test_criterion_5_conservation_and_positivity(unit_report, capacity_report):
    relevant = {"ball_conservation", "soliton_conservation", "toda_degenerate"}
    diff_failures = [
        f
        for rep in (unit_report, capacity_report)
        for f in rep.failures
        if f.quantity in relevant
    ]
    violations = 0
    for i in range(500):
        rng = np.random.default_rng([505, i])
        st, sched = random_case(rng, DiffBounds(window=24, max_delta=5, steps=8))
        ts = from_euler(st)
        cur = st
        for _ in range(8):
            cur, _ = euler_step(cur, sched)
            ts, _ = enutoda_step(ts, sched)  # raises DegenerateState on Q,E < 1
            if cur.total_balls != st.total_balls:
                violations += 1
            if sum(ts.Q) != sum(from_euler(st).Q) or min(ts.Q) < 1:
                violations += 1
            if ts.E and min(ts.E) < 1:
                violations += 1
    ok = violations == 0 and not diff_failures
    report(
        5,
        ok,
        f"ball and soliton totals invariant, Q,E >= 1: {violations} direct "
        f"violations, {len(diff_failures)} difftest flags",
    )


def test_criterion_6_residual_identities(oracle_report, unit_report, capacity_report):
    from boxball import umkdv_residual

    relevant = {"umkdv_residual", "carrier_identity", "carrier_bound"}
    diff_failures = [
        f
        for rep in (oracle_report, unit_report, capacity_report)
        for f in rep.failures
        if f.quantity in relevant
    ]
    worst = 0
    for i in range(500):
        rng = np.random.default_rng([606, i])
        st, sched = random_case(rng, DiffBounds(window=24, max_delta=5, steps=4))
        cur = st
        for _ in range(4):
            m = sched.at(cur.time + 1)
            nxt, tr = euler_step(cur, sched)
            res = umkdv_residual(cur, nxt, tr, m)
            worst = max(worst, res.max_violation, res.carrier_identity_max)
            cur = nxt
    ok = worst == 0 and not diff_failures
    report(
        6,
        ok,
        f"single-equation form and carrier-load identity: max residual {worst}, "
        f"{len(diff_failures)} difftest flags (checked on criteria 1-3 runs too)",
    )


def test_criterion_7_euler_soliton_solution():
    rng = np.random.default_rng(707)
    start = time.perf_counter()
    checked = 0
    worst = 0
    while checked < 200:
        n = int(rng.integers(1, 4))
        p = tuple(int(v) for v in rng.choice(np.arange(1, 9), size=n, replace=False))
        xi = tuple(int(v) for v in rng.integers(-15, 16, size=n))
        caps = tuple(int(v) for v in rng.integers(1, 5, size=10))
        profile = CapacityProfile(capacities=caps, default_capacity=int(rng.integers(1, 5)))
        entries = {
            t: (POS_INF if rng.random() < 0.25 else XInt(int(rng.integers(1, 11))))
            for t in range(1, 12)
        }
        params = EulerSolitonParams(
            P=p, Xi=xi, profile=profile, schedule=CarrierSchedule(entries=entries)
        )
        span = 16 + 4 * sum(p) + 12 * max(p) + 10
        rep = verify_euler_solution(params, -span, span, 0, 10)
        worst = max(worst, rep.max_residual)
        checked += 1
    elapsed = time.perf_counter() - start
    ok = worst == 0 and elapsed < 30.0
    report(
        7,
        ok,
        f"{checked} parameter sets (N<=3, distinct P<=8), max residual {worst}, "
        f"t in [0,10], {elapsed:.2f}s (< 30s)",
    )


def test_criterion_8_tau_solution():
    rng = np.random.default_rng(808)
    checked = 0
    worst = 0
    mismatches = 0
    single_law_failures = 0
    while checked < 200:
        n = int(rng.integers(1, 5))
        p = tuple(sorted(int(v) for v in rng.choice(np.arange(1, 11), size=n, replace=False)))
        w = tuple(int(v) for v in rng.integers(-10, 11, size=n))
        delta = int(rng.integers(1, 5))
        entries = {}
        for t in range(1, 17):
            entries[t] = (
                POS_INF
                if rng.random() < 0.25
                else XInt(delta + int(rng.integers(0, 7)))
            )
        sched = CarrierSchedule(entries=entries)
        params = TauParams(P=p, W=w, Delta=delta, schedule=sched)
        rep = verify_tau_solution(params, 0, 15)
        worst = max(worst, rep.max_residual)

        profile = CapacityProfile(default_capacity=delta)
        for t in range(0, 15):
            cur = tau_toda_state(params, t)
            nxt = tau_toda_state(params, t + 1)
            st = TodaState(Q=cur.Q, E=cur.E, X0=0, profile=profile, time=t)
            stepped, _ = enutoda_step(st, sched)
            if (stepped.Q, stepped.E) != (nxt.Q, nxt.E):
                mismatches += 1
        if n == 1:
            for t in range(0, 16):
                ts = tau_toda_state(params, t)
                m = sched.at(t)
                want = p[0] if m.bound is None else min(p[0], m.bound)
                if ts.Q != (p[0],) or ts.Dbar != (want,):
                    single_law_failures += 1
        checked += 1
    ok = worst == 0 and mismatches == 0 and single_law_failures == 0
    report(
        8,
        ok,
        f"{checked} parameter sets (N<=4, P<=10 strictly increasing): max "
        f"residual {worst}, {mismatches} evolution mismatches, "
        f"{single_law_failures} single-soliton law failures",
    )


def test_criterion_9_free_soliton_speed():
    failures = 0
    unit = CapacityProfile()
    for q0 in range(1, 9):
        for m in list(range(1, 9)) + [None]:
            sched = CarrierSchedule() if m is None else CarrierSchedule(default=m)
            expected = q0 if m is None else min(q0, m)

            st = EulerState(counts=[1] * q0, profile=unit)
            nxt, _ = euler_step(st, sched)
            moved = int(np.flatnonzero(nxt.counts)[0])
            if moved != expected or nxt.counts.sum() != q0:
                failures += 1

            ts = TodaState(Q=(q0,), E=(), X0=0, profile=unit)
            stepped, _ = enutoda_step(ts, sched)
            if stepped.X0 != expected or stepped.Q != (q0,):
                failures += 1
    report(9, failures == 0, f"speed min(Q0, M) for Q0 in 1..8, M in 1..8 or inf, both pictures; {failures} failures")


def test_criterion_10_showcase_parameters(tmp_path, capsys):
    config = {
        "representation": "both",
        "steps": 10,
        "render": "ascii",
        "profile": {"capacities": [3, 5] * 64},
        "schedule": {"entries": {str(t): 6 for t in range(1, 11)}, "default": "inf"},
        "initial": {"euler": {"counts": [3, 1, 0, 0, 2, 0, 0, 0, 0, 1]}},
    }
    path = tmp_path / "showcase.json"
    path.write_text(json.dumps(config))
    code = main(["simulate", "--config", str(path)])
    lines = capsys.readouterr().out.splitlines()
    with capsys.disabled():
        ok = (
            code == 0
            and len(lines) == 10
            and all(line.endswith("[equal]") for line in lines)
            and any("." in line for line in lines)
        )
        report(
            10,
            ok,
            "alternating capacities 3/5, carrier 6, three solitons, 10 steps "
            "both-mode: all verdicts equal, ascii rows emitted",
        )
