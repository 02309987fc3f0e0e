"""Golden digests of full outputs.

A kernel rewrite must reproduce these bit for bit; re-pin only when an
output is meant to change, and say why.  The raw digests pin the window
and its zero padding too; they were last re-pinned when the Euler window
began to start at the first ball and the JSON trace became [box, value]
pairs.  The window-invariant digests read every state and trace by
absolute box, so they must survive any change of window or record layout
unchanged.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from dense_views import trace_arrays

from boxball import (
    POS_INF,
    CapacityProfile,
    CarrierSchedule,
    EulerSolitonParams,
    TauParams,
    TodaState,
    XInt,
    enutoda_step,
    euler_nsoliton,
    euler_step,
    expand,
    from_euler,
    tau_toda_state,
    to_euler,
)
from boxball.cli import main
from boxball.difftest import DiffBounds, random_case, run_difftest

SHOWCASE = Path(__file__).resolve().parents[1] / "configs" / "showcase.json"


def expansion_bits(state):
    """The expansion as a 0/1 array over the window's segments, laid from
    its runs, so the digests keep the shape they were pinned with."""
    p = state.profile
    start = p.boundary(state.window_start)
    bits = np.zeros(p.boundary(state.window_start + len(state.counts)) - start, np.int64)
    for x, y in zip(*expand(state)):
        bits[x - start : y - start] = 1
    return bits


def test_showcase_simulate_json_digest(capsys):
    assert main(["simulate", "--config", str(SHOWCASE), "--steps", "500", "--render", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "4fdc2e160250668af676823e5c91750cc840e1b9f50a3fee869c5aa788c080c7"
    )


def test_euler_step_and_expansion_digest():
    # 200 criterion-3 cases, 20 steps each: every step's counts, trace
    # laid onto the window, window start, and the expansion bits of every
    # state
    bounds = DiffBounds(window=32, max_delta=5, steps=20)
    digest = hashlib.sha256()

    def pin(*arrays):
        digest.update(json.dumps([np.asarray(a).tolist() for a in arrays]).encode())

    for i in range(200):
        state, schedule = random_case(np.random.default_rng([0, i]), bounds)
        pin(expansion_bits(state))
        for _ in range(bounds.steps):
            state, trace = euler_step(state, schedule)
            pin(
                [state.window_start],
                state.counts,
                *trace_arrays(trace, state),
                expansion_bits(state),
            )
    assert digest.hexdigest() == "510a69eaa2f488eb2b84965d923a1261365905d9564de9e4cb0a750ef1ee7909"


def _by_box(values, start):
    """Nonzero entries by absolute box, read from a dense array that
    starts at box `start` or from [box, value] pairs."""
    out = {}
    for i, v in enumerate(values):
        box, v = (v if isinstance(v, list) else (start + i, v))
        if v:
            out[int(box)] = int(v)
    return out


TRACE_KEYS = ("limited_counts", "carrier_loads", "removed")


def test_showcase_simulate_window_invariant_digest(capsys):
    assert main(["simulate", "--config", str(SHOWCASE), "--steps", "500", "--render", "json"]) == 0
    digest = hashlib.sha256()
    for line in capsys.readouterr().out.splitlines():
        rec = json.loads(line)
        euler, toda = rec["euler"], rec["toda"]
        start = euler["window_start"]
        canonical = {
            "t": rec["t"],
            "counts": _by_box(euler["counts"], start),
            "trace": {k: _by_box(rec["trace"][k], start) for k in TRACE_KEYS},
            "toda": {k: toda[k] for k in ("Q", "E", "X0")},
            "toda_trace": rec["toda_trace"],
            "verdict": rec["verdict"],
        }
        digest.update(json.dumps(canonical, sort_keys=True).encode())
    assert digest.hexdigest() == (
        "a6e0cf1af12caae13c3e43a85a7145ac32a892afa0adc90bd7f6095b60229607"
    )


def test_euler_step_window_invariant_digest():
    # the cases of test_euler_step_and_expansion_digest, read by absolute
    # box and absolute segment
    bounds = DiffBounds(window=32, max_delta=5, steps=20)
    digest = hashlib.sha256()

    def pin(state, trace=None):
        canonical = {
            "t": state.time,
            "counts": _by_box(state.counts.tolist(), state.window_start),
            "ones": [s for x, y in zip(*expand(state)) for s in range(x, y)],
        }
        if trace is not None:
            canonical["trace"] = {
                k: _by_box(a.tolist(), state.window_start)
                for k, a in zip(TRACE_KEYS, trace_arrays(trace, state))
            }
        digest.update(json.dumps(canonical, sort_keys=True).encode())

    for i in range(200):
        state, schedule = random_case(np.random.default_rng([0, i]), bounds)
        pin(state)
        for _ in range(bounds.steps):
            state, trace = euler_step(state, schedule)
            pin(state, trace)
    assert digest.hexdigest() == (
        "12f357921029d661190c9ca21c2b4f502dc37a719da09a6f56715adc4adeae8f"
    )


DIFFTEST_SETTINGS = {
    "capacity": DiffBounds(window=32, max_delta=5, steps=20),
    "unit": DiffBounds(window=32, max_delta=1, steps=20),
    "euler_only": DiffBounds(
        m_choices=(XInt(1), XInt(2), XInt(3), POS_INF), include_toda=False
    ),
}

DIFFTEST_DIGESTS = {
    ("capacity", 0): "3ff3d19135de15e600463d3a3feea038c370ed7168465b282183c68a7c2d17a5",
    ("capacity", 1): "313d505c3fae72f7620cdcfc0833747082d689e675ec68aefd3e0c061ecf4d0e",
    ("unit", 0): "469b3ac9eac4eac165b096f4c408cab585ac2e6ac70719bbf3b33995a0c0c370",
    ("unit", 1): "8bacd2bb45abdf3305b9e6b85073aec9d6d0492882e2a7f81a4bb96db45199f7",
    ("euler_only", 0): "44e4441476f2869c1fedd21db515ef09fc975e3188bffba42c0d565f6ca14979",
    ("euler_only", 1): "c3d1195a5fb5b21d6b4faef4dddb9c0faf36f1e65188f6951fc629152876063e",
}


@pytest.mark.parametrize("setting, seed", sorted(DIFFTEST_DIGESTS))
def test_difftest_report_digest(setting, seed):
    # 100 cases of the criterion-3, unit-capacity and Euler-only mixes,
    # serialized as `boxball difftest` prints them
    report = run_difftest(100, seed, DIFFTEST_SETTINGS[setting]).to_json_dict()
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == DIFFTEST_DIGESTS[(setting, seed)]


def _pin_to_euler(digest, state):
    back = to_euler(state)
    digest.update(json.dumps([back.window_start, back.counts.tolist()]).encode())


def test_to_euler_digest():
    # every Toda state of 100 criterion-3 cases x 20 enutoda_steps for
    # seeds 0 and 1, a far anchor, and a state on a capacity-2^62 box
    bounds = DiffBounds(window=32, max_delta=5, steps=20)
    digest = hashlib.sha256()
    for seed in (0, 1):
        for i in range(100):
            state, schedule = random_case(np.random.default_rng([seed, i]), bounds)
            ts = from_euler(state)
            _pin_to_euler(digest, ts)
            for _ in range(bounds.steps):
                ts, _ = enutoda_step(ts, schedule)
                _pin_to_euler(digest, ts)
    _pin_to_euler(digest, TodaState(Q=(2, 5, 1), E=(4, 2), X0=10**6,
                                    profile=CapacityProfile(default_capacity=3)))
    _pin_to_euler(digest, TodaState(Q=(2, 1), E=(2**62 + 1,), X0=1,
                                    profile=CapacityProfile(capacities=(2, 2**62, 3))))
    assert digest.hexdigest() == (
        "5d88a7342b71f54b7ed647d8f6c115dfd7750c72919c9cefab2954554a689e87"
    )


# --- closed forms -------------------------------------------------------------
# Pinned before the potentials moved from subset enumeration to dynamic
# programs; an evaluation strategy must reproduce them byte for byte.

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

SOLUTION_DIGESTS = {
    ("soliton_pair.json", "euler", False): "d3147d2a5b2e6e9d02502de0247dcfff8822d99163c41df9bed0b1eb1b6cb912",
    ("soliton_pair.json", "euler", True): "09a390495a745598125cd40d7f1a9bc1d5667be4937875f8e045c6fff84004d4",
    ("tau_pair.json", "tau", False): "b3f1f7b3c43ee305bfc32c5b7665851138c404634678852dc89442ff386bbd15",
    ("tau_pair.json", "tau", True): "9f1469e1f46483817e39250ead5a704aaff188d548f6d173c122a99480a06b04",
}


@pytest.mark.parametrize("config, kind, verify", sorted(SOLUTION_DIGESTS))
def test_solution_cli_digest(capsys, config, kind, verify):
    argv = ["solution", "--params", str(CONFIGS / config), "--type", kind]
    assert main(argv + ["--verify"] * verify) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SOLUTION_DIGESTS[config, kind, verify]


def seeded_euler_params(n, seed):
    """N solitons with distinct speeds, a random capacity profile and a
    carrier schedule mixing finite capacities with +inf."""
    rng = np.random.default_rng(seed)
    p = rng.choice(np.arange(1, 13), size=n, replace=False).tolist()
    caps = rng.integers(1, 5, size=10).tolist()
    return EulerSolitonParams(
        P=p,
        Xi=rng.integers(-15, 16, size=n).tolist(),
        profile=CapacityProfile(capacities=caps, default_capacity=int(rng.integers(1, 5))),
        schedule=CarrierSchedule(
            entries={
                t: POS_INF if rng.random() < 0.25 else XInt(int(rng.integers(1, 11)))
                for t in range(1, 12)
            }
        ),
    )


def seeded_tau_params(n, seed):
    """N sorted distinct speeds, random weights, and a carrier schedule at
    or above Delta."""
    rng = np.random.default_rng(seed)
    p = sorted(rng.choice(np.arange(1, 11), size=n, replace=False).tolist())
    w = rng.integers(-10, 11, size=n).tolist()
    delta = int(rng.integers(1, 5))
    return TauParams(
        P=p,
        W=w,
        Delta=delta,
        schedule=CarrierSchedule(
            entries={
                t: POS_INF if rng.random() < 0.25 else XInt(delta + int(rng.integers(0, 7)))
                for t in range(1, 17)
            }
        ),
    )


def test_euler_nsoliton_n10_digest():
    params = seeded_euler_params(10, 10)
    digest = hashlib.sha256()
    for t in range(-2, 11):
        sl = euler_nsoliton(params, -60, 360, t)
        digest.update(json.dumps([sl.n_start, sl.U.tolist(), sl.Ubar.tolist(),
                                  sl.Zbar.tolist()]).encode())
    assert digest.hexdigest() == (
        "1fec4d9edc3fc686ede278fa1d237f9209b6c8f5c959eae7f4d635594bc5cdc1"
    )


def test_tau_toda_state_n8_digest():
    params = seeded_tau_params(8, 8)
    digest = hashlib.sha256()
    for t in range(-2, 16):
        st = tau_toda_state(params, t)
        digest.update(json.dumps([st.Q, st.E, st.Qbar, st.Ebar, st.Cbar, st.Dbar]).encode())
    assert digest.hexdigest() == (
        "148ab0e374eb5f6375e4251cbbefab23abaa77dbdda4b1a118c4929dbed8241e"
    )


# --- simulate records -----------------------------------------------------------
# Raw digests of `simulate` stdout, pinned before the Euler object and the
# ASCII rows were written from the occupied boxes; a record writer must
# reproduce them byte for byte.

SIMULATE_CONFIGS = {
    "showcase_euler": {**json.loads(SHOWCASE.read_text()), "representation": "euler"},
    # the Euler window starts near box 333, not at box 0
    "far_toda": {
        "representation": "both",
        "profile": {"capacities": [2, 3, 1, 4], "window_start": 345, "default": 3},
        "schedule": {"entries": {"3": 6, "7": 9}, "default": "inf"},
        "initial": {"toda": {"Q": [5, 2, 1], "E": [6, 6], "X0": 1000}},
    },
    "all_zero": {"representation": "euler",
                 "initial": {"euler": {"window_start": 3, "counts": [0, 0, 0]}}},
    "empty": {"representation": "euler", "initial": {"euler": {"counts": []}}},
    "capacity_12": {
        "representation": "both",
        "profile": {"capacities": [12, 11, 12, 3, 12], "default": 12},
        "schedule": {"entries": {"2": 15}, "default": "inf"},
        "initial": {"euler": {"counts": [12, 0, 11, 3, 10]}},
    },
}

# (SIMULATE_CONFIGS key, or None for the showcase file; steps; render): digest
SIMULATE_DIGESTS = {
    (None, 2000, "json"): "46c9088b83a1f85f0338eac81c5a6e21ad1e77c088b7e05de7a545f593bf2a84",
    (None, 200, "ascii"): "55be7d0ccb65d539967257c6453ec23241df938fb4ffa90c4fd56316f9cf0079",
    ("showcase_euler", 500, "json"): "fbf1eb1b45e20091097ee80f3da19f81c6ce9f8540d59d508d54f1eb32f3fe5f",
    ("far_toda", 40, "json"): "41d9fbd23a0887dbfa29d27b6336092789b2986c95c4c351aa06d081ebe74b87",
    ("all_zero", 4, "json"): "b7337779aa7eb4ebb09232c706ce9766b25d0ad623231e19c81657b06dc56474",
    ("all_zero", 4, "ascii"): "09bc95acb6014f3f3df965794c5c43885b50c936d5b156086e496879b03b42e8",
    ("empty", 4, "json"): "952f2491d94a0724589863f9b05f16a7042324f20f5234bb58d88794a664ca33",
    ("empty", 4, "ascii"): "9a46a98c4f01b774efdf9b21a438423eb7af80d43441a755b60873477e33473c",
    ("capacity_12", 30, "json"): "1e3913c764bdb8a2130d659b81db94b8d6bb843d6568dae7fa78297e80b22baf",
    ("capacity_12", 30, "ascii"): "22aee746386dc5a7f41dcb452efd88fbc183e928d71dec571f43be944b174770",
}


@pytest.mark.parametrize("config, steps, render", list(SIMULATE_DIGESTS))
def test_simulate_output_digest(tmp_path, capsys, config, steps, render):
    path = SHOWCASE
    if config is not None:
        path = tmp_path / "run.json"
        path.write_text(json.dumps({**SIMULATE_CONFIGS[config], "steps": steps}))
    argv = ["simulate", "--config", str(path), "--steps", str(steps), "--render", render]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SIMULATE_DIGESTS[config, steps, render]
