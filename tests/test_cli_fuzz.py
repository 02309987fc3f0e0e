"""A seeded fuzz of the command line.

A fixed-seed random.Random draws small simulate configs (every
representation and render; Euler, Toda and solution initials; empty lines,
a profile window past box 0, finite and +inf schedule entries) and small
difftest and solution argument lists.  Whatever it draws, `main` must end
with an exit code, 0, 1 or 2, within 2 s, and never raise: a bad value is
a named error, not a traceback.  Every range is small, so the whole file
runs in a few seconds; the difftest sizes past numpy's array bound are
refused before numpy sees them.
"""

import json
import random
import time

import pytest

from boxball.cli import main
from boxball.xint import INT64_MAX

CASES = 150
# above the longest int64 array numpy can size, INT64_MAX // 8
PAST_ARRAY_BOUND = (2**60, 2**62 + 3, INT64_MAX)


def _capacity(rng):
    return rng.choice([0, 1, 2, 3, 4, 5, "inf", "inf"])


def _schedule(rng):
    entries = {str(t): _capacity(rng) for t in rng.sample(range(1, 9), rng.randint(0, 4))}
    return {"entries": entries, "default": rng.choice([3, 4, 6, "inf", "inf"])}


def _profile(rng):
    profile = {"capacities": [rng.randint(1, 4) for _ in range(rng.randint(0, 6))]}
    if rng.random() < 0.5:
        profile["window_start"] = rng.randint(1, 6)
    if rng.random() < 0.7:
        profile["default"] = rng.randint(1, 3)
    return profile


def _euler_initial(rng):
    if rng.random() < 0.25:  # an empty line
        counts = [0] * rng.randint(0, 6)
    else:
        counts = [rng.choice([0, 0, 1, 1, 2]) for _ in range(rng.randint(1, 10))]
    initial = {"counts": counts}
    if rng.random() < 0.3:
        initial["window_start"] = rng.randint(0, 6)
    if rng.random() < 0.2:
        initial["time"] = rng.randint(-3, 3)
    return initial


def _toda_initial(rng):
    n = rng.randint(1, 4)
    initial = {
        "Q": [rng.randint(0, 4) for _ in range(n)],
        "E": [rng.randint(0, 4) for _ in range(n - 1)],
        "X0": rng.randint(0, 12),
    }
    if rng.random() < 0.2:
        initial["time"] = rng.randint(0, 3)
    return initial


def _solution_params(rng, kind):
    n = rng.randint(1, 3)
    if kind == "tau":
        return {
            "P": sorted(rng.randint(0, 4) for _ in range(n)),
            "W": [rng.randint(-2, 2) for _ in range(n)],
            "Delta": rng.randint(1, 3),
            "schedule": _schedule(rng),
        }
    lo = rng.randint(-3, 6)
    params = {
        "P": sorted(rng.randint(1, 4) for _ in range(n)),
        "Xi": [rng.randint(-4, 8) for _ in range(n)],
        "n_range": [lo, lo + rng.randint(0, 24)],
    }
    if rng.random() < 0.5:
        params["profile"] = {"capacities": [rng.randint(1, 3) for _ in range(rng.randint(0, 4))]}
    if rng.random() < 0.5:
        params["schedule"] = _schedule(rng)
    return params


def _simulate_config(rng):
    kind = rng.choice(["euler", "toda", "solution"])
    config = {
        "representation": rng.choice(["euler", "toda", "both"]),
        "steps": rng.randint(1, 6),
        "render": rng.choice(["ascii", "json", "none"]),
    }
    if kind == "solution":
        sol = rng.choice(["euler", "tau"])
        config["initial"] = {"solution": {"type": sol, "params": _solution_params(rng, sol)}}
        return config
    config["profile"] = _profile(rng)
    config["schedule"] = _schedule(rng)
    config["initial"] = {kind: (_euler_initial if kind == "euler" else _toda_initial)(rng)}
    return config


def _size(rng):
    return rng.choice(PAST_ARRAY_BOUND) if rng.random() < 0.15 else rng.randint(1, 6)


def _difftest_args(rng):
    args = ["difftest", "--cases", str(rng.randint(1, 3)), "--seed", str(rng.randint(0, 99)),
            "--steps", str(_size(rng)), "--window", str(_size(rng)),
            "--max-delta", str(rng.randint(1, 4))]
    if rng.random() < 0.4:
        args += ["--m-choices", ",".join(str(_capacity(rng)) for _ in range(rng.randint(1, 3)))]
    if rng.random() < 0.4:
        args.append("--euler-only")
    return args


def _solution_args(rng, path):
    kind = rng.choice(["euler", "tau"])
    path.write_text(json.dumps(_solution_params(rng, kind)))
    t_lo = rng.randint(-2, 3)
    args = ["solution", "--params", str(path), "--type", kind,
            f"--t-range={t_lo}:{t_lo + rng.randint(0, 4)}"]
    if kind == "euler" and rng.random() < 0.3:
        n_lo = rng.randint(-6, 6)
        args.append(f"--n-range={n_lo}:{n_lo + rng.randint(0, 20)}")
    if rng.random() < 0.5:
        args.append("--verify")
    return args


def _ends_with_an_exit_code(argv, capsys):
    start = time.perf_counter()
    try:
        code = main(argv)
    except Exception as exc:  # named with the arguments that raised it
        pytest.fail(f"{argv} raised {exc!r}")
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err  # drained each run, so a failure shows its own
    assert code in (0, 1, 2), (argv, code, err)
    assert elapsed <= 2, (argv, elapsed)


@pytest.mark.parametrize("seed", [0, 1])
def test_fuzzed_simulate_configs_end_with_an_exit_code(tmp_path, capsys, seed):
    rng = random.Random(seed)
    path = tmp_path / "run.json"
    for _ in range(CASES):
        config = _simulate_config(rng)
        path.write_text(json.dumps(config))
        argv = ["simulate", "--config", str(path)]
        if rng.random() < 0.2:
            argv += ["--steps", str(rng.randint(0, 5))]
        _ends_with_an_exit_code(argv, capsys)


def test_fuzzed_difftest_and_solution_arguments_end_with_an_exit_code(tmp_path, capsys):
    rng = random.Random(2)
    for _ in range(CASES):
        _ends_with_an_exit_code(_difftest_args(rng), capsys)
        _ends_with_an_exit_code(_solution_args(rng, tmp_path / "params.json"), capsys)
