import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from dense_views import trace_arrays

from boxball import cli, euler_step, first_difference, to_euler
from boxball.cli import main
from boxball.config import dump, parse_config
from boxball.solutions import MAX_SOLITONS, EulerVerifyReport, TauVerifyReport
from boxball.toda import CapacityViolation, DegenerateState
from boxball.xint import FiniteOverflow

ROOT = Path(__file__).resolve().parents[1]
SHOWCASE = str(ROOT / "configs" / "showcase.json")


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def euler_boxes(rec):
    """A record's Euler counts by absolute box (nonzero boxes only)."""
    euler = rec["euler"]
    start = euler["window_start"]
    return {start + i: c for i, c in enumerate(euler["counts"]) if c}


@pytest.fixture
def sim_config(tmp_path):
    return write_json(
        tmp_path / "run.json",
        {
            "representation": "euler",
            "steps": 1,
            "render": "ascii",
            "initial": {"euler": {"counts": [1, 1, 0, 1, 0, 0]}},
        },
    )


def test_simulate_ascii(sim_config, capsys):
    assert main(["simulate", "--config", sim_config]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["t=  1 ..1.11"]


def test_simulate_ascii_pads_t_to_the_last_time(tmp_path, capsys):
    # a lone ball moves one box a step; t is padded to four digits, so the
    # rows of t = 999 and t = 1000 start their cells at the same column
    cfg = write_json(
        tmp_path / "lone.json",
        {
            "representation": "euler",
            "steps": 1001,
            "render": "ascii",
            "initial": {"euler": {"counts": [1]}},
        },
    )
    assert main(["simulate", "--config", cfg]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 1001
    assert rows[0] == "t=   1 .1"
    assert rows[998] == "t= 999 " + "." * 999 + "1"
    assert rows[999] == "t=1000 " + "." * 1000 + "1"
    assert {row.rindex(" ") for row in rows} == {6}


def test_simulate_json_records(sim_config, capsys):
    assert main(["simulate", "--config", sim_config, "--render", "json", "--steps", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    rec = json.loads(lines[0])
    assert rec["t"] == 1
    assert rec["euler"]["window_start"] == 0
    assert rec["euler"]["counts"] == [0, 0, 1, 0, 1, 1]
    # trace entries are [box, value] pairs of the nonzero entries
    assert dict(rec["trace"]["carrier_loads"]).get(0, 0) == 0


def test_simulate_records_sparse_trace_and_profile_once(capsys):
    steps = 30
    assert main(["simulate", "--config", SHOWCASE, "--steps", str(steps), "--render", "json"]) == 0
    recs = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert len(recs) == steps
    # profile and schedule do not change along a run: first record only
    assert {"profile", "schedule"} <= set(recs[0]["euler"])
    assert "profile" in recs[0]["toda"]
    for rec in recs[1:]:
        assert not {"profile", "schedule"} & set(rec["euler"])
        assert "profile" not in rec["toda"]

    cfg = parse_config(SHOWCASE)
    state = cfg.euler
    for rec in recs:
        state, trace = euler_step(state, cfg.schedule)
        euler = rec["euler"]
        assert euler["window_start"] == state.window_start
        assert euler["counts"] == state.counts.tolist()
        for key, want in zip(("limited_counts", "carrier_loads", "removed"), trace_arrays(trace, state)):
            pairs = rec["trace"][key]
            boxes = [box for box, _ in pairs]
            assert boxes == sorted(set(boxes))
            assert all(value != 0 for _, value in pairs)
            got = [0] * len(want)
            for box, value in pairs:
                got[box - state.window_start] = value
            assert got == want.tolist()


def test_simulate_mismatch_names_first_box_and_toda_state(monkeypatch, capsys):
    real_step = cli.enutoda_step
    shifted = []

    def step(state, schedule):
        nxt, trace = real_step(state, schedule)
        nxt = replace(nxt, X0=nxt.X0 + 1)
        shifted.append(nxt)
        return nxt, trace

    monkeypatch.setattr(cli, "enutoda_step", step)
    assert main(["simulate", "--config", SHOWCASE, "--render", "json", "--steps", "3"]) == 1
    captured = capsys.readouterr()
    recs = [json.loads(l) for l in captured.out.splitlines()]
    first = next(r for r in recs if r["verdict"] == "mismatch")
    t = first["t"]
    cfg = parse_config(SHOWCASE)
    state = cfg.euler
    for _ in range(t):
        state, _ = euler_step(state, cfg.schedule)
    toda = shifted[t - 1]
    box, in_euler, in_toda = first_difference(state, to_euler(toda))
    err = captured.err.strip().splitlines()
    assert err == [
        f"simulate: representations diverged at t={t}: box {box} holds {in_euler} "
        f"(euler) vs {in_toda} (toda); toda (Q, E, X0) = "
        f"({list(toda.Q)}, {list(toda.E)}, {toda.X0})"
    ]


def test_simulate_render_none_builds_no_record_and_keeps_the_verdict(monkeypatch, capsys):
    real_step = cli.enutoda_step

    def step(state, schedule):
        nxt, trace = real_step(state, schedule)
        return replace(nxt, X0=nxt.X0 + 1), trace

    def no_record(*args, **kwargs):
        raise AssertionError("a JSON record was built")

    monkeypatch.setattr(cli, "enutoda_step", step)
    for name in ("euler_state_json", "euler_trace_json", "toda_state_json", "toda_trace_json"):
        monkeypatch.setattr(cli, name, no_record)
    assert main(["simulate", "--config", SHOWCASE, "--render", "none", "--steps", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("simulate: representations diverged at t=1: box ")
    assert len(captured.err.splitlines()) == 1


def step_by_step_simulate(args):
    """The reference: the routes, the check and the record of one step
    before the next step, whose stdout, stderr and exit code `cmd_simulate`
    must give; it reads each route and writer through the cli module, so a
    patch reaches both."""
    c = cli
    cfg = c.parse_config(args.config)
    steps = args.steps if args.steps is not None else cfg.steps
    render = args.render if args.render is not None else cfg.render
    euler, toda = cfg.euler, cfg.toda
    if render == "ascii":
        first = euler if euler is not None else c.to_euler(toda)
        origin = first.window_start
        width = max(3, len(str(first.time + steps)))
    divergence = None
    for step in range(steps):
        if euler is not None:
            euler, etrace = c.euler_step(euler, cfg.schedule)
            t = euler.time
        if toda is not None:
            toda, ttrace = c.enutoda_step(toda, cfg.schedule)
            t = toda.time
        verdict = None
        if euler is not None and toda is not None:
            from_toda = c.to_euler(toda)
            verdict = "equal" if c.same_occupancy(euler, from_toda) else "mismatch"
            if verdict == "mismatch" and divergence is None:
                box, in_euler, in_toda = c.first_difference(euler, from_toda)
                divergence = (
                    f"simulate: representations diverged at t={t}: "
                    f"box {box} holds {in_euler} (euler) vs {in_toda} (toda); "
                    f"toda (Q, E, X0) = ({list(toda.Q)}, {list(toda.E)}, {toda.X0})"
                )
        if render == "json":
            first = step == 0
            fields = []
            if euler is not None:
                text = c.euler_state_json(euler, cfg.schedule if first else None)
                fields.append(f'"euler":{text}')
            fields.append(f'"t":{t}')
            if toda is not None:
                # a fresh text state per record: every field rendered anew
                fields.append(f'"toda":{c.toda_state_json(toda, first, c.TodaText())}')
                fields.append(f'"toda_trace":{c.toda_trace_json(ttrace, c.TodaText())}')
            if euler is not None:
                fields.append(f'"trace":{c.euler_trace_json(etrace)}')
            if verdict is not None:
                fields.append(f'"verdict":"{verdict}"')
            sys.stdout.write(f"{{{','.join(fields)}}}\n")
        elif render == "ascii":
            shown = euler if euler is not None else c.to_euler(toda)
            line = f"t={t:>{width}} {c.render_counts(shown, origin)}"
            if verdict is not None:
                line += f"  [{verdict}]"
            sys.stdout.write(line + "\n")
    if divergence is not None:
        sys.stderr.write(divergence + "\n")
        return 1
    return 0


class TimedFaults:
    """euler_step, enutoda_step and to_euler run true except at the step
    their plan names, where they raise, or to_euler maps the Toda state one
    segment to the right, so both pictures mismatch.  The step is read from
    the route's input (the showcase starts at t = 0), so both walks meet a
    fault at the same step, whatever order they call the routes in."""

    def __init__(self, monkeypatch):
        self.plan = {}
        for name in ("euler_step", "enutoda_step", "to_euler"):
            monkeypatch.setattr(cli, name, self.route(name, getattr(cli, name)))

    def route(self, name, real):
        def call(state, *rest):
            # to_euler reads the state a step made, the steps their input
            step = state.time - 1 if name == "to_euler" else state.time
            fault = self.plan.get(name)
            if fault is None or fault[1] != step:
                return real(state, *rest)
            if fault[0] == "mismatch":
                return real(replace(state, X0=state.X0 + 1))
            raise fault[0](f"{name} raised at step {step}")

        return call


def simulate_outcome(capsys, argv):
    """stdout, stderr and the exit code of `main(argv)`, or the type and
    message of what main lets through."""
    try:
        code = main(argv)
    except Exception as exc:
        code = (type(exc), str(exc))
    captured = capsys.readouterr()
    return captured.out, captured.err, code


def assert_blocks_match_the_walk(monkeypatch, capsys, argv):
    """`main(argv)` gives what the step-by-step walk gives; that outcome."""
    got = simulate_outcome(capsys, argv)
    with monkeypatch.context() as m:
        m.setattr(cli, "cmd_simulate", step_by_step_simulate)
        want = simulate_outcome(capsys, argv)
    assert got == want
    return got


RAISES = [DegenerateState, CapacityViolation, FiniteOverflow, RuntimeError]
# the first step, two steps on each side of the edge between the first
# two blocks of 50, and the last step of a run of 75
EDGE_STEPS = [0, 48, 49, 50, 51, 74]


def showcase_argv(representation, render, tmp_path, steps=75):
    cfg = json.loads(Path(SHOWCASE).read_text())
    cfg["representation"] = representation
    path = write_json(tmp_path / f"{representation}.json", cfg)
    return ["simulate", "--config", path, "--steps", str(steps), "--render", render]


@pytest.mark.parametrize("name", ["euler_step", "enutoda_step", "to_euler"])
def test_simulate_raise_at_a_block_edge_comes_after_the_records_before_it(
    monkeypatch, capsys, tmp_path, name
):
    faults = TimedFaults(monkeypatch)
    argv = showcase_argv("both", "json", tmp_path)
    for k, step in enumerate(EDGE_STEPS):
        exc = RAISES[k % len(RAISES)]
        faults.plan = {name: (exc, step)}
        out, err, code = assert_blocks_match_the_walk(monkeypatch, capsys, argv)
        assert len(out.splitlines()) == step
        assert code in (1, 2) or code[0] is RuntimeError
    # a forced mismatch inside a block and at its edge, then a raise
    later = "euler_step" if name == "to_euler" else name
    for step in (23, 49, 50):
        faults.plan = {"to_euler": ("mismatch", step), later: (RuntimeError, 60)}
        out, err, code = assert_blocks_match_the_walk(monkeypatch, capsys, argv)
        verdicts = [json.loads(line)["verdict"] for line in out.splitlines()]
        assert verdicts == ["equal"] * step + ["mismatch"] + ["equal"] * (59 - step)
        assert err == "" and code == (RuntimeError, f"{later} raised at step 60")


@pytest.mark.parametrize("render", ["json", "ascii", "none"])
@pytest.mark.parametrize("representation", ["euler", "toda", "both"])
def test_simulate_blocks_keep_the_walks_records_and_errors(
    monkeypatch, capsys, tmp_path, representation, render
):
    faults = TimedFaults(monkeypatch)
    argv = showcase_argv(representation, render, tmp_path)
    rng = np.random.default_rng([29, len(representation), len(render)])
    codes = set()
    for _ in range(8):
        faults.plan = {}
        for name in ("euler_step", "enutoda_step", "to_euler"):
            if rng.integers(3):
                kind = "mismatch" if name == "to_euler" and rng.integers(3) == 0 else None
                kind = kind or RAISES[rng.integers(len(RAISES))]
                faults.plan[name] = (kind, int(rng.choice(EDGE_STEPS + [23, 60])))
        *_, code = assert_blocks_match_the_walk(monkeypatch, capsys, argv)
        codes.add(code if isinstance(code, int) else code[0])
    assert len(codes) > 1


def test_simulate_runs_back_to_back_each_give_the_bytes_of_a_fresh_run(
    monkeypatch, capsys, tmp_path
):
    # each run renders its Toda fields from a text state of its own: two
    # configs with other sizes, gaps and capacities, run one after the
    # other in one process, give the from-scratch walk's bytes every time
    pair = write_json(
        tmp_path / "pair.json",
        {
            "representation": "toda",
            "steps": 30,
            "render": "json",
            "profile": {"capacities": [1, 2, 1, 1, 2], "default": 1},
            "initial": {"euler": {"counts": [1, 2, 0, 0, 1]}},
        },
    )
    argvs = [showcase_argv("both", "json", tmp_path, steps=60), ["simulate", "--config", pair]]
    with monkeypatch.context() as m:
        m.setattr(cli, "cmd_simulate", step_by_step_simulate)
        fresh = [simulate_outcome(capsys, argv) for argv in argvs]
    for argv, want in zip(argvs * 2, fresh * 2):
        assert simulate_outcome(capsys, argv) == want
    assert [code for *_, code in fresh] == [0, 0]
    assert [len(out.splitlines()) for out, *_ in fresh] == [60, 30]


@pytest.mark.parametrize("representation", ["toda", "both"])
def test_simulate_toda_initial_outside_the_expansion_image_degenerates(
    tmp_path, capsys, representation
):
    # (Q, E, X0) = ((3, 2), (4,), 0) reads back as ((4, 1), (6,), 0): the
    # Toda step follows the balls only from a state the expansion map
    # gives, and from this one its second step has a negative size
    cfg = write_json(
        tmp_path / "noncanonical.json",
        {
            "representation": representation,
            "steps": 4,
            "render": "json",
            "profile": {"capacities": [3, 5, 3, 5], "default": 2},
            "schedule": {"entries": {"1": 6}},
            "initial": {"toda": {"Q": [3, 2], "E": [4], "X0": 0}},
        },
    )
    assert main(["simulate", "--config", cfg]) == 1
    captured = capsys.readouterr()
    (rec,) = [json.loads(line) for line in captured.out.splitlines()]
    assert rec["t"] == 1
    assert (rec["toda"]["Q"], rec["toda"]["E"], rec["toda"]["X0"]) == ([2, 3], [2], 5)
    if representation == "both":
        assert rec["verdict"] == "mismatch"
    assert captured.err == "error: DegenerateState: step produced Q'=[-1, 6], E'=[3]\n"


@pytest.mark.parametrize("representation", ["toda", "both"])
def test_simulate_gap_start_capacity_above_the_carrier_exit_code(
    tmp_path, capsys, representation
):
    # Q = (3), K = (2) and Lam = (3) under M = 2: every run-start capacity
    # fits the carrier, but the gap starts in box 2 of capacity 3; the Toda
    # step would give `.21` where euler_step gives `..3`
    cfg = write_json(
        tmp_path / "gap_start.json",
        {
            "representation": representation,
            "steps": 1,
            "render": "ascii",
            "profile": {"capacities": [2, 2, 3], "default": 2},
            "schedule": {"default": 2},
            "initial": {"euler": {"counts": [0, 2, 1]}},
        },
    )
    assert main(["simulate", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: CapacityViolation: box capacities [3] exceed carrier capacity 2\n"


def test_simulate_memory_does_not_grow_with_the_steps():
    # a block holds at most cli._BLOCK states and traces; a run that kept
    # every step's would peak ten times as high at ten times the steps.
    # tracemalloc slows the run about fifteen-fold, hence 200 and 2000
    # steps, not more
    argv = ["simulate", "--config", SHOWCASE, "--render", "none", "--steps"]

    def peak(steps):
        tracemalloc.start()
        try:
            assert main(argv + [str(steps)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # untraced, so allocations made once per process, some of them only
    # well into a run, are out of the way
    assert main(argv + ["2000"]) == 0
    assert peak(2000) <= 1.5 * peak(200)


@pytest.mark.parametrize("representation", ["euler", "both"])
def test_simulate_carrier_past_an_int64_window_exit_code(tmp_path, representation):
    # 2^62 balls leave a box of capacity 2^62 for unit boxes: the carrier
    # would fill 2^62 of them, a window no int64 array can hold, so the
    # step refuses before it walks
    cfg = write_json(
        tmp_path / "huge.json",
        {
            "representation": representation,
            "steps": 1,
            "render": "json",
            "profile": {"capacities": [2**62]},
            "initial": {"euler": {"counts": [2**62]}},
        },
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [sys.executable, "-m", "boxball.cli", "simulate", "--config", cfg]
    proc = subprocess.run(argv, capture_output=True, env=env, timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"error: FiniteOverflow: the carrier reaches box 1 with 4611686018427387904 balls")
    assert b"Traceback" not in proc.stderr


def test_simulate_segment_boundary_past_int64_exit_code(tmp_path, capsys):
    # four boxes of 2^62 segments end at segment 2^64, which int64 wraps to 0
    cfg = write_json(
        tmp_path / "wide.json",
        {
            "representation": "both",
            "steps": 1,
            "profile": {"default": 2**62},
            "initial": {"euler": {"counts": [1, 1, 0, 1]}},
        },
    )
    assert main(["simulate", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "FiniteOverflow" in captured.err and "Traceback" not in captured.err


def test_simulate_huge_box_capacity_both_mode(tmp_path, capsys):
    # one ball in a box of 2^62 segments: the expansion reads the box's two
    # boundaries, it lays out none of its segments
    cfg = write_json(
        tmp_path / "huge.json",
        {
            "representation": "both",
            "steps": 3,
            "render": "json",
            "profile": {"capacities": [2**62]},
            "initial": {"euler": {"counts": [1]}},
        },
    )
    assert main(["simulate", "--config", cfg]) == 0
    recs = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert [r["verdict"] for r in recs] == ["equal"] * 3
    assert [r["toda"]["X0"] for r in recs] == [2**62, 2**62 + 1, 2**62 + 2]


def test_simulate_both_mode_verdicts(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "both.json",
        {
            "representation": "both",
            "steps": 4,
            "render": "json",
            "schedule": {"entries": {str(t): 2 for t in range(1, 5)}},
            "initial": {"euler": {"counts": [1, 1, 1, 0, 0, 1, 0]}},
        },
    )
    assert main(["simulate", "--config", cfg]) == 0
    for line in capsys.readouterr().out.splitlines():
        assert json.loads(line)["verdict"] == "equal"


def test_simulate_from_toda_initial(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "toda.json",
        {
            "representation": "both",
            "steps": 2,
            "render": "json",
            "initial": {"toda": {"Q": [2, 1], "E": [2], "X0": 0}},
        },
    )
    assert main(["simulate", "--config", cfg]) == 0
    recs = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert all(r["verdict"] == "equal" for r in recs)
    assert recs[0]["toda"]["Q"] == [2, 1]


def test_simulate_toda_only(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "toda_only.json",
        {
            "representation": "toda",
            "steps": 1,
            "render": "ascii",
            "initial": {"toda": {"Q": [3], "E": [], "X0": 0}},
        },
    )
    assert main(["simulate", "--config", cfg]) == 0
    assert capsys.readouterr().out.splitlines() == ["t=  1 ...111"]


def test_simulate_far_toda_anchor_is_bounded(tmp_path, capsys):
    # the Euler picture derived from a Toda initial starts at the first
    # ball's box, so neither memory nor output grows with X0
    cfg = write_json(
        tmp_path / "far.json",
        {
            "representation": "both",
            "steps": 3,
            "render": "json",
            "schedule": {"default": 2},
            "initial": {"toda": {"Q": [3, 1, 2], "E": [2, 4], "X0": 10**6}},
        },
    )
    tracemalloc.start()
    try:
        assert main(["simulate", "--config", cfg]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    recs = [json.loads(l) for l in out.splitlines()]
    assert len(recs) == 3 and all(r["verdict"] == "equal" for r in recs)
    assert recs[0]["euler"]["window_start"] == 10**6
    assert peak < 1_000_000
    assert len(out) < 10_000


def test_simulate_toda_anchor_past_int64_exit_code(tmp_path, capsys):
    # the second run starts at segment 2^63 + 10, so laying it onto boxes
    # needs a boundary past the int64 range
    cfg = write_json(
        tmp_path / "far.json",
        {
            "representation": "both",
            "steps": 1,
            "initial": {"toda": {"Q": [1, 1], "E": [20], "X0": 2**63 - 11}},
        },
    )
    assert main(["simulate", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: FiniteOverflow: segment boundary")
    assert "Traceback" not in captured.err

def test_simulate_far_toda_anchor_ascii_is_bounded(tmp_path, capsys):
    # ASCII rows start at the initial state's first box, so on a unit
    # profile a run anchored at X0 = 10^6 draws the same rows as at X0 = 0
    rows = []
    for x0 in (10**6, 0):
        cfg = write_json(
            tmp_path / f"far_{x0}.json",
            {
                "representation": "toda",
                "steps": 3,
                "render": "ascii",
                "schedule": {"default": 2},
                "initial": {"toda": {"Q": [3, 1, 2], "E": [2, 4], "X0": x0}},
            },
        )
        assert main(["simulate", "--config", cfg]) == 0
        rows.append(capsys.readouterr().out)
    assert len(rows[0]) < 10_000
    assert rows[0] == rows[1]
    assert rows[1].splitlines()[0].startswith("t=  1 ..")


def test_simulate_from_solution_initial(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "sol.json",
        {
            "representation": "both",
            "steps": 3,
            "render": "json",
            "initial": {
                "solution": {
                    "type": "euler",
                    "params": {"P": [2], "Xi": [2], "n_range": [0, 15]},
                }
            },
        },
    )
    assert main(["simulate", "--config", cfg]) == 0
    recs = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert len(recs) == 3 and all(r["verdict"] == "equal" for r in recs)
    # free soliton of size two moves two boxes per step
    boxes = euler_boxes(recs[0])
    assert [boxes.get(n, 0) for n in (4, 5)] == [1, 1]


def test_simulate_from_tau_solution_initial(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "tausol.json",
        {
            "representation": "both",
            "steps": 2,
            "render": "json",
            "initial": {
                "solution": {
                    "type": "tau",
                    "params": {
                        "P": [2, 5],
                        "W": [0, 0],
                        "Delta": 2,
                        "schedule": {"entries": {str(t): 5 for t in range(1, 9)}},
                    },
                }
            },
        },
    )
    assert main(["simulate", "--config", cfg]) == 0
    recs = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert all(r["verdict"] == "equal" for r in recs)
    assert recs[0]["toda"]["profile"]["default"] == 2


def test_simulate_from_zero_size_tau_solution_exit_code(tmp_path, capsys):
    # a speed P_i = 0 gives Q_0 = 0, which no size-coordinate state allows
    cfg = write_json(
        tmp_path / "zero.json",
        {
            "representation": "toda",
            "steps": 1,
            "render": "json",
            "initial": {"solution": {"type": "tau", "params": {
                "P": [0, 2], "W": [0, 0], "Delta": 2}}},
        },
    )
    assert main(["simulate", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "sizes and gaps must be >= 1" in captured.err
    assert "Traceback" not in captured.err


def test_simulate_stdout_closed_early_exits_quietly():
    # a reader that stops after 10 bytes: the run ends with exit 1 and no
    # traceback, also from the interpreter's final flush
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [sys.executable, "-m", "boxball.cli", "simulate", "--config", SHOWCASE,
            "--steps", "300", "--render", "json"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert err == b""

def test_simulate_bad_config_exit_code(tmp_path, capsys):
    cfg = write_json(tmp_path / "bad.json", {"representation": "euler", "steps": 0,
                                             "initial": {"euler": {"counts": [1]}}})
    assert main(["simulate", "--config", cfg]) == 2
    assert "steps" in capsys.readouterr().err


@pytest.mark.parametrize("representation", ["euler", "toda", "both"])
def test_simulate_empty_line_exit_code(tmp_path, capsys, representation):
    # a Toda state holds at least one soliton: only euler mode steps an empty line
    cfg = write_json(tmp_path / "empty.json", {
        "representation": representation, "steps": 2,
        "initial": {"euler": {"counts": [0, 0, 0]}}})
    code = main(["simulate", "--config", cfg])
    captured = capsys.readouterr()
    if representation == "euler":
        assert (code, captured.out, captured.err) == (0, "t=  1 ...\nt=  2 ...\n", "")
    else:
        assert (code, captured.out) == (2, "")
        assert captured.err == (
            f"error: initial: the line holds no ball; representation {representation} needs one\n"
        )


def test_simulate_steps_flag_below_one_exit_code(sim_config, capsys):
    assert main(["simulate", "--config", sim_config, "--steps", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--steps must be >= 1" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "n_range, named",
    [
        (None, "initial.solution.params: a counts-level solution initial needs n_range"),
        # the file's own window starts left of box 0
        ([-20, 40], "initial.solution.params.n_range must start at box 0 or later, got -20"),
        # the t=0 slice puts a ball in box 0
        ([0, 40], "initial.solution.params.n_range: the state at t=0 has a ball at an end"),
        # a one-box window whose box holds a ball: the soliton left of it is lost
        ([6, 6], "initial.solution.params.n_range: the state at t=0 has a ball at an end"),
        # a window right of both solitons: no ball, so no Toda picture
        ([20, 30], "initial: the line holds no ball; representation both needs one"),
    ],
    ids=["missing", "left-of-box-0", "ball-at-an-end", "one-box-with-a-ball", "no-ball"],
)
def test_simulate_bad_solution_initial_exit_code(tmp_path, capsys, n_range, named):
    params = json.loads((ROOT / "configs" / "soliton_pair.json").read_text())
    if n_range is None:
        del params["n_range"]
    else:
        params["n_range"] = n_range
    cfg = write_json(tmp_path / "sol.json", {
        "representation": "both", "steps": 1,
        "initial": {"solution": {"type": "euler", "params": params}}})
    assert main(["simulate", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert named in captured.err and "Traceback" not in captured.err


def _two_gib_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


HUGE_N_RANGE = [0, 2**40]  # 2^40 + 1 boxes: terabytes of dense closed-form arrays


HUGE_N_RANGE_CASES = {
    "simulate": "initial.solution.params.n_range",
    "solution": "params.n_range",
    "solution --verify": "params.n_range",
    "solution --n-range": "--n-range",
    "solution --n-range --verify": "--n-range",
}


def n_range_args(tmp_path, params, n_range, how):
    """The command line of a HUGE_N_RANGE_CASES entry, with n_range in the
    simulate config, in the params file or as --n-range."""
    words = how.split()
    if words[0] == "simulate":
        cfg = write_json(tmp_path / "sol.json", {
            "representation": "euler", "steps": 1, "render": "json",
            "initial": {"solution": {"type": "euler", "params": {**params, "n_range": n_range}}}})
        return ["simulate", "--config", cfg]
    if "--n-range" in words:
        args = ["--n-range", f"{n_range[0]}:{n_range[1]}"]
    else:
        params = {**params, "n_range": n_range}
        args = []
    path = write_json(tmp_path / "params.json", params)
    return ["solution", "--params", path, "--type", "euler", *args] + ["--verify"] * ("--verify" in words)


@pytest.mark.parametrize("how", list(HUGE_N_RANGE_CASES))
def test_huge_n_range_exit_code(tmp_path, how):
    # listing and the simulate initial hold the closed form as dense arrays
    # over the whole n_range; under a 2 GiB address space they cannot be
    # allocated, and the run names the key instead of ending in numpy's
    # MemoryError.  The verifier holds only the span of the live entries,
    # so it checks the whole range.
    params = json.loads((ROOT / "configs" / "soliton_pair.json").read_text())
    args = n_range_args(tmp_path, params, HUGE_N_RANGE, how)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "boxball.cli", *args], capture_output=True, env=env,
        timeout=60, preexec_fn=_two_gib_address_space,
    )
    if "--verify" in how:
        assert proc.returncode == 0, proc.stderr
        assert b'"ok":true' in proc.stdout and b'"n_range":[0,1099511627776]' in proc.stdout
        assert proc.stderr == b""
        return
    assert proc.returncode == 2
    assert proc.stdout == b""
    named = f"error: {HUGE_N_RANGE_CASES[how]} [0, 1099511627776] spans 1099511627777 boxes"
    assert proc.stderr.startswith(named.encode())
    assert b"Traceback" not in proc.stderr


@pytest.mark.parametrize("how", list(HUGE_N_RANGE_CASES))
def test_unsizable_n_range_exit_code(tmp_path, capsys, how):
    # a zero speed passes the int64 headroom check at any range, and numpy
    # cannot even size an array over 2^62 boxes: the run names the key
    # before any array is made
    args = n_range_args(tmp_path, {"P": [0], "Xi": [0]}, [0, 2**62], how)
    began = time.perf_counter()
    assert main(args) == 2
    assert time.perf_counter() - began < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"error: {HUGE_N_RANGE_CASES[how]} [0, {2**62}] spans {2**62 + 1} boxes, more than memory holds"
    )


def test_solution_verify_checks_headroom_before_any_block(monkeypatch, capsys):
    # the int64 bound of the whole t range is checked up front: no block of
    # the 2^62 transitions is evaluated before the run stops
    from boxball import solutions as solutions_mod

    def no_block(*args):
        raise AssertionError("a block ran before the headroom check")

    monkeypatch.setattr(solutions_mod, "_euler_fields", no_block)
    params = str(ROOT / "configs" / "soliton_pair.json")
    args = ["solution", "--params", params, "--type", "euler", "--verify", "--t-range", f"0:{2**62}"]
    began = time.perf_counter()
    assert main(args) == 2
    assert time.perf_counter() - began < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: FiniteOverflow: potentials up to ")


@pytest.mark.parametrize(
    "kind, flag", [("tau", "--t-range"), ("euler", "--t-range"), ("euler", "--n-range")]
)
@pytest.mark.parametrize("text", [f"0:{2**63}", f"{-2**63 - 1}:0"])
def test_solution_cli_range_outside_int64_exit_code(capsys, kind, flag, text):
    params = str(ROOT / "configs" / f"{'soliton' if kind == 'euler' else 'tau'}_pair.json")
    assert main(["solution", "--params", params, "--type", kind, f"{flag}={text}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    bad = max(text.split(":"), key=lambda v: abs(int(v)))
    assert captured.err == f"error: {flag} must lie in the signed 64-bit range, got {bad}\n"


@pytest.mark.parametrize(
    "t_range, named", [("3", "--t-range must look like A:B"), ("5:2", "--t-range: need A <= B")]
)
def test_solution_cli_bad_t_range_exit_code(capsys, t_range, named):
    params = str(ROOT / "configs" / "tau_pair.json")
    assert main(["solution", "--params", params, "--type", "tau", "--t-range", t_range]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert named in captured.err and "Traceback" not in captured.err


def test_unknown_key_exit_code(tmp_path, capsys):
    cfg = write_json(tmp_path / "bad2.json", {"representation": "euler", "steps": 1,
                                              "initial": {"euler": {"counts": [1]}},
                                              "wat": 1})
    assert main(["simulate", "--config", cfg]) == 2
    assert "wat" in capsys.readouterr().err


def test_difftest_deterministic_report(capsys):
    args = ["difftest", "--cases", "40", "--seed", "123", "--steps", "6",
            "--window", "12", "--max-delta", "3"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert report["failures"] == []
    assert report["cases"] == 40
    assert "elapsed" not in report


def test_difftest_euler_only_allows_small_m(capsys):
    args = ["difftest", "--cases", "30", "--seed", "5", "--steps", "4",
            "--max-delta", "5", "--m-choices", "1,2,inf", "--euler-only"]
    assert main(args) == 0
    assert json.loads(capsys.readouterr().out)["failures"] == []


def test_difftest_case_past_max_case_balls_exits_2(capsys):
    near_int64 = str(2**63 - 1)
    args = ["difftest", "--cases", "1", "--window", "2", "--steps", "2",
            "--max-delta", near_int64, "--m-choices", near_int64]
    start = time.perf_counter()
    assert main(args) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: FiniteOverflow: the case drew ")
    assert "MAX_CASE_BALLS" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "extra, flag",
    [
        (["--m-choices", "5,x"], "--m-choices"),
        (["--m-choices=-inf"], "--m-choices"),
        (["--m-choices=-1"], "--m-choices"),
        (["--m-choices", ","], "--m-choices"),
        (["--window", "0"], "--window"),
        (["--max-delta", "0"], "--max-delta"),
        (["--steps", "0"], "--steps"),
        (["--cases", "-3"], "--cases"),
        (["--seed", "-1"], "--seed"),
    ],
)
def test_difftest_bad_arguments_exit_code(capsys, extra, flag):
    assert main(["difftest", "--cases", "2"] + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "flag, value",
    [
        pytest.param("--window", 10**19, id="--window"),
        pytest.param("--max-delta", 10**19, id="--max-delta"),
        pytest.param("--steps", 10**19, id="--steps"),
        # past the longest int64 array, which numpy refuses before it
        # allocates; never a value below it, which numpy would allocate
        pytest.param("--window", 2**60, id="--window-past-array-bound"),
        pytest.param("--steps", 2**60, id="--steps-past-array-bound"),
    ],
)
def test_difftest_bound_past_int64_exit_code(capsys, flag, value):
    # named before any case runs, not numpy's bare error from a worker
    assert main(["difftest", "--cases", "1", flag, str(value)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"FiniteOverflow: {flag[2:].replace('-', '_')} must be <=" in captured.err
    assert "Traceback" not in captured.err


def test_difftest_default_m_choices_past_int64_exit_code(capsys):
    # the default M choices run to --max-delta + 5
    assert main(["difftest", "--cases", "1", "--max-delta", str(2**63 - 5)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: FiniteOverflow: max_delta must be <= {2**63 - 6} for the default "
        f"M choices max_delta .. max_delta+5, got {2**63 - 5}\n"
    )


@pytest.mark.parametrize("choices", ["2", "2,inf"])
def test_difftest_m_choice_below_max_delta_needs_euler_only(capsys, choices):
    # the size-coordinate route needs every finite M >= every box capacity;
    # a smaller one is a bad argument, named before any case runs, and not
    # a failed check
    args = ["difftest", "--cases", "3", "--seed", "0", "--steps", "2",
            "--max-delta", "5", "--m-choices", choices]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--m-choices" in captured.err and "--max-delta" in captured.err
    assert "Traceback" not in captured.err and "CapacityViolation" not in captured.err
    assert main(args + ["--euler-only"]) == 0
    assert json.loads(capsys.readouterr().out)["failures"] == []
    # a choice that does not parse is named as such
    assert main(args[:-1] + ["2,x"]) == 2
    assert "below" not in capsys.readouterr().err


def test_solution_cli_euler_verify(tmp_path, capsys):
    params = write_json(
        tmp_path / "p.json",
        {"P": [1, 3], "Xi": [4, -2], "n_range": [-20, 40]},
    )
    assert main(["solution", "--params", params, "--type", "euler", "--verify"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["ok"] and rep["max_residual"] == 0


def test_solution_cli_tau_verify_and_slices(tmp_path, capsys):
    params = write_json(
        tmp_path / "tau.json",
        {
            "P": [2, 5],
            "W": [0, 0],
            "Delta": 2,
            "schedule": {"entries": {str(t): 5 for t in range(1, 20)}},
        },
    )
    assert main(["solution", "--params", params, "--type", "tau", "--verify"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["ok"] and rep["max_residual"] == 0
    assert "boundary_failures" not in rep

    assert main(["solution", "--params", params, "--type", "tau",
                 "--t-range", "0:2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert json.loads(lines[0])["Q"] == [2, 5]


def test_solution_cli_tau_verify_carrier_below_delta_exit_code(tmp_path, capsys):
    params = write_json(
        tmp_path / "low.json",
        {"P": [2], "W": [0], "Delta": 3, "schedule": {"entries": {"1": 2}}},
    )
    assert main(["solution", "--params", params, "--type", "tau", "--verify"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "below Delta at t=1" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "kind, params, extra",
    [
        ("euler", {"P": [1, 3], "Xi": [4, -2], "n_range": [-20, 40]}, {"n_range": [-20, 40]}),
        ("tau", {"P": [2, 5], "W": [0, 0], "Delta": 2}, {"min_q": 2, "min_interior_e": None}),
    ],
)
def test_solution_cli_verify_failure_record(tmp_path, monkeypatch, capsys, kind, params, extra):
    # a nonzero residual: exit 1 and one record saying so, with the
    # family's own keys next to the shared ones
    residuals = {"first": 0, "second": 3}
    if kind == "euler":
        report = EulerVerifyReport(residuals=residuals)
    else:
        report = TauVerifyReport(residuals=residuals, min_q=2, min_interior_e=None)
    monkeypatch.setattr(cli, f"verify_{kind}_solution", lambda *args: report)
    path = write_json(tmp_path / "p.json", params)
    assert main(["solution", "--params", path, "--type", kind, "--verify", "--t-range", "0:4"]) == 1
    want = {"type": kind, "residuals": residuals, "max_residual": 3, "ok": False,
            "t_range": [0, 4], **extra}
    assert capsys.readouterr().out.splitlines() == [dump(want)]


def test_solution_cli_needs_n_range(tmp_path, capsys):
    params = write_json(tmp_path / "p2.json", {"P": [1], "Xi": [0]})
    assert main(["solution", "--params", params, "--type", "euler", "--verify"]) == 2
    assert "n-range" in capsys.readouterr().err


def test_solution_cli_negative_ranges_with_equals_form(capsys):
    # argparse takes "-20:40" after a space for an option, so the ranges
    # are written with "="
    params = str(Path(__file__).parents[1] / "configs" / "soliton_pair.json")
    args = ["solution", "--params", params, "--type", "euler",
            "--n-range=-20:40", "--t-range=-3:4"]
    assert main(args) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert [r["t"] for r in lines] == list(range(-3, 5))
    assert all(r["n_start"] == -20 and len(r["U"]) == 61 for r in lines)
    assert main(args + ["--verify"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"]


@pytest.mark.parametrize(
    "kind, params",
    [
        ("euler", {"P": [1, 2], "Xi": [2**63 - 1, 0], "n_range": [0, 5]}),
        ("tau", {"P": [1], "W": [2**63 - 1], "Delta": 1}),
    ],
)
def test_solution_cli_overflow_exit_code(tmp_path, capsys, kind, params):
    path = write_json(tmp_path / "big.json", params)
    assert main(["solution", "--params", path, "--type", kind]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "FiniteOverflow" in captured.err


@pytest.mark.parametrize("command", ["simulate", "solution"])
def test_too_many_solitons_exit_code(tmp_path, capsys, command):
    n = MAX_SOLITONS + 1
    params = {"P": list(range(1, n + 1)), "Xi": [0] * n, "n_range": [0, 5]}
    if command == "simulate":
        cfg = write_json(tmp_path / "many.json", {
            "representation": "euler", "steps": 1,
            "initial": {"solution": {"type": "euler", "params": params}}})
        argv = ["simulate", "--config", cfg]
    else:
        argv = ["solution", "--params", write_json(tmp_path / "many.json", params),
                "--type", "euler"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "params" in captured.err and f"1..{MAX_SOLITONS}" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "changes, named",
    [
        ({"profile": {"capacities": [2**63, 1]}}, "profile.capacities[0]"),
        ({"schedule": {"entries": {"1": 2**63}}}, "schedule.entries[1]"),
        ({"initial": {"euler": {"counts": [1, -(2**63) - 1]}}}, "initial.euler.counts[1]"),
        ({"representation": "toda", "initial": {"solution": {
            "type": "tau", "params": {"P": [1], "W": [0], "Delta": 2**63}}}},
         "initial.solution.params.Delta"),
        ({"schedule": {"entries": {str(2**64): 1}}}, "schedule.entries key '18446744073709551616'"),
        # each count fits in int64, their total does not
        ({"profile": {"capacities": [2**62, 2**62]},
          "initial": {"euler": {"counts": [2**62, 2**62]}}},
         "FiniteOverflow: ball total 9223372036854775808"),
    ],
)
def test_simulate_int64_out_of_range_exit_code(tmp_path, capsys, changes, named):
    config = {"representation": "euler", "steps": 1,
              "initial": {"euler": {"counts": [1, 0]}}}
    cfg = write_json(tmp_path / "big.json", {**config, **changes})
    assert main(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


@pytest.mark.parametrize("kind, name", [("euler", "soliton_pair"), ("tau", "tau_pair")])
def test_solution_cli_schedule_time_past_int64_exit_code(tmp_path, capsys, kind, name):
    data = json.loads((ROOT / "configs" / f"{name}.json").read_text())
    data["schedule"].setdefault("entries", {})[str(2**64)] = 5
    path = write_json(tmp_path / "late.json", data)
    assert main(["solution", "--params", path, "--type", kind]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "params.schedule.entries key '18446744073709551616'" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["simulate", "solution"])
@pytest.mark.parametrize("problem", ["missing", "directory", "not_utf8"])
def test_unreadable_input_file_exit_code(tmp_path, capsys, command, problem):
    path = tmp_path / "input.json"
    if problem == "directory":
        path.mkdir()
    elif problem == "not_utf8":
        path.write_bytes(b'{"P": [1], "Xi": [0], "n_range": [0, 5], "x": "\xff"}')
    if command == "simulate":
        argv = ["simulate", "--config", str(path)]
    else:
        argv = ["solution", "--params", str(path), "--type", "euler"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(path) in captured.err and "Traceback" not in captured.err


def test_seed_key_rejected(tmp_path, capsys):
    cfg = write_json(tmp_path / "seeded.json", {"representation": "euler", "steps": 1,
                                                "initial": {"euler": {"counts": [1]}},
                                                "seed": 3})
    assert main(["simulate", "--config", cfg]) == 2
    assert "seed" in capsys.readouterr().err
