"""The record writers against the writers they replaced.

`euler_state_json` and `render_counts` write from the occupied boxes; the
references below read the dense `counts` view box by box, as the writers
did before, and every output must match them byte for byte.  The state and
trace writers, and `simulate`'s whole JSON records, write text directly;
the references build the dicts the writers used to build and pass them
through `json.dumps`.
"""

import contextlib
import io
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from boxball import (
    POS_INF,
    CapacityProfile,
    CapacityViolation,
    CarrierSchedule,
    DegenerateState,
    EulerState,
    FiniteOverflow,
    TodaState,
    XInt,
    enutoda_step,
    euler_step,
    same_occupancy,
    to_euler,
)
from boxball import config as writers
from boxball.cli import main
from boxball.config import (
    TodaText,
    euler_state_json,
    euler_trace_json,
    parse_config,
    profile_json,
    schedule_json,
    toda_state_json,
    toda_trace_json,
)
from boxball.euler import EulerStepTrace
from boxball.render import render_counts
from boxball.toda import TodaStepTrace

SHOWCASE = Path(__file__).resolve().parents[1] / "configs" / "showcase.json"


def reference_dump(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def reference_euler_state(state, schedule=None, profile=True):
    out = {
        "time": state.time,
        "window_start": state.window_start,
        "counts": state.counts.tolist(),
    }
    if profile:
        out["profile"] = profile_json(state.profile)
    if schedule is not None:
        out["schedule"] = schedule_json(schedule)
    return out


def reference_euler_state_json(state, schedule=None):
    return reference_dump(reference_euler_state(state, schedule, schedule is not None))


def reference_euler_trace(trace):
    return {
        "limited_counts": trace.limited_counts,
        "carrier_loads": trace.carrier_loads,
        "removed": trace.removed,
    }


def reference_toda_state(state, profile=True):
    out = {
        "time": state.time,
        "N": state.N,
        "Q": list(state.Q),
        "E": list(state.E),
        "X0": state.X0,
    }
    if profile:
        out["profile"] = profile_json(state.profile)
    return out


def reference_toda_trace(trace):
    return {
        "Qbar": list(trace.Qbar),
        "Ebar": list(trace.Ebar),
        "Cbar": list(trace.Cbar),
        "Dbar": list(trace.Dbar),
        "Xbar0": trace.Xbar0,
        "K": list(trace.K),
        "Lam": list(trace.Lam),
    }


def reference_records(cfg, steps):
    """simulate's JSON lines, built as dicts the way cmd_simulate built them,
    up to the step that raises."""
    euler, toda = cfg.euler, cfg.toda
    lines = []
    for step in range(steps):
        try:
            if euler is not None:
                euler, etrace = euler_step(euler, cfg.schedule)
                t = euler.time
            if toda is not None:
                toda, ttrace = enutoda_step(toda, cfg.schedule)
                t = toda.time
            verdict = None
            if euler is not None and toda is not None:
                verdict = "equal" if same_occupancy(euler, to_euler(toda)) else "mismatch"
        except (CapacityViolation, DegenerateState, FiniteOverflow):
            break
        first = step == 0
        record = {"t": t}
        if euler is not None:
            record["euler"] = reference_euler_state(
                euler, cfg.schedule if first else None, profile=first
            )
            record["trace"] = reference_euler_trace(etrace)
        if toda is not None:
            record["toda"] = reference_toda_state(toda, profile=first)
            record["toda_trace"] = reference_toda_trace(ttrace)
        if verdict is not None:
            record["verdict"] = verdict
        lines.append(reference_dump(record))
    return lines


def reference_render_counts(state, origin=0):
    out = ["."] * (state.window_start - origin)
    for c in state.counts:
        c = int(c)
        if c == 0:
            out.append(".")
        elif c < 10:
            out.append(str(c))
        else:
            out.append(f"[{c}]")
    return "".join(out)


def state_from(window_start, lead, middle, trail, time=0):
    """Counts `lead` empty boxes, then `middle`, then `trail` empty boxes
    from box window_start, each box's capacity at least its count."""
    counts = [0] * lead + middle + [0] * trail
    profile = CapacityProfile(
        capacities=[max(c, 1) for c in counts], window_start=window_start
    )
    return EulerState(counts=counts, profile=profile, time=time, window_start=window_start)


@st.composite
def states(draw):
    middle = draw(st.lists(st.integers(0, 12), max_size=10))
    if middle and draw(st.booleans()):
        # one count up to 2^62; the ball total stays inside int64
        middle[draw(st.integers(0, len(middle) - 1))] = draw(st.integers(1, 2**62))
    return state_from(
        draw(st.integers(0, 6)),
        draw(st.integers(0, 4)),
        middle,
        draw(st.integers(0, 4)),
        draw(st.integers(0, 10**6)),
    )


schedules = st.one_of(
    st.none(),
    st.builds(
        CarrierSchedule,
        entries=st.dictionaries(
            st.integers(-3, 40), st.one_of(st.integers(0, 20).map(XInt), st.just(POS_INF)),
            max_size=4,
        ),
        default=st.one_of(st.just(POS_INF), st.integers(0, 9).map(XInt)),
    ),
)


@given(states(), schedules)
@example(state_from(0, 0, [], 0), None)  # empty window
@example(state_from(4, 3, [], 2), CarrierSchedule())  # nothing but empty boxes
@example(state_from(6, 2, [2**62, 0, 10], 3), None)
def test_euler_state_json_matches_the_dense_writer(state, schedule):
    assert euler_state_json(state, schedule) == reference_euler_state_json(state, schedule)


@given(states(), st.integers(0, 6))
@example(state_from(0, 0, [], 0), 0)  # empty window
@example(state_from(5, 1, [], 3), 2)  # nothing but empty boxes
@example(state_from(6, 2, [12, 0, 3, 2**62], 1), 5)
def test_render_counts_matches_the_dense_rows(state, back):
    # rows start at an origin at most the window's first box
    origin = state.window_start - min(back, state.window_start)
    assert render_counts(state, origin) == reference_render_counts(state, origin)


@pytest.mark.parametrize("render", ["json", "ascii"])
def test_simulate_output_never_builds_the_dense_counts(monkeypatch, capsys, render):
    def dense(self):
        raise AssertionError("an output path built the dense counts view")

    monkeypatch.setattr(EulerState, "counts", property(dense))
    argv = ["simulate", "--config", str(SHOWCASE), "--steps", "50", "--render", render]
    assert main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 50


ints = st.one_of(st.integers(0, 12), st.integers(-(2**63), 2**63 - 1))
pairs = st.lists(st.tuples(st.integers(0, 2**62), ints), max_size=5).map(tuple)


@given(pairs, pairs, pairs)
@example((), (), ())
@example(((3, 2**62),), ((2, 1), (3, 2**62 - 1)), ())  # nothing removed
def test_euler_trace_json_matches_the_dict_writer(limited, loads, removed):
    trace = EulerStepTrace(limited, loads, removed)
    assert euler_trace_json(trace) == reference_dump(reference_euler_trace(trace))


profiles = st.builds(
    CapacityProfile,
    capacities=st.lists(st.integers(1, 2**62), max_size=4).map(tuple),
    window_start=st.integers(0, 5),
    default_capacity=st.integers(1, 2**62),
)


@st.composite
def toda_states(draw):
    q = draw(st.lists(st.integers(1, 2**62), min_size=1, max_size=5))
    e = draw(st.lists(st.integers(1, 2**62), min_size=len(q) - 1, max_size=len(q) - 1))
    return TodaState(
        Q=tuple(q), E=tuple(e), X0=draw(st.integers(0, 2**63 - 1)), profile=draw(profiles),
        time=draw(st.integers(0, 10**6)),
    )


@given(toda_states(), st.booleans())
@example(TodaState(Q=(3,), E=(), X0=0, profile=CapacityProfile()), True)  # empty E
@example(TodaState(Q=(1, 2), E=(4,), X0=2**62 - 3, profile=CapacityProfile()), False)
def test_toda_state_json_matches_the_dict_writer(state, profile):
    assert toda_state_json(state, profile, TodaText()) == reference_dump(
        reference_toda_state(state, profile)
    )


@given(
    st.lists(ints, max_size=5),
    st.lists(ints, max_size=5),
    st.lists(ints, max_size=5),
    st.lists(ints, max_size=5),
    ints,
    st.lists(ints, max_size=5),
    st.lists(ints, max_size=5),
)
@example([1], [], [2, 0], [1], 2**62, [1], [1])  # one soliton: no interior gaps
def test_toda_trace_json_matches_the_dict_writer(qbar, ebar, cbar, dbar, xbar0, k, lam):
    trace = TodaStepTrace(
        Qbar=tuple(qbar), Ebar=tuple(ebar), Cbar=tuple(cbar), Dbar=tuple(dbar), Xbar0=xbar0,
        K=tuple(k), Lam=tuple(lam),
    )
    assert toda_trace_json(trace, TodaText()) == reference_dump(reference_toda_trace(trace))


field_pools = st.lists(st.lists(ints, max_size=4).map(tuple), min_size=1, max_size=3)


@st.composite
def toda_record_runs(draw):
    """The (state, trace) of each record of one run.  Each field is drawn
    from a pool of at most three values of its own (the state's Q and E as
    a pair, N = 1 with E = () among them), so a field repeats, changes,
    changes back (A, B, A) and changes length, each on its own."""
    states = draw(st.lists(toda_states(), min_size=1, max_size=3))
    pools = {name: draw(field_pools) for name in ("Qbar", "Ebar", "Cbar", "Dbar", "K", "Lam")}
    run = []
    for _ in range(draw(st.integers(1, 8))):
        fields = {name: draw(st.sampled_from(pool)) for name, pool in pools.items()}
        trace = TodaStepTrace(Xbar0=draw(ints), **fields)
        run.append((draw(st.sampled_from(states)), trace))
    return run


def toda_record(q, e, trace_values):
    state = TodaState(Q=q, E=e, X0=1, profile=CapacityProfile())
    trace = TodaStepTrace(*trace_values[:4], 2, *trace_values[4:])
    return state, trace


ONE = toda_record((3,), (), ((3,), (), (1, 0), (3,), (1,), (1,)))
TWO = toda_record((2, 1), (4,), ((2, 1), (4,), (1, 1, 0), (2, 1), (1, 1), (1, 2)))


@given(toda_record_runs())
@example([ONE, TWO, ONE, ONE])  # N = 1 with E = (), then N = 2, and back
@example([TWO, toda_record((2, 1), (5,), ((2, 1), (5,), (1, 1, 0), (2, 1), (1, 1), (1, 2))),
          TWO])  # only E and Ebar change, and change back
def test_toda_records_of_a_run_match_the_dict_writer(run):
    text = TodaText()
    for i, (state, trace) in enumerate(run):
        first = i == 0
        assert toda_state_json(state, profile=first, last=text) == reference_dump(
            reference_toda_state(state, first)
        )
        assert toda_trace_json(trace, last=text) == reference_dump(reference_toda_trace(trace))


def test_a_toda_field_is_rendered_again_only_when_its_tuple_changes(monkeypatch):
    rendered = []

    def ints_text(values):
        rendered.append(tuple(values))
        return real(values)

    real = writers._ints
    monkeypatch.setattr(writers, "_ints", ints_text)
    text = TodaText()
    for state, trace in (ONE, TWO, TWO, ONE):
        # a copy, whose Q is an equal tuple but not the same object, is not
        # rendered again
        toda_state_json(replace(state), profile=True, last=text)
        toda_trace_json(trace, last=text)
    # in writing order; E = () is the text a fresh field starts from
    assert rendered == [
        (3,), (1, 0), (3,), (1,), (1,), (3,),  # ONE: Q, Cbar, Dbar, K, Lam, Qbar
        (4,), (2, 1), (1, 1, 0), (2, 1), (4,), (1, 1), (1, 2), (2, 1),  # TWO: all
        (), (3,), (1, 0), (3,), (), (1,), (1,), (3,),  # ONE again: all
    ]


@st.composite
def run_configs(draw):
    """Small simulate configs: box capacities up to 4 and carrier capacities
    of 4 or more, so no step raises CapacityViolation.  A Toda initial may
    still degenerate, which ends the run early on both sides."""
    profile = {
        "window_start": draw(st.integers(0, 3)),
        "capacities": draw(st.lists(st.integers(1, 4), max_size=8)),
        "default": draw(st.integers(1, 3)),
    }
    caps = CapacityProfile(
        capacities=profile["capacities"], window_start=profile["window_start"],
        default_capacity=profile["default"],
    )
    if draw(st.booleans()):
        counts = [draw(st.integers(0, caps.capacity(n))) for n in range(draw(st.integers(1, 10)))]
        if not any(counts):
            counts[-1] = 1
        initial = {"euler": {"counts": counts, "time": draw(st.integers(0, 5))}}
    else:
        q = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
        e = draw(st.lists(st.integers(1, 4), min_size=len(q) - 1, max_size=len(q) - 1))
        initial = {"toda": {"Q": q, "E": e, "X0": draw(st.integers(0, 6))}}
    m = st.one_of(st.just("inf"), st.integers(4, 7))
    return {
        "representation": draw(st.sampled_from(["euler", "toda", "both"])),
        "steps": draw(st.integers(1, 6)),
        "render": "json",
        "profile": profile,
        "schedule": {
            "entries": draw(st.dictionaries(st.integers(0, 12).map(str), m, max_size=3)),
            "default": draw(m),
        },
        "initial": initial,
    }


def config(representation, initial, steps=4, profile=None, schedule=None):
    return {
        "representation": representation, "steps": steps, "render": "json",
        "profile": profile or {}, "schedule": schedule or {}, "initial": initial,
    }


PAIR = {"toda": {"Q": [2, 1], "E": [3], "X0": 1}}


@given(run_configs())
@example(config("euler", PAIR, schedule={"entries": {"2": 1}}))
@example(config("toda", PAIR))
@example(config("both", PAIR, schedule={"entries": {"1": 2}, "default": 3}))
@example(config("both", {"toda": {"Q": [3], "E": [], "X0": 0}}))  # empty E
@example(config("euler", {"euler": {"counts": [2**62, 0, 2**62 - 1]}}, 3,  # no ball removed
                profile={"default": 2**62}))
@example(config("both", {"toda": {"Q": [2, 1], "E": [3], "X0": 2**62 - 9}}))
def test_simulate_records_match_the_dict_writer(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.json"
        path.write_text(json.dumps(cfg))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(["simulate", "--config", str(path)])
        expected = reference_records(parse_config(str(path)), cfg["steps"])
    assert out.getvalue().splitlines() == expected
