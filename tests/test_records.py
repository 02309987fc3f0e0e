"""The record writers against the dense writers they replaced.

`euler_state_json` and `render_counts` write from the occupied boxes; the
references below read the dense `counts` view box by box, as the writers
did before, and every output must match them byte for byte.
"""

import json
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from boxball import POS_INF, CapacityProfile, CarrierSchedule, EulerState, XInt
from boxball.cli import main
from boxball.config import euler_state_json, profile_json, schedule_json
from boxball.render import render_counts

SHOWCASE = Path(__file__).resolve().parents[1] / "configs" / "showcase.json"


def reference_euler_state_json(state, schedule=None, profile=True):
    out = {
        "time": state.time,
        "window_start": state.window_start,
        "counts": state.counts.tolist(),
    }
    if profile:
        out["profile"] = profile_json(state.profile)
    if schedule is not None:
        out["schedule"] = schedule_json(schedule)
    return json.dumps(out, sort_keys=True, separators=(",", ":"))


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


@given(states(), schedules, st.booleans())
@example(state_from(0, 0, [], 0), None, True)  # empty window
@example(state_from(4, 3, [], 2), CarrierSchedule(), False)  # nothing but empty boxes
@example(state_from(6, 2, [2**62, 0, 10], 3), None, False)
def test_euler_state_json_matches_the_dense_writer(state, schedule, profile):
    assert euler_state_json(state, schedule, profile) == reference_euler_state_json(
        state, schedule, profile
    )


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
