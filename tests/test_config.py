import json
import re

import pytest
from oracles import utoda_step, utoda_step_sumform

from boxball import POS_INF, CapacityProfile, EulerState, TauParams, TodaState, XInt
from boxball.cli import main
from boxball.config import (
    ConfigError,
    TodaText,
    euler_state_json,
    parse_config_dict,
    parse_euler_state,
    parse_profile,
    parse_schedule,
    parse_solution_params,
    parse_toda_state,
    profile_json,
    schedule_json,
    toda_state_json,
)
from boxball.geometry import CarrierSchedule
from boxball.toda import InconsistentPositions, lagrange_to_toda


def minimal_config():
    return {
        "representation": "euler",
        "steps": 3,
        "initial": {"euler": {"counts": [1, 0, 1]}},
    }


def test_minimal_config_parses():
    cfg = parse_config_dict(minimal_config())
    assert cfg.representation == "euler"
    assert cfg.steps == 3
    assert cfg.render == "ascii"
    assert cfg.euler.counts.tolist() == [1, 0, 1]
    assert cfg.schedule.default == POS_INF


def test_inf_in_schedule():
    s = parse_schedule({"entries": {"1": 6, "2": "inf"}, "default": "inf"})
    assert s.at(1) == XInt(6)
    assert s.at(2) == POS_INF
    assert s.at(5) == POS_INF


@pytest.mark.parametrize(
    "schedule, named",
    [
        ({"entries": {"3": "-inf"}}, "schedule.entries[3]"),
        ({"entries": {"3": -1}}, "schedule.entries[3]"),
        ({"default": "-inf"}, "schedule.default"),
        ({"default": -1}, "schedule.default"),
    ],
)
def test_negative_carrier_capacity_is_named(tmp_path, capsys, schedule, named):
    with pytest.raises(ConfigError, match=re.escape(named)):
        parse_schedule(schedule)
    path = tmp_path / "neg.json"
    path.write_text(json.dumps({**minimal_config(), "schedule": schedule}))
    assert main(["simulate", "--config", str(path)]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("key", ["01", "1_0", " 1", "+1", "-0", "1 "])
def test_schedule_key_not_written_as_schedule_json_writes_it_is_named(tmp_path, capsys, key):
    # "01" and "1" would both name t = 1, and the later key would win
    schedule = {"entries": {"1": 6, key: 2}}
    with pytest.raises(ConfigError, match=re.escape(f"schedule.entries key {key!r}")):
        parse_schedule(schedule)
    path = tmp_path / "key.json"
    path.write_text(json.dumps({**minimal_config(), "schedule": schedule}))
    assert main(["simulate", "--config", str(path)]) == 2
    assert f"schedule.entries key {key!r}" in capsys.readouterr().err


def test_unknown_key_is_named():
    cfg = minimal_config()
    cfg["renderr"] = "ascii"
    with pytest.raises(ConfigError, match="renderr"):
        parse_config_dict(cfg)
    with pytest.raises(ConfigError, match="colour"):
        parse_profile({"colour": 1})
    with pytest.raises(ConfigError, match="foo"):
        parse_schedule({"foo": {}})


def test_steps_must_be_positive():
    cfg = minimal_config()
    cfg["steps"] = 0
    with pytest.raises(ConfigError, match="steps"):
        parse_config_dict(cfg)


def test_exactly_one_initial():
    cfg = minimal_config()
    cfg["initial"]["toda"] = {"Q": [1], "E": [], "X0": 0}
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config_dict(cfg)
    cfg["initial"] = {}
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config_dict(cfg)


def test_solution_initial_owns_profile_and_schedule():
    cfg = {
        "representation": "toda",
        "steps": 2,
        "profile": {},
        "initial": {
            "solution": {
                "type": "tau",
                "params": {"P": [3], "W": [0], "Delta": 2},
            }
        },
    }
    with pytest.raises(ConfigError, match="profile"):
        parse_config_dict(cfg)
    del cfg["profile"]
    parsed = parse_config_dict(cfg)
    assert isinstance(parsed.toda, TodaState)


def test_toda_state_round_trip():
    p = CapacityProfile(capacities=(2, 3))
    st = parse_toda_state({"time": 1, "N": 2, "Q": [2, 1], "E": [3], "X0": 1}, p)
    out = json.loads(toda_state_json(st, True, TodaText()))
    assert out["Q"] == [2, 1] and out["N"] == 2 and out["profile"]["capacities"] == [2, 3]
    again = parse_toda_state(
        {k: out[k] for k in ("time", "N", "Q", "E", "X0")}, p
    )
    assert again == st
    with pytest.raises(ConfigError, match="N"):
        parse_toda_state({"N": 3, "Q": [2, 1], "E": [3], "X0": 1}, p)


def test_euler_state_round_trip():
    st = EulerState(counts=[1, 0, 1], profile=CapacityProfile(), time=2)
    sched = CarrierSchedule(entries={1: 6})
    out = json.loads(euler_state_json(st, sched))
    assert out["schedule"]["entries"] == {"1": 6}
    again = parse_euler_state(
        {k: out[k] for k in ("time", "window_start", "counts")},
        parse_profile(out["profile"]),
    )
    assert again == st
    assert json.dumps(schedule_json(sched), sort_keys=True) == json.dumps(
        schedule_json(sched), sort_keys=True
    )


def test_profile_json_round_trip():
    p = CapacityProfile(capacities=(3, 5), window_start=1, default_capacity=2)
    assert parse_profile(profile_json(p)) == p


def test_solution_params_validation():
    with pytest.raises(ConfigError, match="n_range"):
        parse_solution_params({"P": [1], "Xi": [0], "n_range": [5, 2]}, "euler")
    with pytest.raises(ConfigError, match="type"):
        parse_solution_params({"P": [1], "W": [0], "Delta": 1}, "hankel")
    spec = parse_solution_params(
        {"P": [1, 2], "Xi": [0, 3], "n_range": [-5, 20]}, "euler"
    )
    assert spec.n_range == (-5, 20)
    assert spec.params.profile.default_capacity == 1


def _with(**changes):
    return {**minimal_config(), **changes}


def _toda(**fields):
    return _with(initial={"toda": {"Q": [1], "E": [], "X0": 0, **fields}})


def _solution(kind, **params):
    return _with(initial={"solution": {"type": kind, "params": params}})


TAU = {"P": [2], "W": [0], "Delta": 1}
SCHEDULE = CarrierSchedule()


@pytest.mark.parametrize("case, expected", [
    # a config, as JSON text or a dict, and the one line `simulate` writes to stderr
    ("[]", "config must be a JSON object"),
    ("{", "{path}: invalid JSON: Expecting property name enclosed in double quotes: "
          "line 1 column 2 (char 1)"),
    ({"representation": "euler", "steps": 3}, "missing key(s) ['initial'] in config"),
    (_with(representation="lagrange"), "representation must be euler|toda|both, got 'lagrange'"),
    (_with(render="svg"), "render must be ascii|json|none, got 'svg'"),
    (_with(steps="3"), "steps must be an integer, got '3'"),
    (_with(profile={"capacities": 2}), "profile.capacities must be an array of integers"),
    (_with(profile={"capacities": ["a"]}), "profile.capacities[0] must be an integer, got 'a'"),
    (_with(schedule={"entries": [3]}), "schedule.entries must be an object mapping t to M"),
    (_with(schedule={"entries": {"a": 3}}), "schedule.entries key 'a' is not an integer"),
    (_with(initial={"euler": {"counts": [1], "time": 1.5}}),
     "initial.euler.time must be an integer, got 1.5"),
    (_toda(X0="a"), "initial.toda.X0 must be an integer, got 'a'"),
    (_toda(Q=[0]), "initial.toda: sizes and gaps must be >= 1"),
    (_solution("euler", P=[1], Xi=[0], N=2, n_range=[0, 9]),
     "initial.solution.params.N does not match len(P)"),
    (_solution("tau", **TAU, N=2), "initial.solution.params.N does not match len(P)"),
    (_solution("tau", **{**TAU, "Delta": "x"}),
     "initial.solution.params.Delta must be an integer, got 'x'"),
    # a call into the package, and the error it raises
    (lambda: EulerState(counts=[[1]], profile=CapacityProfile()),
     (ValueError, "counts must be one-dimensional")),
    (lambda: TauParams(P=(), W=(), Delta=1, schedule=SCHEDULE),
     (ValueError, "need 1..64 solitons")),
    (lambda: TauParams(P=(1,), W=(0, 0), Delta=1, schedule=SCHEDULE),
     (ValueError, "P and W must have equal length")),
    (lambda: TauParams(P=(-1,), W=(0,), Delta=1, schedule=SCHEDULE),
     (ValueError, "speeds P_i must be >= 0")),
    (lambda: utoda_step((1, 2), ()), (ValueError, "E lists the interior gaps only")),
    (lambda: utoda_step_sumform((1, 2), ()), (ValueError, "E lists the interior gaps only")),
    (lambda: lagrange_to_toda((0,), ()),
     (InconsistentPositions, "X and Y must both have N entries")),
])
def test_each_error_names_its_cause_once(tmp_path, capsys, case, expected):
    if callable(case):
        error, message = expected
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            case()
        return
    path = tmp_path / "bad.json"
    path.write_text(case if isinstance(case, str) else json.dumps(case))
    assert main(["simulate", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {expected.replace('{path}', str(path))}\n")
