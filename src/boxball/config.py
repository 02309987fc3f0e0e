"""Strict JSON configuration and state (de)serialization.

Unknown keys are rejected everywhere so a typo never silently changes a
run.  Integers encode as JSON numbers; an unbounded carrier capacity
encodes as the string "inf".

The state and trace writers return record text, compact and key-sorted as
`dump` writes it, built directly from the ints so that a simulate step
builds no dict for json.dumps.  The Toda writers also take a run's
`TodaText`, which keeps each int field's last tuple and its text, so a
field whose tuple repeats from the step before is not rendered again.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from .euler import EulerState, EulerStepTrace
from .geometry import CapacityProfile, CarrierSchedule
from .solutions import EulerSolitonParams, TauParams, euler_nsoliton, tau_toda_state
from .toda import TodaState, TodaStepTrace, from_euler, to_euler
from .xint import INT64_MAX, INT64_MIN, FiniteOverflow, XInt, decode_xint, encode_xint


class ConfigError(ValueError):
    """Malformed configuration, with the offending key or field named."""


def _named(where: str, build, **fields):
    """build(**fields), with the ValueError a library constructor raises for
    a bad value turned into a ConfigError naming where the value came from."""
    try:
        return build(**fields)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _check_keys(obj: dict, where: str, allowed: set, required: set) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}")
    missing = sorted(required - set(obj))
    if missing:
        raise ConfigError(f"missing key(s) {missing} in {where}")


def dump(obj) -> str:
    """Compact key-sorted JSON: the text of every record boxball writes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _ints(values) -> str:
    # the text dump(list(values)) writes for ints
    return f"[{','.join(map(str, values))}]"


def _pairs(pairs) -> str:
    # the text dump(pairs) writes for (box, value) pairs of ints
    return f"[{','.join([f'[{b},{v}]' for b, v in pairs])}]"


def _int(obj, where: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ConfigError(f"{where} must be an integer, got {obj!r}")
    if not INT64_MIN <= obj <= INT64_MAX:
        raise ConfigError(f"{where} must lie in the signed 64-bit range, got {obj}")
    return obj


def parse_range(text: str, what: str) -> Tuple[int, int]:
    """An A:B command-line range of int64 values with A <= B."""
    try:
        lo, hi = map(int, text.split(":"))
    except ValueError:
        raise ConfigError(f"{what} must look like A:B") from None
    if _int(lo, what) > _int(hi, what):
        raise ConfigError(f"{what}: need A <= B")
    return lo, hi


def parse_capacities(text: str, what: str) -> Tuple[XInt, ...]:
    """A command-line comma list of carrier capacities, integers or inf."""
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if not parts:
        raise ConfigError(f"{what} must name at least one capacity")
    try:
        values = [part if part == "inf" else int(part) for part in parts]
    except ValueError as exc:
        raise ConfigError(f"{what} takes integers >= 0 or inf: {exc}") from None
    return tuple(_capacity(value, what) for value in values)


def _int_list(obj, where: str) -> Tuple[int, ...]:
    if not isinstance(obj, list):
        raise ConfigError(f"{where} must be an array of integers")
    return tuple(_int(v, f"{where}[{i}]") for i, v in enumerate(obj))


def parse_profile(obj, where: str = "profile") -> CapacityProfile:
    _check_keys(obj, where, {"window_start", "capacities", "default"}, set())
    caps = _int_list(obj.get("capacities", []), f"{where}.capacities")
    start = _int(obj.get("window_start", 0), f"{where}.window_start")
    default = _int(obj.get("default", 1), f"{where}.default")
    return _named(
        where, CapacityProfile, capacities=caps, window_start=start, default_capacity=default
    )


def profile_json(profile: CapacityProfile) -> dict:
    return {
        "window_start": profile.window_start,
        "capacities": list(profile.capacities),
        "default": profile.default_capacity,
    }


def _capacity(obj, where: str) -> XInt:
    try:
        return decode_xint(obj)
    except (ValueError, FiniteOverflow) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse_schedule(obj, where: str = "schedule") -> CarrierSchedule:
    _check_keys(obj, where, {"entries", "default"}, set())
    entries = obj.get("entries", {})
    if not isinstance(entries, dict):
        raise ConfigError(f"{where}.entries must be an object mapping t to M")
    parsed = {}
    for key, val in entries.items():
        try:
            t = int(key)
        except ValueError:
            raise ConfigError(f"{where}.entries key {key!r} is not an integer") from None
        if key != str(t):  # one spelling per time, so no two keys name one time
            raise ConfigError(f"{where}.entries key {key!r} must be written {str(t)!r}")
        t = _int(t, f"{where}.entries key {key!r}")
        parsed[t] = _capacity(val, f"{where}.entries[{key}]")
    default = _capacity(obj.get("default", "inf"), f"{where}.default")
    return CarrierSchedule(entries=parsed, default=default)


def schedule_json(schedule: CarrierSchedule) -> dict:
    return {
        "entries": {str(t): encode_xint(m) for t, m in schedule.entries},
        "default": encode_xint(schedule.default),
    }


def parse_euler_state(obj, profile: CapacityProfile, where: str = "initial.euler") -> EulerState:
    _check_keys(obj, where, {"time", "window_start", "counts"}, {"counts"})
    counts = _int_list(obj["counts"], f"{where}.counts")
    time = _int(obj.get("time", 0), f"{where}.time")
    start = _int(obj.get("window_start", 0), f"{where}.window_start")
    return _named(where, EulerState, counts=counts, profile=profile, time=time, window_start=start)


def euler_state_json(state: EulerState, schedule: Optional[CarrierSchedule] = None) -> str:
    """The state as record text: counts dense from window_start, and the
    profile and the schedule when the schedule is given.

    The counts are written from the occupied boxes, one "0," string per run
    of empty ones, so the Python work follows the balls, not the window."""
    parts = []
    box = state.window_start
    for n, u in state.occupied:
        parts.append(f"{'0,' * (n - box)}{u},")
        box = n + 1
    parts.append("0," * (state.window_end - box))
    text = f'{{"counts":[{"".join(parts)[:-1]}]'
    if schedule is not None:
        text += f',"profile":{dump(profile_json(state.profile))}'
        text += f',"schedule":{dump(schedule_json(schedule))}'
    return f'{text},"time":{state.time},"window_start":{state.window_start}}}'


def euler_trace_json(trace: EulerStepTrace) -> str:
    """The trace's [box, value] pairs of its nonzero entries, as they are."""
    return (
        f'{{"carrier_loads":{_pairs(trace.carrier_loads)},'
        f'"limited_counts":{_pairs(trace.limited_counts)},'
        f'"removed":{_pairs(trace.removed)}}}'
    )


def parse_toda_state(obj, profile: CapacityProfile, where: str = "initial.toda") -> TodaState:
    _check_keys(obj, where, {"time", "N", "Q", "E", "X0"}, {"Q", "E", "X0"})
    q = _int_list(obj["Q"], f"{where}.Q")
    e = _int_list(obj["E"], f"{where}.E")
    if "N" in obj and _int(obj["N"], f"{where}.N") != len(q):
        raise ConfigError(f"{where}.N does not match len(Q)")
    x0 = _int(obj["X0"], f"{where}.X0")
    time = _int(obj.get("time", 0), f"{where}.time")
    return _named(where, TodaState, Q=q, E=e, X0=x0, profile=profile, time=time)


class _FieldText:
    """One int field's last tuple and its text."""

    __slots__ = ("values", "text")

    def __init__(self):
        self.values = ()
        self.text = "[]"

    def of(self, values: Tuple[int, ...]) -> str:
        # renders only a tuple not equal by value to the last one
        if values != self.values:
            self.values = values
            self.text = _ints(values)
        return self.text


class TodaText:
    """The text state of one run's Toda records: for Q and E of the state
    and Qbar, Ebar, Cbar, Dbar, K and Lam of the trace, the last tuple
    written and its text.  Solitons keep their sizes once they separate,
    and the capacities they meet stay the same within one capacity
    regime, so most of these fields repeat from one step to the next."""

    __slots__ = ("Q", "E", "Qbar", "Ebar", "Cbar", "Dbar", "K", "Lam")

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, _FieldText())


def toda_state_json(state: TodaState, profile: bool, last: TodaText) -> str:
    """The state as record text, with the profile when `profile`; `last`
    is the run's TodaText."""
    text = f'{{"E":{last.E.of(state.E)},"N":{state.N},"Q":{last.Q.of(state.Q)},"X0":{state.X0}'
    if profile:
        text += f',"profile":{dump(profile_json(state.profile))}'
    return f'{text},"time":{state.time}}}'


def toda_trace_json(trace: TodaStepTrace, last: TodaText) -> str:
    """The trace as record text; `last` is the run's TodaText."""
    return (
        f'{{"Cbar":{last.Cbar.of(trace.Cbar)},"Dbar":{last.Dbar.of(trace.Dbar)},'
        f'"Ebar":{last.Ebar.of(trace.Ebar)},"K":{last.K.of(trace.K)},'
        f'"Lam":{last.Lam.of(trace.Lam)},"Qbar":{last.Qbar.of(trace.Qbar)},'
        f'"Xbar0":{trace.Xbar0}}}'
    )


SolutionParams = Union[EulerSolitonParams, TauParams]


@dataclass(frozen=True)
class SolutionSpec:
    params: SolutionParams
    n_range: Optional[Tuple[int, int]] = None  # euler kind only
    x0: int = 0  # tau kind only: anchor for a size-coordinate initial state


def parse_solution_params(obj, kind: str, where: str = "params") -> SolutionSpec:
    if kind == "euler":
        _check_keys(
            obj, where, {"N", "P", "Xi", "profile", "schedule", "n_range"}, {"P", "Xi"}
        )
        profile = parse_profile(obj.get("profile", {}), f"{where}.profile")
        schedule = parse_schedule(obj.get("schedule", {}), f"{where}.schedule")
        p = _int_list(obj["P"], f"{where}.P")
        xi = _int_list(obj["Xi"], f"{where}.Xi")
        if "N" in obj and _int(obj["N"], f"{where}.N") != len(p):
            raise ConfigError(f"{where}.N does not match len(P)")
        n_range = None
        if "n_range" in obj:
            pair = _int_list(obj["n_range"], f"{where}.n_range")
            if len(pair) != 2 or pair[0] > pair[1]:
                raise ConfigError(f"{where}.n_range must be [lo, hi] with lo <= hi")
            n_range = (pair[0], pair[1])
        params = _named(where, EulerSolitonParams, P=p, Xi=xi, profile=profile, schedule=schedule)
        return SolutionSpec(params=params, n_range=n_range)
    if kind == "tau":
        _check_keys(obj, where, {"N", "P", "W", "Delta", "schedule", "X0"}, {"P", "W", "Delta"})
        schedule = parse_schedule(obj.get("schedule", {}), f"{where}.schedule")
        p = _int_list(obj["P"], f"{where}.P")
        w = _int_list(obj["W"], f"{where}.W")
        if "N" in obj and _int(obj["N"], f"{where}.N") != len(p):
            raise ConfigError(f"{where}.N does not match len(P)")
        delta = _int(obj["Delta"], f"{where}.Delta")
        params = _named(where, TauParams, P=p, W=w, Delta=delta, schedule=schedule)
        return SolutionSpec(params=params, x0=_int(obj.get("X0", 0), f"{where}.X0"))
    raise ConfigError(f"solution type must be \"euler\" or \"tau\", got {kind!r}")


@contextmanager
def n_range_fits(key: str, lo: int, hi: int):
    """Turn a MemoryError raised while a closed form is evaluated over
    boxes lo .. hi into a ConfigError naming the n_range key: the listing
    and the simulate initial hold dense arrays over the whole range, and
    every evaluator refuses a range whose dense block numpy cannot size.
    The verifier holds only the span of the live entries."""
    try:
        yield
    except MemoryError as exc:
        raise ConfigError(
            f"{key} [{lo}, {hi}] spans {hi - lo + 1} boxes, more than memory "
            f"holds for the closed form's arrays over them"
        ) from exc


def _solution_initial(spec: SolutionSpec, where: str) -> Union[EulerState, TodaState]:
    """The solution at t=0 as a state to evolve: the counts over n_range for
    the euler kind, the sizes and gaps anchored at X0 for the tau kind."""
    params = spec.params
    if isinstance(params, TauParams):
        ts = tau_toda_state(params, 0)
        profile = CapacityProfile(default_capacity=params.Delta)
        bad = f"{where}: the state at t=0 is not valid"  # e.g. a size Q_n = 0 from P_i = 0
        return _named(bad, TodaState, Q=ts.Q, E=ts.E, X0=spec.x0, profile=profile)
    if spec.n_range is None:
        raise ConfigError(f"{where}: a counts-level solution initial needs n_range")
    lo, hi = spec.n_range
    if lo < 0:  # before the slice is evaluated, whose arrays span n_range
        raise ConfigError(f"{where}.n_range must start at box 0 or later, got {lo}")
    with n_range_fits(f"{where}.n_range", lo, hi):
        counts = euler_nsoliton(params, lo, hi, 0).U
    # not valid with a count below 0 or above its box's capacity
    bad = f"{where}.n_range: the state at t=0 is not valid"
    state = _named(bad, EulerState, counts=counts, profile=params.profile, window_start=lo)
    if counts[0] != 0 or counts[-1] != 0:
        raise ConfigError(f"{where}.n_range: the state at t=0 has a ball at an end; widen it")
    return state


@dataclass(frozen=True)
class RunConfig:
    representation: str  # euler | toda | both
    steps: int
    render: str  # ascii | json | none
    schedule: CarrierSchedule
    # each picture's starting state; None for one the representation does not step
    euler: Optional[EulerState]
    toda: Optional[TodaState]


_TOP_KEYS = {
    "representation",
    "steps",
    "render",
    "profile",
    "schedule",
    "initial",
}


def parse_config_dict(data: dict) -> RunConfig:
    _check_keys(data, "config", _TOP_KEYS, {"representation", "steps", "initial"})
    rep = data["representation"]
    if rep not in ("euler", "toda", "both"):
        raise ConfigError(f"representation must be euler|toda|both, got {rep!r}")
    steps = _int(data["steps"], "steps")
    if steps < 1:
        raise ConfigError("steps must be >= 1")
    render = data.get("render", "ascii")
    if render not in ("ascii", "json", "none"):
        raise ConfigError(f"render must be ascii|json|none, got {render!r}")

    initial = data["initial"]
    _check_keys(initial, "initial", {"euler", "toda", "solution"}, set())
    given = [k for k in ("euler", "toda", "solution") if k in initial]
    if len(given) != 1:
        raise ConfigError("initial must contain exactly one of euler|toda|solution")

    if given[0] == "solution":
        sol_obj = initial["solution"]
        _check_keys(sol_obj, "initial.solution", {"type", "params"}, {"type", "params"})
        where = "initial.solution.params"
        spec = parse_solution_params(sol_obj["params"], sol_obj["type"], where)
        if "profile" in data or "schedule" in data:
            raise ConfigError(
                "with a solution initial, profile and schedule come from the "
                "solution params; remove the top-level keys"
            )
        schedule = spec.params.schedule
        state = _solution_initial(spec, where)
    else:
        profile = parse_profile(data.get("profile", {}))
        schedule = parse_schedule(data.get("schedule", {}))
        parse_state = parse_euler_state if given[0] == "euler" else parse_toda_state
        state = parse_state(initial[given[0]], profile)
    euler, toda = (state, None) if isinstance(state, EulerState) else (None, state)
    if rep != "toda" and euler is None:
        euler = to_euler(toda)
    if rep != "euler" and toda is None:
        if not euler.occupied:  # a Toda state holds at least one soliton
            raise ConfigError(f"initial: the line holds no ball; representation {rep} needs one")
        toda = from_euler(euler)
    return RunConfig(
        representation=rep, steps=steps, render=render, schedule=schedule,
        euler=None if rep == "toda" else euler, toda=None if rep == "euler" else toda,
    )


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:  # missing, a directory, unreadable
        raise ConfigError(f"{path}: cannot read: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc


def parse_config(path: str) -> RunConfig:
    return parse_config_dict(_load_json(path))


def parse_solution_file(path: str, kind: str) -> SolutionSpec:
    return parse_solution_params(_load_json(path), kind, where="params")
