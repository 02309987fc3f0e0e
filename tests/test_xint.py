import ast
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import boxball
from boxball import (
    POS_INF,
    CapacityProfile,
    CarrierSchedule,
    EulerSolitonParams,
    EulerState,
    FiniteOverflow,
    TauParams,
    XInt,
    euler_step,
    umkdv_residual,
)
from boxball.cli import main
from boxball.config import dump, parse_schedule
from boxball.difftest import DiffBounds, run_difftest
from boxball.xint import INT64_MAX, decode_xint, encode_xint, int64_bound

capacities = st.one_of(st.integers(0, INT64_MAX).map(XInt), st.just(POS_INF))


def test_overflow_detected():
    with pytest.raises(FiniteOverflow):
        XInt(2**63)
    # a carrier capacity has no negative values to overflow into
    with pytest.raises(ValueError, match=r"^carrier capacity must be >= 0 or \+inf, got -1$"):
        XInt(-1)
    assert XInt(2**63 - 1).bound == INT64_MAX
    assert XInt(0).bound == 0


def test_xint_has_no_order():
    # an order would lower +inf a second way, past XInt.bound
    for compare in (
        lambda: POS_INF < 5,
        lambda: 5 >= XInt(4),
        lambda: min(POS_INF, XInt(5)),
        lambda: sorted([XInt(2), XInt(1)]),
    ):
        with pytest.raises(TypeError):
            compare()


def test_bound_is_the_one_reader():
    assert XInt(7).bound == 7 and POS_INF.bound is None
    # the int64-array stand-in reads bound too
    assert int64_bound(XInt(7)) == 7 and int64_bound(POS_INF) == INT64_MAX
    assert {name for name in vars(XInt) if not name.startswith("_")} == {"bound"}


def test_equality_and_hash_match_plain_ints():
    assert XInt(4) == 4 and 4 == XInt(4) and XInt(4) != 5
    assert POS_INF != 4 and POS_INF != XInt(0)
    assert XInt(5) != 2**70  # out of int64 range: unequal, not an error
    assert {XInt(4): "a"}[4] == "a"
    assert len({XInt(4), 4, POS_INF, POS_INF}) == 2


def test_rejects_non_ints():
    with pytest.raises(TypeError):
        XInt(1.5)
    with pytest.raises(TypeError):
        XInt(True)


@given(capacities)
def test_json_round_trip(x):
    assert decode_xint(json.loads(json.dumps(encode_xint(x)))) == x


def test_json_encoding_values():
    assert encode_xint(POS_INF) == "inf"
    assert encode_xint(XInt(12)) == 12
    assert encode_xint(XInt(0)) == 0
    for bad in ("infinity", "-inf", 1.5, True, -1):
        with pytest.raises(ValueError):
            decode_xint(bad)


UNIT = CapacityProfile()
NO_CARRIER = CarrierSchedule()


def _raised(build):
    with pytest.raises(ValueError) as info:
        build()
    return str(info.value)


def _residual_at(m):
    before = EulerState(counts=[1, 1, 0, 1], profile=UNIT)
    after, trace = euler_step(before, NO_CARRIER)
    return umkdv_residual(before, after, trace, m)


def _difftest_error(capsys):
    assert main(["difftest", "--cases", "2", "--m-choices=-1"]) == 2
    return capsys.readouterr().err


@pytest.mark.parametrize(
    "error, named",
    [
        (lambda _: _raised(lambda: XInt(-1)), ""),
        (lambda _: _raised(lambda: CarrierSchedule(entries={1: -1})), ""),
        (lambda _: _raised(lambda: CarrierSchedule(default=-1)), ""),
        (lambda _: _raised(lambda: DiffBounds(m_choices=(-1,))), ""),
        (lambda _: _raised(lambda: _residual_at(-1)), ""),
        (lambda _: _raised(lambda: decode_xint(-1)), ""),
        (lambda _: _raised(lambda: parse_schedule({"entries": {"1": -1}})), "schedule.entries[1]"),
        (_difftest_error, "--m-choices"),
    ],
    ids=["XInt", "schedule-entry", "schedule-default", "difftest-bounds", "umkdv_residual",
         "decode_xint", "config-entry", "cli-m-choices"],
)
def test_every_entry_point_gives_the_one_capacity_rule(capsys, error, named):
    text = error(capsys)
    assert "carrier capacity must be >= 0 or +inf, got -1" in text and named in text


@pytest.mark.parametrize(
    "build, field",
    [
        # boundary(3) read 5.5 with the capacities truncated to (1, 2)
        (lambda: CapacityProfile(capacities=(1.5, 2), default_capacity=2), "capacities"),
        (lambda: CapacityProfile(capacities=(1, 2), default_capacity=2.5), "default_capacity"),
        # boundary(2) read 2.0
        (lambda: CapacityProfile(window_start=0.5), "window_start"),
        # the entry was keyed at t = 1
        (lambda: CarrierSchedule(entries={1.5: 3}), "entries time"),
        (lambda: EulerState(counts=[1], profile=UNIT, time=0.5), "time"),
        # held the pair (0.5, 1)
        (lambda: EulerState(counts=[1], profile=UNIT, window_start=0.5), "window_start"),
        # put the ball in box 1
        (lambda: EulerState(counts=[1], profile=UNIT, window_start=True), "window_start"),
        (lambda: EulerSolitonParams(P=(1.5,), Xi=(0,), profile=UNIT, schedule=NO_CARRIER), "P_i"),
        (lambda: EulerSolitonParams(P=(1,), Xi=(0.7,), profile=UNIT, schedule=NO_CARRIER), "Xi_i"),
        (lambda: TauParams(P=(1,), W=(0,), Delta=1.5, schedule=NO_CARRIER), "Delta"),
        # became W = (0,)
        (lambda: TauParams(P=(1,), W=(0.5,), Delta=1, schedule=NO_CARRIER), "W_i"),
        # each ran and wrote the float or bool into the report
        (lambda: DiffBounds(window=2.5), "window"),
        (lambda: DiffBounds(max_delta=True), "max_delta"),
        (lambda: DiffBounds(steps=1.5), "steps"),
        (lambda: run_difftest(True, 0), "cases"),
        (lambda: run_difftest(1, 0.5), "seed"),
    ],
    ids=[
        "profile-capacities", "profile-default", "profile-window_start", "schedule-time",
        "euler-time", "euler-window_start", "euler-window_start-bool", "soliton-P",
        "soliton-Xi", "tau-Delta", "tau-W", "bounds-window", "bounds-max_delta",
        "bounds-steps", "difftest-cases", "difftest-seed",
    ],
)
def test_constructors_reject_non_integers(build, field):
    with pytest.raises(ValueError, match=f"{field}.* must be an integer"):
        build()


def test_constructors_take_numpy_integers_as_python_ints():
    i = np.int64
    profile = CapacityProfile(capacities=(i(2), np.int32(1)), window_start=i(1),
                              default_capacity=np.uint8(3))
    assert profile == CapacityProfile(capacities=(2, 1), window_start=1, default_capacity=3)
    assert profile.boundary(3) == 6
    schedule = CarrierSchedule(entries={i(2): 3})
    assert schedule.entries == ((2, 3),) and schedule.at(2) == 3
    # carrier capacities too: entries, the default, difftest
    capacities = [
        CarrierSchedule(entries={1: i(3)}).at(1).bound,
        CarrierSchedule(default=np.uint16(3)).default.bound,
        CarrierSchedule(default=np.int32(3)).default.bound,
    ]
    assert capacities == [3, 3, 3] and all(type(v) is int for v in capacities)
    assert run_difftest(2, 0, DiffBounds(m_choices=(i(6),))).ok
    # the report is written by json, which takes no numpy integer
    report = run_difftest(i(2), i(0), DiffBounds(window=i(8), max_delta=i(3), steps=np.int32(2)))
    plain = run_difftest(2, 0, DiffBounds(window=8, max_delta=3, steps=2))
    assert dump(report.to_json_dict()) == dump(plain.to_json_dict())
    bounds = report.bounds
    assert all(type(v) is int for v in (report.cases, report.seed, bounds.window,
                                        bounds.max_delta, bounds.steps))
    for bad in (3.0, np.float64(3), True, np.bool_(True), "3"):
        with pytest.raises(TypeError):
            CarrierSchedule(default=bad)
    state = EulerState(counts=[1], profile=UNIT, time=i(4), window_start=np.int16(2))
    assert (state.time, state.occupied) == (4, ((2, 1),))
    soliton = EulerSolitonParams(P=(i(1),), Xi=(i(-2),), profile=UNIT, schedule=NO_CARRIER)
    tau = TauParams(P=(i(1),), W=(i(5),), Delta=i(2), schedule=NO_CARRIER)
    assert (soliton.P, soliton.Xi, tau.P, tau.W, tau.Delta) == ((1,), (-2,), (1,), (5,), 2)
    values = [*profile.capacities, profile.window_start, profile.default_capacity,
              schedule.entries[0][0], state.time, *state.occupied[0], *soliton.P, *soliton.Xi,
              *tau.P, *tau.W, tau.Delta]
    assert all(type(v) is int for v in values)


def test_no_floating_point_in_the_package():
    # the one float is difftest's wall-clock `elapsed`, a diagnostic that is
    # never serialized
    src = Path(boxball.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found += [(path.name, a.name) for a in node.names if a.name == "math"]
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                found.append((path.name, "math"))
            elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append((path.name, node.value))
    assert found == [("difftest.py", 0.0)]
    assert "elapsed: float = 0.0" in (src / "difftest.py").read_text()


def test_only_xint_lowers_a_carrier_capacity():
    # +inf enters integer arithmetic one way, as XInt.bound; a second
    # reader (the old is_pos_inf or finite), a second coercion (the old
    # as_xint and its XIntLike), or a shared private helper could lower it a way that the
    # others do not see
    src = Path(boxball.__file__).parent
    reads, coerce, private = [], [], []
    for path in sorted([*src.glob("*.py"), *Path(__file__).parent.glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("is_pos_inf", "finite"):
                reads.append(path.name)
            elif {"as_xint", "XIntLike"} & {getattr(node, k, None) for k in ("id", "attr", "name")}:
                # a name, attribute, import or definition
                coerce.append(path.name)
            elif isinstance(node, ast.ImportFrom) and node.level:
                private += [(path.name, a.name) for a in node.names if a.name.startswith("_")]
    assert reads == coerce == []
    assert not {"is_pos_inf", "finite", "as_xint"} & set(vars(XInt))
    # an order on XInt would be a lowering that never reads bound
    assert not {"__lt__", "__le__", "__gt__", "__ge__"} & set(vars(XInt))
    # the kernels module, the trusted-record helper, and the segment-boundary overflow error
    assert private == [
        ("euler.py", "_kernels"), ("expansion.py", "_past_int64"), ("toda.py", "_record"),
        ("toda.py", "_past_int64"),
    ]


def test_one_helper_builds_records_past_their_constructors():
    # entry points validate and the maps behind them build their outputs
    # through euler._record; a second way past a validating constructor
    # would be a second place to keep in step with the invariants
    src = Path(boxball.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            name = getattr(stmt, "name", None) or ast.unparse(getattr(stmt, "targets", [stmt])[0])
            found += [
                (path.name, name) for node in ast.walk(stmt)
                if isinstance(node, ast.Attribute) and node.attr == "__new__"
            ]
    assert found == [("euler.py", "_record"), ("xint.py", "POS_INF")]
