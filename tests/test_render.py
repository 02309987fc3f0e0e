from boxball import CapacityProfile, EulerState
from boxball.render import render_counts


def test_render_unit_counts():
    st = EulerState(counts=[1, 1, 1, 0, 0, 1], profile=CapacityProfile())
    assert render_counts(st) == "111..1"


def test_render_multi_capacity_counts():
    p = CapacityProfile(capacities=(3, 5))
    st = EulerState(counts=[2, 0], profile=p)
    assert render_counts(st) == "2."


def test_render_counts_start_at_box_zero():
    p = CapacityProfile(capacities=(2, 2), window_start=3)
    st = EulerState(counts=[0, 2], profile=p, window_start=3)
    assert render_counts(st) == "....2"
    assert render_counts(st, origin=3) == ".2"


def test_render_wide_counts_bracketed():
    p = CapacityProfile(capacities=(12, 3))
    st = EulerState(counts=[12, 0], profile=p)
    assert render_counts(st) == "[12]."
