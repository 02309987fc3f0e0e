import pytest

from boxball import CapacityProfile, EulerState, expand, unit_profile
from boxball.expansion import BinarySeq
from boxball.render import render_ascii


def test_render_unit_counts():
    st = EulerState(counts=[1, 1, 1, 0, 0, 1], profile=unit_profile())
    assert render_ascii(st) == "111..1"


def test_render_multi_capacity_counts():
    p = CapacityProfile(capacities=(3, 5))
    st = EulerState(counts=[2, 0], profile=p)
    assert render_ascii(st) == "2."


def test_render_counts_start_at_box_zero():
    p = CapacityProfile(capacities=(2, 2), window_start=3)
    st = EulerState(counts=[0, 2], profile=p, window_start=3)
    assert render_ascii(st) == "....2"


def test_render_wide_counts_bracketed():
    p = CapacityProfile(capacities=(12, 3))
    st = EulerState(counts=[12, 0], profile=p)
    assert render_ascii(st) == "[12]."


def test_render_bits_with_separators():
    p = CapacityProfile(capacities=(2, 3))
    seq = BinarySeq(bits=[0, 1, 1, 1, 0], segment_start=0, profile=p)
    assert render_ascii(seq) == "01|110"


def test_render_expanded_state():
    p = CapacityProfile(capacities=(3, 5))
    seq = expand(EulerState(counts=[3, 2], profile=p))
    assert render_ascii(seq) == "111|11000"


def test_render_rejects_other_types():
    with pytest.raises(TypeError):
        render_ascii([1, 2, 3])
