import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from boxball import POS_INF, FiniteOverflow, XInt
from boxball.xint import INT64_MAX, INT64_MIN, decode_xint, encode_xint

capacities = st.one_of(st.integers(INT64_MIN, INT64_MAX).map(XInt), st.just(POS_INF))


def test_overflow_detected():
    with pytest.raises(FiniteOverflow):
        XInt(2**63)
    with pytest.raises(FiniteOverflow):
        XInt(-(2**63) - 1)
    assert XInt(2**63 - 1).finite == INT64_MAX
    assert XInt(-(2**63)).finite == INT64_MIN


def test_total_order():
    assert XInt(-(10**9)) < XInt(0) < XInt(10**9) < XInt(INT64_MAX) < POS_INF
    assert not POS_INF < POS_INF
    assert POS_INF <= POS_INF
    assert POS_INF > 10**9 and XInt(3) >= 3 and XInt(3) < 4
    assert min(POS_INF, XInt(5)) == 5


def test_finite_accessor():
    assert XInt(7).finite == 7
    assert XInt(-2).finite == -2
    assert POS_INF.is_pos_inf and not XInt(7).is_pos_inf
    with pytest.raises(ValueError):
        POS_INF.finite


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
    assert encode_xint(-3) == -3
    for bad in ("infinity", "-inf", 1.5, True):
        with pytest.raises(ValueError):
            decode_xint(bad)
