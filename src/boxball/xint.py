"""Carrier capacities: an integer in 0 .. 2**63 - 1, or +inf.

The carrier capacity M_t ranges over the nonnegative integers and +inf,
and +inf is the only infinity the package needs.  It is a distinct
object, not a sentinel integer, so it cannot leak into integer
arithmetic.  This module alone decides what a carrier capacity is
(`XInt`) and how +inf enters arithmetic: every other module reads
`bound`, the int or None for +inf, or `int64_bound`, its stand-in in an
int64 array.  There is no floating point anywhere.
"""

from __future__ import annotations

from numbers import Integral
from typing import Optional, Union

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


class FiniteOverflow(OverflowError):
    """A finite value left the signed 64-bit range.

    Desk-scale runs never get close; wrapping silently would corrupt the
    differential tests, so the bound is checked wherever a value enters.
    """


class XInt:
    """An immutable capacity, 0 .. INT64_MAX or +inf, with no order: a
    comparison or a sum goes through `bound`, so +inf is lowered one way."""

    __slots__ = ("_v",)  # the int, or None for +inf

    def __init__(self, value: int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"XInt requires an int, got {type(value).__name__}")
        if value > INT64_MAX:
            raise FiniteOverflow(f"finite value {value} outside signed 64-bit range")
        if value < 0:
            raise ValueError(f"carrier capacity must be >= 0 or +inf, got {value}")
        self._v = value

    @property
    def bound(self) -> Optional[int]:
        """The value as an upper bound: the int, or None for +inf."""
        return self._v

    def __repr__(self) -> str:
        return "XInt(+inf)" if self._v is None else f"XInt({self._v})"

    def __eq__(self, other) -> bool:
        if isinstance(other, XInt):
            return self._v == other._v
        if isinstance(other, int) and not isinstance(other, bool):
            return self._v == other
        return NotImplemented

    def __hash__(self) -> int:
        # a finite XInt compares equal to the plain int, so hash like one
        return hash(self._v)


def int64_bound(m: XInt) -> int:
    """The bound as int64, +inf as INT64_MAX, since an int64 array cannot
    hold None: min(x, M) is x for both wherever x fits."""
    return INT64_MAX if m.bound is None else m.bound


def as_int(value, what: str) -> int:
    """The value as a Python int; raises ValueError naming `what` unless it
    is a Python or numpy integer (a bool is not)."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


POS_INF = object.__new__(XInt)
POS_INF._v = None


def as_capacity(v) -> XInt:
    """A carrier capacity as XInt: an XInt passes through, a Python or numpy
    integer goes through the XInt checks, and anything else raises TypeError."""
    if isinstance(v, XInt):
        return v
    if isinstance(v, bool) or not isinstance(v, Integral):
        raise TypeError(f"expected XInt or int, got {type(v).__name__}")
    return XInt(int(v))


def encode_xint(m: XInt) -> Union[int, str]:
    """JSON encoding: finite as a number, +inf as "inf"."""
    return "inf" if m.bound is None else m.bound


def decode_xint(obj) -> XInt:
    """Inverse of encode_xint; rejects anything else, a negative int too."""
    if obj == "inf":
        return POS_INF
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ValueError(f"expected an integer or \"inf\", got {obj!r}")
    return XInt(obj)
