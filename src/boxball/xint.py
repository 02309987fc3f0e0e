"""Carrier capacities: a finite signed 64-bit integer or +inf.

The carrier capacity M_t ranges over the nonnegative integers and +inf,
and +inf is the only infinity the package needs.  It is a distinct
object, not a sentinel integer, so it cannot leak into integer
arithmetic.  This module alone decides what a carrier capacity is
(`as_capacity`) and how +inf enters arithmetic: every other module reads
`bound`, the int or None for +inf.  There is no floating point anywhere.
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
    """An immutable int64 or +inf.  It has no order: a comparison or a sum
    goes through `bound`, so +inf is lowered one way only."""

    __slots__ = ("_v",)  # the int, or None for +inf

    def __init__(self, value: int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"XInt requires an int, got {type(value).__name__}")
        if not INT64_MIN <= value <= INT64_MAX:
            raise FiniteOverflow(f"finite value {value} outside signed 64-bit range")
        self._v = value

    @property
    def bound(self) -> Optional[int]:
        """The value as an upper bound: the int, or None for +inf."""
        return self._v

    @property
    def is_pos_inf(self) -> bool:
        return self._v is None

    @property
    def finite(self) -> int:
        """The integer value; raises on +inf."""
        if self._v is None:
            raise ValueError(f"{self} is not finite")
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

XIntLike = Union[XInt, int]


def as_xint(v: XIntLike) -> XInt:
    """Coerce a Python or numpy integer to XInt; XInt passes through."""
    if isinstance(v, XInt):
        return v
    if isinstance(v, bool) or not isinstance(v, Integral):
        raise TypeError(f"expected XInt or int, got {type(v).__name__}")
    return XInt(int(v))


def as_capacity(v: XIntLike) -> XInt:
    """A carrier capacity as XInt; raises ValueError below 0."""
    m = as_xint(v)
    if m._v is not None and m._v < 0:
        raise ValueError(f"carrier capacity must be >= 0 or +inf, got {m}")
    return m


def encode_xint(x: XIntLike) -> Union[int, str]:
    """JSON encoding: finite as a number, +inf as "inf"."""
    x = as_xint(x)
    return "inf" if x.is_pos_inf else x.finite


def decode_xint(obj) -> XInt:
    """Inverse of encode_xint; rejects anything else."""
    if obj == "inf":
        return POS_INF
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ValueError(f"expected an integer or \"inf\", got {obj!r}")
    return XInt(obj)
