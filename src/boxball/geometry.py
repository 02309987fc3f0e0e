"""Box capacities and their segment geometry, and carrier-capacity schedules.

Boxes are indexed 0, 1, 2, ...; box n holds at most a fixed number of balls
(its capacity).  Expanding every box into unit segments gives the segment
line: box n owns segments s_n .. s_{n+1}-1 where s_0 = 0 and s_{n+1} - s_n
is the capacity of box n.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from typing import Mapping, Tuple

import numpy as np

from .xint import INT64_MAX, INT64_MIN, POS_INF, FiniteOverflow, XInt, as_capacity, as_int


@dataclass(frozen=True)
class CapacityProfile:
    """Per-box capacities over an explicit window, a default elsewhere.

    `table()` is (caps, ws, we, d): the listed capacities, the window's
    first box, the box past its last, and the default capacity.  Box n
    holds caps[n - ws] if ws <= n < we else d.  Per-box loops bind the
    table once and read each box inline; `capacity`, `caps_array` and
    `max_capacity` read through it too.

    Also the segment geometry: box n owns segments s_n .. s_{n+1}-1.  Left
    of the window s_n = n*d, right of it s_n grows by d per box, so only
    the window's prefix sums are stored.
    """

    capacities: Tuple[int, ...] = ()
    window_start: int = 0
    default_capacity: int = 1

    def __post_init__(self):
        object.__setattr__(
            self, "capacities", tuple(as_int(c, "every capacities entry") for c in self.capacities)
        )
        object.__setattr__(self, "window_start", as_int(self.window_start, "window_start"))
        object.__setattr__(
            self, "default_capacity", as_int(self.default_capacity, "default_capacity")
        )
        if self.window_start < 0:
            raise ValueError("window_start must be >= 0")
        if not 1 <= self.default_capacity <= INT64_MAX:
            raise ValueError("default_capacity must be in 1 .. 2**63 - 1")
        if any(not 1 <= c <= INT64_MAX for c in self.capacities):
            raise ValueError("every box capacity must be in 1 .. 2**63 - 1")
        # s_n for n = window_start .. window_start + len(capacities)
        bounds = list(itertools.accumulate(
            self.capacities, initial=self.window_start * self.default_capacity
        ))
        object.__setattr__(self, "_bounds", bounds)
        caps, ws = self.capacities, self.window_start
        object.__setattr__(self, "_table", (caps, ws, ws + len(caps), self.default_capacity))

    def table(self) -> Tuple[Tuple[int, ...], int, int, int]:
        """(caps, ws, we, d): box n holds caps[n - ws] if ws <= n < we else d."""
        return self._table

    def capacity(self, n: int) -> int:
        caps, ws, we, d = self._table
        return caps[n - ws] if ws <= n < we else d

    def caps_array(self, start: int, count: int) -> np.ndarray:
        """Capacities of boxes start .. start+count-1 as int64."""
        caps, ws, we, d = self._table
        out = np.full(count, d, dtype=np.int64)
        lo = max(start, ws)
        hi = min(start + count, we)
        if lo < hi:
            out[lo - start : hi - start] = caps[lo - ws : hi - ws]
        return out

    def max_capacity(self, lo: int, hi: int) -> int:
        """The largest capacity of boxes lo .. hi-1 (lo < hi)."""
        caps, ws, we, d = self._table
        best = max(caps[max(lo - ws, 0) : max(hi - ws, 0)], default=0)
        if lo < ws or hi > we:
            best = max(best, d)
        return best

    def _segment(self, n: int) -> int:
        # s_n as a Python int, unchecked
        i = n - self.window_start
        b = self._bounds
        if i <= 0:
            return n * self.default_capacity
        if i < len(b):
            return b[i]
        return b[-1] + (i - len(b) + 1) * self.default_capacity

    def boundary(self, n: int) -> int:
        """s_n, the first segment of box n; raises FiniteOverflow when s_n
        is past the signed 64-bit range: a Toda record writes a segment as
        X0, and config reads X0 back only inside int64."""
        if n < 0:
            raise ValueError("boxes are indexed from 0")
        s = self._segment(n)
        if s > INT64_MAX:
            raise _past_int64(n, s)
        return s

    def last_box_filled(self, n: int, balls: int) -> int:
        """The box where `balls` > 0 balls poured into empty boxes from box n
        on, each filled to capacity, run out.  Exact at any size: the
        segment arithmetic is not bounded to int64 here."""
        return self.segment_to_box(self._segment(n) + balls - 1)

    def segment_capacity(self, segment: int) -> int:
        """capacity(segment_to_box(segment)) for segment >= 0, without the
        box index: left and right of the window every box holds d."""
        b = self._bounds
        if segment < b[0] or segment >= b[-1]:
            return self.default_capacity
        return self.capacities[bisect.bisect_right(b, segment) - 1]

    def segment_to_box(self, segment: int) -> int:
        """The box n with s_n <= segment < s_{n+1}."""
        if segment < 0:
            raise ValueError("segments are indexed from 0")
        b = self._bounds
        if segment < b[0]:
            return segment // self.default_capacity
        if segment >= b[-1]:
            return (
                self.window_start + len(b) - 1
                + (segment - b[-1]) // self.default_capacity
            )
        return self.window_start + bisect.bisect_right(b, segment) - 1


def _past_int64(n: int, s: int) -> FiniteOverflow:
    # the error for a segment boundary s_n = s past the int64 range
    return FiniteOverflow(f"segment boundary s_{n} = {s} is past the int64 range")


@dataclass(frozen=True)
class CarrierSchedule:
    """Carrier capacity per time step: the sweep from t to t+1 uses value at(t+1).

    Values are nonnegative integers or +inf; unspecified times fall back to
    the default (+inf unless overridden).
    """

    entries: Tuple[Tuple[int, XInt], ...] = ()
    default: XInt = POS_INF

    def __post_init__(self):
        raw = self.entries
        if isinstance(raw, Mapping):
            raw = raw.items()
        norm = [(as_int(t, "every entries time"), as_capacity(m)) for t, m in raw]
        norm = tuple(sorted(norm, key=lambda entry: entry[0]))  # XInt has no order
        object.__setattr__(self, "entries", norm)
        object.__setattr__(self, "default", as_capacity(self.default))
        for i, (t, _) in enumerate(norm):
            if not INT64_MIN <= t <= INT64_MAX:
                raise FiniteOverflow(f"schedule time {t} outside the signed 64-bit range")
            if i and norm[i - 1][0] == t:
                raise ValueError(f"schedule time {t} is listed twice")
        object.__setattr__(self, "_map", dict(norm))

    def at(self, t: int) -> XInt:
        return self._map.get(t, self.default)
