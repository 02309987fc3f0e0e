"""Euler picture: the state is the ball count per box.

One time step is a single carrier sweep from left to right.  The carrier
empties each box it passes and refills the freed space from what it was
holding on arrival; whenever its load would exceed the step's carrier
capacity the excess is trimmed away, and after the sweep every trimmed ball
is restored to the box it was taken from.

A state holds only its occupied boxes, so a step, its trace, its checks
and its oracles cost O(occupied and carried boxes), however far apart the
balls are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import _kernels
from .geometry import CapacityProfile, CarrierSchedule
from .xint import INT64_MAX, FiniteOverflow, XInt, as_capacity, as_int

# The most boxes a window may span: the longest int64 array numpy can
# allocate, whose byte size must fit a signed 64-bit integer.
MAX_SPAN = INT64_MAX // 8

Pairs = Tuple[Tuple[int, int], ...]


class WindowOverflow(RuntimeError):
    """The ball-by-ball oracle's carrier still loaded when its walk stops.

    The oracle walks the occupied boxes until its carrier is empty past
    the last ball, and stops at box `last ball + total balls` at the latest.
    Each box past the last ball takes at least one carried ball, so the
    carrier is provably empty by then; this is an internal bug guard.
    """


@dataclass(frozen=True, eq=False, init=False, repr=False)
class EulerState:
    """Ball counts on boxes; zero everywhere else.

    `occupied` lists the occupied boxes as ascending (box, count) pairs with
    count > 0; nothing else is stored.  The window [window_start,
    window_end) holds them all, spans at most MAX_SPAN boxes, and is what
    the dense `counts` view covers.
    """

    occupied: Pairs
    profile: CapacityProfile
    time: int
    window_start: int
    window_end: int

    def __init__(self, counts, profile: CapacityProfile, time: int = 0, window_start: int = 0):
        """From counts dense from box window_start, Python or numpy integers."""
        raw = np.asarray(counts)
        if raw.ndim != 1:
            raise ValueError("counts must be one-dimensional")
        # an int64 cast would truncate floats and parse strings
        if raw.size and raw.dtype.kind not in "iu":
            raise ValueError(f"counts must be int64 integers, got {raw.dtype.name} entries")
        c = raw.astype(np.int64, copy=False)
        time = as_int(time, "time")
        window_start = as_int(window_start, "window_start")
        if window_start < 0:
            raise ValueError("window_start must be >= 0")
        nz = np.flatnonzero(c).tolist()
        values = c[nz].tolist()
        boxes = [window_start + i for i in nz]
        if any(not 0 < u <= profile.capacity(n) for n, u in zip(boxes, values)):
            raise ValueError("counts must satisfy 0 <= U_n <= capacity(n)")
        # the int64 sums over the dense counts would wrap
        total = sum(values)
        if total > INT64_MAX:
            raise FiniteOverflow(f"ball total {total} is past the int64 range")
        self.__dict__.update(  # past the frozen __setattr__, in one call
            occupied=tuple(zip(boxes, values)), profile=profile, time=time,
            window_start=window_start, window_end=window_start + len(c),
        )

    @classmethod
    def _trusted(
        cls, occupied: Pairs, profile: CapacityProfile, time: int, window_start: int,
        window_end: int,
    ) -> "EulerState":
        # for kernel outputs, whose other invariants hold by construction
        if window_end - window_start > MAX_SPAN:
            raise FiniteOverflow(
                f"boxes {window_start} .. {window_end - 1} span "
                f"{window_end - window_start} boxes, more than an int64 array "
                f"can hold ({MAX_SPAN})"
            )
        return _record(
            cls, occupied=occupied, profile=profile, time=time,
            window_start=window_start, window_end=window_end,
        )

    @property
    def counts(self) -> np.ndarray:
        """Read-only int64 counts dense over the window, built on each read."""
        c = np.zeros(self.window_end - self.window_start, dtype=np.int64)
        for n, u in self.occupied:
            c[n - self.window_start] = u
        c.setflags(write=False)
        return c

    @property
    def total_balls(self) -> int:
        return sum(u for _, u in self.occupied)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EulerState):
            return NotImplemented
        return (
            self.time == other.time
            and self.profile == other.profile
            and same_occupancy(self, other)
        )

    def __repr__(self) -> str:
        return (
            f"EulerState(t={self.time}, window=[{self.window_start}, "
            f"{self.window_end}), occupied={list(self.occupied)})"
        )


def _record(cls, **fields):
    """A `cls` record holding `fields`, built past its validating __init__
    and frozen __setattr__.  Entry points validate their input; the maps
    behind them keep every invariant by construction, so their outputs are
    built here and not checked again."""
    rec = object.__new__(cls)
    rec.__dict__.update(fields)
    return rec


def first_difference(a: EulerState, b: EulerState) -> Optional[Tuple[int, int, int]]:
    """(absolute box, count in a, count in b) at the first box where the two
    zero-padded lines differ, or None when they are the same line."""
    in_a, in_b = dict(a.occupied), dict(b.occupied)
    for n in sorted(in_a.keys() | in_b.keys()):
        if in_a.get(n, 0) != in_b.get(n, 0):
            return n, in_a.get(n, 0), in_b.get(n, 0)
    return None


def same_occupancy(a: EulerState, b: EulerState) -> bool:
    """True when both states describe the same infinite zero-padded line."""
    return a.occupied == b.occupied


@dataclass(frozen=True)
class EulerStepTrace:
    """One sweep, as ascending (box, value) pairs of its nonzero entries:

    limited_counts -- balls the sweep itself left in box n;
    carrier_loads  -- the carrier's load arriving at box n;
    removed        -- balls trimmed away at box n, restored after the sweep.

    Every box named lies in the new state's window.
    """

    limited_counts: Pairs
    carrier_loads: Pairs
    removed: Pairs


def _start(state: EulerState) -> int:
    # a step's window starts at the first ball: every box left of it is
    # empty and meets an empty carrier, so the step leaves it empty; an
    # all-zero state keeps its start
    return state.occupied[0][0] if state.occupied else state.window_start


def _next_state(state: EulerState, start: int, occupied: Pairs) -> EulerState:
    # the right edge never moves left, so an all-zero state keeps its shape
    end = max(state.window_end, occupied[-1][0] + 1) if occupied else state.window_end
    return EulerState._trusted(occupied, state.profile, state.time + 1, start, end)


def euler_step(
    state: EulerState, schedule: CarrierSchedule
) -> Tuple[EulerState, EulerStepTrace]:
    """Advance one step via the three coupled min-plus update rules.

    The new state's window starts at the incoming state's first ball, so
    its length follows the balls, not the distance they have travelled.
    Raises FiniteOverflow, before the carrier walks on past the last ball,
    when it would carry balls so far that the new window spans more than
    MAX_SPAN boxes.
    """
    start = _start(state)
    occupied, limited, loads, removed = _kernels.carrier_sweep(
        state.occupied, state.profile, schedule.at(state.time + 1).bound, start + MAX_SPAN
    )
    trace = _record(EulerStepTrace, limited_counts=limited, carrier_loads=loads, removed=removed)
    return _next_state(state, start, occupied), trace


def carrier_oracle_step(state: EulerState, schedule: CarrierSchedule) -> EulerState:
    """Move every ball individually through a FIFO carrier.

    Independent re-walk of the transport rule; must agree with euler_step
    exactly on all valid inputs.
    """
    occupied, leftover = _kernels.ball_queue_sweep(
        state.occupied, state.profile, schedule.at(state.time + 1).bound
    )
    if leftover != 0:
        raise WindowOverflow(f"{leftover} balls left in carrier, t={state.time}")
    return _next_state(state, _start(state), occupied)


@dataclass(frozen=True)
class ResidualReport:
    """Max absolute violations; all zero for a correct step."""

    max_violation: int
    carrier_identity_max: int
    boxes: int

    @property
    def ok(self) -> bool:
        return self.max_violation == 0 and self.carrier_identity_max == 0


def umkdv_residual(
    before: EulerState,
    after: EulerState,
    trace: EulerStepTrace,
    m: XInt,
) -> ResidualReport:
    """Check the single-equation form of the step,

        U'_n = min(cap_n - U_n, S_n) + max(0, S_n + U_n - m),

    with S_n = sum_{j<n}(U_j - U'_j), on every box of [lo, hi), the union of
    the two windows, plus the carrier-load identity loads_n = S_n on boxes
    lo .. hi, where a box the trace does not name has load 0.  Violations
    are reported, never raised; an m below 0 raises ValueError.

    Only the listed boxes are read.  Between them U = U' = loads = 0 and S
    is constant, so a run of unlisted boxes violates the equation by |S|
    when S <= 0, and at most by min(cap, S) + max(0, S - m) when S > 0, cap
    the run's largest capacity; the identity by |S|.  Loads outside
    [lo, hi] are not read.
    """
    lo = min(before.window_start, after.window_start)
    hi = max(before.window_end, after.window_end)
    profile = before.profile
    m_val = as_capacity(m).bound
    caps, ws, we, dcap = profile.table()
    # one merge of the three ascending pair lists; a list's next box is
    # `end` once it is used up, and hi + 1 closes the last run of unlisted
    # boxes.  Every occupied box lies below hi, so the walk stops at `end`
    # before it reaches a load past hi.
    end = hi + 1
    stop = (end, 0)
    u, up, loads = iter(before.occupied), iter(after.occupied), iter(trace.carrier_loads)
    bu, vu = next(u, stop)
    bup, vup = next(up, stop)
    bl, vl = next(loads, stop)
    while bl < lo:
        bl, vl = next(loads, stop)

    worst = identity = 0
    s = 0
    n = lo  # the first box not read yet
    while True:
        b = bu if bu < bup else bup
        if bl < b:
            b = bl
        if n < b and s:  # boxes n .. b-1 are not listed
            identity = max(identity, abs(s))
            g = min(b, hi)
            if n < g:
                gap = -s
                if s > 0:
                    gap = min(profile.max_capacity(n, g), s)
                    if m_val is not None and s > m_val:
                        gap += s - m_val
                worst = max(worst, gap)
        if b == end:
            break
        ub = upb = 0
        d = -s
        if bu == b:
            ub = vu
            bu, vu = next(u, stop)
        if bup == b:
            upb = vup
            bup, vup = next(up, stop)
        if bl == b:
            d += vl
            bl, vl = next(loads, stop)
        if d > identity:
            identity = d
        elif -d > identity:
            identity = -d
        if b < hi:
            e = (caps[b - ws] if ws <= b < we else dcap) - ub
            if s < e:
                e = s
            if m_val is not None and s + ub > m_val:
                e += s + ub - m_val
            e -= upb
            if e > worst:
                worst = e
            elif -e > worst:
                worst = -e
        s += ub - upb
        n = b + 1
    return ResidualReport(
        max_violation=worst,
        carrier_identity_max=identity,
        boxes=hi - lo,
    )
