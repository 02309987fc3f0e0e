"""Euler picture: the state is the ball count per box.

One time step is a single carrier sweep from left to right.  The carrier
empties each box it passes and refills the freed space from what it was
holding on arrival; whenever its load would exceed the step's carrier
capacity the excess is trimmed away, and after the sweep every trimmed ball
is restored to the box it was taken from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import _kernels
from .geometry import CapacityProfile, CarrierSchedule
from .xint import INT64_MAX, FiniteOverflow, XInt, as_xint


class WindowOverflow(RuntimeError):
    """Carrier still loaded at the right edge of the extended window.

    The window is pre-extended by the total ball count, which provably
    absorbs the sweep, so this is an internal bug guard.
    """


@dataclass(frozen=True, eq=False)
class EulerState:
    """Ball counts over a finite window; zero everywhere outside."""

    counts: np.ndarray
    profile: CapacityProfile
    time: int = 0
    window_start: int = 0

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64).copy()
        if c.ndim != 1:
            raise ValueError("counts must be one-dimensional")
        if self.window_start < 0:
            raise ValueError("window_start must be >= 0")
        caps = self.profile.caps_array(self.window_start, len(c))
        if np.any(c < 0) or np.any(c > caps):
            raise ValueError("counts must satisfy 0 <= U_n <= capacity(n)")
        # the int64 sum of `total_balls` would wrap
        total = sum(c.tolist())
        if total > INT64_MAX:
            raise FiniteOverflow(f"ball total {total} is past the int64 range")
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)

    @classmethod
    def _trusted(
        cls, counts: np.ndarray, profile: CapacityProfile, time: int, window_start: int
    ) -> "EulerState":
        # for kernel outputs, whose invariants hold by construction
        st = object.__new__(cls)
        counts.setflags(write=False)
        object.__setattr__(st, "counts", counts)
        object.__setattr__(st, "profile", profile)
        object.__setattr__(st, "time", time)
        object.__setattr__(st, "window_start", window_start)
        return st

    @property
    def total_balls(self) -> int:
        return int(self.counts.sum())

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
            f"EulerState(t={self.time}, window_start={self.window_start}, "
            f"counts={self.counts.tolist()})"
        )


def _on_boxes(values: np.ndarray, start: int, lo: int, length: int) -> np.ndarray:
    # values (from box `start`) on boxes lo .. lo+length-1, zero elsewhere
    out = np.zeros(length, dtype=np.int64)
    out[start - lo : start - lo + len(values)] = values
    return out


def _union(a: EulerState, b: EulerState) -> Tuple[int, int]:
    # (first box, length) of the smallest window holding both windows
    lo = min(a.window_start, b.window_start)
    hi = max(a.window_start + len(a.counts), b.window_start + len(b.counts))
    return lo, hi - lo


def first_difference(a: EulerState, b: EulerState) -> Optional[Tuple[int, int, int]]:
    """(absolute box, count in a, count in b) at the first box where the two
    zero-padded lines differ, or None when they are the same line."""
    lo, w = _union(a, b)
    ua = _on_boxes(a.counts, a.window_start, lo, w)
    ub = _on_boxes(b.counts, b.window_start, lo, w)
    diff = np.flatnonzero(ua != ub)
    if not len(diff):
        return None
    i = int(diff[0])
    return lo + i, int(ua[i]), int(ub[i])


def same_occupancy(a: EulerState, b: EulerState) -> bool:
    """True when both windows describe the same infinite zero-padded line."""
    return first_difference(a, b) is None


@dataclass(frozen=True)
class EulerStepTrace:
    """Per-box record of one sweep, aligned with the new state's window.

    carrier_loads has one extra entry: loads[i] is the carrier's load
    arriving at box window_start+i, and the final entry (just past the
    window) is zero.
    """

    limited_counts: np.ndarray
    carrier_loads: np.ndarray
    removed: np.ndarray


def _capacity_args(m: XInt) -> Tuple[int, bool]:
    if m.is_pos_inf:
        return 0, False
    return m.finite, True


def _extended_arrays(state: EulerState) -> Tuple[int, np.ndarray, np.ndarray]:
    """The sweep's window as (start, counts, caps).

    It starts at the first ball: every box left of it is empty and meets an
    empty carrier, so the step leaves it empty.  It ends past the incoming
    window by the total ball count, so the carrier provably empties before
    the right edge.
    """
    nz = np.flatnonzero(state.counts)
    skip = int(nz[0]) if len(nz) else 0  # an all-zero state keeps its start
    start = state.window_start + skip
    w = len(state.counts) - skip
    ext = w + state.total_balls
    c = np.zeros(ext, dtype=np.int64)
    c[:w] = state.counts[skip:]
    caps = state.profile.caps_array(start, ext)
    return start, c, caps


def _next_state(state: EulerState, start: int, new_counts: np.ndarray) -> EulerState:
    # trim only the extension: the right edge never moves left, so an
    # all-zero state keeps its shape
    nz = np.flatnonzero(new_counts)
    last = int(nz[-1]) + 1 if len(nz) else 0
    w = max(state.window_start + len(state.counts) - start, last)
    return EulerState._trusted(new_counts[:w], state.profile, state.time + 1, start)


def euler_step(
    state: EulerState, schedule: CarrierSchedule
) -> Tuple[EulerState, EulerStepTrace]:
    """Advance one step via the three coupled min-plus update rules.

    The new state's window starts at the incoming state's first ball, so
    its length follows the balls, not the distance they have travelled.
    """
    m = schedule.at(state.time + 1)
    m_val, m_capped = _capacity_args(m)
    start, c, caps = _extended_arrays(state)
    new_counts, limited, loads, removed = _kernels.carrier_sweep(
        c, caps, m_val, m_capped
    )
    if loads[-1] != 0:
        raise WindowOverflow(f"load {loads[-1]} at right edge, t={state.time}")
    new_state = _next_state(state, start, new_counts)
    w = len(new_state.counts)
    trace = EulerStepTrace(
        limited_counts=limited[:w],
        carrier_loads=loads[: w + 1],
        removed=removed[:w],
    )
    return new_state, trace


def carrier_oracle_step(state: EulerState, schedule: CarrierSchedule) -> EulerState:
    """Move every ball individually through a FIFO carrier.

    Independent re-walk of the transport rule; must agree with euler_step
    exactly on all valid inputs.
    """
    m = schedule.at(state.time + 1)
    m_val, m_capped = _capacity_args(m)
    start, c, caps = _extended_arrays(state)
    out, leftover = _kernels.ball_queue_sweep(
        c, caps, m_val, m_capped, state.total_balls
    )
    if leftover != 0:
        raise WindowOverflow(f"{leftover} balls left in carrier, t={state.time}")
    return _next_state(state, start, out)


def nukdv_step(state: EulerState) -> EulerState:
    """Advance one step of the unbounded-carrier equation
    U'_n = min(cap_n - U_n, sum_{j<n}(U_j - U'_j)).

    Coincides with euler_step under an infinite carrier capacity.
    """
    start, c, caps = _extended_arrays(state)
    out, leftover = _kernels.free_flow_sweep(c, caps)
    if leftover != 0:
        raise WindowOverflow(f"load {leftover} at right edge, t={state.time}")
    return _next_state(state, start, out)


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

    with S_n = sum_{j<n}(U_j - U'_j), plus the carrier-load identity
    loads_n = S_n.  Both states are read by absolute box over the union of
    their windows, and the trace (aligned with after's window) reads as 0
    outside it.  Violations are reported, never raised.
    """
    lo, w = _union(before, after)
    u = _on_boxes(before.counts, before.window_start, lo, w)
    up = _on_boxes(after.counts, after.window_start, lo, w)
    caps = before.profile.caps_array(lo, w)

    s_full = np.zeros(w + 1, dtype=np.int64)
    np.cumsum(u - up, out=s_full[1:])
    s = s_full[:-1]

    base = np.minimum(caps - u, s)
    m = as_xint(m)
    if m.is_pos_inf:
        excess = np.zeros(w, dtype=np.int64)
    else:
        excess = np.maximum(0, s + u - m.finite)
    max_violation = int(np.max(np.abs(up - (base + excess)), initial=0))

    loads = _on_boxes(
        trace.carrier_loads[: len(after.counts) + 1], after.window_start, lo, w + 1
    )
    carrier_identity_max = int(np.max(np.abs(loads - s_full), initial=0))
    return ResidualReport(
        max_violation=max_violation,
        carrier_identity_max=carrier_identity_max,
        boxes=w,
    )
