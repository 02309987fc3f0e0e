"""Euler picture: the state is the ball count per box.

One time step is a single carrier sweep from left to right.  The carrier
empties each box it passes and refills the freed space from what it was
holding on arrival; whenever its load would exceed the step's carrier
capacity the excess is trimmed away, and after the sweep every trimmed ball
is restored to the box it was taken from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import _kernels
from .geometry import CapacityProfile, CarrierSchedule
from .xint import XInt, as_xint


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


def _occupied(state: EulerState) -> Tuple[int, np.ndarray]:
    # (absolute first occupied box, counts from there to the last occupied
    # box); an all-zero state is (0, empty)
    nz = np.flatnonzero(state.counts)
    if not len(nz):
        return 0, state.counts[:0]
    return state.window_start + int(nz[0]), state.counts[nz[0] : nz[-1] + 1]


def same_occupancy(a: EulerState, b: EulerState) -> bool:
    """True when both windows describe the same infinite zero-padded line."""
    start_a, occ_a = _occupied(a)
    start_b, occ_b = _occupied(b)
    return start_a == start_b and np.array_equal(occ_a, occ_b)


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


def _extended_arrays(state: EulerState) -> Tuple[np.ndarray, np.ndarray]:
    """Window extended rightward by the total ball count, so the carrier
    provably empties before the right edge."""
    w = len(state.counts)
    ext = w + state.total_balls
    c = np.zeros(ext, dtype=np.int64)
    c[:w] = state.counts
    caps = state.profile.caps_array(state.window_start, ext)
    return c, caps


def _trimmed_length(new_counts: np.ndarray, w: int) -> int:
    # trim only the extension: the window never shrinks below its incoming
    # length, so an all-zero state keeps its shape
    nz = np.flatnonzero(new_counts)
    last = int(nz[-1]) + 1 if len(nz) else 0
    return max(w, last)


def euler_step(
    state: EulerState, schedule: CarrierSchedule
) -> Tuple[EulerState, EulerStepTrace]:
    """Advance one step via the three coupled min-plus update rules."""
    m = schedule.at(state.time + 1)
    m_val, m_capped = _capacity_args(m)
    c, caps = _extended_arrays(state)
    new_counts, limited, loads, removed = _kernels.carrier_sweep(
        c, caps, m_val, m_capped
    )
    if loads[-1] != 0:
        raise WindowOverflow(f"load {loads[-1]} at right edge, t={state.time}")
    w = _trimmed_length(new_counts, len(state.counts))
    new_state = EulerState._trusted(
        new_counts[:w], state.profile, state.time + 1, state.window_start
    )
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
    c, caps = _extended_arrays(state)
    out, leftover = _kernels.ball_queue_sweep(
        c, caps, m_val, m_capped, state.total_balls
    )
    if leftover != 0:
        raise WindowOverflow(f"{leftover} balls left in carrier, t={state.time}")
    w = _trimmed_length(out, len(state.counts))
    return EulerState._trusted(
        out[:w], state.profile, state.time + 1, state.window_start
    )


def nukdv_step(state: EulerState) -> EulerState:
    """Advance one step of the unbounded-carrier equation
    U'_n = min(cap_n - U_n, sum_{j<n}(U_j - U'_j)).

    Coincides with euler_step under an infinite carrier capacity.
    """
    c, caps = _extended_arrays(state)
    out, leftover = _kernels.free_flow_sweep(c, caps)
    if leftover != 0:
        raise WindowOverflow(f"load {leftover} at right edge, t={state.time}")
    w = _trimmed_length(out, len(state.counts))
    return EulerState._trusted(
        out[:w], state.profile, state.time + 1, state.window_start
    )


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
    loads_n = S_n.  Violations are reported, never raised.
    """
    if before.window_start != after.window_start:
        raise ValueError("windows must share window_start")
    w = len(after.counts)
    u = np.zeros(w, dtype=np.int64)
    u[: len(before.counts)] = before.counts
    up = after.counts
    caps = before.profile.caps_array(before.window_start, w)

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

    loads = trace.carrier_loads[: w + 1]
    carrier_identity_max = int(np.max(np.abs(loads - s_full), initial=0))
    return ResidualReport(
        max_violation=max_violation,
        carrier_identity_max=carrier_identity_max,
        boxes=w,
    )
