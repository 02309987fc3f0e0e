"""Expansion map: box counts -> 0/1 segment sequence, and back.

During interactions the per-box counts do not show where one soliton ends
and the next begins; on the expanded segment line solitons are plain
maximal runs of ones, so sizes, gaps and positions are well defined at
every time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .euler import EulerState
from .geometry import CapacityProfile


@dataclass(frozen=True, eq=False)
class BinarySeq:
    """Segment values over a window starting at segment_start; zero outside."""

    bits: np.ndarray
    segment_start: int
    profile: CapacityProfile

    def __post_init__(self):
        b = np.asarray(self.bits, dtype=np.int64).copy()
        if b.ndim != 1 or np.any((b != 0) & (b != 1)):
            raise ValueError("bits must be a one-dimensional 0/1 sequence")
        b.setflags(write=False)
        object.__setattr__(self, "bits", b)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinarySeq):
            return NotImplemented
        return (
            self.segment_start == other.segment_start
            and self.profile == other.profile
            and np.array_equal(self.bits, other.bits)
        )

    def __repr__(self) -> str:
        return f"BinarySeq(start={self.segment_start}, bits={self.bits.tolist()})"


def expand(state: EulerState) -> BinarySeq:
    """Rewrite a state as segments: box n gets U_n ones, left-justified when
    the segment just before the box is a 1, right-justified otherwise.

    Per-box bit sums always equal the counts; with all capacities 1 the map
    is the identity.  Raises FiniteOverflow when the window's last segment
    boundary is past the int64 range.
    """
    profile = state.profile
    w = len(state.counts)
    start = profile.boundary(state.window_start)
    total = profile.boundary(state.window_start + w) - start
    caps = profile.caps_array(state.window_start, w)
    bits = _kernels.expand_sweep(state.counts, caps, total)
    return BinarySeq(bits=bits, segment_start=start, profile=profile)


def bits_from_positions(x, y, segment_start: int, length: int) -> np.ndarray:
    """Raw 0/1 placement of the runs [x[n], y[n]) (the run and gap starts
    of toda.toda_to_lagrange) on segments [segment_start,
    segment_start+length); raises if a run falls outside."""
    bits = np.zeros(length, dtype=np.int64)
    for a, b in zip(x, y):
        a -= segment_start
        b -= segment_start
        if a < 0 or b > length:
            raise ValueError("run outside the segment window")
        bits[a:b] = 1
    return bits
