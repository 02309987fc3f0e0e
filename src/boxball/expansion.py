"""Expansion map: box counts -> runs of ones on the segment line.

During interactions the per-box counts do not show where one soliton ends
and the next begins; on the expanded segment line solitons are plain
maximal runs of ones, so sizes, gaps and positions are well defined at
every time.  toda.to_euler maps runs back to counts.
"""

from __future__ import annotations

from typing import Tuple

from .euler import EulerState
from .geometry import _past_int64
from .xint import INT64_MAX


def expand(state: EulerState) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Runs of ones of the expanded state as (X, Y): run n covers absolute
    segments X[n] .. Y[n]-1, the start positions of toda.toda_to_lagrange.

    Box n gets U_n ones, left-justified (extending the last run) when that
    run ends where the box starts, right-justified (opening a new run)
    otherwise.  Empty boxes hold no ones, so only the occupied boxes are
    read.  Per-box sums of the runs equal the counts; with all capacities 1
    the map is the identity.  Raises FiniteOverflow when an occupied box's
    segment boundary is past the int64 range.
    """
    profile = state.profile
    caps, ws, we, dcap = profile.table()
    x: list = []
    y: list = []
    nxt = -1  # the box after the last occupied one
    end = 0  # and its first segment
    for n, u in state.occupied:
        # one boundary lookup per stretch of adjacent occupied boxes; inside
        # a stretch each box starts where the previous one ends
        start = end if n == nxt else profile.boundary(n)
        end = start + (caps[n - ws] if ws <= n < we else dcap)
        if end > INT64_MAX:
            raise _past_int64(n + 1, end)
        nxt = n + 1
        if y and y[-1] == start:
            y[-1] = start + u
        else:
            x.append(end - u)
            y.append(end)
    return tuple(x), tuple(y)
