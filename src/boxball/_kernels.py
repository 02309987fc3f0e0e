"""Hot inner loops: the carrier rule's sweeps.

Every carrier kernel is a left-to-right scan (each box depends on the
carrier state left of it).  An empty box met by an empty carrier is an
exact no-op of the carrier rules, so carrier_sweep reads only the occupied
boxes, given as (box, count) pairs, and the boxes a loaded carrier passes:
its cost follows the balls and the carried span, not the window length.
The skip is exact for valid input (0 <= counts <= caps, carrier capacity
>= 0).  ball_queue_sweep, the independent oracle, and free_flow_sweep, the
M = +inf cross-check of carrier_sweep through nukdv_step, are literal walks
over every box of a dense int64 window.

Carrier capacity enters as (m_val, m_capped); +inf is m_capped=False, never
a sentinel integer.
"""

from __future__ import annotations

import numpy as np

from .xint import FiniteOverflow


def carrier_sweep(occupied, profile, m_val, m_capped, edge):
    """One left-to-right sweep: drop into free space, pick up, trim to capacity.

    `occupied` holds the ascending (box, count) pairs of the occupied
    boxes; capacities are read from `profile` at the boxes visited.  The
    sweep goes on past the last ball until the carrier is empty.  Returns
    (new_occupied, limited, loads, removed), each ascending (box, value)
    pairs of the nonzero entries:
      new_occupied -- the new counts
      limited      -- balls left in box n by the sweep itself
      loads        -- balls held on arrival at box n
      removed      -- balls trimmed away at box n, restored into the new counts
    Raises FiniteOverflow, before walking on past the last ball, when the
    carrier would still hold balls at box `edge`.
    """
    capacity = profile.capacity
    new = []
    limited = []
    loads = []
    removed = []
    k = len(occupied)
    i = 0
    load = 0
    n = 0
    while True:
        if i < k and (load == 0 or occupied[i][0] == n):
            # an empty carrier passes empty boxes unchanged
            n, u = occupied[i]
            i += 1
        elif load:
            u = 0
            if i == k and n + load > edge:  # it may cross `load` boxes
                _require_reach(profile, n, load, edge)
        else:
            break
        if load:
            loads.append((n, load))
        put = capacity(n) - u
        if put > load:
            put = load
        held = load + u
        trimmed = 0
        if m_capped and held > m_val:
            trimmed = held - m_val
            removed.append((n, trimmed))
            held = m_val
        load = held - put
        if put:
            limited.append((n, put))
        if put + trimmed:
            new.append((n, put + trimmed))
        n += 1
    return tuple(new), tuple(limited), tuple(loads), tuple(removed)


def _require_reach(profile, n, load, edge):
    last = profile.last_box_filled(n, load)
    if last >= edge:
        raise FiniteOverflow(
            f"the carrier reaches box {n} with {load} balls, which fill the "
            f"empty boxes up to box {last}, past box {edge - 1}, the last one "
            f"an int64 window from the first ball can hold"
        )


def ball_queue_sweep(counts, caps, m_val, m_capped, total):
    """Literal ball-by-ball walk of the carrier rule, tracking each ball's
    origin box in a FIFO ring buffer.

    Balls are deposited oldest-first into the space not occupied by the
    box's own departing balls; excess over capacity is trimmed newest-first
    and returned to its origin box afterwards.  The walk runs on Python
    lists (numpy scalar access costs more than the walk itself).
    """
    counts = counts.tolist()
    caps = caps.tolist()
    w = len(counts)
    out = [0] * w
    removed = [0] * w
    cap = total if total > 0 else 1
    origin = [0] * cap
    head = 0
    size = 0
    for n in range(w):
        arriving = size
        for _ in range(counts[n]):
            origin[(head + size) % cap] = n
            size += 1
        if m_capped:
            while size > m_val:
                size -= 1
                removed[origin[(head + size) % cap]] += 1
        put = caps[n] - counts[n]
        if put > arriving:
            put = arriving
        head = (head + put) % cap
        size -= put
        out[n] = put
    return np.array([o + r for o, r in zip(out, removed)], np.int64), size


def free_flow_sweep(counts, caps):
    """Carrier sweep without a capacity bound (no trimming, no recovery)."""
    w = counts.shape[0]
    new_counts = np.zeros(w, np.int64)
    load = 0
    for n in range(w):
        put = caps[n] - counts[n]
        if put > load:
            put = load
        new_counts[n] = put
        load += counts[n] - put
    return new_counts, load

