"""Hot inner loops: the carrier rule's sweeps over int64 arrays.

Every carrier kernel is a left-to-right scan (each box depends on the
carrier state left of it), interpreted over numpy arrays.  An empty box met
by an empty carrier is an exact no-op of the carrier rules, so
carrier_sweep visits only the occupied boxes and the boxes a loaded carrier
passes: its cost follows the balls and the carried span, not the window
length.  The skip is exact for valid input (0 <= counts <= caps, carrier
capacity >= 0).  ball_queue_sweep, the independent oracle, and
free_flow_sweep, the M = +inf cross-check of carrier_sweep through
nukdv_step, still walk every box.

Carrier capacity enters as (m_val, m_capped); +inf is m_capped=False, never
a sentinel integer.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np


def carrier_sweep(counts, caps, m_val, m_capped):
    """One left-to-right sweep: drop into free space, pick up, trim to capacity.

    Returns (new_counts, limited, loads, removed):
      limited[n]  -- balls left in box n by the sweep itself
      loads[n]    -- balls held on arrival at box n (loads has length w+1;
                     loads[w] is the load just past the window and must be 0)
      removed[n]  -- balls trimmed away at box n, restored into new_counts
    """
    w = counts.shape[0]
    new_counts = np.zeros(w, np.int64)
    limited = np.zeros(w, np.int64)
    loads = np.zeros(w + 1, np.int64)
    removed = np.zeros(w, np.int64)
    occupied = np.flatnonzero(counts).tolist()
    counts = counts.tolist()
    caps = caps.tolist()
    load = 0
    n = 0
    while n < w:
        if load == 0:  # an empty carrier passes empty boxes unchanged
            i = bisect_left(occupied, n)
            if i == len(occupied):
                break
            n = occupied[i]
        loads[n] = load
        u = counts[n]
        put = caps[n] - u
        if put > load:
            put = load
        held = load + u
        trimmed = 0
        if m_capped and held > m_val:
            trimmed = held - m_val
            removed[n] = trimmed
            held = m_val
        load = held - put
        limited[n] = put
        new_counts[n] = put + trimmed
        n += 1
    loads[w] = load
    return new_counts, limited, loads, removed


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

