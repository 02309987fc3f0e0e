"""Hot inner loops: the carrier rule's sweeps.

Every carrier kernel is a left-to-right scan (each box depends on the
carrier state left of it).  An empty box met by an empty carrier is an
exact no-op of the carrier rules, so every sweep reads only the occupied
boxes, given as (box, count) pairs, and the boxes a loaded carrier passes:
its cost follows the balls and the carried span, not the window length.
The skip is exact for valid input (0 <= counts <= caps, carrier capacity
>= 0).  carrier_sweep is the step itself.  ball_queue_sweep, the
independent oracle, walks the balls one by one through a FIFO queue, shares
no code with carrier_sweep and stops once its carrier is empty past the
last ball.  It and euler.umkdv_residual, whose equation has one solution
U', pin the unbounded rule U'_n = min(cap_n - U_n, S_n) at M = +inf.

Box capacities are read inline from the profile's table(), bound once per
sweep: box n holds caps[n - ws] if ws <= n < we else dcap.  The carrier
capacity enters as its XInt bound m: the int, or None for +inf, never a
sentinel integer.
"""

from __future__ import annotations

from collections import deque
from itertools import repeat

from .xint import FiniteOverflow


def carrier_sweep(occupied, profile, m, edge):
    """One left-to-right sweep: drop into free space, pick up, trim to capacity.

    `occupied` holds the ascending (box, count) pairs of the occupied
    boxes; capacities are read from `profile.table()` at the boxes visited.  The
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
    caps, ws, we, dcap = profile.table()
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
        put = (caps[n - ws] if ws <= n < we else dcap) - u
        if put > load:
            put = load
        held = load + u
        trimmed = 0
        if m is not None and held > m:
            trimmed = held - m
            removed.append((n, trimmed))
            held = m
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


def ball_queue_sweep(occupied, profile, m):
    """Literal ball-by-ball walk of the carrier rule, keeping each carried
    ball's origin box in a FIFO queue.

    Each box's balls join the queue one by one; excess over the carrier
    capacity is trimmed newest-first and returned to its origin box after
    the walk; the oldest balls then fill the space not taken by the box's
    own departing balls.  The walk starts at the first ball, ends once the
    queue is empty past the last ball, and stops at box `last ball + total
    balls` at the latest.  Returns (new_occupied, leftover): ascending
    (box, count) pairs, and the balls still queued when the walk stopped.

    It visits each occupied box once, then the empty boxes after it while
    balls are queued.  The queue holds at most M between boxes, so only a
    box's own balls can take it past M, and only they are ever trimmed.
    """
    caps, ws, we, dcap = profile.table()
    stop = sum(u for _, u in occupied) + (occupied[-1][0] if occupied else 0)
    # where the empty boxes after each occupied box end: the next occupied
    # box, or `stop` after the last one
    ends = [n for n, _ in occupied[1:]]
    ends.append(stop + 1)
    new = {}
    queue = deque()
    join, take, trim = queue.extend, queue.popleft, queue.pop
    queued = 0  # len(queue)
    for (n, u), end in zip(occupied, ends):
        arriving = queued
        join(repeat(n, u))
        queued += u
        if m is not None and queued > m:
            for _ in repeat(None, queued - m):
                origin = trim()
                new[origin] = new.get(origin, 0) + 1
            queued = m
        put = (caps[n - ws] if ws <= n < we else dcap) - u
        if put > arriving:
            put = arriving
        if put:
            for _ in repeat(None, put):
                take()
            new[n] = new.get(n, 0) + put
            queued -= put
        n += 1
        while queued and n < end:
            put = caps[n - ws] if ws <= n < we else dcap
            if put > queued:
                put = queued
            for _ in repeat(None, put):
                take()
            new[n] = put  # no trim credits an empty box
            queued -= put
            n += 1
    return tuple(sorted(new.items())), len(queue)

