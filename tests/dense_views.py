"""Dense views of the sparse Euler step records, for tests that compare
against arrays laid over a window."""

import numpy as np


def lay(pairs, start, length):
    """(box, value) pairs as an int64 array over boxes start .. start+length-1;
    every pair must fall inside."""
    out = np.zeros(length, dtype=np.int64)
    for box, value in pairs:
        assert start <= box < start + length, (box, start, length)
        out[box - start] = value
    return out


def trace_arrays(trace, state):
    """(limited_counts, carrier_loads, removed) of a step's trace laid onto
    the window of the state it produced, as euler_step used to return them:
    carrier_loads has one more entry, the load just past the window."""
    start = state.window_start
    w = state.window_end - start
    return (
        lay(trace.limited_counts, start, w),
        lay(trace.carrier_loads, start, w + 1),
        lay(trace.removed, start, w),
    )
