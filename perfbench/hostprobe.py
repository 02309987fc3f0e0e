"""A fixed piece of work that measures how fast the host runs right now.

On a shared 2-core KVM guest the speed drifts by a fifth or more over tens
of seconds to minutes, from contention the process cannot see (its CPU time
grows with its wall time).  The probe does the kinds of work the library does -- an
interpreted sweep over int64 elements, integer matrix products with
reductions, and small Python objects -- and never changes, so the ratio
REFERENCE_S / probe time is the host's current speed relative to a fixed
reference, whatever the library does.
"""

from __future__ import annotations

import gc
import time

import numpy as np

# median probe time on the reference host (2-core KVM guest, Intel Xeon,
# Python 3.11.7, numpy 2.4.6); only its constancy matters
REFERENCE_S = 0.015

_SWEEP = (np.arange(6000, dtype=np.int64) * 7919) % 6
_LEFT = np.arange(255 * 8, dtype=np.int64).reshape(255, 8) % 3
_RIGHT = np.arange(8 * 300, dtype=np.int64).reshape(8, 300) % 11 - 5


def _work() -> int:
    out = np.zeros(len(_SWEEP), np.int64)
    load = 0
    for n in range(len(_SWEEP)):
        put = 5 - _SWEEP[n]
        if put > load:
            put = load
        load += _SWEEP[n] - put
        out[n] = put
    low = 0
    for _ in range(12):
        low += int(np.minimum(0, (_LEFT @ _RIGHT).min(axis=0)).sum())
    table = {}
    for i in range(10000):
        table[(i, i & 7)] = i * 3 - (i >> 2)
    return int(out.sum()) + low + len(table)


def probe() -> float:
    """Seconds the fixed work takes now.  The collector is off meanwhile, so
    the size of the library's heap cannot slow the probe."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()
