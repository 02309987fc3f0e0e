"""Size coordinates (Toda picture) and start-position coordinates (Lagrange
picture) of the box-ball system.

The Toda picture evolves soliton sizes Q_n and interior gap sizes E_n with
the implicit boundary gaps E_0 = E_N = +inf.  enutoda_step is the step with
per-box capacities and a bounded carrier: the box capacities K_n / Lam_n
sampled at each run start and gap start enter the update, the carrier loads
Cbar/Dbar carry the size-limit bookkeeping, and a recovery stage restores
the trimmed balls.  Capacities are resampled from the profile's segment
geometry every step, since the positions move.  The stages the step is
built from (the classical recurrence with all capacities 1, its Lagrange
form, and per-box capacities under an unbounded carrier) are kept as
oracles in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from .euler import EulerState, _record
from .expansion import expand
from .geometry import CapacityProfile, CarrierSchedule, _past_int64
from .xint import INT64_MAX, as_int


class EmptySequence(ValueError):
    """No ones anywhere: there are no runs to read sizes and gaps from."""


class CapacityViolation(ValueError):
    """A box capacity at a run start (K_n) or at a gap start (Lam_n) exceeds
    the step's carrier capacity M; the size coordinates are only faithful
    when every K_n and every Lam_n is at most M."""


class DegenerateState(ValueError):
    """A step produced a run or interior gap of size < 1, so the state no
    longer describes distinct solitons."""


class InconsistentPositions(ValueError):
    """Start positions that do not interleave as runs and gaps of size >= 1."""


@dataclass(frozen=True)
class TodaState:
    """Soliton sizes Q (N >= 1), interior gaps E (N-1 entries), and the
    segment index X0 of the leftmost segment of soliton 0."""

    Q: Tuple[int, ...]
    E: Tuple[int, ...]
    X0: int
    profile: CapacityProfile
    time: int = 0

    def __post_init__(self):
        object.__setattr__(self, "Q", tuple(as_int(q, "every Q_n") for q in self.Q))
        object.__setattr__(self, "E", tuple(as_int(e, "every E_n") for e in self.E))
        object.__setattr__(self, "X0", as_int(self.X0, "X0"))
        object.__setattr__(self, "time", as_int(self.time, "time"))
        if len(self.Q) < 1:
            raise ValueError("need at least one soliton")
        if len(self.E) != len(self.Q) - 1:
            raise ValueError("E lists the interior gaps only")
        if any(q < 1 for q in self.Q) or any(e < 1 for e in self.E):
            raise ValueError("sizes and gaps must be >= 1")
        if self.X0 < 0:
            raise ValueError("X0 must be >= 0")

    @property
    def N(self) -> int:
        return len(self.Q)


@dataclass(frozen=True)
class TodaStepTrace:
    """Carrier bookkeeping of one step.

    Cbar has N+1 entries (Cbar[0] equals K[0]); Dbar and Qbar have N;
    Ebar the interior N-1.  Xbar0 is the anchor after the size-limit stage.
    """

    Qbar: Tuple[int, ...]
    Ebar: Tuple[int, ...]
    Cbar: Tuple[int, ...]
    Dbar: Tuple[int, ...]
    Xbar0: int
    K: Tuple[int, ...]
    Lam: Tuple[int, ...]


def toda_to_lagrange(
    Q: Sequence[int], E: Sequence[int], X0: int
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Start positions: X[n] of soliton n (n=0..N-1) and Y[n-1] of empty
    block n (n=1..N), via Y_n = X_{n-1} + Q_{n-1} and X_n = Y_n + E_n."""
    x = [X0]
    y = []
    for n in range(1, len(Q)):
        y.append(x[n - 1] + Q[n - 1])
        x.append(y[n - 1] + E[n - 1])
    y.append(x[-1] + Q[-1])
    return tuple(x), tuple(y)


def lagrange_to_toda(
    X: Sequence[int], Y: Sequence[int]
) -> Tuple[Tuple[int, ...], Tuple[int, ...], int]:
    """Inverse of toda_to_lagrange; raises InconsistentPositions unless the
    positions interleave with runs and gaps of size >= 1."""
    n_runs = len(X)
    if len(Y) != n_runs:
        raise InconsistentPositions("X and Y must both have N entries")
    q = tuple(Y[n] - X[n] for n in range(n_runs))
    e = tuple(X[n] - Y[n - 1] for n in range(1, n_runs))
    if any(v < 1 for v in q) or any(v < 1 for v in e):
        raise InconsistentPositions(f"implied sizes {q}, gaps {e}")
    return q, e, int(X[0])


def enutoda_step(state: TodaState, schedule: CarrierSchedule) -> Tuple[TodaState, TodaStepTrace]:
    """One step with box capacities and a bounded carrier.

    Size-limit stage (left to right, exactly in dependency order):

        Cbar_0 = K_0,
        Dbar_n = min(Cbar_n + Q_n - K_n, M),
        Qbar_n = min(E_{n+1} - max(0, Lam_{n+1} - Dbar_n), Dbar_n),
        Cbar_{n+1} = min(Dbar_n - Qbar_n + K_{n+1}, M),
        Ebar_n = E_n - Qbar_{n-1} + Q_n
                 - max(0, Lam_n - Dbar_{n-1}) + max(0, Lam_{n+1} - Dbar_n),

    recovery stage:

        Q'_n = Q_n + Cbar_n - Cbar_{n+1} - K_n + K_{n+1},
        E'_n = Ebar_n + Qbar_{n-1} - Q_n - Dbar_{n-1} + Dbar_n,

    and anchor motion

        Xbar_0 = X_0 + Q_0 + max(0, Lam_1 - Dbar_0),
        X'_0  = X_0 + max(Dbar_0, Lam_1).

    K_N is not a real box capacity; any value in [0, M] cancels out of
    every output but the trace's Cbar_N = min(K_N, M), and K_N = 0 here.
    The domain is every K_n <= M and every Lam_n <= M (K_N aside); outside
    it the output can be wrong, so the step raises CapacityViolation.  With
    M = +inf the trimming disappears and the step coincides with the
    unbounded-carrier oracle extoda_step of tests/oracles.py.

    One loop walks the positions X_n and Y_n = X_n + Q_n, reads K_n and
    Lam_n off the segment geometry as it reaches them (K_{n+1} at
    X_{n+1} = Y_n + E_n one position ahead), and runs Dbar, Qbar, Cbar and
    Q' together (Q'_n needs only Cbar_{n+1}); Ebar and E' of gap n - 1,
    which need Dbar_n, run one index behind in the same loop.
    """
    m = schedule.at(state.time + 1).bound
    cap = state.profile.segment_capacity
    q, e = state.Q, state.E
    last = len(q) - 1

    x = state.X0
    kn = cap(x)
    k = [kn]
    lam = []
    c = kn
    cbar = [c]
    dbar = []
    qbar = []
    qp = []
    ebar = []
    ep = []
    for n in range(last + 1):
        qn = q[n]
        y = x + qn
        ln = cap(y)
        lam.append(ln)
        d = c + qn - kn
        if m is not None and d > m:
            d = m
        s = ln - d  # max(0, Lam_{n+1} - Dbar_n)
        s = s if s > 0 else 0
        if n < last:
            en = e[n]
            x = y + en
            kn1 = cap(x)
            k.append(kn1)
            qb = en - s
            qb = qb if qb < d else d
        else:
            qb = d
            kn1 = 0
        c1 = d - qb + kn1
        if m is not None and c1 > m:
            c1 = m
        if n:  # gap n - 1, from run n - 1's Qbar, slack and Dbar
            qb_prev = qbar[-1]
            eb = e[n - 1] - qb_prev + qn - s_prev + s
            ebar.append(eb)
            ep.append(eb + qb_prev - qn - dbar[-1] + d)
        else:
            xbar0 = state.X0 + qn + s
            xp0 = state.X0 + (d if d > ln else ln)
        dbar.append(d)
        qbar.append(qb)
        cbar.append(c1)
        qp.append(qn + c - c1 - kn + kn1)
        c = c1
        kn = kn1
        s_prev = s

    # the loop only adds and compares, so K and Lam checked against M after
    # it raise what a check before it would
    if m is not None and (max(k) > m or max(lam) > m):
        bad = [v for v in k + lam if v > m]
        raise CapacityViolation(f"box capacities {bad} exceed carrier capacity {m}")
    if sum(qp) != sum(q):
        raise AssertionError("ball count broke in enutoda_step (bug)")
    if min(qp) < 1 or min(ep, default=1) < 1:
        raise DegenerateState(f"step produced Q'={qp}, E'={ep}")

    # Python ints, Q', E' >= 1 as just checked, and X0' >= X0 >= 0
    new_state = _record(
        TodaState, Q=tuple(qp), E=tuple(ep), X0=xp0, profile=state.profile, time=state.time + 1
    )
    trace = _record(
        TodaStepTrace, Qbar=tuple(qbar), Ebar=tuple(ebar), Cbar=tuple(cbar), Dbar=tuple(dbar),
        Xbar0=xbar0, K=tuple(k), Lam=tuple(lam),
    )
    return new_state, trace


def to_euler(state: TodaState) -> EulerState:
    """Counts-level view of a Toda state: the per-box bit sums of its runs,
    listed for exactly the boxes the runs touch, in a window from the first
    to the last ball's box; to_euler(from_euler(u)) has the occupancy of u.
    The runs are walked box by box from X_0, the inverse of
    expansion.expand: a run that starts in the box where the previous one
    ended, or in the box after it, goes on from there, and one across a
    wider gap looks its box up, so the cost follows the balls, not the
    gaps.  Raises FiniteOverflow when a run ends past the int64 segment
    range or the window spans more than euler.MAX_SPAN boxes."""
    profile = state.profile
    caps, ws, we, dcap = profile.table()
    q, e = state.Q, state.E
    last = len(q) - 1
    occupied = []
    a = state.X0
    n = profile.segment_to_box(a)
    end = profile.boundary(n + 1)
    held = 0  # balls of the runs so far in box n, which ends at segment `end`
    for i in range(last + 1):
        b = a + q[i]
        while end < b:  # the run goes on into box n + 1
            occupied.append((n, held + end - a))
            held = 0
            a = end
            n += 1
            # s_{n+1} = s_n + capacity(n), with the range check
            # boundary(n + 1) would make
            end += caps[n - ws] if ws <= n < we else dcap
            if end > INT64_MAX:
                raise _past_int64(n + 1, end)
        held += b - a
        if i == last:
            break
        a = b + e[i]
        if a >= end:  # the next run starts past box n
            occupied.append((n, held))
            held = 0
            nxt = end + (caps[n + 1 - ws] if ws <= n + 1 < we else dcap)
            if a < nxt:
                n += 1
                end = nxt
                if end > INT64_MAX:
                    raise _past_int64(n + 1, end)
            else:
                n = profile.segment_to_box(a)
                end = profile.boundary(n + 1)
    occupied.append((n, held))
    return EulerState._trusted(
        tuple(occupied), profile, state.time, occupied[0][0], n + 1
    )


def from_euler(state: EulerState) -> TodaState:
    """Read sizes, gaps and the anchor off the runs of ones of the
    expanded state; raises EmptySequence when there are no balls."""
    x, y = expand(state)
    if not x:
        raise EmptySequence("all segments are 0")
    q, e, x0 = lagrange_to_toda(x, y)  # checks Q, E >= 1; X0 is a segment, so >= 0
    return _record(TodaState, Q=q, E=e, X0=x0, profile=state.profile, time=state.time)
