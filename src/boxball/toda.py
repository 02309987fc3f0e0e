"""Size coordinates (Toda picture) and start-position coordinates (Lagrange
picture) of the box-ball system.

The Toda picture evolves soliton sizes Q_n and interior gap sizes E_n with
the implicit boundary gaps E_0 = E_N = +inf.  The classical recurrence
(all capacities 1) is extended first to per-box capacities, where the box
capacities K_n / Lam_n sampled at each run start and gap start enter the
update, and then to a bounded carrier, where the carrier loads Cbar/Dbar
carry the size-limit bookkeeping and a recovery stage restores the trimmed
balls.  Capacities are resampled from the profile's segment geometry
every step, since the positions move.
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
    """Some run-start box capacity exceeds the step's carrier capacity; the
    size coordinates are only faithful under K_n <= M."""


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


def utoda_step(
    Q: Sequence[int], E: Sequence[int]
) -> Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]:
    """Classical recurrence (all capacities 1, unbounded carrier):

        D_0 = Q_0,  D_n = D_{n-1} - Q'_{n-1} + Q_n,
        Q'_n = min(E_{n+1}, D_n),   E'_n = E_n - Q'_{n-1} + Q_n,

    with E_N = +inf so the last run takes the whole carrier load.
    Returns (Q', E', D).
    """
    n_runs = len(Q)
    if len(E) != n_runs - 1:
        raise ValueError("E lists the interior gaps only")
    d_list = []
    qp = []
    for n in range(n_runs):
        d = Q[0] if n == 0 else d_list[n - 1] - qp[n - 1] + Q[n]
        d_list.append(d)
        qp.append(d if n == n_runs - 1 else min(E[n], d))
    ep = [E[i] - qp[i] + Q[i + 1] for i in range(n_runs - 1)]
    if any(q < 1 for q in qp) or any(e < 1 for e in ep):
        raise AssertionError("positivity broke in utoda_step (bug)")
    return tuple(qp), tuple(ep), tuple(d_list)


def utoda_step_sumform(
    Q: Sequence[int], E: Sequence[int]
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Same step written with partial sums in place of the carrier load:

        Q'_n = min(E_{n+1}, sum_{j<=n} Q_j - sum_{j<n} Q'_j).
    """
    n_runs = len(Q)
    if len(E) != n_runs - 1:
        raise ValueError("E lists the interior gaps only")
    qp = []
    acc = 0  # sum Q[:n+1] - sum qp[:n]
    for n in range(n_runs):
        acc += Q[n]
        v = acc if n == n_runs - 1 else min(E[n], acc)
        qp.append(v)
        acc -= v
    ep = [E[i] - qp[i] + Q[i + 1] for i in range(n_runs - 1)]
    return tuple(qp), tuple(ep)


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


def lagrange_step(
    X: Sequence[int], Y: Sequence[int]
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Advance the start positions one step:

        X'_n = Y_{n+1},
        Y'_n = Y_n + min(X_n - Y_n, A_n - B_n),

    where A_n = sum_{j<=n}(Y_j - X_{j-1}) and B_n = sum_{j<n}(Y'_j - X'_{j-1});
    the boundary X_N = +inf makes the last minimum the running sum itself.
    """
    lagrange_to_toda(X, Y)  # validates the interleaving
    n_runs = len(X)
    xp = tuple(Y)
    yp = []
    a = 0
    b = 0
    for n in range(1, n_runs + 1):
        a += Y[n - 1] - X[n - 1]
        inc = a - b if n == n_runs else min(X[n] - Y[n - 1], a - b)
        yp.append(Y[n - 1] + inc)
        b += yp[-1] - xp[n - 1]
    return xp, tuple(yp)


def capacities_for_state(state: TodaState) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Box capacities K_n at each run start X_n and Lam_n at each gap start
    Y_n, read off the segment geometry at the positions toda_to_lagrange
    gives.  extoda_step reads them here; enutoda_step, which extoda_step
    checks, samples them in its own loop."""
    cap = state.profile.segment_capacity
    x, y = toda_to_lagrange(state.Q, state.E, state.X0)
    return tuple(map(cap, x)), tuple(map(cap, y))


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
    Requires K_n <= M; with M = +inf the trimming disappears and the step
    coincides with extoda_step.

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

    # the loop only adds and compares, so K checked against M after it
    # raises what a check before it would
    if m is not None and max(k) > m:
        bad = [v for v in k if v > m]
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


def extoda_step(state: TodaState) -> Tuple[TodaState, TodaStepTrace]:
    """One step with box capacities and an unbounded carrier:

        D_0 = Q_0,  D_n = D_{n-1} - Q'_{n-1} + Q_n,
        Q'_n = min(E_{n+1} - max(0, Lam_{n+1} - D_n), D_n),
        E'_n = E_n - Q'_{n-1} + Q_n
               - max(0, Lam_n - D_{n-1}) + max(0, Lam_{n+1} - D_n).

    Equals enutoda_step with carrier capacity +inf; with all capacities 1
    it reduces to utoda_step.
    """
    k, lam = capacities_for_state(state)
    q, e = state.Q, state.E
    n_runs = state.N

    d_list = []
    qp = []
    for n in range(n_runs):
        d = q[0] if n == 0 else d_list[n - 1] - qp[n - 1] + q[n]
        d_list.append(d)
        qp.append(
            d if n == n_runs - 1 else min(e[n] - max(0, lam[n] - d), d)
        )
    ep = [
        e[i]
        - qp[i]
        + q[i + 1]
        - max(0, lam[i] - d_list[i])
        + max(0, lam[i + 1] - d_list[i + 1])
        for i in range(n_runs - 1)
    ]

    xbar0 = state.X0 + q[0] + max(0, lam[0] - d_list[0])
    xp0 = state.X0 + max(d_list[0], lam[0])

    if any(v < 1 for v in qp) or any(v < 1 for v in ep):
        raise DegenerateState(f"step produced Q'={qp}, E'={ep}")

    new_state = TodaState(
        Q=tuple(qp), E=tuple(ep), X0=xp0, profile=state.profile, time=state.time + 1
    )
    trace = TodaStepTrace(
        Qbar=tuple(qp),
        Ebar=tuple(ep),
        Cbar=tuple(),
        Dbar=tuple(d_list),
        Xbar0=xbar0,
        K=k,
        Lam=lam,
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
