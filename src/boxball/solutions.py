"""Closed-form min-plus solutions and their residual verifiers.

Two families:

* a multi-soliton solution of the counts-level carrier system, built from
  potentials F that minimize over index subsets;
* a particular solution of the fixed-box-capacity size-coordinate system,
  built from potentials T / Tbar that minimize over increasing index
  tuples.

Both minima are exact dynamic programs (`_count_dp`): taken in the right
order, an index's weight depends only on how many chosen indices precede
it, so a sweep over (index, count) replaces the 2^N subsets and C(N, n)
tuples, and N is no longer desk-scale.  The literal enumerations live in
the test suite as the independent oracle.

Everything is exact integer arithmetic; verification is equality, not
tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from .geometry import CapacityProfile, CarrierSchedule
from .xint import INT64_MAX, POS_INF, FiniteOverflow, XInt, as_xint

# The potentials are dynamic programs, O(N^2 W) per Euler time slice over W
# boxes and O(N^3) per tau row: at N = 64 a 401-box Euler slice takes about
# 12 ms and a tau state about 3 ms on a 2-core Xeon.  The cap turns a
# runaway soliton count into a named error instead of a long computation.
MAX_SOLITONS = 64


@dataclass(frozen=True)
class EulerSolitonParams:
    """Speeds P_i >= 0 and phases Xi_i for the counts-level solution."""

    P: Tuple[int, ...]
    Xi: Tuple[int, ...]
    profile: CapacityProfile
    schedule: CarrierSchedule

    def __post_init__(self):
        object.__setattr__(self, "P", tuple(int(p) for p in self.P))
        object.__setattr__(self, "Xi", tuple(int(x) for x in self.Xi))
        if not 1 <= len(self.P) <= MAX_SOLITONS:
            raise ValueError(f"need 1..{MAX_SOLITONS} solitons")
        if len(self.Xi) != len(self.P):
            raise ValueError("P and Xi must have equal length")
        if any(p < 0 for p in self.P):
            raise ValueError("speeds P_i must be >= 0")

    @property
    def N(self) -> int:
        return len(self.P)


@dataclass(frozen=True)
class EulerFieldSlice:
    """U, Ubar, Zbar at one time over boxes n_start .. n_start+len-1.

    Ubar/Zbar belong to the sweep that produced this slice's U from the
    previous one.
    """

    time: int
    n_start: int
    U: np.ndarray
    Ubar: np.ndarray
    Zbar: np.ndarray


def _require_headroom(bound: int) -> None:
    """Raise FiniteOverflow unless eight values of magnitude <= bound add up
    inside int64: each field is a sum of four potentials and each residual
    a difference of two such sums."""
    if 8 * bound > INT64_MAX:
        raise FiniteOverflow(f"potentials up to {bound} in magnitude can leave int64")


def _profile_terms(profile: CapacityProfile) -> Tuple[np.ndarray, np.ndarray, int]:
    """The boxes of the profile's window, their capacities, and the default."""
    ws, caps = profile.window_start, profile.capacities
    return (
        np.arange(ws, ws + len(caps), dtype=np.int64),
        np.asarray(caps, dtype=np.int64),
        profile.default_capacity,
    )


def _carrier_terms(schedule: CarrierSchedule) -> Tuple[np.ndarray, np.ndarray, int]:
    """The schedule's listed times, their values, and the default, with +inf
    stored as INT64_MAX (min(P, M) is P for both)."""

    def value(m: XInt) -> int:
        return INT64_MAX if m.is_pos_inf else m.finite

    return (
        np.array([t for t, _ in schedule.entries], dtype=np.int64),
        np.array([value(m) for _, m in schedule.entries], dtype=np.int64),
        value(schedule.default),
    )


def _signed_prefix(
    p: Tuple[int, ...], at: np.ndarray, values: np.ndarray, default: int, lo: int, hi: int
) -> np.ndarray:
    """S[i, x-lo] = sum_{j=0}^{x-1} min(P_i, v_j) for x in [lo, hi], where
    v_j = values[k] at j = at[k] (at increasing) and v_j = default at every
    other j; for x < 0 the signed convention S(x) = -sum_{j=x}^{-1}
    min(P_i, v_j) holds.

    With c_{i,j} = min(P_i, v_j) - min(P_i, default), both signs read

        S(x) = x min(P_i, default) + sum_{listed j < x} c_{i,j}
                                   - sum_{listed j < 0} c_{i,j},

    so only the listed terms are summed, and no box or time between 0 and
    lo is visited.  Serves the capacities in space (`_profile_terms`) and
    the carrier in time (`_carrier_terms`) for both families.
    """
    j_lo, j_hi = min(lo, 0), max(hi, 0)
    count = j_hi - j_lo
    if max(p) * max(count, 1) > INT64_MAX:
        raise FiniteOverflow(f"sums of {count} terms up to {max(p)} leave int64")
    # a listed term outside [j_lo, j_hi) lies beyond every x read
    keep = (at >= j_lo) & (at < j_hi)
    at = at[keep]
    pcol = np.asarray(p, dtype=np.int64)[:, None]
    base = np.minimum(pcol, default)
    corr = np.zeros((len(p), len(at) + 1), dtype=np.int64)
    np.cumsum(np.minimum(pcol, values[keep]) - base, axis=1, out=corr[:, 1:])
    xs = np.arange(lo, hi + 1, dtype=np.int64)
    return (
        xs * base
        + corr[:, np.searchsorted(at, xs)]
        - corr[:, np.searchsorted(at, 0), None]
    )


def _count_dp(h: np.ndarray, p: Sequence[int]) -> np.ndarray:
    """best[c] = min over c-element subsets J of 0 .. N-1 of

        sum_{i in J} (h[i] + 2 P_i * #{j in J : j < i}),

    elementwise over the trailing axes of h, for c = 0 .. N (best[0] = 0).

    Adding element i to a subset of c earlier ones costs h[i] + 2 P_i c
    whichever they are, so the minimum for each size is a sweep over
    (element, count): O(N^2) array operations instead of 2^N subsets.
    Every partial is the total of some subset.
    """
    big_n = len(p)
    best = np.empty((big_n + 1,) + h.shape[1:], dtype=np.int64)
    # one buffer for every step: a fresh array per step took twice as long
    steps = np.empty((big_n,) + h.shape[1:], dtype=np.int64)
    best[0] = 0
    counts = np.arange(big_n).reshape((-1,) + (1,) * (h.ndim - 1))
    for i, pi in enumerate(p):
        step = steps[: i + 1]
        np.add(best[: i + 1], h[i], out=step)
        step += 2 * pi * counts[: i + 1]
        best[i + 1] = step[i]
        np.minimum(best[1 : i + 1], step[:i], out=best[1 : i + 1])
    return best


def euler_slices(
    params: EulerSolitonParams, n_lo: int, n_hi: int, t_lo: int, t_hi: int
) -> Iterator[EulerFieldSlice]:
    """The fields at t = t_lo .. t_hi over boxes [n_lo, n_hi], from the
    potentials, over n in [n_lo, n_hi+1],

        F^{k,t}_n = min(0, min over nonempty J of pair weight of J
                           + sum_{i in J} H^{k,t}_{i,n}),
        H^{0,t}_{i,n} = Xi_i - sum_{j<n} min(P_i, cap_j)
                             + sum_{j<t} min(P_i, M_j),
        H^{1,t}_{i,n} = H^{0,t}_{i,n} - P_i.

    The pair weight of J is sum over its unordered pairs of 2*min(P_i, P_j),
    the convention under which the underlying subset-sum ansatz solves the
    bilinear lattice (checked exactly in rational arithmetic in the test
    suite).  With the solitons sorted by P, largest first, each of a
    soliton's pairs with earlier chosen ones weighs 2 P_i, so F is the
    minimum over sizes of `_count_dp` (size 0 is the empty set, the 0).

    Each F^{k,t} is evaluated once and only two time slices are alive.
    Raises FiniteOverflow if a potential can leave int64.
    """
    big_n = params.N
    # |sum_{j<x} min(P_i, .)| <= P_i |x|
    reach = 1 + max(abs(n_lo), abs(n_hi + 1)) + max(abs(t_lo), abs(t_hi + 1))
    _require_headroom(
        big_n * big_n * max(params.P)
        + sum(abs(x) + pi * reach for x, pi in zip(params.Xi, params.P))
    )
    # tied speeds may come in either order: their pair weighs 2 P both ways
    order = sorted(range(big_n), key=lambda i: -params.P[i])
    p = tuple(params.P[i] for i in order)
    xi = np.array([params.Xi[i] for i in order], dtype=np.int64)
    s_caps = _signed_prefix(p, *_profile_terms(params.profile), n_lo, n_hi + 1)
    s_car = _signed_prefix(p, *_carrier_terms(params.schedule), t_lo, t_hi + 1)

    # H^{0,t} and H^{1,t} side by side, less the carrier column
    h0 = xi[:, None] - s_caps
    base = np.concatenate([h0, h0 - np.asarray(p, dtype=np.int64)[:, None]], axis=1)
    width = h0.shape[1]

    def potentials(t: int) -> Tuple[np.ndarray, np.ndarray]:
        f = _count_dp(base + s_car[:, t - t_lo, None], p).min(axis=0)
        return f[:width], f[width:]

    f0, f1 = potentials(t_lo)
    for t in range(t_lo, t_hi + 1):
        f0p, f1p = potentials(t + 1)
        yield EulerFieldSlice(
            time=t,
            n_start=n_lo,
            U=f0p[1:] - f0p[:-1] + f1p[:-1] - f1p[1:],
            Ubar=f0[:-1] - f0[1:] + f0p[1:] - f0p[:-1],
            Zbar=f0[:-1] - f0p[:-1] + f1p[:-1] - f1[:-1],
        )
        f0, f1 = f0p, f1p


def euler_nsoliton(
    params: EulerSolitonParams, n_lo: int, n_hi: int, t: int
) -> EulerFieldSlice:
    """Evaluate the closed-form fields at time t over boxes [n_lo, n_hi]:

        U_n    = F0'_{n+1} - F0'_n + F1'_n - F1'_{n+1},
        Ubar_n = F0_n - F0_{n+1} + F0'_{n+1} - F0'_n,
        Zbar_n = F0_n - F0'_n + F1'_n - F1_n,

    with F0 = F^{0,t}, F0' = F^{0,t+1}, F1 = F^{1,t}, F1' = F^{1,t+1}.
    Raises FiniteOverflow if a potential can leave int64.
    """
    return next(euler_slices(params, n_lo, n_hi, t, t))


@dataclass(frozen=True)
class EulerVerifyReport:
    """Max absolute residual of each update rule over the checked window."""

    residuals: Dict[str, int]

    @property
    def max_residual(self) -> int:
        return max(self.residuals.values())

    @property
    def ok(self) -> bool:
        return self.max_residual == 0


def verify_euler_solution(
    params: EulerSolitonParams, n_lo: int, n_hi: int, t_lo: int, t_hi: int
) -> EulerVerifyReport:
    """Check the three coupled update rules between consecutive slices for
    every transition t -> t+1, t in [t_lo, t_hi).

    The rules are local in n, so they are checked pointwise wherever all
    referenced neighbours lie inside the window; no support assumption is
    needed.
    """
    caps = params.profile.caps_array(n_lo, n_hi - n_lo + 1)
    res = {"size_limit": 0, "carrier_load": 0, "recovery": 0}

    def bump(key, diff):
        res[key] = max(res[key], int(np.max(np.abs(diff), initial=0)))

    slices = euler_slices(params, n_lo, n_hi, t_lo, t_hi)
    cur = next(slices)
    for nxt in slices:
        u, u1 = cur.U, nxt.U
        ub, zb = nxt.Ubar, nxt.Zbar
        m = params.schedule.at(nxt.time)
        bump("size_limit", ub - np.minimum(caps - u, zb))
        held = zb[:-1] + u[:-1]
        capped = held if m.is_pos_inf else np.minimum(held, m.finite)
        bump("carrier_load", zb[1:] - (capped - ub[:-1]))
        bump("recovery", u1[:-1] - (u[:-1] + zb[:-1] - zb[1:]))
        cur = nxt
    return EulerVerifyReport(residuals=res)


@dataclass(frozen=True)
class TauParams:
    """Nondecreasing speeds P, weights W, fixed box capacity Delta, and a
    carrier schedule with M_t >= Delta wherever the solution is evolved."""

    P: Tuple[int, ...]
    W: Tuple[int, ...]
    Delta: int
    schedule: CarrierSchedule

    def __post_init__(self):
        object.__setattr__(self, "P", tuple(int(p) for p in self.P))
        object.__setattr__(self, "W", tuple(int(w) for w in self.W))
        if not 1 <= len(self.P) <= MAX_SOLITONS:
            raise ValueError(f"need 1..{MAX_SOLITONS} solitons")
        if len(self.W) != len(self.P):
            raise ValueError("P and W must have equal length")
        if any(p < 0 for p in self.P):
            raise ValueError("speeds P_i must be >= 0")
        if any(a > b for a, b in zip(self.P, self.P[1:])):
            raise ValueError("P must be nondecreasing")
        if self.Delta < 1:
            raise ValueError("Delta must be >= 1")

    @property
    def N(self) -> int:
        return len(self.P)


# (k, barred) -> the times, relative to the fields' time t, at which the
# fields read that potential
_TAU_READS = {(0, False): (0, 0), (1, False): (-1, 0), (0, True): (0, 1), (1, True): (0, 1)}


def _tau_rows(
    params: TauParams, keys: Sequence[Tuple[int, int, bool]]
) -> Dict[Tuple[int, int, bool], list]:
    """The potential rows named by keys, each (k, t, barred), as
    [X_0, ..., X_N, +inf] for X = olT^{k,t} if barred else T^{k,t}.
    Indexing with n = -1 and n = N+1 both lands on the +inf, so a row
    covers n = -1 .. N+1.

    Walking the indices down from N-1, a tuple entry with c entries after
    it has rank n-1-c and weighs its P by 2c, so X_n is entry n of
    `_count_dp` run once per n (the entries' weights depend on n through
    d = 2(n-1)+t+k), all rows and all n at once.  Raises FiniteOverflow,
    before any int64 arithmetic, if a partial sum can leave int64 headroom.
    """
    p, big_n = params.P, params.N
    m_delta = [min(pi, params.Delta) for pi in p]
    # column x - x_lo is sum_{j=0}^{x-1} min(P_r, M_j): T^{k,t} reads
    # x = t + 1, olT^{k,t} reads x = t
    xs = [t + (not barred) for _, t, barred in keys]
    x_lo = min(xs)
    car = _signed_prefix(p, *_carrier_terms(params.schedule), x_lo, max(xs))
    # an entry is W + car - d min(P, Delta) - (P if unbarred) + 2c P
    d_max = 2 * (big_n - 1) + max(abs(k + t) for k, t, _ in keys)
    _require_headroom(
        sum(
            abs(w) + c + d_max * md + (2 * big_n - 1) * pi
            for w, c, md, pi in zip(params.W, np.abs(car).max(axis=1).tolist(), m_delta, p)
        )
    )

    # entry[r, row, n-1] is all of it but the rank weight 2c P
    per_row = (
        np.asarray(params.W, dtype=np.int64)[:, None]
        + car[:, [x - x_lo for x in xs]]
        - np.outer(p, [not barred for _, _, barred in keys])
    )
    d = np.array([k + t for k, t, _ in keys])[:, None] + 2 * np.arange(big_n)
    entry = per_row[:, :, None] - np.asarray(m_delta, dtype=np.int64)[:, None, None] * d
    best = _count_dp(entry[::-1], p[::-1])
    rows = np.zeros((len(keys), big_n + 1), dtype=np.int64)
    rows[:, 1:] = best[np.arange(1, big_n + 1), :, np.arange(big_n)].T
    return {key: row + [POS_INF] for key, row in zip(keys, rows.tolist())}


def _tau_potential(params: TauParams, k: int, t: int, n: int, barred: bool) -> XInt:
    if not -1 <= n <= params.N + 1:
        raise ValueError(f"index n={n} outside [-1, {params.N + 1}]")
    return as_xint(_tau_rows(params, [(k, t, barred)])[k, t, barred][n])


def tau_T(params: TauParams, k: int, t: int, n: int) -> XInt:
    """Potential T^{k,t}_n: exact minimum over all increasing index tuples
    0 <= r_0 < ... < r_{n-1} <= N-1 of

        sum_i [ W_{r_i} + (2(n-1-i)-1) P_{r_i}
                - (2(n-1)+t+k) min(P_{r_i}, Delta)
                + sum_{j=0}^{t} min(P_{r_i}, M_j) ],

    with T_0 = 0 and T_{-1} = T_{N+1} = +inf.
    """
    return _tau_potential(params, k, t, n, barred=False)


def tau_olT(params: TauParams, k: int, t: int, n: int) -> XInt:
    """Companion potential: P coefficient 2(n-1-i) and carrier sum up to
    t-1; same boundaries."""
    return _tau_potential(params, k, t, n, barred=True)


@dataclass(frozen=True)
class TauState:
    """All six variable families at one time, finite entries only
    (boundary gaps are +inf by convention)."""

    time: int
    Q: Tuple[int, ...]
    E: Tuple[int, ...]
    Qbar: Tuple[int, ...]
    Ebar: Tuple[int, ...]
    Cbar: Tuple[int, ...]
    Dbar: Tuple[int, ...]


def _gap(row0: list, olt1_next: list, n: int, delta: int):
    """E_n (row0 = T^{0,t}) or Ebar_n (row0 = olT^{0,t}), olt1_next being
    olT^{1,t+1}."""
    return row0[n + 1] - row0[n] + olt1_next[n - 1] - olt1_next[n] + 2 * delta


def _tau_state(params: TauParams, rows: dict, t: int) -> TauState:
    big_n = params.N
    dd = params.Delta
    t0, t1, t1_prev = rows[0, t, False], rows[1, t, False], rows[1, t - 1, False]
    o0, o1 = rows[0, t, True], rows[1, t, True]
    o0_next, o1_next = rows[0, t + 1, True], rows[1, t + 1, True]
    return TauState(
        time=t,
        Q=tuple(o0_next[n + 1] - o0_next[n] + t1[n] - t1[n + 1] for n in range(big_n)),
        E=tuple(_gap(t0, o1_next, n, dd) for n in range(1, big_n)),
        Qbar=tuple(o0_next[n + 1] - o0_next[n] + o1[n] - o1[n + 1] for n in range(big_n)),
        Ebar=tuple(_gap(o0, o1_next, n, dd) for n in range(1, big_n)),
        Cbar=tuple(o0[n] - o0_next[n] + t1[n] - t1_prev[n] + dd for n in range(big_n + 1)),
        Dbar=tuple(t0[n + 1] - o0_next[n] + o1[n] - t1_prev[n + 1] for n in range(big_n)),
    )


def tau_states(params: TauParams, t_lo: int, t_hi: int) -> Iterator[TauState]:
    """The derived variables at t = t_lo .. t_hi via potential differences:

        Q_n    = olT^{0,t+1}_{n+1} - olT^{0,t+1}_n + T^{1,t}_n - T^{1,t}_{n+1}
        Qbar_n = olT^{0,t+1}_{n+1} - olT^{0,t+1}_n + olT^{1,t}_n - olT^{1,t}_{n+1}
        E_n    = T^{0,t}_{n+1} - T^{0,t}_n + olT^{1,t+1}_{n-1} - olT^{1,t+1}_n + 2D
        Ebar_n = olT^{0,t}_{n+1} - olT^{0,t}_n + olT^{1,t+1}_{n-1} - olT^{1,t+1}_n + 2D
        Cbar_n = olT^{0,t}_n - olT^{0,t+1}_n + T^{1,t}_n - T^{1,t-1}_n + D
        Dbar_n = T^{0,t}_{n+1} - olT^{0,t+1}_n + olT^{1,t}_n - T^{1,t-1}_{n+1}

    Every index read lies in 0 .. N, so every value is finite.  Each
    potential row is evaluated once for the whole range, and FiniteOverflow
    is raised up front if one can leave int64 headroom.
    """
    rows = _tau_rows(params, [
        (k, t, barred)
        for (k, barred), (before, after) in _TAU_READS.items()
        for t in range(t_lo + before, t_hi + after + 1)
    ])
    return (_tau_state(params, rows, t) for t in range(t_lo, t_hi + 1))


def tau_toda_state(params: TauParams, t: int) -> TauState:
    """The derived variables at time t: the one-state case of tau_states."""
    return next(tau_states(params, t, t))


@dataclass(frozen=True)
class TauVerifyReport:
    """Per-equation max residuals (exact, expected all zero)."""

    residuals: Dict[str, int]
    min_q: int
    min_interior_e: Optional[int]
    # Always 0.  Kept only because the closed_form benchmark workload still
    # writes it into its pinned digest; the boundary gaps E_0 = E_N = +inf
    # are a convention, not something a residual can test.
    boundary_failures: int = 0

    @property
    def max_residual(self) -> int:
        return max(self.residuals.values())

    @property
    def ok(self) -> bool:
        return self.max_residual == 0


def verify_tau_solution(params: TauParams, t_lo: int, t_hi: int) -> TauVerifyReport:
    """Check every equation of the capacity-Delta system (K = Lam = Delta)
    between consecutive evaluated slices, transitions t -> t+1 for
    t in [t_lo, t_hi), plus Cbar_0 = Delta.

    Requires Delta <= M_{t+1} on the range (the system's validity
    condition).
    """
    big_n = params.N
    dd = params.Delta
    res = {
        "qbar": 0,
        "ebar": 0,
        "cbar": 0,
        "dbar": 0,
        "cbar0_boundary": 0,
        "q_recovery": 0,
        "e_recovery": 0,
    }
    min_q = None
    min_e = None

    def bump(key, lhs, rhs):
        res[key] = max(res[key], abs(lhs - rhs))

    states = tau_states(params, t_lo, t_hi)
    cur = next(states)
    for nxt in states:
        m = params.schedule.at(nxt.time)
        if m < dd:
            raise ValueError(f"carrier capacity {m} below Delta at t={nxt.time}")

        def cap(x: int) -> int:
            return x if m.is_pos_inf else min(x, m.finite)

        q, e = cur.Q, cur.E
        qb, eb, cb, db = nxt.Qbar, nxt.Ebar, nxt.Cbar, nxt.Dbar

        min_q = min(q) if min_q is None else min(min_q, *q)
        if e:
            min_e = min(e) if min_e is None else min(min_e, *e)

        bump("cbar0_boundary", cb[0], dd)
        for n in range(big_n):
            bump("dbar", db[n], cap(cb[n] + q[n] - dd))
            if n == big_n - 1:
                bump("qbar", qb[n], db[n])  # E_N = +inf
            else:
                bump("qbar", qb[n], min(e[n] - max(0, dd - db[n]), db[n]))
            bump("cbar", cb[n + 1], cap(db[n] - qb[n] + dd))
            bump("q_recovery", nxt.Q[n], q[n] + cb[n] - cb[n + 1])
        for i in range(big_n - 1):
            bump(
                "ebar",
                eb[i],
                e[i]
                - qb[i]
                + q[i + 1]
                - max(0, dd - db[i])
                + max(0, dd - db[i + 1]),
            )
            bump(
                "e_recovery",
                nxt.E[i],
                eb[i] + qb[i] - q[i + 1] - db[i] + db[i + 1],
            )
        cur = nxt

    return TauVerifyReport(
        residuals=res,
        min_q=min_q if min_q is not None else 0,
        min_interior_e=min_e,
    )
