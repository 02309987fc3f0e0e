"""Test-side oracles of the Toda picture: the stages the paper builds the
bounded-carrier step from.

utoda_step is the classical ultradiscrete Toda recurrence (all capacities
1, unbounded carrier) and utoda_step_sumform the same step in partial sums;
lagrange_step advances the start positions instead of the sizes;
extoda_step adds per-box capacities K_n / Lam_n.  boxball.enutoda_step,
the step the product runs, adds the bounded carrier; at M = +inf it must
equal extoda_step, which must reduce to utoda_step at unit capacities.
capacities_for_state, extoda_step's sampler, looks each capacity up box
by box, so it shares no code with enutoda_step's own capacity lookup.
"""

from typing import Sequence, Tuple

from boxball import DegenerateState, TodaState, TodaStepTrace, lagrange_to_toda, toda_to_lagrange


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
    Y_n of toda_to_lagrange, each looked up box by box."""
    profile = state.profile
    x, y = toda_to_lagrange(state.Q, state.E, state.X0)
    k = tuple(profile.capacity(profile.segment_to_box(s)) for s in x)
    lam = tuple(profile.capacity(profile.segment_to_box(s)) for s in y)
    return k, lam


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
