"""Reference implementations that only the tests call.

Scalar per-slot formulas (one user, one slot or one prefix at a time) that
the vectorized model is checked against, the all-zero plan, the tangent
harvest minorant of the paper's path subproblem per (user, prefix), which
``trajectory_solver.assemble_p4``'s vectorized rows are checked against,
the taut string that spends a user's harvest on the most local bits,
the schedule solver's two set-up roots found by plain bisection, its dual
evaluation, KKT residuals and damped Newton step with every per-point term
computed where it is used, and an independent primal solver for the
fixed-path schedule subproblem that serves as a ground-truth oracle on
small instances.  None of them is on the planner's path.  The oracle is
one SLSQP call built from the model's public formulas; it imports nothing
from the schedule solver it checks, nor any private name of the package.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag
from scipy.optimize import minimize

from uavmec.model import (EXPONENT_CAP, DimensionError, OffloadRangeError, Plan,
                          Scenario, channel_gains, harvest_increments)
from uavmec.planner import straight_line_trajectory


# ---------------------------------------------------------------------------
# Per-slot physics
# ---------------------------------------------------------------------------

def channel_gain(s: Scenario, q_u, k: int) -> float:
    """LoS channel power gain between the UAV at ``q_u`` and user ``k``.

    Inverse-square law in 3-D distance: beta0 / (H^2 + ||q_u - q_k||^2).
    ``k`` is a 0-based user index.
    """
    if not 0 <= k < s.K:
        raise IndexError(f"user index {k} out of range [0, {s.K})")
    q_u = np.asarray(q_u, dtype=float)
    d2 = float(np.sum((q_u - s.user_pos[k]) ** 2))
    return s.beta0 / (s.H ** 2 + d2)


def harvested_energy_prefix(s: Scenario, traj, k: int, n: int) -> float:
    """Total energy harvested by user ``k`` over the first ``n`` slots [J].

    ``n`` is a slot count in 1..N.  Nondecreasing in ``n``.
    """
    if not 1 <= n <= s.N:
        raise ValueError(f"slot count n={n} outside 1..{s.N}")
    if not 0 <= k < s.K:
        raise IndexError(f"user index {k} out of range [0, {s.K})")
    traj = np.asarray(traj, dtype=float)
    if traj.shape[0] < n:
        raise DimensionError(f"trajectory has {traj.shape[0]} points, need >= {n}")
    d2 = np.sum((traj[:n] - s.user_pos[k]) ** 2, axis=1)
    h = s.beta0 / (s.H ** 2 + d2)
    return float(s.slot * s.eta * s.P_u * np.sum(h))


def offload_tx_power(s: Scenario, gain: float, l_bits: float) -> float:
    """User TX power needed to push ``l_bits`` through one subslot [W].

    Inverts the capacity formula at gap ``Gamma``:
    P = Gamma * sigma2 * (2^(l/(B lam)) - 1) / gain.
    Zero iff ``l_bits`` is zero; strictly convex and increasing in the load.
    """
    if gain <= 0:
        raise ValueError("channel gain must be positive")
    if l_bits < 0:
        raise ValueError("offloaded bits must be nonnegative")
    ratio = l_bits / (s.B * s.lam)
    if ratio > EXPONENT_CAP:
        raise OffloadRangeError(
            f"offload load out of numeric range: l/(B lam) = {ratio:.3g} > {EXPONENT_CAP}")
    return s.Gamma * s.sigma2 * (2.0 ** ratio - 1.0) / gain


def compute_energy(s: Scenario, f) -> float | np.ndarray:
    """CMOS compute energy for one slot at CPU frequency ``f`` [J].

    gamma_c * (T/N) * f^3; the same law applies to users and to the UAV.
    """
    f = np.asarray(f, dtype=float)
    if np.any(f < 0):
        raise ValueError("CPU frequency must be nonnegative")
    out = s.gamma_c * s.slot * f ** 3
    return float(out) if out.ndim == 0 else out


def propulsion_energy(s: Scenario, q_a, q_b) -> float:
    """Propulsion energy for one slot moving from q_a to q_b [J].

    kappa * v^2 with v = ||q_b - q_a|| / (T/N).
    """
    q_a = np.asarray(q_a, dtype=float)
    q_b = np.asarray(q_b, dtype=float)
    v = float(np.linalg.norm(q_b - q_a)) / s.slot
    return s.kappa * v * v


def zero_plan(s: Scenario, traj=None) -> Plan:
    """All-zero decisions on the given trajectory (the straight dash by default)."""
    if traj is None:
        traj = straight_line_trajectory(s)
    return Plan(traj=np.asarray(traj, dtype=float),
                l=np.zeros((s.K, s.N)),
                f_user=np.zeros((s.K, s.N)),
                f_uav=np.zeros(s.N))


# ---------------------------------------------------------------------------
# Harvest minorant of the paper's path subproblem
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HarvestLowerBound:
    """Concave-quadratic minorant of one user's harvest prefix.

    value(traj) = const - sum_i coef[i] * ||traj[i] - user||^2, taken over
    the first ``n_slots`` trajectory points.  Exact at the expansion path;
    a lower bound on the true prefix everywhere else.
    """

    user: np.ndarray        # (2,) user position
    n_slots: int
    const: float            # [J]
    coef: np.ndarray        # (n_slots,) nonnegative quadratic weights

    def value(self, traj) -> float:
        traj = np.asarray(traj, dtype=float)
        d2 = np.sum((traj[: self.n_slots] - self.user) ** 2, axis=1)
        return self.const - float(self.coef @ d2)

    def gradient(self, traj) -> np.ndarray:
        """(n_slots, 2) derivative with respect to the used path points."""
        traj = np.asarray(traj, dtype=float)
        return -2.0 * self.coef[:, None] * (traj[: self.n_slots] - self.user)


def sca_lower_bound(s: Scenario, expansion_traj, k: int, n: int) -> HarvestLowerBound:
    """Tangent minorant of user ``k``'s harvested energy over ``n`` slots.

    Each inverse-quadratic harvest term a/(b+z) is bounded below by its
    tangent in z = squared horizontal distance, which collects into a
    constant minus nonnegative quadratic weights on the path points.
    """
    if not 1 <= n <= s.N:
        raise ValueError(f"slot count n={n} outside 1..{s.N}")
    if not 0 <= k < s.K:
        raise IndexError(f"user index {k} out of range [0, {s.K})")
    exp = np.asarray(expansion_traj, dtype=float)
    if exp.shape[0] < n:
        raise DimensionError(f"expansion trajectory has {exp.shape[0]} points, need >= {n}")
    pref = s.slot * s.eta * s.P_u * s.beta0
    r2 = np.sum((exp[:n] - s.user_pos[k]) ** 2, axis=1)
    den = s.H ** 2 + r2
    coef = pref / den ** 2
    const = float(np.sum(coef * (s.H ** 2 + 2.0 * r2)))
    return HarvestLowerBound(user=s.user_pos[k].copy(), n_slots=n,
                             const=const, coef=coef)


# ---------------------------------------------------------------------------
# Local-only spending under energy causality
# ---------------------------------------------------------------------------

def taut_string(harv):
    """Per-slot spending that computes the most local bits from the slot
    harvests ``harv`` (one row per user) while no prefix spends more than
    it harvested: the slopes of the greatest convex minorant of the
    cumulative harvest, by pool-adjacent-violators (the nondecreasing
    least-squares fit of the harvests; Barlow et al., *Statistical
    Inference under Order Restrictions*, 1972), one slot at a time."""
    rows = []
    for row in np.asarray(harv, dtype=float):
        blocks = []                                 # [harvest sum, slot count]
        for h in row:
            blocks.append([h, 1])
            while len(blocks) > 1:
                (s1, c1), (s2, c2) = blocks[-2:]
                if s1 / c1 <= s2 / c2:
                    break
                blocks[-2:] = [[s1 + s2, c1 + c2]]
        rows.append([total / count for total, count in blocks for _ in range(count)])
    return np.array(rows)


def local_capacities(s: Scenario, traj):
    """Local-only bits per user [bits] of three causal schedules on path
    ``traj``: the constant frequency, each slot's harvest spent in that
    slot, and the taut string (:func:`taut_string`)."""
    e = harvest_increments(s, channel_gains(s, traj))
    cycles = 1.0 / (s.gamma_c * s.slot)             # f^3 per joule spent in a slot

    def bits(spend):
        return s.slot / s.M * np.cbrt(spend * cycles).sum(axis=1)

    per_slot = (np.cumsum(e, axis=1) / np.arange(1, s.N + 1)).min(axis=1)
    return bits(np.repeat(per_slot[:, None], s.N, axis=1)), bits(e), bits(taut_string(e))


# ---------------------------------------------------------------------------
# Set-up roots of the schedule solver, by bisection
# ---------------------------------------------------------------------------
# Both work on plain arrays in the solver's Mbit / GHz / mJ units: ``bl``
# Mbit per subslot at 1 bit/s/Hz, ``bits_f`` Mbit per GHz-slot, ``c_f`` mJ
# per GHz^3-slot.

def policy_split(e, a_tx, bits_f, c_f, bl):
    """Local energy x per slot of the spend-as-harvested policy, which
    spends each slot's harvest ``e`` in that slot to maximize its bits
    (all of it locally in the last slot): 60 bisection rounds on [0, e] on
    the sign of the concave bit count's slope in x.  ``a_tx`` is the TX
    cost per slot, so TX bits are bl log2(1 + (e - x) / a_tx)."""
    room = a_tx + e
    loc_gain = bits_f / (3.0 * np.cbrt(c_f))        # local slope times x^(2/3)
    tx_gain = bl / math.log(2.0)                    # TX slope times (room - x)
    lo, hi = np.zeros_like(e), np.array(e, dtype=float)
    for _ in range(60):
        x = 0.5 * (lo + hi)
        rising = loc_gain * (room - x) > tx_gain * np.cbrt(x) ** 2
        np.copyto(lo, x, where=rising)
        np.copyto(hi, x, where=~rising)
    x = 0.5 * (lo + hi)
    x[:, -1] = e[:, -1]
    return x


def policy_bits(e, a_tx, bits_f, c_f, bl):
    """Bits per user [Mbit] of the split of :func:`policy_split`."""
    x = policy_split(e, a_tx, bits_f, c_f, bl)
    return (bits_f * np.cbrt(x / c_f) + bl * np.log2(1.0 + (e - x) / a_tx)).sum(axis=1)


def policy_margins(s: Scenario, traj):
    """Deliverable bits minus demand per user under the spend-as-harvested
    policy [bits] (:func:`policy_bits` on the scenario's scaled data)."""
    gains = channel_gains(s, traj)
    e = harvest_increments(s, gains) / 1e-3
    a_tx = s.lam * s.Gamma * s.sigma2 / gains / 1e-3
    bits = policy_bits(e, a_tx, s.slot * 1e9 / s.M / 1e6, s.gamma_c * s.slot * 1e27 / 1e-3,
                       s.B * s.lam / 1e6)
    return (bits - s.R / 1e6) * 1e6


def total_budget_prices(a, budget, R, bits_f, c_f, bl, dtype=float, rounds=60):
    """Optimal (bit prices, last energy prices, slack) of the relaxation
    that keeps only each user's total energy ``budget`` and the UAV's total
    compute balance, over TX costs ``a`` (K, N - 1) and demands ``R``.

    Each user's water level omega comes from ``rounds`` geometric bisection
    rounds between its cheapest TX cost and the level where TX costs per
    bit what all-local compute does, on the test that local compute still
    costs more per bit (m_loc > m_tx) and the energy is still above the
    budget.  The total offload prices the UAV at slack = 3 c_f fu^2 /
    bits_f, and a user at its water level gets V = slack / (m_loc - m_tx)
    and mu = V m_loc.  Everything is computed in ``dtype``: ``np.longdouble``
    with 80 rounds gives an extended-precision reference where the platform
    has one (x87 80-bit on x86-64 Linux).
    """
    a, budget, R = (np.asarray(x, dtype) for x in (a, budget, R))
    bits_f, c_f, bl = (dtype(x) for x in (bits_f, c_f, bl))
    N = a.shape[1] + 1
    rate = np.log(dtype(2.0)) / bl

    def schedule(omega):
        off = bl * np.log2(np.maximum(omega[:, None] / a, 1.0)).sum(axis=1)
        f = np.maximum(R - off, 0.0) / (bits_f * N)
        energy = c_f * N * f ** 3 + np.maximum(omega[:, None] - a, 0.0).sum(axis=1)
        return off, 3.0 * c_f * f ** 2 / bits_f, omega * rate, energy

    lo = a.min(axis=1)
    _, m_loc, _, energy = schedule(lo)
    priced = energy > budget
    hi = np.maximum(lo, m_loc / rate)
    for _ in range(rounds):
        omega = np.sqrt(lo * hi)
        _, m_loc, m_tx, energy = schedule(omega)
        rising = (m_loc > m_tx) & (energy > budget)
        np.copyto(lo, omega, where=rising)
        np.copyto(hi, omega, where=~rising)
    off, m_loc, m_tx, _ = schedule(lo)
    fu = off.sum() / (bits_f * (N - 1))
    slack = 3.0 * c_f * fu ** 2 / bits_f
    water = priced | (m_loc > m_tx)
    V = np.where(water, slack / np.where(water, m_loc - m_tx, 1.0), 0.0)
    return V * m_loc, V, slack


# ---------------------------------------------------------------------------
# The schedule solver's per-point terms, each computed where it is used
# ---------------------------------------------------------------------------
# Duck-typed on the solver's scaled problem ``sp`` (K, N, a_tx, a_ln2, bl,
# l_cap, f_cap, c_f, bits_f, R, eharv) and packed prices ``z`` or a
# recovered price point ``point`` (mu, nu, theta, V, uav_gap, primal,
# gaps).  Each recomputes 2^(l / bl), mu - gap and 3 c_f f^2 from the
# prices or the primal point, reads no per-solve factor or scratch of
# ``sp`` and builds its index maps from scratch, so the solver's shared
# terms are checked against an evaluation that shares nothing.

def recover_point(sp, z):
    """(value, grad, (l, f, fu), (c1, c2, c3, c4)) at the packed prices
    ``z`` (bit prices, causality prices, mid UAV prices, slack): the dual
    value and the negated dual's packed gradient, read off the Lagrangian
    minimizer and its constraint gaps.  The UAV price gaps are the slack
    plus the mid prices before each slot; where a user's energy-price tail
    vanishes, bits and cycles priced above zero sit at their caps."""
    K, N = sp.K, sp.N
    mu, nu = z[:K], z[K : K + K * N].reshape(K, N)
    mid, slack = z[K + K * N : -1], z[-1]
    gap = slack + np.concatenate(([0.0], np.cumsum(mid)))
    theta = np.concatenate(([0.0], mid, gap[-1:]))
    V = np.flip(np.cumsum(np.flip(nu, axis=1), axis=1), axis=1)
    V_pos = np.where(V > 0.0, V, 0.0)
    fu = np.zeros(N)
    fu[1:] = np.sqrt(sp.bits_f * np.maximum(gap, 0.0) / (3.0 * sp.c_f))
    w = mu[:, None] - gap
    l = np.zeros((K, N))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        arg = w * sp.bl / (sp.a_tx[:, : N - 1] * math.log(2.0) * V_pos[:, : N - 1])
        l[:, : N - 1] = np.where(w > 0.0, np.minimum(sp.bl * np.log2(np.maximum(arg, 1.0)),
                                                     EXPONENT_CAP * sp.bl), 0.0)
        f = np.sqrt(mu[:, None] * sp.bits_f / (3.0 * sp.c_f * V_pos))
    f_cap = np.maximum(sp.R / sp.bits_f, 1.0)
    f = np.where(mu[:, None] > 0.0, np.minimum(f, f_cap[:, None]), 0.0)
    grow = np.exp2(l / sp.bl)
    c2 = (np.cumsum(sp.c_f * f ** 3 + sp.a_tx * (grow - 1.0), axis=1)
          - np.cumsum(sp.eharv, axis=1))
    tx_bits = l[:, : N - 1].sum(axis=1)
    c1 = sp.R - (sp.bits_f * f.sum(axis=1) + tx_bits)
    c3 = sp.bits_f * np.cumsum(fu)[: N - 1]
    c3[1:] -= np.cumsum(l.sum(axis=0))[: N - 2]
    c4 = float(tx_bits.sum() - sp.bits_f * fu.sum())
    value = (sp.c_f * float((fu ** 3).sum()) + float(mu @ c1) + float((nu * c2).sum())
             + float(theta[: N - 1] @ c3) + theta[N - 1] * c4)
    grad = np.concatenate((-c1, -c2.ravel(), -c4 - c3[1 : N - 1], [-c4]))
    return value, grad, (l, f, fu), (c1, c2, c3, c4)


def kkt_residuals(sp, point):
    """Scaled (stationarity, primal, complementarity) KKT residuals at a
    price point and its Lagrangian minimizer."""
    N = sp.N
    mu, nu, theta, V, gap = point.mu, point.nu, point.theta, point.V, point.uav_gap
    l, f, fu = point.primal
    c1, c2, c3, c4 = point.gaps
    primal = max(float(np.abs(c1).max(initial=0.0)),
                 float(np.max(c2, initial=0.0)),
                 float(np.max(c3, initial=0.0)),
                 abs(c4))
    comp = max(float(np.abs(nu * c2).max(initial=0.0)),
               float(np.abs(theta[: N - 1] * c3).max(initial=0.0)))
    w = mu[:, None] - gap
    dl = sp.a_ln2 / sp.bl * np.exp2(l[:, : N - 1] / sp.bl) * V[:, : N - 1] - w
    dl_proj = np.where(l[:, : N - 1] <= 0.0, np.minimum(dl, 0.0), dl)
    df = 3.0 * sp.c_f * f ** 2 * V - mu[:, None] * sp.bits_f
    df_proj = np.where(f <= 0.0, np.minimum(df, 0.0), df)
    dfu = 3.0 * sp.c_f * fu[1:] ** 2 - sp.bits_f * gap
    dfu_proj = np.where(fu[1:] <= 0.0, np.minimum(dfu, 0.0), dfu)
    stat = max(float(np.abs(dl_proj).max(initial=0.0)),
               float(np.abs(df_proj).max(initial=0.0)),
               float(np.abs(dfu_proj).max(initial=0.0)))
    return stat, primal, comp


def tail_newton_step(sp, point, free, grad, damping):
    """(step, shift) of the damped Newton system in price-tail coordinates
    on the packed prices where ``free`` holds: segments of consecutive free
    causality prices eliminated elementwise, then one dense solve on the
    free bit and UAV prices (see the solver's ``_tail_newton``)."""
    K, N = sp.K, sp.N
    (l, f, fu), V = point.primal, point.V
    rate = math.log(2.0) / sp.bl
    tx_slope = sp.a_tx * rate * np.exp2(l / sp.bl)
    free_l = (l > 0.0) & (l < sp.l_cap) & (V > 0.0)
    free_l[:, N - 1] = False
    free_f = (f > 0.0) & (f < sp.f_cap[:, None]) & (V > 0.0)
    wl = np.divide(1.0, V * tx_slope * rate, out=np.zeros((K, N)), where=free_l)
    wf = np.divide(1.0, 6.0 * sp.c_f * f * V, out=np.zeros((K, N)), where=free_f)
    wu = np.divide(1.0, 6.0 * sp.c_f * fu, out=np.zeros(N), where=fu > 0.0)
    e_f = 3.0 * sp.c_f * f ** 2
    txw = tx_slope * wl

    own = free[K : K + K * N].reshape(K, N)
    seg = K + np.flatnonzero(own)
    S = seg.size
    ahead = np.cumsum(own.ravel()).reshape(K, N) - own
    gs = np.where(np.logical_or.accumulate(own[:, ::-1], axis=1)[:, ::-1], ahead, S)
    by_first = np.concatenate((free[-1:], free[K + K * N : -1]))
    rest = np.concatenate([np.flatnonzero(free[:K]),
                           K + K * N + (np.flatnonzero(by_first)[::-1] - 1) % (N - 1)])
    R, n_mu = rest.size, int(free[:K].sum())
    mc = np.where(free[:K], np.cumsum(free[:K]) - 1, R)
    count = np.cumsum(by_first)
    ul = np.append(np.where(count > 0, R - count, R), R)
    uu = np.append(R, ul[: N - 1])

    d = np.bincount(gs.ravel(), (tx_slope * txw + e_f ** 2 * wf).ravel(), minlength=S + 1)[:S]
    at = gs * (R + 1)
    G = np.bincount(np.concatenate([(at + mc[:, None]).ravel(), (at + ul).ravel()]),
                    np.concatenate([-(txw + sp.bits_f * e_f * wf).ravel(), txw.ravel()]),
                    minlength=(S + 1) * (R + 1)).reshape(S + 1, R + 1)[:S, :R]
    WU = np.bincount((np.arange(K)[:, None] * (R + 1) + ul).ravel(), wl.ravel(),
                     minlength=K * (R + 1)).reshape(K, R + 1)
    B = np.zeros((R + 1, R + 1))
    B[mc], B[:, mc] = -WU, -WU.T
    diag = WU.sum(axis=0) + sp.bits_f ** 2 * np.bincount(uu, wu, minlength=R + 1)
    diag[mc] = (wl + sp.bits_f ** 2 * wf).sum(axis=1)
    B.flat[:: R + 2] = diag
    B = B[:R, :R]
    shift = damping * (max(d.max(initial=0.0), diag[:R].max(initial=0.0)) or 1.0)
    same = np.diff((seg - K) // N) == 0
    r_seg = grad[seg] - np.concatenate(([0.0], np.where(same, grad[seg[:-1]], 0.0)))
    dd = d + shift
    Gd = G / dd[:, None]
    Ab = np.column_stack((B - G.T @ Gd, Gd.T @ r_seg))
    np.cumsum(Ab[n_mu:], axis=0, out=Ab[n_mu:])
    np.cumsum(Ab[:, n_mu:R], axis=1, out=Ab[:, n_mu:R])
    Ab.flat[:: R + 2] += shift
    y = np.linalg.solve(Ab[:, :R], grad[rest] - Ab[:, R])
    tails = np.concatenate((y[:n_mu], np.cumsum(y[n_mu:][::-1])[::-1]))
    y_seg = r_seg / dd - Gd @ tails
    step = np.zeros(grad.size)
    step[seg] = y_seg - np.concatenate((np.where(same, y_seg[1:], 0.0), [0.0]))
    step[rest] = y
    return step, shift


# ---------------------------------------------------------------------------
# Independent primal oracle
# ---------------------------------------------------------------------------

def primal_oracle_p2(s: Scenario, traj):
    """Ground-truth optimum of the fixed-path schedule subproblem P2, for
    small instances.

    One SLSQP solve (Kraft, DFVLR-FB 88-28, 1988) of the primal problem in
    (l, f_user, f_uav), built from the model's public formulas alone and
    worked in Mbit / GHz / mJ so that every variable is of order one.  The
    bit balances and the compute balance are linear equalities, the UAV's
    prefix causality (slots 1..N-2) linear inequalities and each user's
    prefix energy causality a convex inequality, all with exact Jacobians.
    The offload bounds stop at ``EXPONENT_CAP`` bits/s/Hz, so the TX energy
    stays finite at every trial point.  The start is the all-local constant
    frequency, which meets every equality.  SLSQP's "positive directional
    derivative" ending (status 8) is its usual stop at the rounding floor;
    any other failure raises ``RuntimeError``.

    Returns ((l, f_user, f_uav) in SI, objective [J]).
    """
    K, N = s.K, s.N
    if np.all(s.R == 0.0):
        return (np.zeros((K, N)), np.zeros((K, N)), np.zeros(N)), 0.0

    bl = s.B * s.lam / 1e6                          # Mbit per subslot at 1 bit/s/Hz
    bits_f = s.slot * 1e9 / s.M / 1e6               # Mbit per GHz-slot
    c_f = s.gamma_c * s.slot * 1e27 / 1e-3          # mJ per GHz^3-slot
    gains = channel_gains(s, traj)
    a_tx = s.lam * s.Gamma * s.sigma2 / gains[:, : N - 1] / 1e-3
    harvest = np.cumsum(harvest_increments(s, gains), axis=1) / 1e-3
    R = s.R / 1e6
    # x = (l over the N-1 TX slots, f_user, f_uav over slots 1..N-1).
    n_l, n_f = K * (N - 1), K * N
    tril = np.tril(np.ones((N, N)))                 # prefix sums

    def split(x):
        return x[:n_l].reshape(K, N - 1), x[n_l : n_l + n_f].reshape(K, N), x[n_l + n_f :]

    eye = np.eye(K)
    a_eq = np.block([
        [np.kron(eye, np.ones(N - 1)), np.kron(eye, np.full(N, bits_f)), np.zeros((K, N - 1))],
        [np.ones((1, n_l)), np.zeros((1, n_f)), np.full((1, N - 1), -bits_f)]])
    b_eq = np.append(R, 0.0)
    prefix = tril[: N - 2, : N - 1]                 # offload before slot n, compute through n
    a_uav = np.hstack([np.tile(prefix, K), np.zeros((N - 2, n_f)), -bits_f * prefix])

    def objective(x):
        fu = split(x)[2]
        return c_f * float(fu @ fu ** 2), np.concatenate([np.zeros(n_l + n_f), 3.0 * c_f * fu ** 2])

    def causality(x):
        l, f, _ = split(x)
        spend = c_f * f ** 3
        spend[:, : N - 1] += a_tx * (np.exp2(l / bl) - 1.0)
        return (harvest - np.cumsum(spend, axis=1)).ravel()

    def causality_jac(x):
        l, f, _ = split(x)
        d_tx = a_tx * math.log(2.0) / bl * np.exp2(l / bl)
        return np.hstack([block_diag(*(-tril[:, : N - 1] * d for d in d_tx)),
                          block_diag(*(-tril * (3.0 * c_f * g ** 2) for g in f)),
                          np.zeros((K * N, N - 1))])

    x0 = np.concatenate([np.zeros(n_l), np.repeat(R / (bits_f * N), N), np.zeros(N - 1)])
    res = minimize(objective, x0, jac=True, method="SLSQP",
                   bounds=[(0.0, EXPONENT_CAP * bl)] * n_l + [(0.0, None)] * (n_f + N - 1),
                   constraints=[
                       dict(type="eq", fun=lambda x: a_eq @ x - b_eq, jac=lambda x: a_eq),
                       dict(type="ineq", fun=lambda x: a_uav @ x, jac=lambda x: a_uav),
                       dict(type="ineq", fun=causality, jac=causality_jac)],
                   options=dict(ftol=1e-10, maxiter=1000))
    if res.status not in (0, 8):
        raise RuntimeError(f"SLSQP: {res.message}")
    l, f, fu = split(res.x)
    l_si = np.zeros((K, N))
    l_si[:, : N - 1] = l * 1e6
    fu_si = np.concatenate(([0.0], fu)) * 1e9
    return (l_si, f * 1e9, fu_si), s.gamma_c * s.slot * float(np.sum(fu_si ** 3))
