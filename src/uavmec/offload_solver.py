"""Offloading and CPU-frequency optimization at a fixed flight path.

With the trajectory held fixed, the joint plan reduces to a convex program
in the offloaded bits ``l``, the user CPU frequencies ``f_user`` and the
UAV CPU frequencies ``f_uav`` whose objective is the UAV compute energy.
This module solves it by Lagrangian duality: the inner minimization has
closed forms per variable (exponential TX cost against linear bit prices,
cubic compute cost against linear bit and energy prices), so the dual is
maximized over the multipliers directly.  The closed forms are
differentiable in the prices, which makes the dual Hessian exact and cheap;
one projected Newton method (Bertsekas, SIAM J. Control Optim. 20(2),
1982) with Levenberg-Marquardt damping climbs it on the nonnegative box.
:func:`solve_p2` calls that loop (:func:`minimize`) directly.  In price-tail
coordinates each user's block of the Hessian is diagonal, so each damped
Newton system eliminates the users' segments elementwise and ends in one
dense ``np.linalg.solve`` of at most K + N - 1 rows.  A cold solve starts
at the exact optimum of the relaxation that keeps only each user's total
energy budget and the UAV's total compute balance, one water level per
user, which has nearly the right active set.

All public interfaces take and return SI units.  Internally the solver
works in Mbit / GHz / mJ, which conditions the multipliers to order one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SolverError
from .model import (
    Scenario,
    channel_gains,
    harvest_increments,
    EXPONENT_CAP,
)

__all__ = [
    "DualState",
    "OffloadSolution",
    "OffloadKkt",
    "InfeasibleTrajectoryError",
    "DualIterationLimitError",
    "solve_p2",
    "probe_feasibility",
    "price_tangent",
]

# Internal unit scales: bits -> Mbit, Hz -> GHz, J -> mJ.
_BIT = 1e6
_FREQ = 1e9
_EN = 1e-3
# Bit-price multipliers (per-bit prices) scale by mJ/Mbit over J/bit.
_PRICE = _BIT / _EN
_TOL = 1e-6            # scaled KKT tolerance a schedule solve must meet
_MAX_STEPS = 200       # dual ascent iterates at most
_DAMPING_FLOOR = 1e-12  # least damping of an ascent, and a warm start's first


class InfeasibleTrajectoryError(SolverError):
    """A user's demand is not certified by the spend-as-harvested policy on
    this trajectory (a sufficient test, so the demand may still be
    feasible)."""


class DualIterationLimitError(SolverError):
    """Dual ascent stalled before reaching the requested KKT tolerance; the
    message reports the Newton steps and dual evaluations it took."""


@dataclass(frozen=True)
class DualState:
    """Multipliers of the fixed-trajectory subproblem (SI units), finite
    and nonnegative.

    mu    : (K,) bit-balance prices [J/bit]
    nu    : (K, N) energy-causality prices [dimensionless]
    theta : (N,) UAV-causality prices; the last entry prices the total
            compute balance [J/bit]
    """

    mu: np.ndarray
    nu: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float).copy()
        nu = np.asarray(self.nu, dtype=float).copy()
        theta = np.asarray(self.theta, dtype=float).copy()
        if nu.ndim != 2 or mu.shape != (nu.shape[0],) or theta.shape != (nu.shape[1],):
            raise ValueError(
                f"inconsistent dual shapes mu={mu.shape} nu={nu.shape} theta={theta.shape}")
        for name, arr in (("mu", mu), ("nu", nu), ("theta", theta)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} entries must be finite")
            if np.any(arr < -1e-12 * max(1.0, np.abs(arr).max(initial=0.0))):
                raise ValueError(f"{name} must be entrywise nonnegative")
            arr.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "theta", theta)

    @classmethod
    def zeros(cls, K: int, N: int) -> "DualState":
        return cls(mu=np.zeros(K), nu=np.zeros((K, N)), theta=np.zeros(N))


@dataclass(frozen=True)
class OffloadKkt:
    """Scaled KKT residual norms of an offload solution.

    Dual feasibility holds by construction: every iterate lies in the
    nonnegative price box.
    """

    stationarity: float
    primal: float
    complementarity: float

    def max(self) -> float:
        """Largest residual; NaN if any residual is NaN."""
        res = (self.stationarity, self.primal, self.complementarity)
        return math.nan if math.isnan(sum(res)) else max(res)


@dataclass(frozen=True)
class OffloadSolution:
    l: np.ndarray            # (K, N) offloaded bits
    f_user: np.ndarray       # (K, N) user CPU frequencies [Hz]
    f_uav: np.ndarray        # (N,) UAV CPU frequencies [Hz]
    duals: DualState
    objective: float         # UAV compute energy [J]
    dual_objective: float    # best dual lower bound [J]
    kkt: OffloadKkt
    # (iteration, dual value [J], max scaled KKT residual) rows, one per
    # Newton iterate, the start first
    trace: tuple = ()

    @property
    def plan_part(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.l, self.f_user, self.f_uav


# ---------------------------------------------------------------------------
# Scaled problem data
# ---------------------------------------------------------------------------

def _scratch(dtype, *shapes):
    """A flat buffer of ``dtype`` and its consecutive views of ``shapes``."""
    sizes = [math.prod(shape) for shape in shapes]
    buf, ends = np.empty(sum(sizes), dtype), itertools.accumulate(sizes)
    return buf, [buf[end - n : end].reshape(shape) for shape, n, end in zip(shapes, sizes, ends)]


class _ScaledP2:
    """Per-trajectory constants in Mbit / GHz / mJ units from the path's
    channel ``gains``, for the scenario's users picked by ``users`` (an
    index or slice; all of them by default).

    Besides the problem data it holds what every recovery, residual and
    Newton system of one solve would otherwise rebuild: the scalar factors
    ln 2 / bl, 3 c_f, 6 c_f and bits_f^2, the per-slot factors a_tx (ln 2 /
    bl) (``a_rate``, every slot) and (a_tx ln 2) / bl (``a_ln2_bl``, the
    TX slots; the two round apart), the cap column ``f_cap_col``, the user
    index grid, the packed order of the UAV prices, and :func:`_scratch`
    buffers that a residual or Newton system fills and then reduces, bins
    or inverts in one call.  Their views alias them: build, never copy."""

    def __init__(self, s: Scenario, gains, users=slice(None)):
        self.N = s.N
        self.eharv = harvest_increments(s, gains[users]) / _EN     # (K, N) mJ harvest
        self.a_tx = s.lam * s.Gamma * s.sigma2 / gains[users] / _EN  # (K, N) mJ
        self.bl = s.B * s.lam / _BIT                               # Mbit per subslot
        self.bits_f = s.slot * _FREQ / s.M / _BIT                  # Mbit per GHz-slot
        self.c_f = s.gamma_c * s.slot * _FREQ ** 3 / _EN           # mJ per GHz^3-slot
        self.R = s.R[users] / _BIT                                 # Mbit
        self.K = self.R.shape[0]
        self.l_cap = EXPONENT_CAP * self.bl
        self.f_cap = np.maximum(self.R / self.bits_f, 1.0)         # (K,) GHz
        self.f_cap_col = self.f_cap[:, None]
        self.a_ln2 = self.a_tx[:, : self.N - 1] * math.log(2.0)   # TX slots' a_tx ln 2
        self.a_ln2_bl = self.a_ln2 / self.bl
        self.rate = math.log(2.0) / self.bl                       # ln 2 / bl
        self.a_rate = self.a_tx * self.rate                       # a_tx ln 2 / bl
        self.c3, self.c6 = 3.0 * self.c_f, 6.0 * self.c_f
        self.bits_f2 = self.bits_f ** 2
        self.cum_eharv = np.cumsum(self.eharv, axis=1)
        K, N = self.K, self.N
        self.users = np.arange(K)
        self.user_col = self.users[:, None]
        # Packed position of the UAV price whose first slot is i = 0 .. N-2
        # (the slack first, then the mid prices), and the order in which the
        # Newton system takes the bit prices and then the UAV prices, latest
        # first slot first.
        size = K + K * N + N - 1
        self.uav_first = np.concatenate(([size - 1], np.arange(K + K * N, size - 1)))
        self.rest_order = np.concatenate((self.users, self.uav_first[::-1]))
        KN, slots = (K, N), ((K, N - 1), (K, N), (N - 1,))
        self.stat, self.at_zero = _scratch(float, *slots), _scratch(bool, *slots)
        self.comp = _scratch(float, KN, (N - 1,))
        self.bin_w = _scratch(float, KN, KN, KN, KN, (N,), KN)
        self.bin_at = _scratch(np.intp, KN, KN, KN, KN, (N,))
        self.curv, self.free_var = _scratch(float, KN, (N,), KN), _scratch(bool, KN, (N,), KN)

    def __reduce__(self):
        raise TypeError("_ScaledP2 views its own scratch buffers: build one, never copy it")

    def violations(self, l, f, fu, grow):
        """Signed constraint gaps at a scaled primal point whose bits ``l``
        stay within ``l_cap``, with ``grow`` = 2^(l / bl).

        Returns (c1, c2, c3, c4): bit deficit per user, energy-causality
        prefix gaps, UAV-causality prefix gaps, and the signed compute
        balance (offloaded minus computed).
        """
        local_e = self.c_f * f ** 3
        c2 = np.add.accumulate(local_e + self.a_tx * (grow - 1.0), axis=1) - self.cum_eharv
        tx_bits = np.add.reduce(l[:, : self.N - 1], axis=1)
        c1 = self.R - (self.bits_f * np.add.reduce(f, axis=1) + tx_bits)
        c3 = self.bits_f * np.add.accumulate(fu)[: self.N - 1]
        c3[1:] -= np.add.accumulate(np.add.reduce(l, axis=0))[: self.N - 2]
        c4 = float(np.add.reduce(tx_bits) - self.bits_f * np.add.reduce(fu))
        return c1, c2, c3, c4

    def lagrangian(self, mu, nu, theta, fu, gaps) -> float:
        """Lagrangian [mJ] at a primal point with UAV frequencies ``fu`` and
        constraint gaps ``gaps`` (from :meth:`violations`)."""
        c1, c2, c3, c4 = gaps
        obj = self.c_f * float(np.add.reduce(fu ** 3))
        return (obj + float(mu @ c1) + float(np.add.reduce(nu * c2, axis=None))
                + float(theta[: self.N - 1] @ c3) + theta[self.N - 1] * c4)


def _price_gaps(slack, mid) -> np.ndarray:
    """UAV price gaps theta_N - sum of theta[n .. N-2] of slots n = 1 .. N-1:
    the slack theta_N - sum(mid) plus the mid prices before slot n."""
    return slack + np.concatenate(([0.0], np.add.accumulate(mid)))


class _Point(NamedTuple):
    """Scaled prices with their energy-price tails ``V`` (V[k, n] = sum of
    nu[k, n:]), UAV price gaps (:func:`_price_gaps`) and bit prices net of
    them ``w`` (w[k, n] = mu[k] - gap[n]), the Lagrangian minimizer (l, f,
    fu) there with ``grow`` = 2^(l / bl), its gaps (c1, c2, c3, c4) and the
    dual value.  The gaps, the KKT residuals and the Newton system all read
    ``w`` and ``grow`` from here."""

    mu: np.ndarray
    nu: np.ndarray
    theta: np.ndarray
    V: np.ndarray
    uav_gap: np.ndarray
    w: np.ndarray
    primal: tuple
    grow: np.ndarray
    gaps: tuple
    value: float


def _recover_scaled(sp: _ScaledP2, mu, nu, theta, uav_gap) -> _Point:
    """Closed-form minimizer of the Lagrangian at the given prices.

    The minimizer is separable per variable.  Where a user's remaining
    energy price V vanishes under a positive bit price, the Lagrangian
    falls linearly in that slot's bits and cycles, and the minimizer sits
    at their caps (``l_cap``, ``f_cap``), which keeps the dual finite.  No
    price tail vanishes at a dual optimum of a bound-energy instance.
    """
    K, N = sp.K, sp.N
    V = np.add.accumulate(nu[:, ::-1], axis=1)[:, ::-1]           # (K, N)

    # UAV frequencies: zero in the first slot, then a square-root ladder of
    # the price gaps.
    fu = np.zeros(N)
    np.sqrt(sp.bits_f * np.maximum(uav_gap, 0.0) / sp.c3, out=fu[1:])

    # Offloaded bits priced w = mu - gap[n+1] per bit in slot n, and user
    # frequencies clipped at the whole-demand cap.  Where no energy price
    # remains, the Lagrangian falls linearly in bits priced w > 0 and in
    # cycles priced mu > 0: the ratios below are infinite and the bits and
    # cycles go to their caps.  So no bits exceed l_cap, and 2^(l / bl)
    # stays finite.
    mu_col = mu[:, None]
    w = mu_col - uav_gap                                          # (K, N-1)
    V_pos = np.where(V > 0.0, V, 0.0)
    l = np.zeros((K, N))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        arg = w * sp.bl / (sp.a_ln2 * V_pos[:, : N - 1])
        l[:, : N - 1] = np.where(w > 0.0, np.minimum(
            sp.bl * np.log2(np.maximum(arg, 1.0)), sp.l_cap), 0.0)
        f_closed = np.sqrt(mu_col * sp.bits_f / (sp.c3 * V_pos))
    f = np.where(mu_col > 0.0, np.minimum(f_closed, sp.f_cap_col), 0.0)

    grow = np.exp2(l / sp.bl)
    gaps = sp.violations(l, f, fu, grow)
    return _Point(mu=mu, nu=nu, theta=theta, V=V, uav_gap=uav_gap, w=w, primal=(l, f, fu),
                  grow=grow, gaps=gaps, value=sp.lagrangian(mu, nu, theta, fu, gaps))


def _duals_to_scaled(d: DualState):
    """Scaled (mu, nu, theta, UAV price gaps) of ``d``."""
    theta = d.theta * _PRICE
    mid = theta[1:-1]
    return d.mu * _PRICE, d.nu.copy(), theta, _price_gaps(theta[-1] - mid.sum(), mid)


def _packed(d: DualState, users) -> np.ndarray:
    """Packed scaled prices of ``d``'s ``users`` and the UAV."""
    mu, nu, theta, gap = _duals_to_scaled(d)
    return _pack(mu[users], nu[users], theta[1:-1], max(gap[0], 0.0))


def _dual_state(K, users, mu, nu, theta) -> DualState:
    """The :class:`DualState` of ``users``' scaled prices; other users' are 0."""
    mu_full, nu_full = np.zeros(K), np.zeros((K, nu.shape[1]))
    mu_full[users], nu_full[users] = mu / _PRICE, nu
    return DualState(mu=mu_full, nu=nu_full, theta=theta / _PRICE)


# ---------------------------------------------------------------------------
# Feasibility probe
# ---------------------------------------------------------------------------

def _policy_split_scaled(sp: _ScaledP2) -> np.ndarray:
    """Local energy x per slot of the spend-as-harvested policy: each slot's
    harvest increment e is spent in the same slot, split to maximize bits
    (no TX in the last slot, which spends it all locally).

    Local bits grow as the cube root of x and TX bits as log2 of the rest,
    so a slot's bit count is concave in x; its slope vanishes where
    y = x^(1/3) solves the cubic y^3 + A y^2 = room (A = tx_gain /
    loc_gain; solved times loc_gain), convex and increasing for y > 0.
    Newton's method from the upper bound min(cbrt(room), sqrt(room / A))
    falls monotonically to its root, until no entry moves (4 to 6 passes
    on the benchmark's scenarios, 60 at most).  The policy is feasible by
    construction, so its totals lower-bound the deliverable bits per user.
    """
    e = sp.eharv
    room = sp.a_tx + e                              # a_tx + e - x = room - x
    loc_gain = sp.bits_f / (3.0 * np.cbrt(sp.c_f))  # local slope times x^(2/3)
    tx_gain = sp.bl / math.log(2.0)                 # TX slope times (room - x)
    y = np.minimum(np.cbrt(room), np.sqrt(room * loc_gain / tx_gain))
    for _ in range(60):
        excess = (loc_gain * y + tx_gain) * y * y - loc_gain * room
        nxt = y - np.maximum(excess, 0.0) / ((3.0 * loc_gain * y + 2.0 * tx_gain) * y)
        if not (nxt != y).any():
            break
        y = nxt
    x = np.minimum(y ** 3, e)
    x[:, -1] = e[:, -1]
    return x


def probe_feasibility(s: Scenario, traj) -> np.ndarray:
    """Deliverable-bit margin per user under the spend-as-harvested policy.

    A nonnegative margin for every user certifies the fixed-trajectory
    subproblem feasible.  Returns deliverable bits minus demand [bits].
    """
    return _margins(_ScaledP2(s, channel_gains(s, traj)))


def _margins(sp: _ScaledP2) -> np.ndarray:
    x = _policy_split_scaled(sp)
    bits = sp.bits_f * np.cbrt(x / sp.c_f) + sp.bl * np.log2(1.0 + (sp.eharv - x) / sp.a_tx)
    return (bits.sum(axis=1) - sp.R) * _BIT


def _taut_string(harv) -> np.ndarray:
    """Per-slot spending along the taut string (greatest convex minorant)
    of each row's cumulative harvest ``harv`` (K, N): slot n spends the
    largest, over a <= n, of the least mean harvest of slots a .. b over
    b >= n.  No prefix overspends its harvest, all of it is spent, and by
    concavity no causal spending computes more local bits (directional
    water-filling with an unlimited battery; Ozel et al., JSAC 29(8), 2011)."""
    a = np.arange(harv.shape[1])[:, None]
    cum = np.concatenate((np.zeros((len(harv), 1)), np.cumsum(harv, axis=1)), axis=1)
    mean = (cum[:, None, 1:] - cum[:, :-1, None]) / np.maximum(a.T - a + 1, 1)
    least = np.minimum.accumulate(np.where(a.T >= a, mean, np.inf)[:, :, ::-1], axis=2)
    return np.where(a.T >= a, least[:, :, ::-1], -np.inf).max(axis=1)


def _total_budget_start(sp: _ScaledP2) -> np.ndarray:
    """Packed optimal prices of the total-budget relaxation of ``sp``: the
    problem with only each user's total energy budget and the UAV's total
    compute balance kept, whose 2K + 1 prices are the bit prices, each
    user's last causality price and the slack.  Every other price is 0.

    The UAV computes the total offload at one frequency fu, so the
    relaxation's energy rises with that total and each user offloads the
    least it can.  At a water level omega a user spends (omega - a_n)^+ on
    TX in slot n, offloading L = sum of bl log2(omega / a_n)^+, and
    computes the rest of its demand at one frequency f (water-filling with
    the causality dropped; Ozel et al., IEEE JSAC 29(8), 2011).  While
    local compute costs more per bit (m_loc = 3 c_f f^2 / bits_f) than TX
    (m_tx = omega ln 2 / bl), its total energy c_f N f^3 + sum of
    (omega - a_n)^+ falls as omega rises; the water level is where either
    stops, the smaller root of m_loc - m_tx and of energy - harvest.  One
    pass over the breakpoints (the sorted a_n) finds the piece that holds
    it.  There the offload is linear in ln omega and both functions are
    convex and decreasing, so Newton's method from the piece's left end,
    by the shorter of the two steps, climbs to the smaller root, until no
    entry moves (60 steps at most).  That takes 6 to 16 passes on the
    benchmark's scenarios.  The slow users have an energy root next to the
    energy's minimum (where m_loc = m_tx), a near-double root, from which
    Newton's steps shrink only about twofold per pass.  Near such a root V
    below is ill-conditioned, as m_loc - m_tx is small there.  The total
    offload prices the UAV cycles at slack = 3 c_f fu^2 / bits_f,
    and the user's energy price V = slack / (m_loc - m_tx) on its last
    slot with bit price mu = V m_loc make that schedule the Lagrangian
    minimizer.  A user whose total harvest covers its demand locally
    offloads nothing, and gets the same prices at its cheapest TX slot
    where m_loc > m_tx there (zeros otherwise, as when no user offloads).
    """
    K, N = sp.K, sp.N
    a = sp.a_tx[:, : N - 1]
    budget = sp.cum_eharv[:, -1]
    rate = sp.rate

    # At omega = a_(j), the j-th cheapest TX cost, the j cheapest slots send.
    srt, j = np.sort(a, axis=1), np.arange(1, N)
    off0 = (j * np.log(srt) - np.cumsum(np.log(srt), axis=1)) / rate
    tx0 = j * srt - np.cumsum(srt, axis=1)
    f = np.maximum(sp.R[:, None] - off0, 0.0) / (sp.bits_f * N)
    energy = sp.c_f * N * f ** 3 + tx0
    rising = (sp.c3 * f ** 2 / sp.bits_f > srt * rate) & (energy > budget[:, None])
    priced = energy[:, 0] > budget
    J = np.logical_and.accumulate(rising, axis=1).sum(axis=1)
    pick = (sp.users, np.maximum(J, 1) - 1)
    lo, off0, tx0 = srt[pick], off0[pick], tx0[pick]
    omega = lo                  # an unpriced user's stays at a_(1): no offload
    left, on, inf = sp.R - off0, J > 0, np.full(K, np.inf)
    for _ in range(60):
        f = np.maximum(left - J * np.log(omega / lo) / rate, 0.0) / (sp.bits_f * N)
        m_loc, m_tx = sp.c3 * f ** 2 / sp.bits_f, omega * rate
        fall_m = sp.c6 * f * J / (sp.bits_f2 * rate * N * omega) + rate
        fall_e = J * (m_loc / m_tx - 1.0)
        excess = sp.c_f * N * f ** 3 + tx0 + J * (omega - lo) - budget
        step = np.minimum((m_loc - m_tx) / fall_m,
                          np.divide(excess, fall_e, out=inf.copy(), where=fall_e > 0.0))
        nxt = np.where(on, omega + np.maximum(step, 0.0), omega)
        if not (nxt != omega).any():
            break
        omega = nxt
    off = sp.bl * np.log2(np.maximum(omega[:, None] / a, 1.0)).sum(axis=1)
    f = np.maximum(sp.R - off, 0.0) / (sp.bits_f * N)
    m_loc, m_tx = sp.c3 * f ** 2 / sp.bits_f, omega * rate
    fu = off.sum() / (sp.bits_f * (N - 1))
    slack = sp.c3 * fu ** 2 / sp.bits_f
    water = priced | (m_loc > m_tx)
    V = np.where(water, slack / np.where(water, m_loc - m_tx, 1.0), 0.0)
    nu = np.zeros((K, N))
    nu[:, N - 1] = V
    return _pack(V * m_loc, nu, np.zeros(N - 2), slack)


# ---------------------------------------------------------------------------
# Main dual solver
# ---------------------------------------------------------------------------

def _pack(mu, nu, theta_mid, slack):
    return np.concatenate([mu, nu.ravel(), theta_mid, [slack]])


def _unpack(z, K, N):
    mu = z[:K]
    nu = z[K : K + K * N].reshape(K, N)
    mid = z[K + K * N : -1]
    gap = _price_gaps(z[-1], mid)
    return mu, nu, np.concatenate(([0.0], mid, gap[-1:])), gap


def _neg_dual_and_grad(z, sp: _ScaledP2):
    """Negated dual value and packed gradient at z, and the :class:`_Point`
    they were read off."""
    K, N = sp.K, sp.N
    point = _recover_scaled(sp, *_unpack(z, K, N))
    c1, c2, c3, c4 = point.gaps
    # Reparametrized theta: mid prices also feed the last (dominating) one.
    grad = np.empty_like(z)
    np.negative(c1, out=grad[:K])
    np.negative(c2.ravel(), out=grad[K : K + K * N])
    np.subtract(-c4, c3[1 : N - 1], out=grad[K + K * N : -1])
    grad[-1] = -c4
    return -point.value, grad, point


def _residuals_scaled(sp: _ScaledP2, point: _Point) -> OffloadKkt:
    """Scaled KKT residuals at a price point and its Lagrangian minimizer."""
    N = sp.N
    mu, nu, theta, V, gap = point.mu, point.nu, point.theta, point.V, point.uav_gap
    l, f, fu = point.primal
    c1, c2, c3, c4 = point.gaps
    primal = max(float(np.maximum.reduce(np.abs(c1), initial=0.0)),
                 float(np.maximum.reduce(c2, axis=None, initial=0.0)),
                 float(np.maximum.reduce(c3, initial=0.0)),
                 abs(c4))
    comp, (cn, ct) = sp.comp
    np.multiply(nu, c2, out=cn)
    np.multiply(theta[: N - 1], c3, out=ct)
    comp = float(np.maximum.reduce(np.abs(comp, out=comp), initial=0.0))

    # Stationarity: the closed forms zero the interior gradients by
    # construction; report the projected gradient to catch cap clipping.
    (stat, (dl, df, dfu)), (at_zero, (zl, zf, zu)) = sp.stat, sp.at_zero
    np.subtract(sp.a_ln2_bl * point.grow[:, : N - 1] * V[:, : N - 1], point.w, out=dl)
    np.subtract(sp.c3 * f ** 2 * V, mu[:, None] * sp.bits_f, out=df)
    np.subtract(sp.c3 * fu[1:] ** 2, sp.bits_f * gap, out=dfu)
    np.less_equal(l[:, : N - 1], 0.0, out=zl)
    np.less_equal(f, 0.0, out=zf)
    np.less_equal(fu[1:], 0.0, out=zu)
    np.minimum(stat, 0.0, out=stat, where=at_zero)
    stat = float(np.maximum.reduce(np.abs(stat, out=stat), initial=0.0))
    return OffloadKkt(stationarity=stat, primal=primal, complementarity=comp)


class _Tails(NamedTuple):
    """A damped Newton system of :func:`_tail_newton` in tail coordinates
    (undamped weights) and its solution on the packed prices."""

    step: np.ndarray    # zero where not free
    shift: float        # the damping sigma
    seg: np.ndarray     # free causality prices by user and slot, each ending a segment
    d: np.ndarray       # segment weights
    rest: np.ndarray    # free bit prices, then free UAV prices, latest first slot first
    G: np.ndarray       # (segments, rest) couplings, on UAV segments
    B: np.ndarray       # (rest, rest) block, on UAV segments


def _tail_newton(sp: _ScaledP2, point: _Point, free, grad, damping: float) -> _Tails:
    """Damped Newton step: the solution of (H_FF + sigma Lambda) x = grad_F
    on the packed prices where ``free`` holds, with sigma = ``damping``
    times the largest diagonal in tail coordinates.

    H_FF = J_F diag(h_F)^-1 J_F^T is the negated dual's Hessian: each
    primal variable strictly inside its bounds follows the prices through
    its own stationarity condition.  J_F holds those variables'
    derivatives of the packed gaps and h_F their second derivatives: V a_tx
    (ln 2 / bl)^2 2^(l/bl) for bits, 6 c_f f V for user and 6 c_f f_uav for
    UAV frequencies (V the energy-price tail).  Bit price k reads -1 per
    bit and -bits_f per cycle of user k; causality price (k, m) the
    marginal energy of each slot n <= m; UAV price i (the slack as i = 0)
    +1 per bit in slots n >= i and -bits_f per UAV cycle in slots j > i.
    So the rows of consecutive free causality prices of a user differ only
    on the slots between them (a segment), and so do those of consecutive
    free UAV prices.  In these tail coordinates each user's block (a min
    matrix; Meurant, SIAM J. Matrix Anal. Appl. 13(3), 1992) and the UAV
    block are diagonal, and every entry bins per-slot weights by segment.
    The per-slot terms read the recovery's 2^(l/bl) (``point.grow``) and
    the per-solve factors and scratch of ``sp``: one division gives the
    inverse curvatures, one bincount every entry, and [A | b] is filled in
    place.

    Lambda is the identity on the bit and UAV prices and min(rank p, rank
    q) on a user's free causality prices, which adds sigma to each
    segment's weight: the segments are eliminated elementwise, prefix sums
    take the UAV segments to the UAV prices, one dense solve on the free
    bit and UAV prices (at most K + N - 1 rows) remains, and differences
    of the tails map the segments back to prices.
    """
    K, N = sp.K, sp.N
    (l, f, fu), V = point.primal, point.V
    tx_slope = sp.a_rate * point.grow
    # Inverse curvatures wl, wu, wf of the free variables, zero on a bound.
    # The recovery puts bits and cycles under a vanished price tail at their
    # caps and no bits in the last slot, so these masks leave them out.
    (weights, (dw, gw, txw, wl, wu, wf)), (curv, (hl, hu, hf)), (free_var, (m_l, m_u, m_f)) = (
        sp.bin_w, sp.curv, sp.free_var)
    np.multiply(V * tx_slope, sp.rate, out=hl)
    np.multiply(sp.c6, fu, out=hu)
    np.multiply(sp.c6 * f, V, out=hf)
    np.logical_and(l > 0.0, l < sp.l_cap, out=m_l)
    np.greater(fu, 0.0, out=m_u)
    np.logical_and(f > 0.0, f < sp.f_cap_col, out=m_f)
    weights[3 * K * N :].fill(0.0)
    np.divide(1.0, curv, out=weights[3 * K * N :], where=free_var)
    e_f = sp.c3 * f ** 2
    np.multiply(tx_slope, wl, out=txw)
    np.add(tx_slope * txw, e_f ** 2 * wf, out=dw)
    np.negative(txw + sp.bits_f * e_f * wf, out=gw)

    # Slot (k, n) lies in the segment that user k's first free causality
    # price at m >= n ends; UAV segment u holds the bits of slots i_u <= n
    # < i_u+1 and the UAV cycles of slots i_u < j <= i_u+1.  A slot in no
    # segment goes to the last bin (S or R), which is dropped.
    own = free[K : K + K * N].reshape(K, N)
    seg = K + own.ravel().nonzero()[0]
    S = seg.size
    upto = np.add.accumulate(own.ravel(), dtype=np.intp).reshape(K, N)
    rest = sp.rest_order[free[sp.rest_order]]
    R, n_mu = rest.size, int(np.count_nonzero(free[:K]))
    mc = np.full(K, R)
    mc[free[:K]] = sp.users[:n_mu]
    # u[1:] is the rest column of slot n's bits, u[:N] that of slot j's UAV
    # cycles: R minus the free UAV prices with first slot <= n.
    u = np.full(N + 1, R)
    u[1:N] -= np.add.accumulate(free[sp.uav_first], dtype=np.intp)
    ul = u[1:]

    # One bincount fills d (S + 1 bins), then G ((S + 1) x (R + 1)), WU (K x
    # (R + 1), from at_w) and the UAV cycles' diagonal (R + 1, from at_u).
    at, (gs, g_mu, g_uav, w_uav, u_uav) = sp.bin_at
    np.subtract(upto, own, out=gs)
    np.copyto(gs, S, where=gs >= upto[:, -1:])
    at_w, at_u = (S + 1) * (R + 2), (S + 1) * (R + 2) + K * (R + 1)
    np.add(gs * (R + 1), S + 1, out=g_mu)
    np.add(g_mu, ul, out=g_uav)
    g_mu += mc[:, None]
    np.add(sp.user_col * (R + 1) + at_w, ul, out=w_uav)
    np.add(u[:N], at_u, out=u_uav)
    bins = np.bincount(at, weights[: at.size], minlength=at_u + R + 1)
    d, WU = bins[:S], bins[at_w:at_u].reshape(K, R + 1)
    G = bins[S + 1 : at_w].reshape(S + 1, R + 1)[:S, :R]
    B = np.zeros((R + 1, R + 1))
    B[mc], B[:, mc] = -WU, -WU.T
    diag = np.add.reduce(WU, axis=0) + sp.bits_f2 * bins[at_u:]
    diag[mc] = np.add.reduce(wl + sp.bits_f2 * wf, axis=1)
    B.ravel()[:: R + 2] = diag
    B = B[:R, :R]
    shift = damping * (max(np.maximum.reduce(d, initial=0.0),
                           np.maximum.reduce(diag[:R], initial=0.0)) or 1.0)
    # The gradient in tail coordinates: differences of consecutive free prices.
    user = (seg - K) // N
    same = user[1:] == user[:-1]                     # segments s and s + 1 of one user
    r_seg = grad[seg]
    r_seg[1:] -= np.where(same, r_seg[:-1], 0.0)
    dd = d + shift
    Gd = G / dd[:, None]
    # [A | b] with the segments eliminated; a UAV price reads its segment and
    # every later one, which come before it, so prefix sums map it to prices.
    Ab = np.empty((R, R + 1))
    np.subtract(B, G.T @ Gd, out=Ab[:, :R])
    Ab[:, R] = Gd.T @ r_seg
    np.add.accumulate(Ab[n_mu:], axis=0, out=Ab[n_mu:])
    np.add.accumulate(Ab[:, n_mu:R], axis=1, out=Ab[:, n_mu:R])
    Ab.ravel()[:: R + 2] += shift
    y = np.linalg.solve(Ab[:, :R], grad[rest] - Ab[:, R])
    tails = y.copy()
    tails[n_mu:] = np.add.accumulate(y[n_mu:][::-1])[::-1]
    y_seg = r_seg / dd - Gd @ tails
    y_seg[:-1] -= np.where(same, y_seg[1:], 0.0)
    step = np.zeros(grad.size)
    step[seg] = y_seg
    step[rest] = y
    return _Tails(step=step, shift=shift, seg=seg, d=d, rest=rest, G=G, B=B)


def _natural_residual(z, grad) -> float:
    """Max-norm of min(z, grad): zero exactly at a minimizer over z >= 0."""
    return float(np.maximum.reduce(np.abs(np.minimum(z, grad))))


def _free(z, grad, res) -> np.ndarray:
    """Mask of the prices off the epsilon-active set {z <= min(res, 1e-3), grad > 0}."""
    return ~((z <= min(res, 1e-3)) & (grad > 0.0))


def _newton_step(sp: _ScaledP2, evaluate, z, ev, res, damping: float, polish: bool):
    """One damped projected Newton step on the negated dual over z >= 0.

    ``ev`` is ``evaluate(z)`` (see :func:`_neg_dual_and_grad`) and ``res``
    its natural residual (:func:`_natural_residual`).  Multipliers within
    ``res`` of zero whose gradient pushes them out are sent to the bound
    (the epsilon-active set); the others take the damped Newton step of
    :func:`_tail_newton`.  The projected path z(a) = max(z + a d, 0) is
    searched by halving a until the value passes an Armijo test or, once
    the value no longer resolves the progress, the natural residual at
    least halves without the value rising.  With ``polish`` only the full
    step is tried, and only the residual test counts: one or two such
    steps reach the rounding floor, where smaller gains only move the
    gradient's rounding.  A full step relaxes the damping tenfold
    and a shortened one stiffens it tenfold; a failed search retries a
    hundredfold stiffer, and a failed polish step ends the ascent.  Returns
    the accepted (z, ev, res, damping), or None.
    """
    phi, grad, point = ev
    free = _free(z, grad, res)
    noise = 1e-13 * max(abs(phi), 1.0)
    while damping < 1e10:
        try:
            d = -np.where(free, _tail_newton(sp, point, free, grad, damping).step, z)
        except np.linalg.LinAlgError:
            damping *= 10.0
            continue
        alpha = 1.0
        for _ in range(1 if polish else 30):
            zt = np.maximum(z + alpha * d, 0.0)
            phit, gradt, _ = evt = evaluate(zt)
            rest = _natural_residual(zt, gradt)
            armijo = phit <= phi + 1e-4 * float(grad @ (zt - z))
            shrunk = rest <= 0.5 * res
            if (shrunk and phit <= phi + noise) or (armijo and not polish):
                damping = damping / 10.0 if alpha == 1.0 else damping * 10.0
                return zt, evt, rest, max(damping, _DAMPING_FLOOR)
            alpha *= 0.5
        if polish:
            return None
        damping *= 100.0
    return None


class _Ascent(NamedTuple):
    """Outcome of :func:`minimize`: the last iterate's :class:`_Point` and
    KKT residuals, the :class:`OffloadSolution` ``trace`` rows, and the
    Newton steps and dual evaluations taken."""

    point: _Point
    kkt: OffloadKkt
    trace: list
    nit: int
    nfev: int


def minimize(sp: _ScaledP2, z, damping: float) -> _Ascent:
    """Projected Newton ascent of the dual of ``sp`` from the packed prices
    ``z``: :func:`_newton_step` iterated from ``damping``.

    Each point is evaluated once (:func:`_neg_dual_and_grad`), and an
    accepted point's KKT residuals and Hessian read that evaluation.  Once
    the scaled KKT max is within ``_TOL``, each step is one full polish
    step that must at least halve the natural residual (one evaluation),
    and the first that does not ends the loop, as does the ``_MAX_STEPS``-th
    iterate.  The caller checks ``kkt`` against ``_TOL``.  The name stays
    because the benchmark traces this binding and reads ``nit`` and
    ``nfev`` off its result; renaming it waits for a benchmark that no
    longer does.
    """
    nfev = 0

    def evaluate(z):
        nonlocal nfev
        nfev += 1
        return _neg_dual_and_grad(z, sp)

    ev = evaluate(z)
    res = _natural_residual(z, ev[1])
    trace: list[tuple[int, float, float]] = []
    for it in range(1, _MAX_STEPS + 1):
        phi, _, point = ev
        kkt = _residuals_scaled(sp, point)
        worst = kkt.max()
        trace.append((it, -phi * _EN, worst))
        if it == _MAX_STEPS:
            break
        step = _newton_step(sp, evaluate, z, ev, res, damping, polish=worst <= _TOL)
        if step is None:
            break
        z, ev, res, damping = step
    return _Ascent(point=point, kkt=kkt, trace=trace, nit=it - 1, nfev=nfev)


def solve_p2(s: Scenario, traj, warm: DualState | None = None) -> OffloadSolution:
    """Optimal offload/CPU schedule for a fixed trajectory.

    Pipeline: presolve of self-sufficient users, feasibility probe of the
    users left (one Newton root per slot), a start for their multipliers,
    then projected Newton ascent of the dual (:func:`minimize`).  The
    presolve plans each user whose taut string (:func:`_taut_string`, if
    Jensen allows) covers its demand on it, scaled to the demand; the users
    left (``poor``) are priced, on one :class:`_ScaledP2` built for them.
    The start is ``warm``, prices near the optimum (in the planner the
    previous path's, moved along their :func:`price_tangent`), when the
    users left are exactly those with a positive ``warm.mu``; the ascent
    then starts at the damping floor, 1e-12, and restarts cold if it ends
    above ``_TOL``.  Otherwise the solve is cold and starts, at damping 1,
    at the exact optimal prices of the relaxation that keeps only each
    user's total energy budget and the UAV's total compute balance
    (:func:`_total_budget_start`: one water level per user, a Newton root on
    one piece of its sorted TX costs).  Those sit on one slot per user, as
    the optimum's mostly do, so the ascent starts with nearly the right
    active set, which a projected Newton method needs to converge fast.  The
    ascent searches the prices whose last UAV price dominates the mid ones:
    it is written as a slack plus the mid prices' sum, so each slot's UAV
    price gap theta_N - tail[n] is the slack plus the mid prices before slot
    n (read straight off z), nonnegative on the whole box z >= 0, where the
    UAV frequency ladder's clamp never binds and the dual is smooth.  The
    problem's own multipliers (theta >= 0, no slack) form a box too, but
    there a gap can turn negative and put a kink in the searched region (a
    prototype of it took 195 Newton steps, not 166, on the table2 sweep).
    Each price point is recovered once, as the closed-form Lagrangian
    minimizer, which the dual value and gradient and, at accepted iterates,
    the KKT residuals and the damped Newton system in tail coordinates
    (:func:`_tail_newton`, one dense solve of at most K + N - 1 rows) all
    read.  Once the KKT residuals are within ``_TOL`` (1e-6), ascent
    continues by full Newton steps for as long as each at least halves the
    natural residual (typically one or two steps to the rounding floor); the
    last minimizer is returned.  ``trace`` holds one (iteration, dual value
    [J], max KKT residual) row per iterate, the start first, at most
    ``_MAX_STEPS`` rows.

    Raises :class:`InfeasibleTrajectoryError` when the probe does not
    certify a user left by the presolve (the message names its scenario
    index), :class:`DualIterationLimitError` when the cold ascent ends above
    ``_TOL`` and ``ValueError`` when ``warm`` does not fit the scenario or
    ``traj`` has a non-finite point.
    """
    N = s.N
    if warm is not None and warm.nu.shape != (s.K, N):
        raise ValueError(f"warm prices of shape {warm.nu.shape} for {s.K} users "
                         f"over {N} slots")

    # Presolve: a user whose whole demand fits a local-only schedule inside
    # its causal budget never offloads and prices at zero.  Left in the
    # pricing problem such users make the bit price, and with it the
    # closed-form recovery, degenerate.  No causal schedule computes more
    # than the taut string, scaled here to exactly the demand (scaling
    # keeps every prefix within its harvest).  By Jensen only a user whose
    # constant frequency fits its total harvest can have such a schedule.
    l_full, f_full = np.zeros((s.K, N)), np.zeros((s.K, N))
    f_const = s.R * s.M / (N * s.slot)
    gains = channel_gains(s, traj)
    harv = harvest_increments(s, gains)
    local = N * s.gamma_c * s.slot * f_const ** 3 <= harv.sum(axis=1)
    if local.any():
        f_taut = np.cbrt(_taut_string(harv[local]) / (s.gamma_c * s.slot))
        scale = s.R[local] * s.M / (s.slot * f_taut.sum(axis=1))
        local[local] = scale <= 1.0
        f_full[local] = (f_taut * scale[:, None])[scale <= 1.0]
    poor = np.flatnonzero(~local)

    if poor.size == 0:
        return OffloadSolution(l=l_full, f_user=f_full, f_uav=np.zeros(N),
                               duals=DualState.zeros(s.K, N), objective=0.0,
                               dual_objective=0.0, kkt=OffloadKkt(0.0, 0.0, 0.0))

    sp = _ScaledP2(s, gains, poor)
    margins = _margins(sp)
    if not np.all(margins >= 0.0):      # fails closed: a NaN margin certifies nothing
        k = int(np.argmin(margins))
        raise InfeasibleTrajectoryError(
            f"infeasible for this trajectory: user {poor[k]} short by "
            f"{-margins[k]:.4g} bits under the spend-as-harvested policy")

    warm_ok = warm is not None and np.array_equal(np.flatnonzero(warm.mu > 0.0), poor)
    opt = minimize(sp, _packed(warm, poor), _DAMPING_FLOOR) if warm_ok else None
    if opt is None or not opt.kkt.max() <= _TOL:    # cold, or a warm ascent that stalled
        opt = minimize(sp, _total_budget_start(sp), 1.0)
    if not opt.kkt.max() <= _TOL:
        raise DualIterationLimitError(
            f"dual iteration limit after {opt.nit} Newton steps and {opt.nfev} "
            f"evaluations: residuals {opt.kkt} above tol {_TOL}")
    l, f, fu = opt.point.primal
    l_full[poor], f_full[poor] = l * _BIT, f * _FREQ
    duals = _dual_state(s.K, poor, *opt.point[:3])
    objective = sp.c_f * float(np.sum(fu ** 3)) * _EN
    return OffloadSolution(l=l_full, f_user=f_full, f_uav=fu * _FREQ,
                           duals=duals, objective=objective,
                           dual_objective=opt.point.value * _EN,
                           kkt=opt.kkt, trace=tuple(opt.trace))


def _grad_along(sp: _ScaledP2, point: _Point, rho) -> np.ndarray:
    """Derivative of the packed gradient at ``point``'s prices along a path
    step that moves slot gains by the relative rates ``rho`` (K, N): the
    harvest by eharv rho and a_tx by -a_tx rho.  Bits strictly inside (0,
    l_cap) move by (bl / ln 2) rho and their TX energy by a_tx rho; bits on
    a bound stay, and their TX energy moves by -a_tx rho (2^(l/bl) - 1)."""
    l = point.primal[0]
    inside = (l > 0.0) & (l < sp.l_cap)
    dl = np.where(inside, rho / sp.rate, 0.0)
    dtx = sp.a_tx * rho * np.where(inside, 1.0, 1.0 - point.grow)
    sent = np.add.accumulate(np.add.reduce(dl, axis=0))     # offload by slot, cumulated
    return _pack(np.add.reduce(dl, axis=1), np.add.accumulate(sp.eharv * rho - dtx, axis=1),
                 sent[: sp.N - 2] - sent[-1], -sent[-1])


class PriceTangent(NamedTuple):
    """The priced ``users``' packed scaled prices ``z`` in ``source`` and their tangent ``dz``."""

    source: DualState
    users: np.ndarray
    z: np.ndarray
    dz: np.ndarray

    def at(self, alpha: float) -> DualState:
        """The prices z + alpha dz predicted at alpha times the step, clipped to z >= 0."""
        (K, N), z = self.source.nu.shape, np.maximum(self.z + alpha * self.dz, 0.0)
        return _dual_state(K, self.users, *_unpack(z, self.users.size, N)[:3])


def price_tangent(s: Scenario, traj, duals: DualState, step) -> PriceTangent:
    """Tangent of :func:`solve_p2`'s optimal prices ``duals`` on ``traj``
    along the (N+1, 2) path ``step`` (Fiacco, 1983, ch. 3), a warm re-solve's
    predictor (Zavala & Biegler, Automatica 45(1), 2009).  On the priced
    users (mu > 0) the gradient stays 0 on the ascent's free prices F, so
    dz_F = -H_FF^-1 (d grad/dq step)_F, which :func:`_tail_newton` solves."""
    users = np.flatnonzero(duals.mu > 0.0)
    z = _packed(duals, users)
    if users.size == 0:
        return PriceTangent(duals, users, z, np.zeros_like(z))
    gains = channel_gains(s, traj)
    diff = np.asarray(traj, dtype=float)[None, : s.N] - s.user_pos[users, None]
    rho = -2.0 * np.add.reduce(diff * np.asarray(step)[: s.N], axis=2) * gains[users] / s.beta0
    sp = _ScaledP2(s, gains, users)
    _, grad, point = _neg_dual_and_grad(z, sp)
    free = _free(z, grad, _natural_residual(z, grad))
    rhs = _grad_along(sp, point, rho)
    return PriceTangent(duals, users, z, -_tail_newton(sp, point, free, rhs, _DAMPING_FLOOR).step)
