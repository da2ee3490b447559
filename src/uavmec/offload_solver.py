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
:func:`solve_p2` calls that loop (:func:`minimize`) directly; no
``scipy.optimize`` routine takes part.

All public interfaces take and return SI units.  Internally the solver
works in Mbit / GHz / mJ, which conditions the multipliers to order one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import cho_factor, cho_solve

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
    "recover_primal",
    "dual_value",
    "lagrangian_value",
    "solve_p2",
    "probe_feasibility",
]

# Internal unit scales: bits -> Mbit, Hz -> GHz, J -> mJ.
_BIT = 1e6
_FREQ = 1e9
_EN = 1e-3
# Bit-price multipliers (per-bit prices) scale by mJ/Mbit over J/bit.
_PRICE = _BIT / _EN
_TOL = 1e-6            # scaled KKT tolerance a schedule solve must meet
_MAX_STEPS = 200       # dual ascent iterates at most


class InfeasibleTrajectoryError(SolverError):
    """A user's demand is not certified by the spend-as-harvested policy on
    this trajectory (a sufficient test, so the demand may still be
    feasible)."""


class DualIterationLimitError(SolverError):
    """Dual ascent stalled before reaching the requested KKT tolerance."""


@dataclass(frozen=True)
class DualState:
    """Multipliers of the fixed-trajectory subproblem (SI units).

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
        return float(np.max([self.stationarity, self.primal, self.complementarity]))


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
    # Newton iterate
    trace: tuple = ()

    @property
    def plan_part(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.l, self.f_user, self.f_uav


# ---------------------------------------------------------------------------
# Scaled problem data
# ---------------------------------------------------------------------------

class _ScaledP2:
    """Per-trajectory constants in Mbit / GHz / mJ units, for the scenario's
    users picked by ``users`` (an index or slice; all of them by default)."""

    def __init__(self, s: Scenario, traj, users=slice(None)):
        self.N = s.N
        self.eharv = harvest_increments(s, traj)[users] / _EN      # (K, N) mJ
        self.a_tx = s.lam * s.Gamma * s.sigma2 / channel_gains(s, traj)[users] / _EN  # (K, N) mJ
        self.bl = s.B * s.lam / _BIT                               # Mbit per subslot
        self.bits_f = s.slot * _FREQ / s.M / _BIT                  # Mbit per GHz-slot
        self.c_f = s.gamma_c * s.slot * _FREQ ** 3 / _EN           # mJ per GHz^3-slot
        self.R = s.R[users] / _BIT                                 # Mbit
        self.K = self.R.shape[0]
        self.l_cap = EXPONENT_CAP * self.bl
        self.f_cap = np.maximum(self.R / self.bits_f, 1.0)         # (K,) GHz
        self.a_ln2 = self.a_tx[:, : self.N - 1] * math.log(2.0)   # TX slots' a_tx ln 2
        self.cum_eharv = np.cumsum(self.eharv, axis=1)
        # Slot index structure of the dual Hessian's blocks (see
        # _neg_dual_hessian): the UAV prices in z order as the first slot
        # whose bits they count, and the min / max / >= tables.
        slots = np.arange(self.N)
        self.first = np.append(np.arange(1, self.N - 1), 0)
        self.slot_min = np.minimum.outer(slots, slots)
        self.first_max = np.maximum.outer(self.first, self.first)
        self.after_first = slots[:, None] >= self.first

    def tx_energy(self, l: np.ndarray) -> np.ndarray:
        return self.a_tx * (np.exp2(np.minimum(l, self.l_cap) / self.bl) - 1.0)

    def violations(self, l, f, fu):
        """Signed constraint gaps at a scaled primal point.

        Returns (c1, c2, c3, c4): bit deficit per user, energy-causality
        prefix gaps, UAV-causality prefix gaps, and the signed compute
        balance (offloaded minus computed).
        """
        local_e = self.c_f * f ** 3
        tx_e = self.tx_energy(l)
        c2 = np.cumsum(local_e + tx_e, axis=1) - self.cum_eharv
        bits = self.bits_f * f.sum(axis=1) + l[:, : self.N - 1].sum(axis=1)
        c1 = self.R - bits
        cum_fu = np.cumsum(fu)
        cum_l = np.cumsum(l.sum(axis=0))
        c3 = self.bits_f * cum_fu[: self.N - 1]
        c3[1:] -= cum_l[: self.N - 2]
        c4 = float(l[:, : self.N - 1].sum() - self.bits_f * fu.sum())
        return c1, c2, c3, c4

    def lagrangian(self, mu, nu, theta, fu, gaps) -> float:
        """Lagrangian [mJ] at a primal point with UAV frequencies ``fu`` and
        constraint gaps ``gaps`` (from :meth:`violations`)."""
        c1, c2, c3, c4 = gaps
        obj = self.c_f * float(np.sum(fu ** 3))
        return (obj + float(mu @ c1) + float(np.sum(nu * c2))
                + float(theta[: self.N - 1] @ c3) + theta[self.N - 1] * c4)


def _theta_tail(theta: np.ndarray) -> np.ndarray:
    """tail[i] = sum of theta[i .. N-2]; tail[N-1] = 0."""
    n = theta.shape[0]
    return np.append(np.cumsum(theta[: n - 1][::-1])[::-1], 0.0)


class _Point(NamedTuple):
    """Scaled prices with their energy-price tails ``V`` (V[k, n] = sum of
    nu[k, n:]) and UAV price tails, the Lagrangian minimizer (l, f, fu)
    there, its gaps (c1, c2, c3, c4) and the dual value."""

    mu: np.ndarray
    nu: np.ndarray
    theta: np.ndarray
    V: np.ndarray
    tail: np.ndarray
    primal: tuple
    gaps: tuple
    value: float


def _recover_scaled(sp: _ScaledP2, mu, nu, theta) -> _Point:
    """Closed-form minimizer of the Lagrangian at the given prices.

    The minimizer is separable per variable.  Where a user's remaining
    energy price V vanishes under a positive bit price, the Lagrangian
    falls linearly in that slot's bits and cycles, and the minimizer sits
    at their caps (``l_cap``, ``f_cap``), which keeps the dual finite.  No
    price tail vanishes at a dual optimum of a bound-energy instance.
    """
    K, N = sp.K, sp.N
    V = np.cumsum(nu[:, ::-1], axis=1)[:, ::-1]                  # (K, N)
    tail = _theta_tail(theta)                                     # (N,)
    theta_last = theta[N - 1]

    # UAV frequencies: zero in the first slot, then a square-root ladder of
    # the remaining price mass.
    gap = theta_last - tail[1:N]
    fu = np.zeros(N)
    fu[1:] = np.sqrt(sp.bits_f * np.maximum(gap, 0.0) / (3.0 * sp.c_f))

    # Offloaded bits priced w = mu + tail[n+1] - theta_N per bit in slot n,
    # and user frequencies clipped at the whole-demand cap.  Where no energy
    # price remains, the Lagrangian falls linearly in bits priced w > 0 and
    # in cycles priced mu > 0: the ratios below are infinite and the bits
    # and cycles go to their caps.
    w = mu[:, None] + tail[None, 1:N] - theta_last                # (K, N-1)
    V_pos = np.where(V > 0.0, V, 0.0)
    l = np.zeros((K, N))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        arg = w * sp.bl / (sp.a_ln2 * V_pos[:, : N - 1])
        l[:, : N - 1] = np.where(w > 0.0, np.minimum(
            sp.bl * np.log2(np.maximum(arg, 1.0)), sp.l_cap), 0.0)
        f_closed = np.sqrt(mu[:, None] * sp.bits_f / (3.0 * sp.c_f * V_pos))
    f = np.where(mu[:, None] > 0.0, np.minimum(f_closed, sp.f_cap[:, None]), 0.0)

    gaps = sp.violations(l, f, fu)
    return _Point(mu=mu, nu=nu, theta=theta, V=V, tail=tail, primal=(l, f, fu),
                  gaps=gaps, value=sp.lagrangian(mu, nu, theta, fu, gaps))


def _duals_to_scaled(d: DualState):
    return d.mu * _PRICE, d.nu.copy(), d.theta * _PRICE


def _primal_from_scaled(l, f, fu):
    return l * _BIT, f * _FREQ, fu * _FREQ


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def recover_primal(s: Scenario, traj, d: DualState):
    """Minimizer (l, f_user, f_uav) of the Lagrangian at the given prices (SI).

    Where a user's energy-price tail vanishes under a positive bit price,
    the minimizer puts that slot's bits and cycles at their caps.  Every
    nonnegative price state has one: a UAV slot whose price gap is negative
    idles.
    """
    point = _recover_scaled(_ScaledP2(s, traj), *_duals_to_scaled(d))
    return _primal_from_scaled(*point.primal)


def dual_value(s: Scenario, traj, d: DualState) -> float:
    """Lagrangian dual lower bound on the UAV compute energy [J]."""
    return _recover_scaled(_ScaledP2(s, traj), *_duals_to_scaled(d)).value * _EN


def lagrangian_value(s: Scenario, traj, plan_part, d: DualState) -> float:
    """Lagrangian of the fixed-trajectory subproblem at an SI primal point [J]."""
    sp = _ScaledP2(s, traj)
    l, f, fu = plan_part
    l, f, fu = np.asarray(l, dtype=float) / _BIT, np.asarray(f) / _FREQ, np.asarray(fu) / _FREQ
    return sp.lagrangian(*_duals_to_scaled(d), fu, sp.violations(l, f, fu)) * _EN


# ---------------------------------------------------------------------------
# Feasibility probe
# ---------------------------------------------------------------------------

def _policy_split_scaled(sp: _ScaledP2):
    """Spend-as-harvested policy: each slot's harvest increment is spent in
    the same slot, split to maximize bits (no TX in the last slot).

    Returns (local bits, TX bits, local energy) as (K, N) scaled arrays.
    The policy is feasible by construction, so its totals lower-bound the
    deliverable bits per user.
    """
    e = sp.eharv
    can_tx = np.ones((sp.K, sp.N), dtype=bool)
    can_tx[:, -1] = False

    def parts_for_split(x):
        # x = energy given to local compute; the rest goes to TX
        f = np.cbrt(np.maximum(x, 0.0) / sp.c_f)
        loc = sp.bits_f * f
        rest = np.maximum(e - x, 0.0)
        tx = np.where(can_tx, sp.bl * np.log2(1.0 + rest / sp.a_tx), 0.0)
        return loc, tx

    lo = np.zeros_like(e)
    hi = e.copy()
    for _ in range(70):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        b1 = sum(parts_for_split(m1))
        b2 = sum(parts_for_split(m2))
        better_hi = b1 < b2
        lo = np.where(better_hi, m1, lo)
        hi = np.where(better_hi, hi, m2)
    x = 0.5 * (lo + hi)
    loc, tx = parts_for_split(x)
    return loc, tx, x


def probe_feasibility(s: Scenario, traj) -> np.ndarray:
    """Deliverable-bit margin per user under the spend-as-harvested policy.

    A nonnegative margin for every user certifies the fixed-trajectory
    subproblem feasible.  Returns deliverable bits minus demand [bits].
    """
    sp = _ScaledP2(s, traj)
    return _margins(sp, _policy_split_scaled(sp))


def _margins(sp: _ScaledP2, split) -> np.ndarray:
    loc, tx, _ = split
    return ((loc + tx).sum(axis=1) - sp.R) * _BIT


def _warm_start(sp: _ScaledP2, split):
    """Price estimates derived from the spend-as-harvested policy ``split``
    (:func:`_policy_split_scaled` on ``sp``).

    The policy's budget split fixes the local-compute marginal price per
    bit; the offloaded remainder sizes the UAV frequency ladder and with
    it the compute-balance price.  Only orders of magnitude matter here:
    the Newton ascent refines everything.
    """
    K, N = sp.K, sp.N
    loc, _, loc_e = split
    loc_bits = loc.sum(axis=1)
    off = np.maximum(sp.R - loc_bits, 0.02 * sp.R)
    fu_bar = max(float(off.sum()) / (sp.bits_f * (N - 1)), 1e-9)
    theta_last = 3.0 * sp.c_f * fu_bar ** 2 / sp.bits_f
    f_bar = np.maximum(np.cbrt(loc_e.sum(axis=1) / (N * sp.c_f)), 1e-9)
    p_loc = 3.0 * sp.c_f * f_bar ** 2 / sp.bits_f
    v_bar = np.minimum(theta_last / (0.5 * p_loc), 1e12)
    mu = np.full(K, 2.0 * theta_last)
    nu = np.repeat((v_bar / N)[:, None], N, axis=1)
    theta = np.zeros(N)
    theta[N - 1] = theta_last
    return mu, nu, theta


# ---------------------------------------------------------------------------
# Main dual solver
# ---------------------------------------------------------------------------

def _pack(mu, nu, theta_mid, slack):
    return np.concatenate([mu, nu.ravel(), theta_mid, [slack]])


def _unpack(z, K, N):
    mu = z[:K]
    nu = z[K : K + K * N].reshape(K, N)
    theta_mid = z[K + K * N : K + K * N + (N - 2)]
    slack = z[-1]
    theta = np.zeros(N)
    theta[1 : N - 1] = theta_mid
    theta[N - 1] = slack + theta_mid.sum()
    return mu, nu, theta


def _neg_dual_and_grad(z, sp: _ScaledP2):
    """Negated dual value and packed gradient at z, and the :class:`_Point`
    they were read off."""
    N = sp.N
    point = _recover_scaled(sp, *_unpack(z, sp.K, N))
    c1, c2, c3, c4 = point.gaps
    # Reparametrized theta: mid prices also feed the last (dominating) one.
    grad = np.concatenate([c1, c2.ravel(), c3[1 : N - 1] + c4, [c4]])
    return -point.value, -grad, point


def _residuals_scaled(sp: _ScaledP2, point: _Point) -> OffloadKkt:
    """Scaled KKT residuals at a price point and its Lagrangian minimizer."""
    N = sp.N
    mu, nu, theta, V, tail = point.mu, point.nu, point.theta, point.V, point.tail
    l, f, fu = point.primal
    c1, c2, c3, c4 = point.gaps
    primal = max(float(np.abs(c1).max(initial=0.0)),
                 float(np.max(c2, initial=0.0)),
                 float(np.max(c3, initial=0.0)),
                 abs(c4))
    comp = max(float(np.abs(nu * c2).max(initial=0.0)),
               float(np.abs(theta[: N - 1] * c3).max(initial=0.0)))

    # Stationarity: the closed forms zero the interior gradients by
    # construction; report the projected gradient to catch cap clipping.
    w = mu[:, None] + tail[None, 1:N] - theta[N - 1]
    dl = (sp.a_tx[:, : N - 1] * math.log(2.0) / sp.bl
          * np.exp2(l[:, : N - 1] / sp.bl) * V[:, : N - 1]) - w
    dl_proj = np.where(l[:, : N - 1] <= 0.0, np.minimum(dl, 0.0), dl)
    df = 3.0 * sp.c_f * f ** 2 * V - mu[:, None] * sp.bits_f
    df_proj = np.where(f <= 0.0, np.minimum(df, 0.0), df)
    dfu = 3.0 * sp.c_f * fu[1:] ** 2 - sp.bits_f * (theta[N - 1] - tail[1:N])
    dfu_proj = np.where(fu[1:] <= 0.0, np.minimum(dfu, 0.0), dfu)
    stat = max(float(np.abs(dl_proj).max(initial=0.0)),
               float(np.abs(df_proj).max(initial=0.0)),
               float(np.abs(dfu_proj).max(initial=0.0)))
    return OffloadKkt(stationarity=stat, primal=primal, complementarity=comp)


def _neg_dual_hessian(sp: _ScaledP2, point: _Point) -> np.ndarray:
    """Hessian of the negated dual at a price point, J_F diag(h_F)^-1 J_F^T.

    The Lagrangian is separable in the primal, so each variable strictly
    inside its bounds follows the prices through its own stationarity
    condition.  J_F holds those variables' derivatives of the packed gaps
    (rows z = (mu, nu, theta_mid, slack)) and h_F their Lagrangian second
    derivatives: V a_tx (ln 2 / bl)^2 2^(l/bl) for bits, 6 c_f f V for
    user and 6 c_f f_uav for UAV frequencies, with V the energy-price
    tail.  Variables on a bound do not move with the prices.

    The gaps' slot structure gives every block as a prefix or suffix sum
    of per-slot weights.  Bit price k takes -1 from each of user k's bits
    and -bits_f from its cycles; causality price (k, m) takes each slot
    n <= m's marginal energy (the TX slope for bits, 3 c_f f^2 for
    cycles); UAV price i (the slack as i = 0, with the compute balance
    folded into the mid prices) takes +1 from bits in slots n >= i and
    -bits_f from UAV cycles in slots j > i.  So the nu-nu block of a
    user is a prefix sum at min(m, m'), the theta-theta block a suffix
    sum at max(i, i'), and the mixed blocks are prefix sums, suffix sums
    and prefix-sum differences.
    """
    K, N = sp.K, sp.N
    l, f, fu = point.primal
    V = point.V
    rate = math.log(2.0) / sp.bl
    tx_slope = sp.a_tx * rate * np.exp2(l / sp.bl)
    free_l = (l > 0.0) & (l < sp.l_cap) & (V > 0.0)
    free_l[:, N - 1] = False
    free_f = (f > 0.0) & (f < sp.f_cap[:, None]) & (V > 0.0)
    # Inverse curvatures of the free variables, zero on a bound.
    wl = np.divide(1.0, V * tx_slope * rate, out=np.zeros((K, N)), where=free_l)
    wf = np.divide(1.0, 6.0 * sp.c_f * f * V, out=np.zeros((K, N)), where=free_f)
    wu = np.divide(1.0, 6.0 * sp.c_f * fu, out=np.zeros(N), where=fu > 0.0)
    e_f = 3.0 * sp.c_f * f ** 2

    KN = K * N
    H = np.zeros((K + KN + N - 1, K + KN + N - 1))
    nus = slice(K, K + KN)
    ths = slice(K + KN, None)
    first = sp.first
    bits_tail = np.cumsum(wl[:, ::-1], axis=1)[:, ::-1]                   # n >= i
    tx_head = np.zeros((K, N + 1))                                         # n < m
    tx_head[:, 1:] = np.cumsum(tx_slope * wl, axis=1)
    uav_tail = np.append(np.cumsum(wu[:0:-1])[::-1], 0.0)                  # j > i

    H[np.arange(K), np.arange(K)] = wl.sum(axis=1) + sp.bits_f ** 2 * wf.sum(axis=1)
    H[np.repeat(np.arange(K), N), K + np.arange(KN)] = np.cumsum(
        -tx_slope * wl - sp.bits_f * e_f * wf, axis=1).ravel()
    H[:K, ths] = -bits_tail[:, first]
    nu_nu = np.cumsum(tx_slope ** 2 * wl + e_f ** 2 * wf, axis=1)
    for k in range(K):
        block = slice(K + k * N, K + (k + 1) * N)
        H[block, block] = nu_nu[k, sp.slot_min]
    H[nus, ths] = np.where(sp.after_first, tx_head[:, 1:, None]
                           - tx_head[:, None, first], 0.0).reshape(KN, N - 1)
    theta_theta = bits_tail.sum(axis=0) + sp.bits_f ** 2 * uav_tail
    H[ths, ths] = theta_theta[sp.first_max]
    H[nus, :K] = H[:K, nus].T
    H[ths, :K] = H[:K, ths].T
    H[ths, nus] = H[nus, ths].T
    return H


def _natural_residual(z, grad) -> float:
    """Max-norm of min(z, grad): zero exactly at a minimizer over z >= 0."""
    return float(np.abs(np.minimum(z, grad)).max())


def _newton_step(sp: _ScaledP2, evaluate, z, ev, res, damping: float, polish: bool):
    """One damped projected Newton step on the negated dual over z >= 0.

    ``ev`` is ``evaluate(z)`` (see :func:`_neg_dual_and_grad`).
    Multipliers within ``res`` of zero whose gradient pushes them out are
    sent to the bound (the epsilon-active set); the others take a
    Levenberg-Marquardt step, damped by ``damping`` times the largest
    Hessian diagonal.  The path z(a) = max(z + a d, floor) is searched by
    halving a until the value passes an Armijo test or, once the value no
    longer resolves the progress, the natural residual shrinks without the
    value rising.  With ``polish`` only the full step is tried, and only if
    it shrinks the natural residual without raising the value: one or two
    such steps reach the rounding floor, beyond which shorter steps would
    only move noise.
    The floor is zero except for the bit prices, which keep a tenth of
    their value per step: every user left in the pricing problem needs a
    positive bit price, and a bit price that collapses to zero with the
    tail of its energy prices strands the iterate on a kink of the dual.
    A full step relaxes the damping tenfold and a shortened one stiffens it
    tenfold; a failed search retries a hundredfold stiffer, and a failed
    polish step ends the ascent.  Returns the accepted (z, ev, res,
    damping), or None.
    """
    phi, grad, point = ev
    act = (z <= min(res, 1e-3)) & (grad > 0.0)
    free = ~act
    idx = np.flatnonzero(free)
    H = _neg_dual_hessian(sp, point)[idx[:, None], idx]
    scale = float(np.diag(H).max(initial=0.0)) or 1.0
    floor = np.zeros_like(z)
    floor[: sp.K] = 0.1 * z[: sp.K]
    noise = 1e-13 * max(abs(phi), 1.0)
    while damping < 1e10:
        damped = H.copy()
        damped.flat[:: H.shape[0] + 1] += damping * scale
        try:
            factor = cho_factor(damped, overwrite_a=True)
        except np.linalg.LinAlgError:
            damping *= 10.0
            continue
        d = -z.copy()
        d[free] = -cho_solve(factor, grad[free])
        alpha = 1.0
        for _ in range(1 if polish else 30):
            zt = np.maximum(z + alpha * d, floor)
            phit, gradt, _ = evt = evaluate(zt)
            rest = _natural_residual(zt, gradt)
            armijo = phit <= phi + 1e-4 * float(grad @ (zt - z))
            if (rest < res and phit <= phi + noise) or (armijo and not polish):
                damping = damping / 10.0 if alpha == 1.0 else damping * 10.0
                return zt, evt, rest, max(damping, 1e-12)
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


def minimize(sp: _ScaledP2, z) -> _Ascent:
    """Projected Newton ascent of the dual of ``sp`` from the packed prices
    ``z``: :func:`_newton_step` iterated.

    Each point is evaluated once (:func:`_neg_dual_and_grad`), and an
    accepted point's KKT residuals and Hessian read that evaluation.  Once
    the scaled KKT max is within ``_TOL``, each step is one full polish
    step that must shrink the natural residual (one evaluation), and the
    first that does not ends the loop, as does the ``_MAX_STEPS``-th
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
    damping = 1.0
    trace: list[tuple[int, float, float]] = []
    for it in range(1, _MAX_STEPS + 1):
        phi, _, point = ev
        kkt = _residuals_scaled(sp, point)
        trace.append((it, -phi * _EN, kkt.max()))
        step = (None if it == _MAX_STEPS else
                _newton_step(sp, evaluate, z, ev, res, damping, polish=kkt.max() <= _TOL))
        if step is None:
            break
        z, ev, res, damping = step
    return _Ascent(point=point, kkt=kkt, trace=trace, nit=it - 1, nfev=nfev)


def solve_p2(s: Scenario, traj, warm: DualState | None = None) -> OffloadSolution:
    """Optimal offload/CPU schedule for a fixed trajectory.

    Pipeline: presolve of self-sufficient users, feasibility probe of the
    users left, a start for their multipliers, then projected Newton
    ascent of the dual (:func:`minimize`, called directly).  The presolve
    fixes a local-only schedule for every user that has one; only the
    users left (``poor``) are priced, on one :class:`_ScaledP2` built for
    them.  The probe and the cold start read one run of the
    spend-as-harvested policy on those users.  The start is ``warm``, the
    prices of a nearby schedule (the previous path's, in the planner),
    when the users left are exactly those with a positive ``warm.mu``;
    otherwise it is derived from that policy.  The ascent searches the
    prices whose last UAV price dominates the mid ones; that price becomes
    a slack variable, which turns the search region into the box z >= 0.
    Each price point is recovered once, as the closed-form
    Lagrangian minimizer; the dual value and gradient and, at accepted
    iterates, the KKT residuals and the analytic dual Hessian (per-user
    prefix and suffix sums) all read that minimizer.  Once the KKT residuals
    of the minimizer are within ``_TOL`` (1e-6), ascent continues by full
    Newton steps for as long as each shrinks the natural residual (one
    evaluation per step, typically one or two steps to the rounding floor);
    the last minimizer is returned.  ``trace`` holds one (iteration, dual
    value [J], max KKT residual) row per iterate, the start first, at most
    ``_MAX_STEPS`` (200) rows.

    Raises :class:`InfeasibleTrajectoryError` when the probe does not
    certify a user left by the presolve (the message names its scenario
    index), :class:`DualIterationLimitError` when ascent ends above
    ``_TOL`` and ``ValueError`` when ``warm`` does not fit the scenario.
    """
    N = s.N
    if warm is not None and warm.nu.shape != (s.K, N):
        raise ValueError(f"warm prices of shape {warm.nu.shape} for {s.K} users "
                         f"over {N} slots")

    # Presolve: a user whose whole demand fits a local-only schedule inside
    # its causal budget never offloads and prices at zero.  Left in the
    # pricing problem such users make the bit price, and with it the
    # closed-form recovery, degenerate.  Two schedules are tried: the
    # constant frequency, then spending each slot's harvest on local
    # compute, scaled down to exactly the demand (scaling keeps every
    # prefix within its harvest).
    l_full = np.zeros((s.K, N))
    f_full = np.zeros((s.K, N))
    f_const = s.R * s.M / (N * s.slot)
    e_slot = s.gamma_c * s.slot * f_const ** 3
    harv = harvest_increments(s, traj)
    slots = np.arange(1, N + 1)
    rich = np.all(e_slot[:, None] * slots[None, :]
                  <= np.cumsum(harv, axis=1) * (1.0 + 1e-12), axis=1)
    f_full[rich] = f_const[rich, None]
    f_sah = np.cbrt(harv / (s.gamma_c * s.slot))
    bits_sah = f_sah.sum(axis=1) * s.slot / s.M
    local = ~rich & (bits_sah >= s.R)
    f_full[local] = f_sah[local] * (s.R[local] / bits_sah[local])[:, None]
    poor = np.flatnonzero(~(rich | local))

    if poor.size == 0:
        return OffloadSolution(l=l_full, f_user=f_full, f_uav=np.zeros(N),
                               duals=DualState.zeros(s.K, N), objective=0.0,
                               dual_objective=0.0, kkt=OffloadKkt(0.0, 0.0, 0.0))

    sp = _ScaledP2(s, traj, poor)
    split = _policy_split_scaled(sp)
    margins = _margins(sp, split)
    if np.any(margins < 0.0):
        k = int(np.argmin(margins))
        raise InfeasibleTrajectoryError(
            f"infeasible for this trajectory: user {poor[k]} short by "
            f"{-margins[k]:.4g} bits under the spend-as-harvested policy")

    if warm is not None and np.array_equal(np.flatnonzero(warm.mu > 0.0), poor):
        mu, nu, theta = _duals_to_scaled(warm)
        mu, nu = mu[poor], nu[poor]
    else:
        mu, nu, theta = _warm_start(sp, split)
    slack = max(theta[N - 1] - theta[1 : N - 1].sum(), 0.0)
    z = _pack(mu, nu, theta[1 : N - 1], slack)
    opt = minimize(sp, z)
    if not opt.kkt.max() <= _TOL:
        raise DualIterationLimitError(
            f"dual iteration limit after {opt.nit} Newton steps and {opt.nfev} "
            f"evaluations: residuals {opt.kkt} above tol {_TOL}")
    mu, nu, theta = opt.point.mu, opt.point.nu, opt.point.theta
    l, f, fu = opt.point.primal

    l_full[poor] = l * _BIT
    f_full[poor] = f * _FREQ
    mu_full = np.zeros(s.K)
    mu_full[poor] = mu / _PRICE
    nu_full = np.zeros((s.K, N))
    nu_full[poor] = nu
    duals = DualState(mu=mu_full, nu=nu_full, theta=theta / _PRICE)
    objective = sp.c_f * float(np.sum(fu ** 3)) * _EN
    return OffloadSolution(l=l_full, f_user=f_full, f_uav=fu * _FREQ,
                           duals=duals, objective=objective,
                           dual_objective=opt.point.value * _EN,
                           kkt=opt.kkt, trace=tuple(opt.trace))
