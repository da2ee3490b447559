"""Reference implementations that only the tests call.

Scalar per-slot formulas (one user, one slot or one prefix at a time) that
the vectorized model is checked against, the all-zero plan, and an
independent primal solver for the fixed-path schedule subproblem that
serves as a ground-truth oracle on small instances.  None of them is on
the planner's path.
"""

import math

import numpy as np
from scipy.optimize import minimize

from uavmec import offload_solver as osv
from uavmec.model import (EXPONENT_CAP, DimensionError, OffloadRangeError, Plan,
                          Scenario)
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
# Independent primal oracle
# ---------------------------------------------------------------------------

def primal_oracle_p2(s: Scenario, traj, tol: float = 1e-10,
                     max_rounds: int = 30, descent_log: list | None = None):
    """Ground-truth solver for small instances, independent of the duals.

    Works directly on the primal block (l, f_user, f_uav): an exact
    (finite-weight) penalty on the coupling constraints via the augmented
    Lagrangian, with each inner minimization done by bound-constrained
    quasi-Newton descent over the nonnegativity box, then an exact snap
    onto the bit-balance hyperplanes.  Deterministic initialization, so
    repeated runs agree to machine precision.

    ``descent_log``, when given, collects the accepted inner objective
    values of the first round (they are nonincreasing).

    Returns ((l, f_user, f_uav) in SI, objective [J]).
    """
    sp = osv._ScaledP2(s, traj)
    K, N = sp.K, sp.N

    if np.all(s.R == 0.0):
        return (np.zeros((K, N)), np.zeros((K, N)), np.zeros(N)), 0.0

    # Deterministic start: even offload split meeting the bit balance, with
    # the UAV computing the total spread over its allowed slots.
    l = np.zeros((K, N))
    l[:, : N - 1] = sp.R[:, None] / (N - 1)
    f = np.zeros((K, N))
    fu = np.zeros(N)
    fu[1:] = sp.R.sum() / sp.bits_f / (N - 1)

    n_l, n_f, n_fu = K * N, K * N, N

    def split(x):
        return (x[:n_l].reshape(K, N), x[n_l : n_l + n_f].reshape(K, N),
                x[n_l + n_f :])

    def alm_value_grad(x, lam1, lam2, lam3, lam4, w):
        l, f, fu = split(x)
        c1, c2, c3, c4 = sp.violations(l, f, fu)
        m2 = np.maximum(0.0, lam2 + w * c2)
        m3 = np.maximum(0.0, lam3 + w * c3)
        e1 = lam1 + w * c1
        e4 = lam4 + w * c4
        obj = sp.c_f * float(np.sum(fu[1:] ** 3))
        val = (obj + float(lam1 @ c1) + 0.5 * w * float(c1 @ c1)
               + lam4 * c4 + 0.5 * w * c4 * c4
               + (float(m2.ravel() @ m2.ravel()) - float(lam2.ravel() @ lam2.ravel())) / (2 * w)
               + (float(m3 @ m3) - float(lam3 @ lam3)) / (2 * w))
        # Suffix sums turn the prefix-constraint terms into per-slot weights.
        s2 = np.flip(np.cumsum(np.flip(m2, axis=1), axis=1), axis=1)
        s3 = np.append(np.flip(np.cumsum(np.flip(m3))), 0.0)[:N]
        # Derivative of the capped TX energy (_ScaledP2.tx_energy): flat past
        # l_cap, where the uncapped exponential would overflow.
        dtx = np.where(l > sp.l_cap, 0.0, sp.a_tx * math.log(2.0) / sp.bl
                       * np.exp2(np.minimum(l, sp.l_cap) / sp.bl))
        g_l = s2 * dtx
        g_l[:, : N - 1] += -e1[:, None] + e4 - s3[None, 1:N]
        g_l[:, N - 1] = 0.0
        g_f = s2 * 3.0 * sp.c_f * f ** 2 - e1[:, None] * sp.bits_f
        g_fu = 3.0 * sp.c_f * fu ** 2 + sp.bits_f * (s3 - e4)
        g_fu[0] = 0.0
        return val, np.concatenate([g_l.ravel(), g_f.ravel(), g_fu])

    bounds = []
    for k in range(K):
        bounds += [(0.0, None)] * (N - 1) + [(0.0, 0.0)]   # l, last slot pinned
    bounds += [(0.0, None)] * n_f                          # f_user
    bounds += [(0.0, 0.0)] + [(0.0, None)] * (N - 1)       # f_uav, first pinned

    lower = np.array([b[0] for b in bounds])
    upper = np.array([np.inf if b[1] is None else b[1] for b in bounds])

    def projected_gradient_steps(x, state, steps=200, step0=1e-4):
        """Armijo projected-gradient walk; robust at the penalty kinks
        where the quasi-Newton line search can jam."""
        val, grad = alm_value_grad(x, *state)
        step = step0
        for _ in range(steps):
            moved = False
            for _ in range(40):
                cand = np.clip(x - step * grad, lower, upper)
                v_cand, g_cand = alm_value_grad(cand, *state)
                dx2 = float((cand - x) @ (cand - x))
                if v_cand <= val - 1e-4 * dx2 / max(step, 1e-300):
                    x, val, grad = cand, v_cand, g_cand
                    step *= 1.5
                    moved = True
                    break
                step *= 0.5
            if not moved:
                break
        return x

    lam1 = np.zeros(K)
    lam2 = np.zeros((K, N))
    lam3 = np.zeros(N - 1)
    lam4 = 0.0
    w = 1e2
    x = np.concatenate([l.ravel(), f.ravel(), fu])
    prev_viol = np.inf
    for _ in range(max_rounds):
        cb = None
        if descent_log is not None and not descent_log:
            log = descent_log

            def cb(xk, log=log, state=(lam1.copy(), lam2.copy(), lam3.copy(), lam4, w)):
                log.append(alm_value_grad(xk, *state)[0])
        state = (lam1, lam2, lam3, lam4, w)
        inner_ok = False
        for _ in range(4):
            res = minimize(alm_value_grad, x, args=state, jac=True,
                           method="L-BFGS-B", bounds=bounds, callback=cb,
                           options=dict(maxiter=4000, maxfun=8000, ftol=1e-18,
                                        gtol=1e-14))
            x = res.x
            if res.status != 2:
                inner_ok = True
                break
            cb = None
            x = projected_gradient_steps(x, state)
        l, f, fu = split(x)
        c1, c2, c3, c4 = sp.violations(l, f, fu)
        viol = max(float(np.abs(c1).max()), float(np.max(c2, initial=0.0)),
                   float(np.max(c3, initial=0.0)), abs(c4))
        if viol <= tol:
            break
        lam1 = lam1 + w * c1
        lam2 = np.maximum(0.0, lam2 + w * c2)
        lam3 = np.maximum(0.0, lam3 + w * c3)
        lam4 = lam4 + w * c4
        # Raise the weight only after a clean inner solve whose violation
        # stopped contracting; stiffening a jammed subproblem makes the
        # kinks worse.
        if inner_ok and viol > 0.25 * prev_viol:
            w = min(w * 10.0, 1e9)
        prev_viol = viol

    # Exact snap onto the bit-balance hyperplanes (mutually orthogonal:
    # each touches one user's variables; the compute balance touches fu).
    for _ in range(4):
        c1, c2, c3, c4 = sp.violations(l, f, fu)
        for k in range(K):
            a_l = np.ones(N - 1)
            a_f = np.full(N, sp.bits_f)
            denom = float(a_l @ a_l + a_f @ a_f)
            corr = c1[k] / denom
            l[k, : N - 1] += corr * a_l
            f[k] += corr * a_f
        a_fu = np.full(N - 1, sp.bits_f)
        fu[1:] += (c4 / float(a_fu @ a_fu)) * a_fu
        l = np.maximum(l, 0.0)
        l[:, N - 1] = 0.0
        f = np.maximum(f, 0.0)
        fu = np.maximum(fu, 0.0)
        fu[0] = 0.0

    objective = sp.c_f * float(np.sum(fu[1:] ** 3)) * osv._EN
    return osv._primal_from_scaled(l, f, fu), objective
