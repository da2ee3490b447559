"""Flight-path refinement at a fixed offload/CPU schedule.

With the schedule held fixed, only propulsion energy depends on the path,
but the energy-causality constraints couple the path to the users twice:
moving closer raises harvest and lowers the TX power the fixed bits need.
The harvest prefix is a sum of inverse-quadratic terms in the trajectory,
which is not concave, so each refinement step replaces it with its tangent
concave-quadratic minorant at the current path (exact there, a global
lower bound everywhere).  The resulting restriction is a convex QCQP in
the free path points, solved by the interior-point module; re-expanding at
each solution and iterating drives the path to a stationary point while
every iterate keeps the true constraints satisfied.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import qcqp
from .errors import SolverError
from .model import (
    Scenario,
    DimensionError,
    EXPONENT_CAP,
    propulsion_profile,
)

__all__ = [
    "HarvestLowerBound",
    "ScaState",
    "P4Assembly",
    "ExpansionInfeasibleError",
    "ScaIterationLimitError",
    "sca_lower_bound",
    "assemble_p4",
    "solve_p3",
]


class ExpansionInfeasibleError(SolverError, ValueError):
    """Expansion point violates the speed, endpoint or causality constraints."""


class ScaIterationLimitError(SolverError):
    """SCA iteration limit reached before the displacement test passed."""


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


@dataclass(frozen=True)
class P4Assembly:
    """Bookkeeping for one convex path subproblem.

    rows are ("speed", n) for the per-slot speed caps and
    ("causality", k, n) for the kept energy-causality restrictions;
    row_scales holds the positive factor each causality row was divided by.
    """

    problem: qcqp.QcqpProblem
    rows: tuple
    row_scales: np.ndarray
    n_free: int

    def embed(self, s: Scenario, x: np.ndarray) -> np.ndarray:
        """Rebuild the full (N+1, 2) trajectory from the free variables."""
        traj = np.empty((s.N + 1, 2))
        traj[0] = s.q0
        traj[-1] = s.qF
        traj[1:-1] = x.reshape(self.n_free, 2)
        return traj

    def pack(self, traj) -> np.ndarray:
        return np.asarray(traj, dtype=float)[1:-1].ravel()


def assemble_p4(s: Scenario, plan_part, expansion_traj) -> P4Assembly:
    """Build the convex QCQP for the free path points p_1 .. p_{N-1}.

    Objective: total propulsion energy.  Constraints: per-slot speed caps,
    endpoint substitution, and for every (user, prefix) with spending the
    restriction  fixed spending(path) <= harvest minorant(path), both sides
    quadratic in the path.  Rows whose prefix carries no spending at all
    are dropped (they reduce to 0 <= harvest and cannot bind).
    """
    l, f_user, _ = plan_part
    l = np.asarray(l, dtype=float)
    f_user = np.asarray(f_user, dtype=float)
    exp = np.asarray(expansion_traj, dtype=float)
    if exp.shape != (s.N + 1, 2):
        raise DimensionError(f"expansion trajectory: expected {(s.N + 1, 2)}, got {exp.shape}")
    if (np.linalg.norm(exp[0] - s.q0) > 1e-9 * max(1.0, float(np.linalg.norm(s.q0)))
            or np.linalg.norm(exp[-1] - s.qF) > 1e-9 * max(1.0, float(np.linalg.norm(s.qF)))):
        raise ExpansionInfeasibleError("expansion point violates the endpoint pins")
    seg_speed = np.linalg.norm(np.diff(exp, axis=0), axis=1) / s.slot
    if np.max(seg_speed) > s.V_max * (1.0 + 1e-9):
        raise ExpansionInfeasibleError(
            f"expansion point violates the speed cap ({np.max(seg_speed):.4g} m/s)")

    n_free = s.N - 1
    dim = 2 * n_free

    def var(i: int) -> int:
        """Offset of path point i (1 <= i <= N-1) in the variable vector."""
        return 2 * (i - 1)

    # Objective: sum over segments of (kappa / slot^2) ||p_{n+1} - p_n||^2.
    a = s.kappa / s.slot ** 2
    q0m = np.zeros((dim, dim))
    c0 = np.zeros(dim)
    d0 = 0.0

    def add_pair(qm, cv, i, j, w, pi=None, pj=None):
        """Add  w * ||p_i - p_j||^2  to (qm, cv), returning the constant
        part.  An index of 0 or N means the pinned endpoint (its value is
        passed in pi/pj)."""
        i_free = 1 <= i <= s.N - 1
        j_free = 1 <= j <= s.N - 1
        if i_free and j_free:
            oi, oj = var(i), var(j)
            for t in range(2):
                qm[oi + t, oi + t] += 2 * w
                qm[oj + t, oj + t] += 2 * w
                qm[oi + t, oj + t] -= 2 * w
                qm[oj + t, oi + t] -= 2 * w
        elif i_free:
            oi = var(i)
            for t in range(2):
                qm[oi + t, oi + t] += 2 * w
            cv[oi : oi + 2] += -2 * w * pj
            return w * float(pj @ pj)
        elif j_free:
            oj = var(j)
            for t in range(2):
                qm[oj + t, oj + t] += 2 * w
            cv[oj : oj + 2] += -2 * w * pi
            return w * float(pi @ pi)
        else:
            return w * float((pi - pj) @ (pi - pj))
        return 0.0

    for n in range(s.N):
        d0 += add_pair(q0m, c0, n, n + 1, a,
                       pi=exp[0] if n == 0 else None,
                       pj=exp[-1] if n + 1 == s.N else None)

    ineq = []
    rows = []
    row_scales = []

    # Speed caps: ||p_{n+1} - p_n||^2 <= (V_max * slot)^2 for every slot.
    cap2 = (s.V_max * s.slot) ** 2
    for n in range(s.N):
        qm = np.zeros((dim, dim))
        cv = np.zeros(dim)
        const = add_pair(qm, cv, n, n + 1, 1.0,
                         pi=exp[0] if n == 0 else None,
                         pj=exp[-1] if n + 1 == s.N else None)
        ineq.append((qm / cap2, cv / cap2, (const - cap2) / cap2))
        rows.append(("speed", n))
        row_scales.append(cap2)

    # Energy causality restrictions.  Two kinds of degenerate rows are
    # dropped: prefixes with no spending at all (they reduce to
    # 0 <= harvest), and rows touching no free path point (the first-slot
    # prefix depends only on the pinned start, so the row is a constant;
    # when the schedule saturates it, it reads 0 <= 0 and would deny the
    # barrier method its interior).
    local_e = s.gamma_c * s.slot * f_user ** 3                    # (K, N)
    ratio = l / (s.B * s.lam)
    if np.any(ratio > EXPONENT_CAP):
        raise ValueError("offload load out of numeric range")
    t_coef = s.lam * s.Gamma * s.sigma2 * (np.exp2(ratio) - 1.0) / s.beta0
    spend_flag = (local_e > 0.0) | (l > 0.0)
    for k in range(s.K):
        bound_all = sca_lower_bound(s, exp, k, s.N)
        for n in range(1, s.N + 1):
            if not spend_flag[k, :n].any():
                continue
            const = float(np.sum(local_e[k, :n]))
            const += float(np.sum(t_coef[k, :n])) * s.H ** 2
            bconst = float(np.sum(bound_all.coef[:n] * (s.H ** 2 + 2.0 *
                           np.sum((exp[:n] - s.user_pos[k]) ** 2, axis=1))))
            const -= bconst
            scale = max(bconst, 1e-300)
            qm = np.zeros((dim, dim))
            cv = np.zeros(dim)
            touches_free = False
            for i in range(n):
                w = t_coef[k, i] + bound_all.coef[i]
                if w == 0.0:
                    continue
                if 1 <= i <= s.N - 1:
                    touches_free = True
                    oi = var(i)
                    qm[oi, oi] += 2 * w
                    qm[oi + 1, oi + 1] += 2 * w
                    cv[oi : oi + 2] += -2 * w * s.user_pos[k]
                    const += w * float(s.user_pos[k] @ s.user_pos[k])
                else:
                    const += w * float((exp[i] - s.user_pos[k]) @ (exp[i] - s.user_pos[k]))
            if not touches_free:
                if const > 1e-9 * scale:
                    raise ExpansionInfeasibleError(
                        f"fixed-slot spending exceeds harvest for user {k} "
                        f"over the first {n} slot(s); no path can repair it")
                continue
            ineq.append((qm / scale, cv / scale, const / scale))
            rows.append(("causality", k, n))
            row_scales.append(scale)

    problem = qcqp.QcqpProblem(dim=dim, objective=(q0m, c0, d0), ineq=ineq)
    return P4Assembly(problem=problem, rows=tuple(rows),
                      row_scales=np.asarray(row_scales), n_free=n_free)


@dataclass
class ScaState:
    """Progress record of one path-refinement run."""

    expansion_traj: np.ndarray
    iterations: int
    objective_history: list = field(default_factory=list)
    displacement_history: list = field(default_factory=list)
    trajectory_history: list = field(default_factory=list)


def solve_p3(s: Scenario, plan_part, init_traj, xi: float | None = None,
             max_iters: int = 100) -> tuple[np.ndarray, ScaState]:
    """Refine the path at a fixed schedule until the iterates stop moving.

    Convergence test: total point displacement between successive paths at
    most ``xi`` (scenario default).  Every iterate satisfies the true
    energy-causality constraints because each subproblem is a restriction.
    """
    xi = s.xi if xi is None else float(xi)
    traj = np.asarray(init_traj, dtype=float).copy()
    state = ScaState(expansion_traj=traj, iterations=0)
    for _ in range(max_iters):
        asm = assemble_p4(s, plan_part, traj)
        x_exp = asm.pack(traj)
        # A schedule that saturates its budgets pins the path: the
        # restriction has no interior, and the expansion point (where the
        # harvest minorant is exact) is its only available point.  The same
        # point stands in for any solve that does not end optimal.
        try:
            sol = qcqp.solve(asm.problem, x0=x_exp)
            status = sol.status
        except qcqp.QcqpInfeasibleError:
            status = "infeasible"
        if status == "optimal":
            sol_x = sol.x
        elif float(np.max(asm.problem.ineq_values(x_exp), initial=0.0)) <= 1e-9:
            sol_x = x_exp
        else:
            raise ExpansionInfeasibleError(
                f"path subproblem ended {status!r} and the expansion point "
                f"violates its constraints")
        new_traj = asm.embed(s, sol_x)
        state.iterations += 1
        state.objective_history.append(float(np.sum(propulsion_profile(s, new_traj))))
        state.trajectory_history.append(new_traj.copy())
        disp = float(np.sum(np.linalg.norm(new_traj - traj, axis=1)))
        state.displacement_history.append(disp)
        traj = new_traj
        state.expansion_traj = traj
        if disp <= xi:
            return traj, state
    raise ScaIterationLimitError(
        f"SCA iteration limit: displacement {disp:.3g} > xi={xi} after {max_iters} rounds")
