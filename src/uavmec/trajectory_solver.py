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
from .model import Scenario, DimensionError, propulsion_profile, tx_energy

__all__ = [
    "HarvestLowerBound",
    "ScaState",
    "P4Assembly",
    "ExpansionInfeasibleError",
    "ScaIterationLimitError",
    "sca_lower_bound",
    "speed_capped_propulsion",
    "assemble_p4",
    "solve_p3",
]

_SCA_MAX_ITERS = 100        # refinement rounds before ScaIterationLimitError


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


def speed_capped_propulsion(s: Scenario, start, end) -> tuple[tuple, qcqp.Rows]:
    """Propulsion and speed caps in the free path points p_1 .. p_{N-1}.

    With the ends pinned at the (2,) arrays ``start`` and ``end``, returns
    the propulsion energy as a (Q0, c0, d0) triple and the N two-point rows
    ||p_{n+1} - p_n||^2 / (V_max slot)^2 - 1 <= 0, n = 0 .. N-1.
    """
    dim = 2 * (s.N - 1)
    xy = np.arange(2)
    pts = np.arange(1, s.N)             # free path points; point i sits at 2(i-1)
    inner = np.arange(1, s.N - 1)       # segments joining two free points

    # Squared segment lengths ||p_{n+1} - p_n||^2: 2 on the diagonal of each
    # free end, -2 on the cross entries of a segment joining two free points.
    # Propulsion is kappa / slot^2 times their sum.
    seg_row = np.repeat(np.concatenate([pts - 1, pts, inner, inner]), 2)
    seg_j = (2 * np.concatenate([pts - 1, pts - 1, inner - 1, inner])[:, None] + xy).ravel()
    seg_k = (2 * np.concatenate([pts - 1, pts - 1, inner, inner - 1])[:, None] + xy).ravel()
    seg_val = np.repeat([2.0, -2.0], [4 * pts.size, 4 * inner.size])
    seg_c = np.zeros((s.N, dim))
    seg_c[0, :2] = -2.0 * start
    seg_c[-1, -2:] = -2.0 * end
    seg_d = np.zeros(s.N)
    seg_d[0], seg_d[-1] = float(start @ start), float(end @ end)

    a = s.kappa / s.slot ** 2
    q0m = np.zeros((dim, dim))
    np.add.at(q0m, (seg_j, seg_k), a * seg_val)
    cap2 = (s.V_max * s.slot) ** 2
    return ((q0m, a * seg_c.sum(axis=0), float(np.sum(a * seg_d))),
            qcqp.Rows(dim, seg_row, seg_j, seg_k, seg_val / cap2, seg_c / cap2,
                      (seg_d - cap2) / cap2))


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

    objective, speed = speed_capped_propulsion(s, exp[0], exp[-1])
    dim, xy = speed.dim, np.arange(2)
    pts = np.arange(1, s.N)             # free path points; point i sits at 2(i-1)
    cap2 = (s.V_max * s.slot) ** 2

    # Energy causality of user k over the first n slots, row (k, n):
    #   sum_{i<n} local_e + t_coef (H^2 + ||p_i - u_k||^2)
    #       <= minorant const - sum_{i<n} coef_i ||p_i - u_k||^2,
    # diagonal with weight w = t_coef + coef on each free point i < n, its
    # constant from prefix sums over slots.  Dropped: prefixes without
    # spending (0 <= harvest), and rows touching no free point (the
    # first-slot prefix is a constant; a saturating schedule makes it read
    # 0 <= 0, which would deny the barrier method its interior).
    local_e = s.gamma_c * s.slot * f_user ** 3                    # (K, N)
    t_coef = tx_energy(s, s.beta0, l)           # per unit of H^2 + ||p - u||^2
    r2 = np.sum((exp[None, : s.N] - s.user_pos[:, None]) ** 2, axis=2)     # (K, N)
    coef = s.slot * s.eta * s.P_u * s.beta0 / (s.H ** 2 + r2) ** 2   # as sca_lower_bound
    w = t_coef + coef
    # ||p_i - u_k||^2 = ||p_i||^2 - 2 u_k'p_i + ||u_k||^2 on free points;
    # slot 0 uses the pinned start.
    fixed = w * np.sum(s.user_pos ** 2, axis=1)[:, None]
    fixed[:, 0] = w[:, 0] * r2[:, 0]
    bconst = np.cumsum(coef * (s.H ** 2 + 2.0 * r2), axis=1)
    const = (np.cumsum(local_e, axis=1) + np.cumsum(t_coef, axis=1) * s.H ** 2
             - bconst + np.cumsum(fixed, axis=1))
    scale = np.maximum(bconst, 1e-300)
    spends = np.logical_or.accumulate((local_e > 0.0) | (l > 0.0), axis=1)
    touches = np.logical_or.accumulate((w != 0.0) & (np.arange(s.N) > 0), axis=1)
    idle = spends & ~touches & (const > 1e-9 * scale)
    if idle.any():
        k, n = np.argwhere(idle)[0]
        raise ExpansionInfeasibleError(
            f"fixed-slot spending exceeds harvest for user {k} "
            f"over the first {n + 1} slot(s); no path can repair it")
    ck, cn = np.nonzero(spends & touches)     # row r covers user ck[r], slots 0..cn[r]
    row_scale = scale[ck, cn]
    # Entry (r, i): free point i + 1 <= cn[r] with a nonzero weight.
    r, i = np.nonzero((pts[None, :] <= cn[:, None]) & (w[ck][:, pts] != 0.0))
    wi = w[ck[r], i + 1]
    caus_c = np.zeros((ck.size, dim))
    caus_c[r[:, None], 2 * i[:, None] + xy] = (-2.0 * wi[:, None] * s.user_pos[ck[r]]
                                               / row_scale[r, None])

    rows = qcqp.Rows(
        dim,
        np.concatenate([speed.row, s.N + np.repeat(r, 2)]),
        np.concatenate([speed.j, (2 * i[:, None] + xy).ravel()]),
        np.concatenate([speed.k, (2 * i[:, None] + xy).ravel()]),
        np.concatenate([speed.val, np.repeat(2.0 * wi / row_scale[r], 2)]),
        np.vstack([speed.c, caus_c]),
        np.concatenate([speed.d, const[ck, cn] / row_scale]))
    problem = qcqp.QcqpProblem(objective=objective, rows=rows)
    labels = (tuple(zip(["speed"] * s.N, range(s.N)))
              + tuple(zip(["causality"] * ck.size, ck.tolist(), (cn + 1).tolist())))
    return P4Assembly(problem=problem, rows=labels,
                      row_scales=np.concatenate([np.full(s.N, cap2), row_scale]),
                      n_free=s.N - 1)


@dataclass
class ScaState:
    """Progress record of one path-refinement run."""

    iterations: int
    objective_history: list = field(default_factory=list)
    trajectory_history: list = field(default_factory=list)


def solve_p3(s: Scenario, plan_part, init_traj) -> tuple[np.ndarray, ScaState]:
    """Refine the path at a fixed schedule until the iterates stop moving.

    Convergence test: total point displacement between successive paths at
    most ``s.xi``, within ``_SCA_MAX_ITERS`` (100) rounds.  Every iterate
    satisfies the true energy-causality constraints because each
    subproblem is a restriction.
    """
    traj = np.asarray(init_traj, dtype=float).copy()
    state = ScaState(iterations=0)
    for _ in range(_SCA_MAX_ITERS):
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
        traj = new_traj
        if disp <= s.xi:
            return traj, state
    raise ScaIterationLimitError(f"SCA iteration limit: displacement {disp:.3g} "
                                 f"> xi={s.xi} after {_SCA_MAX_ITERS} rounds")
