"""The paper's flight-path refinement (P3) at a fixed offload/CPU schedule.

With the schedule held fixed, only propulsion energy depends on the path,
but the energy-causality constraints couple the path to the users twice:
moving closer raises harvest and lowers the TX power the fixed bits need.
The harvest prefix is a sum of inverse-quadratic terms in the trajectory,
which is not concave, so each refinement step replaces it with its tangent
concave-quadratic minorant at the current path (exact there, a global
lower bound everywhere), built inline by :func:`assemble_p4`.  The
resulting restriction is a convex QCQP in the free path points, on the
planner's propulsion objective and speed rows
(:func:`uavmec.planner.speed_capped_propulsion`), solved by the
interior-point module; re-expanding at each solution and iterating drives
the path to a stationary point while every iterate keeps the true
constraints satisfied.

The planner moves the path by joint steps instead and never imports this
module; only the package's ``__init__`` does, to export it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import qcqp
from .errors import SolverError
from .model import Scenario, DimensionError, propulsion_profile, tx_energy
from .planner import speed_capped_propulsion

__all__ = [
    "ScaState",
    "P4Assembly",
    "ExpansionInfeasibleError",
    "ScaIterationLimitError",
    "assemble_p4",
    "solve_p3",
]

_SCA_MAX_ITERS = 100        # refinement rounds before ScaIterationLimitError


class ExpansionInfeasibleError(SolverError, ValueError):
    """Expansion point violates the speed, endpoint or causality constraints."""


class ScaIterationLimitError(SolverError):
    """SCA iteration limit reached before the displacement test passed."""


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
    # 0 <= 0, which would deny the interior-point solver its interior).
    local_e = s.gamma_c * s.slot * f_user ** 3                    # (K, N)
    t_coef = tx_energy(s, s.beta0, l)           # per unit of H^2 + ||p - u||^2
    r2 = np.sum((exp[None, : s.N] - s.user_pos[:, None]) ** 2, axis=2)     # (K, N)
    # Harvest minorant: each term a / (H^2 + d2) is convex in the squared
    # distance d2, so its tangent at the expansion path's r2 bounds it
    # below: coef (H^2 + 2 r2) - coef d2, with coef = a / (H^2 + r2)^2.
    coef = s.slot * s.eta * s.P_u * s.beta0 / (s.H ** 2 + r2) ** 2
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
