"""Joint-step planner and benchmark flight paths.

From a feasible initial path the planner solves the offload/CPU schedule,
then takes joint path steps, re-solving the schedule after each from the
prices their first-order tangent along the step predicts.  The schedule
duals give the gradient of the optimal compute energy along the path
(Danskin's theorem); a step minimizes propulsion plus that linearization
under the speed caps, a convex QCQP solved only when the unconstrained
minimizer breaks a cap, and predicts its energy decrease.  The planner
stops once that prediction is within ``s.xi1`` and otherwise takes the
step, halved until the re-solved plan's mission energy (its ledger
``uav_total``) falls, so the recorded energy trace is nonincreasing;
``_MAX_OUTER`` bounds the iterations.  The propulsion model and speed caps
in the free path points (:func:`speed_capped_propulsion`) live here; the
paper's path refinement in ``trajectory_solver`` borrows them.

Two fixed benchmark paths ship with the planner: a constant-speed straight
dash between the endpoints, and a constant-speed semicircle whose diameter
is the endpoint separation (flown on the side of the user centroid).

A duration sweep plans each duration's schemes together.  The planner's
first iterate from the straight start is the schedule optimum on the
straight dash, which is exactly the straight-line baseline, so the
proposed scheme starts from that baseline's result instead of solving the
same schedule again.  Every baseline's schedule solve starts cold, from
the exact optimum of its total-budget relaxation, which is as near as
another cell's prices.  Nothing is shared across calls.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Iterable, Sequence

import numpy as np

from . import qcqp
from .errors import SolverError
from .model import (
    Scenario,
    ScenarioError,
    Plan,
    EnergyLedger,
    channel_gains,
    harvest_increments,
    tx_energy,
    evaluate_ledger,
)
from .offload_solver import (
    OffloadSolution,
    solve_p2,
    price_tangent,
    InfeasibleTrajectoryError,
)

__all__ = [
    "PlannerResult",
    "SweepCell",
    "InfeasibleScenarioError",
    "BaselineSpeedError",
    "JointStepError",
    "SCHEMES",
    "straight_line_trajectory",
    "semicircle_trajectory",
    "speed_capped_propulsion",
    "compute_energy_gradient",
    "joint_step",
    "run_algorithm1",
    "run_baseline",
    "sweep_T",
]

SCHEMES = ("proposed", "straight-line", "semi-circle")
_DASH_BLEND = 1e-2     # dash weight in each joint step's strictly feasible start
_MAX_OUTER = 50        # planner iterations before status "iteration-limit"


class InfeasibleScenarioError(SolverError):
    """The workload cannot be met from the initial path's harvest."""


class BaselineSpeedError(SolverError):
    """Baseline violates V_max."""


class JointStepError(SolverError):
    """The capped joint step's QCQP did not end optimal."""


@dataclass(frozen=True)
class PlannerResult:
    scenario: Scenario       # the mission the plan was made for
    plan: Plan
    ledger: EnergyLedger
    schedule: OffloadSolution  # the schedule optimum on plan.traj
    outer_trace: tuple       # ((iteration, ledger uav_total [J]), ...)
    status: str              # "converged" | "iteration-limit" | "stalled"

    @property
    def p2_trace(self) -> tuple:
        """The final schedule solve's (iteration, dual value, max violation) rows."""
        return self.schedule.trace

    @property
    def uav_total(self) -> float:
        return self.ledger.uav_total

    @property
    def iterations(self) -> int:
        return len(self.outer_trace)


@dataclass(frozen=True)
class SweepCell:
    T: float
    scheme: str
    result: PlannerResult | None
    error: str | None = None
    # why a cell has no result: "infeasible" (the scenario, path or
    # baseline cannot carry the workload) or "failed" (any other solver error)
    failure: str | None = None

    @property
    def status(self) -> str:
        return self.result.status if self.result is not None else self.failure

    @property
    def converged(self) -> bool:
        return self.result is not None and self.result.status == "converged"


# Errors that mean the cell's workload cannot be carried at all.
_INFEASIBLE = (InfeasibleScenarioError, InfeasibleTrajectoryError,
               BaselineSpeedError, ScenarioError)


def straight_line_trajectory(s: Scenario) -> np.ndarray:
    """Constant-speed straight dash from q0 to qF, N+1 points."""
    t = np.linspace(0.0, 1.0, s.N + 1)[:, None]
    return s.q0[None, :] + t * (s.qF - s.q0)[None, :]


def semicircle_trajectory(s: Scenario) -> np.ndarray:
    """Constant-speed semicircle over the q0-qF diameter, N+1 points.

    The arc bulges into the half-plane containing the user centroid (ties
    go to the left of the flight direction).  Raises
    :class:`BaselineSpeedError` when the chord speed exceeds V_max.
    """
    chord = s.qF - s.q0
    length = float(np.linalg.norm(chord))
    if length == 0.0:
        return np.tile(s.q0, (s.N + 1, 1))
    e1 = chord / length
    left = np.array([-e1[1], e1[0]])
    centroid = s.user_pos.mean(axis=0)
    side = float(left @ (centroid - 0.5 * (s.q0 + s.qF)))
    e2 = left if side >= 0.0 else -left
    radius = 0.5 * length
    center = 0.5 * (s.q0 + s.qF)
    phi = np.pi * np.arange(s.N + 1) / s.N
    traj = (center[None, :]
            - radius * np.cos(phi)[:, None] * e1[None, :]
            + radius * np.sin(phi)[:, None] * e2[None, :])
    traj[0] = s.q0
    traj[-1] = s.qF
    step = 2.0 * radius * np.sin(np.pi / (2.0 * s.N))
    if step / s.slot > s.V_max * (1.0 + 1e-12):
        raise BaselineSpeedError(
            f"baseline violates V_max: semicircle needs {step / s.slot:.4g} m/s")
    return traj


_PATHS = {"straight-line": straight_line_trajectory, "semi-circle": semicircle_trajectory}


def _same_scenario(a: Scenario, b: Scenario) -> bool:
    return a is b or all(np.array_equal(getattr(a, f.name), getattr(b, f.name))
                         for f in fields(Scenario))


def _initial_trajectory(s: Scenario, init) -> np.ndarray:
    if isinstance(init, str):
        if init not in _PATHS:
            raise ValueError(f"unknown initialization {init!r}; pick from {tuple(_PATHS)}")
        return _PATHS[init](s)
    traj = np.asarray(init, dtype=float)
    if traj.shape != (s.N + 1, 2):
        raise ValueError(f"initial trajectory must be {(s.N + 1, 2)}, got {traj.shape}")
    return traj.copy()


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


def compute_energy_gradient(s: Scenario, traj, sol: OffloadSolution) -> np.ndarray:
    """(N+1, 2) gradient of the optimal UAV compute energy along the path [J/m].

    ``sol`` is the schedule optimum at ``traj``.  By Danskin's theorem the
    optimum moves with the path as its Lagrangian does at the solution's
    primal/dual pair.  Only the energy-causality rows depend on the path:
    slot n's TX energy (at the fixed bits) and its harvest enter every
    prefix m >= n, so point n is weighted by the suffix sum of the
    causality prices ``sol.duals.nu``.  TX energy grows with H^2 + d^2 and
    harvest falls with its inverse, so d(TX - harvest)/dq equals
    (TX + harvest) * 2 (q - u) / (H^2 + d^2).  The final point carries no
    slot; its row is zero.
    """
    traj = np.asarray(traj, dtype=float)
    nu_tail = np.flip(np.cumsum(np.flip(sol.duals.nu, axis=1), axis=1), axis=1)  # (K, N)
    diff = traj[None, : s.N] - s.user_pos[:, None]                                # (K, N, 2)
    gains = channel_gains(s, traj)
    spend = tx_energy(s, gains, sol.l) + harvest_increments(s, gains)
    w = 2.0 * nu_tail * spend / (s.H ** 2 + np.sum(diff ** 2, axis=2))
    grad = np.zeros((s.N + 1, 2))
    grad[: s.N] = np.einsum("kn,knd->nd", w, diff)
    return grad


def joint_step(s: Scenario, traj, sol: OffloadSolution) -> tuple[np.ndarray, float]:
    """Speed-capped joint path step at a schedule optimum and the decrease
    it predicts [J].

    Minimizes propulsion (exactly quadratic in the free points p_1 ..
    p_{N-1}) plus the linearized optimal compute energy under the N speed
    caps, a convex QCQP.  First comes the Newton step -A^{-1} r (r the
    joint gradient, A the positive definite propulsion Hessian), the
    unconstrained minimizer.  If it meets every cap it is the QCQP's
    optimum (all multipliers zero), and no QCQP is built.  Otherwise the
    QCQP runs from a blend of the path with the straight dash between the
    ends.  Below V_max the dash is strictly inside the caps and segment
    norms are convex, so the start, and every point between the path and
    the step's end, is strictly feasible: no phase 1 runs.  A dash at
    V_max is the only feasible path, and the step is zero.  The dash
    minimizes propulsion, so r is A (x - dash) plus the compute gradient,
    free of the cancellation in A x + c0 near the dash.  The decrease
    vanishes exactly at a joint stationary point, so it is the planner's
    joint residual.  Returns the (N+1, 2) step (zero on the endpoints) and
    the decrease.
    """
    traj = np.asarray(traj, dtype=float)
    step = np.zeros_like(traj)
    if np.linalg.norm(traj[-1] - traj[0]) >= s.V_max * s.N * s.slot:
        return step, 0.0
    (q0, c0, d0), rows = speed_capped_propulsion(s, traj[0], traj[-1])
    grad = compute_energy_gradient(s, traj, sol)[1:-1].ravel()
    x = traj[1:-1].ravel()
    dash = np.linspace(traj[0], traj[-1], s.N + 1)[1:-1].ravel()
    r = q0 @ (x - dash) + grad
    dx = -np.linalg.solve(q0, r)
    if not np.all(rows.values(x + dx) <= 0.0):
        out = qcqp.solve(qcqp.QcqpProblem(objective=(q0, c0 + grad, d0), rows=rows),
                         x0=(1.0 - _DASH_BLEND) * x + _DASH_BLEND * dash)
        if out.status != "optimal":
            raise JointStepError(f"capped joint step ended {out.status!r}")
        dx = out.x - x
    step[1:-1] = dx.reshape(-1, 2)
    return step, -float(r @ dx + 0.5 * dx @ q0 @ dx)


def _priced(s: Scenario, traj, sol: OffloadSolution) -> PlannerResult:
    """The plan flying ``traj`` on schedule ``sol``, its ledger, and a
    converged one-entry trace holding the ledger's ``uav_total``."""
    plan = Plan(traj=traj, l=sol.l, f_user=sol.f_user, f_uav=sol.f_uav)
    ledger = evaluate_ledger(s, plan)
    return PlannerResult(scenario=s, plan=plan, ledger=ledger, schedule=sol,
                         outer_trace=((1, ledger.uav_total),), status="converged")


def _descend(s: Scenario, res: PlannerResult, step, gain: float):
    """Halve the joint step from ``res`` until the re-solved plan's ledger
    ``uav_total`` drops below the one of ``res``.  The re-solve at alpha
    times the step starts from ``res.schedule``'s prices moved by alpha times
    their tangent (:func:`price_tangent`, one Newton system per step).
    Returns the accepted candidate's priced result, or None once the halved
    step's model decrease is within ``s.xi1``.  A step that ends on a speed
    cap may pass it by a rounding error."""
    tangent = price_tangent(s, res.plan.traj, res.schedule.duals, step)
    alpha = 1.0
    while gain * alpha * (2.0 - alpha) > s.xi1:
        cand, warm = res.plan.traj + alpha * step, tangent.at(alpha)
        alpha *= 0.5
        speeds = np.linalg.norm(np.diff(cand, axis=0), axis=1) / s.slot
        if np.max(speeds) > s.V_max * (1.0 + 1e-12):
            continue
        try:
            found = _priced(s, cand, solve_p2(s, cand, warm=warm))
        except InfeasibleTrajectoryError:
            continue
        if found.uav_total < res.uav_total:
            return found
    return None


def run_algorithm1(s: Scenario, init="straight-line") -> PlannerResult:
    """Take capped joint steps until the plan is jointly stationary.

    ``init`` selects the starting path (a fixed path by its scheme name,
    "straight-line" or "semi-circle", or an explicit (N+1, 2) array), where
    the schedule is solved first (its feasibility probe failing raises
    :class:`InfeasibleScenarioError`), or is a :class:`PlannerResult`
    planned for ``s`` (a baseline's, say), whose path and converged
    schedule are the start as they stand; a result planned for another
    scenario raises ``ValueError``.  Each later iteration takes the
    :func:`joint_step`, halved until the re-solved plan's ledger
    ``uav_total`` falls; ``outer_trace`` holds those totals.
    Status "converged": the step predicts a decrease within ``s.xi1``;
    "stalled": no halving predicting more than ``s.xi1`` lowers the energy;
    "iteration-limit": ``_MAX_OUTER`` (50) iterations were taken (the last
    iterate is returned rather than failing).
    """
    if isinstance(init, PlannerResult):
        if not _same_scenario(init.scenario, s):
            raise ValueError("initial result was planned for another scenario")
        res = init
    else:
        traj = _initial_trajectory(s, init)
        try:
            sol = solve_p2(s, traj)
        except InfeasibleTrajectoryError as exc:
            raise InfeasibleScenarioError(
                f"infeasible scenario on the initial path: {exc}") from exc
        res = _priced(s, traj, sol)

    trace = [(1, res.uav_total)]
    status = "iteration-limit"
    for i in range(2, _MAX_OUTER + 1):
        step, gain = joint_step(s, res.plan.traj, res.schedule)
        if gain <= s.xi1:
            status = "converged"
            break
        found = _descend(s, res, step, gain)
        if found is None:
            status = "stalled"
            break
        res = found
        trace.append((i, res.uav_total))
    return replace(res, scenario=s, outer_trace=tuple(trace), status=status)


def run_baseline(s: Scenario, scheme: str) -> PlannerResult:
    """Fix the path to a benchmark shape and solve the schedule once."""
    if scheme not in _PATHS:
        raise ValueError(f"unknown baseline scheme {scheme!r}")
    traj = _PATHS[scheme](s)
    return _priced(s, traj, solve_p2(s, traj))


def sweep_T(s: Scenario, T_values: Iterable[float],
            schemes: Sequence[str] = SCHEMES) -> list[SweepCell]:
    """Re-derive the timing for each mission duration and run every scheme.

    Durations run in ascending order.  At each, the straight-line baseline
    is planned first, and the proposed scheme starts from its path and
    schedule, or from the straight dash when that cell failed or was not
    asked for.  A scenario error (the duration breaks an invariant) or a
    solver error ends only its own cell: it is recorded as "infeasible"
    or "failed".  Output is ordered by T, then by the given scheme order.
    """
    cells: list[SweepCell] = []
    for T in sorted(float(t) for t in T_values):
        row: dict[str, SweepCell] = {}
        start = None
        for scheme in sorted(dict.fromkeys(schemes), key=lambda name: name != "straight-line"):
            try:
                st = s.with_T(T)
                if scheme == "proposed":
                    result = run_algorithm1(st, init="straight-line" if start is None else start)
                else:
                    result = run_baseline(st, scheme)
            except (ScenarioError, SolverError) as exc:
                failure = "infeasible" if isinstance(exc, _INFEASIBLE) else "failed"
                row[scheme] = SweepCell(T=T, scheme=scheme, result=None, error=str(exc),
                                        failure=failure)
            else:
                row[scheme] = SweepCell(T=T, scheme=scheme, result=result)
                if scheme == "straight-line":
                    start = result
        cells += [row[scheme] for scheme in schemes]
    return cells
