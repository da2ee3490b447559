"""Joint-step planner and benchmark flight paths.

From a feasible initial path the planner solves the offload/CPU schedule,
then takes joint path steps, re-solving the schedule after each.  The
schedule duals give the gradient of the optimal compute energy along the
path (Danskin's theorem); a step minimizes propulsion plus that
linearization under the speed caps, a convex QCQP, and predicts its energy
decrease.  The planner stops once that prediction is within ``s.xi1``
and otherwise takes the step, halved until the re-solved mission energy
falls, so the recorded energy trace is nonincreasing; ``_MAX_OUTER``
bounds the iterations.

Two fixed benchmark paths ship with the planner: a constant-speed straight
dash between the endpoints, and a constant-speed semicircle whose diameter
is the endpoint separation (flown on the side of the user centroid).

A duration sweep plans each duration's schemes together.  The planner's
first iterate from the straight start is the schedule optimum on the
straight dash, which is exactly the straight-line baseline, so the
proposed scheme starts from that baseline's result instead of solving the
same schedule again.  The semi-circle baseline's schedule solve starts
from the same result's prices: optimal multipliers move continuously with
the problem data, so they start its dual ascent close to its optimum.
Nothing is shared across durations or calls.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
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
    propulsion_profile,
)
from .offload_solver import (
    OffloadSolution,
    solve_p2,
    InfeasibleTrajectoryError,
)
from .trajectory_solver import speed_capped_propulsion

__all__ = [
    "PlannerResult",
    "SweepCell",
    "InfeasibleScenarioError",
    "BaselineSpeedError",
    "JointStepError",
    "SCHEMES",
    "straight_line_trajectory",
    "semicircle_trajectory",
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
    outer_trace: tuple       # ((iteration, mission energy [J]), ...)
    scheme: str
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
    spend = tx_energy(s, channel_gains(s, traj), sol.l) + harvest_increments(s, traj)
    w = 2.0 * nu_tail * spend / (s.H ** 2 + np.sum(diff ** 2, axis=2))
    grad = np.zeros((s.N + 1, 2))
    grad[: s.N] = np.einsum("kn,knd->nd", w, diff)
    return grad


def joint_step(s: Scenario, traj, sol: OffloadSolution) -> tuple[np.ndarray, float]:
    """Speed-capped joint path step at a schedule optimum and the decrease
    it predicts [J].

    Minimizes propulsion (exactly quadratic in the free points p_1 ..
    p_{N-1}) plus the linearized optimal compute energy under the N speed
    caps, a convex QCQP.  Its start blends the path with the straight dash
    between the ends.  Below V_max the dash is strictly inside the caps and
    segment norms are convex, so the start, and every point between the
    path and the step's end, is strictly feasible: no phase 1 runs.  A dash
    at V_max is the only feasible path, and the step is zero.  With no cap
    active the step is the Newton step -A^{-1} r (r the joint gradient, A
    the propulsion Hessian).  The decrease vanishes exactly at a joint
    stationary point, so it is the planner's joint residual.  Returns the
    (N+1, 2) step (zero on the endpoints) and the decrease.
    """
    traj = np.asarray(traj, dtype=float)
    step = np.zeros_like(traj)
    if np.linalg.norm(traj[-1] - traj[0]) >= s.V_max * s.N * s.slot:
        return step, 0.0
    (q0, c0, d0), rows = speed_capped_propulsion(s, traj[0], traj[-1])
    grad = compute_energy_gradient(s, traj, sol)[1:-1].ravel()
    x = traj[1:-1].ravel()
    dash = np.linspace(traj[0], traj[-1], s.N + 1)[1:-1].ravel()
    out = qcqp.solve(qcqp.QcqpProblem(objective=(q0, c0 + grad, d0), rows=rows),
                     x0=(1.0 - _DASH_BLEND) * x + _DASH_BLEND * dash)
    if out.status != "optimal":
        raise JointStepError(f"capped joint step ended {out.status!r}")
    dx = out.x - x
    step[1:-1] = dx.reshape(-1, 2)
    return step, -float((q0 @ x + c0 + grad) @ dx + 0.5 * dx @ q0 @ dx)


def _mission_energy(s: Scenario, traj, sol: OffloadSolution) -> float:
    return float(np.sum(propulsion_profile(s, traj))) + s.T * s.P_u + sol.objective


def _descend(s: Scenario, traj, sol: OffloadSolution, step, gain: float,
             energy: float):
    """Halve the joint step until the re-solved mission energy drops below
    ``energy``.  Every re-solve starts from the prices of ``sol``, the
    schedule at ``traj``: the path moves little, so they are near the
    candidate's.  Returns (traj, schedule, energy) of the accepted point,
    or None once the halved step's model decrease is within ``s.xi1``.  A
    step that ends on a speed cap may pass it by a rounding error."""
    alpha = 1.0
    while gain * alpha * (2.0 - alpha) > s.xi1:
        cand = traj + alpha * step
        alpha *= 0.5
        speeds = np.linalg.norm(np.diff(cand, axis=0), axis=1) / s.slot
        if np.max(speeds) > s.V_max * (1.0 + 1e-12):
            continue
        try:
            cand_sol = solve_p2(s, cand, warm=sol.duals)
        except InfeasibleTrajectoryError:
            continue
        cand_energy = _mission_energy(s, cand, cand_sol)
        if cand_energy < energy:
            return cand, cand_sol, cand_energy
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
    :func:`joint_step`, halved until the re-solved mission energy falls.
    Status "converged": the step predicts a decrease within ``s.xi1``;
    "stalled": no halving predicting more than ``s.xi1`` lowers the energy;
    "iteration-limit": ``_MAX_OUTER`` (50) iterations were taken (the last
    iterate is returned rather than failing).
    """
    if isinstance(init, PlannerResult):
        if not _same_scenario(init.scenario, s):
            raise ValueError("initial result was planned for another scenario")
        traj, sol = init.plan.traj, init.schedule
    else:
        traj = _initial_trajectory(s, init)
        try:
            sol = solve_p2(s, traj)
        except InfeasibleTrajectoryError as exc:
            raise InfeasibleScenarioError(
                f"infeasible scenario on the initial path: {exc}") from exc

    trace = [(1, _mission_energy(s, traj, sol))]
    status = "iteration-limit"
    for i in range(2, _MAX_OUTER + 1):
        step, gain = joint_step(s, traj, sol)
        if gain <= s.xi1:
            status = "converged"
            break
        found = _descend(s, traj, sol, step, gain, trace[-1][1])
        if found is None:
            status = "stalled"
            break
        traj, sol, energy = found
        trace.append((i, energy))

    plan = Plan(traj=traj, l=sol.l, f_user=sol.f_user, f_uav=sol.f_uav)
    ledger = evaluate_ledger(s, plan)
    return PlannerResult(scenario=s, plan=plan, ledger=ledger, schedule=sol,
                         outer_trace=tuple(trace), scheme="proposed", status=status)


def run_baseline(s: Scenario, scheme: str, init: PlannerResult | None = None) -> PlannerResult:
    """Fix the path to a benchmark shape and solve the schedule once.

    ``init``, a :class:`PlannerResult` planned for ``s`` (the straight-line
    baseline's, say), starts the schedule's dual ascent from its converged
    prices; a result planned for another scenario raises ``ValueError``.
    The optimal prices move continuously with the path, so another path's
    are a near start; without ``init`` the ascent starts cold.
    """
    if init is not None and not _same_scenario(init.scenario, s):
        raise ValueError("initial result was planned for another scenario")
    if scheme not in _PATHS:
        raise ValueError(f"unknown baseline scheme {scheme!r}")
    traj = _PATHS[scheme](s)
    sol = solve_p2(s, traj, warm=None if init is None else init.schedule.duals)
    plan = Plan(traj=traj, l=sol.l, f_user=sol.f_user, f_uav=sol.f_uav)
    ledger = evaluate_ledger(s, plan)
    return PlannerResult(scenario=s, plan=plan, ledger=ledger, schedule=sol,
                         outer_trace=((1, ledger.uav_total),),
                         scheme=scheme, status="converged")


def _run_duration(s: Scenario, T: float, schemes: Sequence[str]) -> list[SweepCell]:
    """Re-derive the timing for duration ``T`` and plan each scheme there.

    The straight-line baseline is planned first, and the other schemes
    start from its result: the proposed scheme from its path and schedule,
    the semi-circle baseline's schedule solve from its prices.  When that
    cell failed or was not asked for, both start cold.  A scenario
    error (the duration breaks an invariant) or a solver error ends only
    its own cell: it is recorded as "infeasible" or "failed".  Cells come
    back in ``schemes`` order.
    """
    cells: dict[str, SweepCell] = {}
    start = None
    for scheme in sorted(dict.fromkeys(schemes), key=lambda name: name != "straight-line"):
        try:
            st = s.with_T(T)
            if scheme == "proposed":
                result = run_algorithm1(st, init="straight-line" if start is None else start)
            else:
                result = run_baseline(st, scheme, init=start)
        except (ScenarioError, SolverError) as exc:
            failure = "infeasible" if isinstance(exc, _INFEASIBLE) else "failed"
            cells[scheme] = SweepCell(T=T, scheme=scheme, result=None, error=str(exc),
                                      failure=failure)
        else:
            cells[scheme] = SweepCell(T=T, scheme=scheme, result=result)
            if scheme == "straight-line":
                start = result
    return [cells[scheme] for scheme in schemes]


def sweep_T(s: Scenario, T_values: Iterable[float],
            schemes: Sequence[str] = SCHEMES) -> list[SweepCell]:
    """Re-derive the timing for each mission duration and run every scheme.

    Output is ordered by T (ascending), then by the given scheme order.
    Per-cell failures are captured in the cell instead of aborting the
    sweep.
    """
    return [cell for T in sorted(float(t) for t in T_values)
            for cell in _run_duration(s, T, schemes)]
