import warnings

import numpy as np
import pytest
from scipy.linalg import solveh_banded

from uavmec.model import Scenario, ScenarioError, check_constraints, evaluate_ledger
from uavmec.offload_solver import DualState, solve_p2
from uavmec.planner import (
    run_algorithm1,
    run_baseline,
    sweep_T,
    straight_line_trajectory,
    semicircle_trajectory,
    compute_energy_gradient,
    joint_step,
    InfeasibleScenarioError,
    BaselineSpeedError,
)


def _fields(s: Scenario) -> dict:
    return {name: getattr(s, name) for name in s.__dataclass_fields__}


@pytest.fixture(scope="module")
def table2_runs(table2):
    return {
        "proposed": run_algorithm1(table2),
        "straight-line": run_baseline(table2, "straight-line"),
        "semi-circle": run_baseline(table2, "semi-circle"),
    }


# --- benchmark paths ---------------------------------------------------------

def test_straight_line_shape(table2):
    traj = straight_line_trajectory(table2)
    assert traj.shape == (table2.N + 1, 2)
    speeds = np.linalg.norm(np.diff(traj, axis=0), axis=1) / table2.slot
    assert speeds == pytest.approx(np.full(table2.N, 5.0))


def test_semicircle_shape_and_speed(table2):
    traj = semicircle_trajectory(table2)
    assert np.allclose(traj[0], table2.q0) and np.allclose(traj[-1], table2.qF)
    speeds = np.linalg.norm(np.diff(traj, axis=0), axis=1) / table2.slot
    # constant chord speed just under the continuous arc speed pi*5/2
    assert speeds == pytest.approx(np.full(table2.N, speeds[0]))
    assert speeds[0] == pytest.approx(np.pi * 5.0 / 2.0, rel=1e-3)
    assert speeds[0] <= table2.V_max
    # bulges toward the user centroid (upper half plane)
    assert traj[:, 1].max() > 4.9


def test_semicircle_speed_cap_enforced(table2):
    slow = Scenario(**{**_fields(table2), "V_max": 7.0})
    with pytest.raises(BaselineSpeedError):
        semicircle_trajectory(slow)
    with pytest.raises(BaselineSpeedError):
        run_baseline(slow, "semi-circle")


def test_degenerate_endpoints_semicircle(ref2x6):
    s = Scenario(**{**_fields(ref2x6), "qF": ref2x6.q0})
    traj = semicircle_trajectory(s)
    assert np.allclose(traj, s.q0[None, :])


# --- baselines ---------------------------------------------------------------

def test_straight_baseline_energy_decomposition(table2, table2_runs):
    res = table2_runs["straight-line"]
    led = res.ledger
    assert float(np.sum(led.propulsion)) == pytest.approx(241.25, rel=1e-12)
    assert res.uav_total == pytest.approx(
        241.25 + table2.T * table2.P_u + float(np.sum(led.uav_compute[1:])), rel=1e-12)
    assert res.status == "converged"


def test_baseline_ledger_reproducible_from_plan(table2, table2_runs):
    res = table2_runs["semi-circle"]
    led2 = evaluate_ledger(table2, res.plan)
    assert led2.uav_total == res.ledger.uav_total
    assert np.array_equal(led2.tx, res.ledger.tx)


def test_baselines_pass_constraint_check(table2, table2_runs):
    for name in ("straight-line", "semi-circle"):
        rep = check_constraints(table2, table2_runs[name].plan)
        assert rep.feasible(1e-6), rep.summary()


# --- joint-step planner -----------------------------------------------------

def test_zero_workload_trivial(ref2x6):
    idle = Scenario(**{**_fields(ref2x6), "R": np.zeros(ref2x6.K)})
    res = run_algorithm1(idle)
    assert res.status == "converged"
    assert res.iterations <= 2
    assert not res.plan.l.any() and not res.plan.f_uav.any()
    assert res.uav_total == pytest.approx(
        float(np.sum(res.ledger.propulsion)) + idle.T * idle.P_u)


def test_proposed_converges_fast(table2, table2_runs):
    res = table2_runs["proposed"]
    assert res.status == "converged"
    assert res.iterations <= 30


def test_outer_trace_nonincreasing(table2_runs):
    trace = [e for _, e in table2_runs["proposed"].outer_trace]
    assert all(b <= a + 1e-9 * max(1.0, abs(a)) for a, b in zip(trace, trace[1:]))


def test_proposed_plan_feasible(table2, table2_runs):
    rep = check_constraints(table2, table2_runs["proposed"].plan)
    assert rep.feasible(1e-6), rep.summary()


def test_proposed_dominates_baselines(table2_runs):
    proposed = table2_runs["proposed"].uav_total
    for name in ("straight-line", "semi-circle"):
        other = table2_runs[name].uav_total
        assert proposed <= other * (1 + 1e-6)


def test_joint_step_bends_straight_start(table2, table2_runs):
    """The straight dash is not jointly stationary: the joint step bends
    the path by a few centimetres toward the users and lowers the mission
    energy (by 4.9 mJ at T = 2), ending where the joint residual is within
    ``xi1``."""
    proposed = table2_runs["proposed"]
    straight = table2_runs["straight-line"]
    assert proposed.uav_total <= straight.uav_total - 1e-3
    sol = solve_p2(table2, proposed.plan.traj)
    _, residual = joint_step(table2, proposed.plan.traj, sol)
    assert residual <= table2.xi1
    assert np.abs(proposed.plan.traj - straight.plan.traj).max() <= 0.1


@pytest.fixture(scope="module")
def halved_candidate(table2):
    """The straight start's schedule, its joint step halved, and the cold
    schedule there."""
    traj = straight_line_trajectory(table2)
    sol = solve_p2(table2, traj)
    step, _ = joint_step(table2, traj, sol)
    cand = traj + 0.5 * step
    return sol, cand, solve_p2(table2, cand)


def test_warm_resolve_matches_cold(table2, halved_candidate):
    """Started from the previous path's prices, the re-solve reaches the
    cold solve's optimum within the same tolerance in fewer iterates."""
    sol, cand, cold = halved_candidate
    assert np.all(sol.duals.mu > 0.0)
    warm = solve_p2(table2, cand, warm=sol.duals)
    assert warm.objective == pytest.approx(cold.objective, rel=1e-9)
    assert warm.kkt.max() <= 1e-6
    assert len(warm.trace) < len(cold.trace)


def test_warm_prices_of_other_users_are_ignored(table2, halved_candidate):
    """Prices whose positive bit prices pick other users than the presolve
    leaves start nothing: the solve runs exactly as a cold one."""
    sol, cand, cold = halved_candidate
    mu = sol.duals.mu.copy()
    mu[0] = 0.0
    other = DualState(mu=mu, nu=sol.duals.nu, theta=sol.duals.theta)
    assert solve_p2(table2, cand, warm=other).trace == cold.trace
    with pytest.raises(ValueError, match="warm prices"):
        solve_p2(table2, cand, warm=DualState.zeros(table2.K, table2.N + 1))


def test_uncapped_joint_step_is_the_newton_step(table2):
    """With no speed cap active the capped step is the unconstrained
    minimizer of propulsion plus the linearization: the Newton step
    -A^{-1} r of the tridiagonal propulsion Hessian A, with the model
    decrease 0.5 r'A^{-1} r."""
    traj = straight_line_trajectory(table2)
    sol = solve_p2(table2, traj)
    step, gain = joint_step(table2, traj, sol)
    a = 2.0 * table2.kappa / table2.slot ** 2
    r = (a * (2.0 * traj[1:-1] - traj[:-2] - traj[2:])
         + compute_energy_gradient(table2, traj, sol)[1:-1])
    band = np.zeros((2, table2.N - 1))
    band[0, 1:] = -a
    band[1] = 2.0 * a
    newton = -solveh_banded(band, r)
    assert np.abs(step[1:-1] - newton).max() <= 1e-8 * np.abs(newton).max()
    assert not step[0].any() and not step[-1].any()
    assert gain == pytest.approx(-0.5 * float(np.sum(r * newton)), rel=1e-8)


def test_binding_speed_cap_converges(table2):
    """With V_max just above the dash speed the uncapped step would break
    the cap; the capped step keeps every iterate inside it and the run
    converges below the straight baseline, free of numerical warnings."""
    capped = Scenario(**{**_fields(table2), "V_max": 5.001})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = run_algorithm1(capped)
    assert res.status == "converged"
    rep = check_constraints(capped, res.plan)
    assert rep.feasible(1e-6), rep.summary()
    assert res.uav_total < run_baseline(capped, "straight-line").uav_total


def test_dash_at_speed_cap_is_the_only_path(table2):
    """A dash flown at V_max is the only feasible path: the step is zero
    and the run converges on the straight baseline."""
    pinned = Scenario(**{**_fields(table2), "V_max": 5.0})
    res = run_algorithm1(pinned)
    assert res.status == "converged" and res.iterations == 1
    assert np.array_equal(res.plan.traj, straight_line_trajectory(pinned))


def test_compute_energy_gradient_matches_finite_difference(ref2x6, ref2x6_traj):
    """Danskin's theorem: the schedule duals give the path derivative of the
    optimal compute energy, here checked against a central difference of
    the schedule solver's objective along a bump in both coordinates."""
    sol = solve_p2(ref2x6, ref2x6_traj)
    bump = (np.sin(np.pi * np.arange(ref2x6.N + 1) / ref2x6.N)[:, None]
            * np.array([0.5, 1.0])[None, :])
    slope = float(np.sum(compute_energy_gradient(ref2x6, ref2x6_traj, sol) * bump))
    h = 1e-3
    up = solve_p2(ref2x6, ref2x6_traj + h * bump).objective
    down = solve_p2(ref2x6, ref2x6_traj - h * bump).objective
    assert slope == pytest.approx((up - down) / (2 * h), rel=1e-6)


def test_infeasible_scenario_raises(ref2x6):
    starved = Scenario(**{**_fields(ref2x6), "P_u": 1.0})
    with pytest.raises(InfeasibleScenarioError):
        run_algorithm1(starved)


def test_iteration_limit_status(ref2x6, monkeypatch):
    from uavmec import planner

    monkeypatch.setattr(planner, "_MAX_OUTER", 1)
    res = run_algorithm1(ref2x6)
    assert res.status == "iteration-limit"
    assert res.iterations == 1


@pytest.mark.parametrize("xi1", [-1.0, 0.0, float("nan"), float("inf")])
def test_nonpositive_or_nonfinite_xi1_rejected(ref2x6, xi1):
    """The halving loop ends only once the predicted decrease is within a
    positive xi1, and the planner reads xi1 only from its scenario, which
    refuses any other."""
    with pytest.raises(ScenarioError, match="xi1"):
        Scenario(**{**_fields(ref2x6), "xi1": xi1})


# --- sweeps ------------------------------------------------------------------

def _same_result(a, b) -> bool:
    """Bit-for-bit equal plans, totals and final schedule traces."""
    return (a.uav_total == b.uav_total and a.p2_trace == b.p2_trace
            and a.outer_trace == b.outer_trace
            and all(np.array_equal(getattr(a.plan, f), getattr(b.plan, f))
                    for f in ("traj", "l", "f_user", "f_uav")))


def test_sweep_ordering_and_consistency(ref2x6):
    single = run_baseline(ref2x6, "straight-line")
    direct = run_algorithm1(ref2x6)
    for schemes in (("straight-line", "proposed"), ("proposed", "straight-line")):
        cells = sweep_T(ref2x6, [1.4, 1.2], schemes=schemes)
        assert [c.T for c in cells] == [1.2, 1.2, 1.4, 1.4]
        assert [c.scheme for c in cells] == list(schemes) * 2
        first = next(c for c in cells if c.T == 1.2 and c.scheme == "straight-line")
        assert first.result.uav_total == single.uav_total
        prop = next(c for c in cells if c.T == 1.2 and c.scheme == "proposed")
        assert prop.result.uav_total == direct.uav_total


def test_sweep_solves_each_straight_schedule_once(ref2x6, monkeypatch):
    """Per duration, the proposed cell starts from the straight-line
    baseline's schedule instead of solving it again, and both cells equal
    separate calls bit for bit."""
    from uavmec import planner

    cold_straight = []

    def counted(s, traj, warm=None):
        if warm is None and np.array_equal(traj, straight_line_trajectory(s)):
            cold_straight.append(s.T)
        return solve_p2(s, traj, warm=warm)

    monkeypatch.setattr(planner, "solve_p2", counted)
    cells = sweep_T(ref2x6, [1.2, 1.4])
    assert cold_straight == [1.2, 1.4]
    monkeypatch.undo()
    for T in (1.2, 1.4):
        by_scheme = {c.scheme: c.result for c in cells if c.T == T}
        st = ref2x6.with_T(T)
        assert _same_result(by_scheme["proposed"], run_algorithm1(st))
        assert _same_result(by_scheme["straight-line"], run_baseline(st, "straight-line"))


def test_sweep_semicircle_starts_from_straight_prices(ref2x6, monkeypatch):
    """Per duration, the semi-circle baseline's schedule solve starts from
    the straight-line baseline's converged prices, equals a separate call
    with that start bit for bit and matches the cold solve."""
    from uavmec import planner

    semi_warm = []

    def recorded(s, traj, warm=None):
        if np.array_equal(traj, semicircle_trajectory(s)):
            semi_warm.append(warm)
        return solve_p2(s, traj, warm=warm)

    monkeypatch.setattr(planner, "solve_p2", recorded)
    cells = sweep_T(ref2x6, [1.2, 1.4], schemes=("semi-circle", "straight-line"))
    monkeypatch.undo()
    assert len(semi_warm) == 2
    for T, warm in zip((1.2, 1.4), semi_warm):
        by_scheme = {c.scheme: c.result for c in cells if c.T == T}
        straight, semi = by_scheme["straight-line"], by_scheme["semi-circle"]
        assert warm is straight.schedule.duals
        st = ref2x6.with_T(T)
        assert _same_result(semi, run_baseline(st, "semi-circle", init=straight))
        cold = run_baseline(st, "semi-circle")
        assert semi.uav_total == pytest.approx(cold.uav_total, rel=1e-10)
        rep = check_constraints(st, semi.plan)
        assert rep.feasible(1e-6), rep.summary()


def test_semicircle_from_straight_prices_halves_the_climb(table2):
    """On the reference mission the straight-line prices start the
    semi-circle schedule's ascent near its optimum: at most half the cold
    solve's Newton rows at every swept duration."""
    cells = sweep_T(table2, [2.0, 2.2, 2.4], schemes=("straight-line", "semi-circle"))
    for cell in cells:
        if cell.scheme == "semi-circle":
            cold = run_baseline(table2.with_T(cell.T), "semi-circle")
            assert 2 * len(cell.result.p2_trace) <= len(cold.p2_trace)


def test_sweep_proposed_starts_cold_when_straight_line_fails(ref2x6, monkeypatch):
    from uavmec import planner
    from uavmec.errors import SolverError

    baseline = planner.run_baseline

    def broken(s, scheme, *args, **kwargs):
        if scheme == "straight-line":
            raise SolverError("straight-line broke")
        return baseline(s, scheme, *args, **kwargs)

    monkeypatch.setattr(planner, "run_baseline", broken)
    cells = sweep_T(ref2x6, [1.2], schemes=("proposed", "straight-line", "semi-circle"))
    assert [c.status for c in cells] == ["converged", "failed", "converged"]
    assert _same_result(cells[0].result, run_algorithm1(ref2x6))
    assert _same_result(cells[2].result, run_baseline(ref2x6, "semi-circle"))


def test_result_start_must_come_from_the_same_scenario(ref2x6):
    start = run_baseline(ref2x6, "straight-line")
    assert _same_result(run_algorithm1(ref2x6, init=start), run_algorithm1(ref2x6))
    with pytest.raises(ValueError):
        run_algorithm1(ref2x6.with_T(1.4), init=start)
    with pytest.raises(ValueError):
        run_algorithm1(Scenario(**{**_fields(ref2x6), "N": 8}), init=start)
    with pytest.raises(ValueError):
        run_baseline(ref2x6.with_T(1.4), "semi-circle", init=start)
    with pytest.raises(ValueError):
        run_baseline(Scenario(**{**_fields(ref2x6), "N": 8}), "semi-circle", init=start)


def test_sweep_marks_failed_cells(ref2x6):
    # T = 0.5 makes the endpoint dash faster than V_max: scenario invalid
    cells = sweep_T(ref2x6, [0.5, 1.2], schemes=("straight-line",))
    bad = next(c for c in cells if c.T == 0.5)
    good = next(c for c in cells if c.T == 1.2)
    assert bad.result is None and bad.error
    assert good.converged


def test_sweep_contains_solver_errors(ref2x6, monkeypatch):
    """A path-step error ends only its own cell, with status "failed"."""
    from uavmec import planner
    from uavmec.trajectory_solver import ScaIterationLimitError

    def stuck(*args, **kwargs):
        raise ScaIterationLimitError("SCA iteration limit")

    monkeypatch.setattr(planner, "joint_step", stuck)
    cells = sweep_T(ref2x6, [1.2], schemes=("proposed", "straight-line"))
    assert [c.status for c in cells] == ["failed", "converged"]
    assert cells[0].result is None and "SCA iteration limit" in cells[0].error


def test_sweep_trajectory_energy_decreases_with_T(table2):
    """More mission time means slower flight and a slower UAV clock: the
    path-and-compute part of the energy must fall as T grows (the fixed
    RF feed T*P_u is excluded here; it trivially grows linearly)."""
    cells = sweep_T(table2, [2.0, 2.2], schemes=("straight-line",))
    energies = [c.result.uav_total - c.T * table2.P_u for c in cells]
    assert energies[1] < energies[0]


def test_zero_workload_propulsion_halves_when_T_doubles(ref2x6):
    """kappa grows with T while speeds fall inversely, so an idle mission's
    propulsion scales as 1/T exactly."""
    idle = Scenario(**{**_fields(ref2x6), "R": np.zeros(ref2x6.K)})
    e1 = run_algorithm1(idle).uav_total - idle.T * idle.P_u
    doubled = idle.with_T(2 * idle.T)
    e2 = run_algorithm1(doubled).uav_total - doubled.T * doubled.P_u
    assert e2 == pytest.approx(0.5 * e1, rel=1e-9)


def test_semicircle_start_descends_to_straight_start_energy(ref2x6):
    """Away from the propulsion minimum the joint steps walk the
    semicircle toward the chord, lowering the mission energy at every
    accepted step and by several joules in all, and end at the straight
    start's energy within the joint tolerance."""
    from_straight = run_algorithm1(ref2x6)
    from_semi = run_algorithm1(ref2x6, init="semi-circle")
    assert from_semi.status == "converged"
    trace = [e for _, e in from_semi.outer_trace]
    assert all(b <= a + 1e-9 * max(1.0, abs(a)) for a, b in zip(trace, trace[1:]))
    assert trace[-1] < trace[0] - 1.0          # walked off several joules
    semi_peak = semicircle_trajectory(ref2x6)[:, 1].max()
    final_peak = from_semi.plan.traj[:, 1].max()
    assert final_peak < semi_peak - 0.1
    assert from_semi.uav_total >= from_straight.uav_total - ref2x6.xi1
    rep = check_constraints(ref2x6, from_semi.plan)
    assert rep.feasible(1e-6), rep.summary()


def test_explicit_array_initialization(ref2x6):
    """``init`` names a fixed path as ``run_baseline`` names its scheme
    ("straight-line" by default), and a name starts where that path's
    array does."""
    assert _same_result(run_algorithm1(ref2x6, init="straight-line"), run_algorithm1(ref2x6))
    for name, path in (("straight-line", straight_line_trajectory(ref2x6)),
                       ("semi-circle", semicircle_trajectory(ref2x6))):
        assert _same_result(run_algorithm1(ref2x6, init=name),
                            run_algorithm1(ref2x6, init=path))
    for unknown in ("zigzag", "straight"):
        with pytest.raises(ValueError, match="unknown initialization"):
            run_algorithm1(ref2x6, init=unknown)
