import ast
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solveh_banded

from uavmec import planner, qcqp
from uavmec.model import Scenario, ScenarioError, check_constraints, evaluate_ledger
from uavmec.errors import SolverError
from uavmec.offload_solver import DualState, probe_feasibility, solve_p2
from uavmec.planner import (
    _DASH_BLEND,
    run_algorithm1,
    run_baseline,
    sweep_T,
    straight_line_trajectory,
    semicircle_trajectory,
    compute_energy_gradient,
    joint_step,
    speed_capped_propulsion,
    InfeasibleScenarioError,
    BaselineSpeedError,
)

from references import primal_oracle_p2


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


@pytest.fixture
def qcqp_calls(monkeypatch):
    """Counts ``qcqp.solve`` calls, the planner's included; each still runs."""
    calls, solve = [], qcqp.solve

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(qcqp, "solve", counted)
    return calls


def test_uncapped_joint_step_is_the_newton_step(table2, qcqp_calls):
    """With no speed cap active the capped step is the unconstrained
    minimizer of propulsion plus the linearization: the Newton step
    -A^{-1} r of the tridiagonal propulsion Hessian A, with the model
    decrease 0.5 r'A^{-1} r.  The step is that one linear solve; no QCQP
    runs."""
    traj = straight_line_trajectory(table2)
    sol = solve_p2(table2, traj)
    step, gain = joint_step(table2, traj, sol)
    assert not qcqp_calls
    a = 2.0 * table2.kappa / table2.slot ** 2
    r = (a * (2.0 * traj[1:-1] - traj[:-2] - traj[2:])
         + compute_energy_gradient(table2, traj, sol)[1:-1])
    band = np.zeros((2, table2.N - 1))
    band[0, 1:] = -a
    band[1] = 2.0 * a
    newton = -solveh_banded(band, r)
    assert np.abs(step[1:-1] - newton).max() <= 1e-12 * np.abs(newton).max()
    assert not step[0].any() and not step[-1].any()
    assert gain == pytest.approx(-0.5 * float(np.sum(r * newton)), rel=1e-12)


def test_cap_test_is_exact_at_the_newton_steps_top_speed(table2, qcqp_calls):
    """With V_max a hair above the Newton step's top speed the step is
    that Newton step, bit for bit, and no QCQP runs.  1e-6 below it the
    Newton step breaks a cap, so the QCQP runs; its step keeps every cap
    and predicts a smaller decrease."""
    traj = straight_line_trajectory(table2)
    sol = solve_p2(table2, traj)
    newton, newton_gain = joint_step(table2, traj, sol)
    top = np.linalg.norm(np.diff(traj + newton, axis=0), axis=1).max() / table2.slot
    assert not qcqp_calls

    above = Scenario(**{**_fields(table2), "V_max": (1.0 + 1e-9) * top})
    step, gain = joint_step(above, traj, sol)
    assert not qcqp_calls
    assert np.array_equal(step, newton) and gain == newton_gain

    below = Scenario(**{**_fields(table2), "V_max": (1.0 - 1e-6) * top})
    step, gain = joint_step(below, traj, sol)
    assert len(qcqp_calls) == 1
    assert np.linalg.norm(np.diff(traj + step, axis=0), axis=1).max() <= below.V_max * below.slot
    assert gain < newton_gain


def test_binding_speed_cap_converges(table2, qcqp_calls):
    """With V_max just above the dash speed the uncapped step would break
    the cap, so the QCQP runs; the capped step keeps every iterate inside
    it and the run converges below the straight baseline, free of
    numerical warnings."""
    capped = Scenario(**{**_fields(table2), "V_max": 5.001})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = run_algorithm1(capped)
    assert qcqp_calls
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


def test_stalled_when_no_halving_resolves(table2, monkeypatch):
    """When every halving's warm re-solve fails, the run ends "stalled" at
    its start: a checked plan whose one trace entry is its ledger total."""
    from uavmec import planner
    from uavmec.offload_solver import InfeasibleTrajectoryError

    def cold_only(s, traj, warm=None):
        if warm is not None:
            raise InfeasibleTrajectoryError("warm re-solve refused")
        return solve_p2(s, traj)

    monkeypatch.setattr(planner, "solve_p2", cold_only)
    res = run_algorithm1(table2)
    assert res.status == "stalled"
    assert res.outer_trace == ((1, res.uav_total),)
    assert check_constraints(table2, res.plan).feasible(1e-6)


def test_outer_trace_ends_at_the_ledger_total(table2):
    """The descent prices every plan with its ledger, so the last trace
    entry of each proposed cell is its reported uav_total exactly."""
    cells = sweep_T(table2, [2.0, 2.2, 2.4])
    proposed = [c.result for c in cells if c.scheme == "proposed"]
    assert len(proposed) == 3
    for res in proposed:
        assert res.outer_trace[-1][1] == res.uav_total


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


def _recorded_schedule_starts(monkeypatch):
    """(T, path, warm) of every ``solve_p2`` call the planner makes while
    ``monkeypatch`` holds."""
    from uavmec import planner

    calls = []

    def recorded(s, traj, warm=None):
        calls.append((s.T, traj, warm))
        return solve_p2(s, traj, warm=warm)

    monkeypatch.setattr(planner, "solve_p2", recorded)
    return calls


def test_sweep_solves_each_straight_schedule_once(ref2x6, monkeypatch):
    """Per duration the straight dash's schedule is solved once: the
    proposed cell starts from the straight-line baseline's result instead
    of solving it again.  Every baseline solve starts cold and equals a
    separate call bit for bit."""
    calls = _recorded_schedule_starts(monkeypatch)
    T_grid = (1.2, 1.4, 1.6)
    cells = sweep_T(ref2x6, T_grid)
    monkeypatch.undo()
    straight_calls = [(T, warm) for T, traj, warm in calls
                      if np.array_equal(traj, straight_line_trajectory(ref2x6.with_T(T)))]
    assert straight_calls == [(T, None) for T in T_grid]
    for T in T_grid:
        st = ref2x6.with_T(T)
        by_scheme = {c.scheme: c.result for c in cells if c.T == T}
        assert _same_result(by_scheme["straight-line"], run_baseline(st, "straight-line"))
        assert _same_result(by_scheme["proposed"],
                            run_algorithm1(st, init=by_scheme["straight-line"]))


def test_sweep_straight_chain_restarts_cold_after_a_failed_cell(ref2x6, monkeypatch):
    """A failed straight-line cell ends only itself: the next duration's
    straight-line solve runs as it would alone and equals a separate
    call."""
    from uavmec import planner
    from uavmec.errors import SolverError

    baseline = planner.run_baseline

    def broken_at_1_4(s, scheme):
        if s.T == 1.4:
            raise SolverError("straight-line broke")
        return baseline(s, scheme)

    monkeypatch.setattr(planner, "run_baseline", broken_at_1_4)
    cells = sweep_T(ref2x6, [1.2, 1.4, 1.6], schemes=("straight-line",))
    monkeypatch.undo()
    assert [c.status for c in cells] == ["converged", "failed", "converged"]
    for cell in (cells[0], cells[2]):
        assert _same_result(cell.result, run_baseline(ref2x6.with_T(cell.T), "straight-line"))


def test_sweep_semicircle_solves_cold(ref2x6, monkeypatch):
    """Per duration, the semi-circle baseline's schedule solve starts cold,
    equals a separate call bit for bit and passes the constraint check."""
    calls = _recorded_schedule_starts(monkeypatch)
    cells = sweep_T(ref2x6, [1.2, 1.4], schemes=("semi-circle", "straight-line"))
    monkeypatch.undo()
    assert len(calls) == 4 and all(warm is None for _, _, warm in calls)
    for cell in cells:
        st = ref2x6.with_T(cell.T)
        assert _same_result(cell.result, run_baseline(st, cell.scheme))
        rep = check_constraints(st, cell.result.plan)
        assert rep.feasible(1e-6), rep.summary()


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
    """The planner reads a result's path, so it must come from the same
    scenario: another duration's or slot count's raises.  A baseline takes
    no start at all."""
    start = run_baseline(ref2x6, "straight-line")
    assert _same_result(run_algorithm1(ref2x6, init=start), run_algorithm1(ref2x6))
    with pytest.raises(ValueError):
        run_algorithm1(ref2x6.with_T(1.4), init=start)
    with pytest.raises(ValueError):
        run_algorithm1(Scenario(**{**_fields(ref2x6), "N": 8}), init=start)
    with pytest.raises(TypeError):
        run_baseline(ref2x6.with_T(1.4), "semi-circle", init=start)


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


# --- property: every run ends typed or feasible ------------------------------

_DASH_FACTORS = (1.0 + 1e-9, 1.001, 1.05, 1.6, 2.0)


@st.composite
def _missions(draw, max_cells=80):
    """Random missions with the ``ref2x6`` physics between (0, 0) and
    (10, 0): 1-4 users, 3-20 slots (at most ``max_cells`` user-slots), T in
    [1.5, 3] s, V_max at or a little above the dash speed (the semicircle
    fits only from 1.6x), and each user's demand a 5-100% share of what
    the straight path's spend-as-harvested policy certifies."""
    K = draw(st.integers(1, min(4, max_cells // 3)))
    T = draw(st.floats(1.5, 3.0))
    fields = dict(
        K=K, N=draw(st.integers(3, min(20, max_cells // K))), T=T, H=10.0,
        user_pos=[[draw(st.floats(-2.0, 12.0)), draw(st.floats(-6.0, 10.0))]
                  for _ in range(K)],
        R=np.zeros(K), P_u=draw(st.floats(3e4, 1.5e5)), eta=0.8, B=2e6, sigma2=1e-9,
        Gamma=1.0, beta0=1e-5, M=1e3, gamma_c=1e-28, W_mass=9.65,
        V_max=draw(st.sampled_from(_DASH_FACTORS)) * 10.0 / T,
        q0=[0.0, 0.0], qF=[10.0, 0.0])
    capacity = probe_feasibility(Scenario(**fields), straight_line_trajectory(Scenario(**fields)))
    share = np.array([draw(st.floats(0.05, 1.0)) for _ in range(K)])
    return Scenario(**{**fields, "R": share * capacity}), draw(
        st.sampled_from(["straight-line", "semi-circle"]))


@settings(max_examples=60)
@given(_missions())
def test_every_run_ends_typed_or_feasible(case):
    """A planner run either raises a typed SolverError or returns finite
    arrays that pass check_constraints(1e-6), with an outer trace that
    never rises.  A "converged" plan is jointly stationary: the joint step
    there predicts a decrease of at most xi1.  "converged" is not
    required: a demand at the certified capacity can leave no strictly
    feasible schedule near the path, and the run then ends "stalled" on a
    feasible plan."""
    s, start = case
    try:
        res = run_algorithm1(s, init=start)
    except SolverError:
        return
    arrays = (*vars(res.plan).values(), *vars(res.ledger).values(), res.outer_trace)
    assert all(np.all(np.isfinite(a)) for a in arrays)
    rep = check_constraints(s, res.plan)
    assert rep.feasible(1e-6), rep.summary()
    trace = [e for _, e in res.outer_trace]
    assert all(b <= a for a, b in zip(trace, trace[1:]))
    if res.status == "converged":
        _, decrease = joint_step(s, res.plan.traj, res.schedule)
        assert decrease <= s.xi1


@settings(max_examples=20)
@given(_missions(max_cells=24))
def test_small_runs_match_the_primal_oracle(case):
    """On missions of at most 24 user-slots, a run that returns a plan has
    the UAV compute energy of ``primal_oracle_p2`` on its final path within
    0.5% (the oracle tests' tolerance).  The oracle is one SLSQP solve of
    at most about 0.1 s on such a draw, so 20 draws take about a second."""
    s, start = case
    try:
        res = run_algorithm1(s, init=start)
    except SolverError:
        return
    _, oracle = primal_oracle_p2(s, res.plan.traj)
    assert abs(res.ledger.uav_compute.sum() - oracle) <= 5e-3 * max(oracle, 1e-12)


def _qcqp_joint_step(s: Scenario, traj, sol):
    """The joint step solved as the capped QCQP, whether or not a cap
    binds: ``qcqp.solve`` from ``joint_step``'s blended start.  Returns the
    solve's status, the (N-1, 2) step of the free points and the model
    decrease."""
    (q0, c0, d0), rows = speed_capped_propulsion(s, traj[0], traj[-1])
    grad = compute_energy_gradient(s, traj, sol)[1:-1].ravel()
    x = traj[1:-1].ravel()
    dash = np.linspace(traj[0], traj[-1], s.N + 1)[1:-1].ravel()
    out = qcqp.solve(qcqp.QcqpProblem(objective=(q0, c0 + grad, d0), rows=rows),
                     x0=(1.0 - _DASH_BLEND) * x + _DASH_BLEND * dash)
    dx = out.x - x
    return out.status, dx.reshape(-1, 2), -float((q0 @ x + c0 + grad) @ dx
                                                 + 0.5 * dx @ q0 @ dx)


@settings(max_examples=100)
@given(_missions())
def test_joint_step_matches_the_capped_qcqp(case):
    """On each draw's initial schedule, the joint step (the Newton step
    when it meets every cap, the QCQP otherwise) is the capped QCQP's
    step within 1e-9 (1 + max |x|) and predicts its decrease within 1e-9
    relative.  The V_max factors near 1 make caps bind on some draws."""
    s, start = case
    try:
        traj = {"straight-line": straight_line_trajectory,
                "semi-circle": semicircle_trajectory}[start](s)
        sol = solve_p2(s, traj)
    except SolverError:
        return
    status, ref_step, ref_decrease = _qcqp_joint_step(s, traj, sol)
    assert status == "optimal"
    step, decrease = joint_step(s, traj, sol)
    assert np.abs(step[1:-1] - ref_step).max() <= 1e-9 * (1.0 + np.abs(traj).max())
    assert decrease == pytest.approx(ref_decrease, rel=1e-9)


# Fixed missions with table2's physics and endpoints: slots, T, users and
# each user's share of the bits the straight path certifies.
_CAPPED_MISSIONS = {
    "k1n10": (10, 2.0, [[3.0, 4.0]], [0.5]),
    "k2n12": (12, 1.8, [[0.0, 0.0], [10.0, 10.0]], [0.6, 0.8]),
    "k3n16": (16, 2.2, [[1.0, 6.0], [5.0, -4.0], [9.0, 2.0]], [0.3, 0.7, 0.5]),
    "k4n20": (20, 2.5, [[-1.0, 3.0], [4.0, 8.0], [7.0, -5.0], [11.0, 1.0]],
              [0.9, 0.2, 0.5, 0.8]),
}


@pytest.mark.parametrize("name", sorted(_CAPPED_MISSIONS))
def test_capped_joint_step_matches_the_qcqp_on_fixed_missions(table2, qcqp_calls, name):
    """With V_max at 1.001 x the dash speed, the Newton step from the
    straight start breaks a cap on each of these missions, so the joint
    step runs the QCQP (one ``qcqp.solve`` call).  Its step and decrease
    match :func:`_qcqp_joint_step` within the property test's bounds,
    which few derandomized ``_missions`` draws take to that branch."""
    N, T, users, share = _CAPPED_MISSIONS[name]
    dash = float(np.linalg.norm(table2.qF - table2.q0)) / T
    fields = {**_fields(table2), "K": len(users), "N": N, "T": T, "user_pos": users,
              "R": np.zeros(len(users)), "V_max": 1.001 * dash}
    idle = Scenario(**fields)
    capacity = probe_feasibility(idle, straight_line_trajectory(idle))
    s = Scenario(**{**fields, "R": np.asarray(share) * capacity})
    traj = straight_line_trajectory(s)
    sol = solve_p2(s, traj)
    step, decrease = joint_step(s, traj, sol)
    assert len(qcqp_calls) == 1
    status, ref_step, ref_decrease = _qcqp_joint_step(s, traj, sol)
    assert status == "optimal"
    assert np.abs(step[1:-1] - ref_step).max() <= 1e-9 * (1.0 + np.abs(traj).max())
    assert decrease == pytest.approx(ref_decrease, rel=1e-9)


def test_planner_does_not_import_the_sca_module():
    """``uavmec/planner.py`` imports nothing from ``trajectory_solver``:
    the planner owns its propulsion model, so the paper's path refinement
    is a leaf module that nothing on the planner's path depends on."""
    names = []
    for node in ast.walk(ast.parse(Path(planner.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names += [f"{node.module or ''}.{alias.name}" for alias in node.names]
    assert any(name.startswith("model.") for name in names), "planner.py no longer imports the model"
    assert not [name for name in names if "trajectory_solver" in name.split(".")], names
