import numpy as np
import pytest
from hypothesis import given, strategies as st

from uavmec.model import (Plan, Scenario, channel_gains, check_constraints,
                          harvested_energy_prefix, tx_energy)
from uavmec import offload_solver as osv, qcqp
from uavmec.trajectory_solver import (
    sca_lower_bound,
    assemble_p4,
    solve_p3,
    ExpansionInfeasibleError,
)
from uavmec.planner import straight_line_trajectory, semicircle_trajectory


def _random_trajectories(s, rng, count, box=20.0):
    """Random endpoint-pinned trajectories inside the box (speed-feasible
    not required for bound evaluations)."""
    trajs = rng.uniform(0.0, box, size=(count, s.N + 1, 2))
    trajs[:, 0] = s.q0
    trajs[:, -1] = s.qF
    return trajs


# --- harvest minorant --------------------------------------------------------

def test_bound_exact_at_expansion(table2):
    traj = straight_line_trajectory(table2)
    for k in range(table2.K):
        b = sca_lower_bound(table2, traj, k, table2.N)
        true = harvested_energy_prefix(table2, traj, k, table2.N)
        assert b.value(traj) == pytest.approx(true, rel=1e-12)


def test_bound_below_true_harvest(table2):
    rng = np.random.default_rng(0)
    exp = _random_trajectories(table2, rng, 30)
    cand = _random_trajectories(table2, rng, 30)
    for e, c in zip(exp, cand):
        for k in range(table2.K):
            for n in (1, table2.N // 2, table2.N):
                b = sca_lower_bound(table2, e, k, n)
                true = harvested_energy_prefix(table2, c, k, n)
                assert true >= b.value(c) - 1e-10


def test_bound_tangent_gradient(table2):
    """First-order match with the true harvest at the expansion point."""
    traj = straight_line_trajectory(table2)
    k, n = 2, table2.N
    b = sca_lower_bound(table2, traj, k, n)
    grad = b.gradient(traj)
    h = 1e-6
    for i in (1, 10, 30):
        for axis in range(2):
            tp = traj.copy()
            tm = traj.copy()
            tp[i, axis] += h
            tm[i, axis] -= h
            fd = (harvested_energy_prefix(table2, tp, k, n)
                  - harvested_energy_prefix(table2, tm, k, n)) / (2 * h)
            assert grad[i, axis] == pytest.approx(fd, rel=1e-6, abs=1e-18)


def test_bound_curvature_directly_overhead(table2):
    """Hovering over a user: the quadratic weight is the harvest prefactor
    divided by altitude to the fourth (1e-4 per square meter at 10 m)."""
    s = table2
    exp = np.tile(s.user_pos[0], (s.N + 1, 1))
    b = sca_lower_bound(s, exp, 0, 1)
    pref = s.slot * s.eta * s.P_u * s.beta0
    assert b.coef[0] / pref == pytest.approx(1e-4, rel=1e-12)
    # displaced value drops by coef * delta^2 exactly
    delta = 0.37
    cand = exp.copy()
    cand[0] = s.user_pos[0] + np.array([delta, 0.0])
    assert b.value(exp) - b.value(cand) == pytest.approx(b.coef[0] * delta ** 2,
                                                        rel=1e-12)


def test_bound_input_validation(table2):
    traj = straight_line_trajectory(table2)
    with pytest.raises(ValueError):
        sca_lower_bound(table2, traj, 0, 0)
    with pytest.raises(IndexError):
        sca_lower_bound(table2, traj, table2.K, 1)


# --- subproblem assembly -----------------------------------------------------

@pytest.fixture(scope="module")
def table2_p2(table2):
    traj = straight_line_trajectory(table2)
    return traj, osv.solve_p2(table2, traj)


def test_assembly_dimensions(table2, table2_p2):
    traj, sol = table2_p2
    asm = assemble_p4(table2, sol.plan_part, traj)
    assert asm.problem.dim == 2 * (table2.N - 1) == 98
    kinds = [r[0] for r in asm.rows]
    assert kinds.count("speed") == table2.N == 50
    # every user spends from the first slot, so of the 4 x 50 causality
    # prefixes only the four first-slot rows (no free path point) drop
    assert kinds.count("causality") == 4 * 50 - 4
    assert len(asm.problem.ineq) == 246


def test_assembly_rows_match_true_gaps(table2, table2_p2):
    traj, sol = table2_p2
    asm = assemble_p4(table2, sol.plan_part, traj)
    x0 = asm.pack(traj)
    values = asm.problem.ineq_values(x0)
    from uavmec.offload_solver import _ScaledP2
    sp = _ScaledP2(table2, traj)
    _, c2, _, _ = sp.violations(sol.l / 1e6, sol.f_user / 1e9, sol.f_uav / 1e9)
    for val, row, scale in zip(values, asm.rows, asm.row_scales):
        if row[0] == "causality":
            k, n = row[1], row[2]
            assert val * scale == pytest.approx(c2[k, n - 1] * 1e-3, abs=1e-12)


@pytest.fixture(scope="module")
def p4_cases(table2, table2_p2, ref2x6, ref2x6_traj):
    """(scenario, expansion path, schedule) on table2, ref2x6 and ref2x6
    moved off the origin, where the pinned start's own terms show."""
    fields = {n: getattr(ref2x6, n) for n in ref2x6.__dataclass_fields__}
    shift = np.array([3.0, -2.0])
    moved = Scenario(**{**fields, "user_pos": ref2x6.user_pos + shift,
                        "q0": ref2x6.q0 + shift, "qF": ref2x6.qF + shift})
    cases = {"table2": (table2, *table2_p2)}
    for name, s, traj in [("ref2x6", ref2x6, ref2x6_traj), ("moved", moved, ref2x6_traj + shift)]:
        cases[name] = (s, traj, osv.solve_p2(s, traj))
    return cases


@given(case=st.sampled_from(["table2", "ref2x6", "moved"]), seed=st.integers(0, 2 ** 32 - 1))
def test_assembled_rows_match_reference(p4_cases, case, seed):
    """Each scaled row, times its scale, equals its constraint computed from
    the physics at a random free path: the squared step minus the squared
    speed cap, or the prefix's local and TX energy minus the harvest
    minorant taken at the expansion path."""
    s, exp, sol = p4_cases[case]
    asm = assemble_p4(s, sol.plan_part, exp)
    rng = np.random.default_rng(seed)
    path = exp.copy()
    path[1:-1] += rng.uniform(-3.0, 3.0, size=(s.N - 1, 2))
    got = asm.problem.ineq_values(asm.pack(path)) * asm.row_scales
    local = s.gamma_c * s.slot * sol.f_user ** 3
    tx = tx_energy(s, channel_gains(s, path), sol.l)
    for value, row in zip(got, asm.rows):
        if row[0] == "speed":
            n = row[1]
            step2 = float(np.sum((path[n + 1] - path[n]) ** 2))
            ref, size = step2 - (s.V_max * s.slot) ** 2, step2 + (s.V_max * s.slot) ** 2
        else:
            _, k, n = row
            bound = sca_lower_bound(s, exp, k, n)
            spend = float(np.sum(local[k, :n]) + np.sum(tx[k, :n]))
            ref, size = spend - bound.value(path), spend + bound.const
        assert value == pytest.approx(ref, abs=1e-12 * size)


def test_assembly_rejects_speeding_expansion(table2, table2_p2):
    _, sol = table2_p2
    bad = straight_line_trajectory(table2)
    bad[10] += np.array([0.0, 3.0])
    with pytest.raises(ExpansionInfeasibleError):
        assemble_p4(table2, sol.plan_part, bad)


def test_assembly_rejects_moved_endpoint(table2, table2_p2):
    _, sol = table2_p2
    bad = straight_line_trajectory(table2)
    bad[0] += np.array([0.1, 0.0])
    with pytest.raises(ExpansionInfeasibleError):
        assemble_p4(table2, sol.plan_part, bad)


def test_zero_workload_drops_all_causality(table2):
    traj = straight_line_trajectory(table2)
    zeros = (np.zeros((table2.K, table2.N)), np.zeros((table2.K, table2.N)),
             np.zeros(table2.N))
    asm = assemble_p4(table2, zeros, traj)
    assert all(r[0] == "speed" for r in asm.rows)


# --- path refinement ---------------------------------------------------------

def test_zero_workload_returns_straight_line(table2):
    zeros = (np.zeros((table2.K, table2.N)), np.zeros((table2.K, table2.N)),
             np.zeros(table2.N))
    straight = straight_line_trajectory(table2)
    out, state = solve_p3(table2, zeros, straight)
    assert state.iterations == 1
    assert np.abs(out - straight).max() < 1e-6
    # from the semicircle the first subproblem already lands on the line
    out2, state2 = solve_p3(table2, zeros, semicircle_trajectory(table2))
    assert np.abs(out2 - straight).max() < 1e-6
    assert state2.iterations <= 2


def test_saturated_schedule_pins_the_path(table2, table2_p2):
    """An exactly optimal schedule leaves no causal slack, so the refined
    path cannot leave its expansion point."""
    traj, sol = table2_p2
    out, state = solve_p3(table2, sol.plan_part, traj)
    assert state.iterations == 1
    assert np.abs(out - traj).max() < 1e-4
    assert state.objective_history[-1] == pytest.approx(241.25, rel=1e-9)


@pytest.fixture(scope="module")
def semi_p2(table2):
    semi = semicircle_trajectory(table2)
    return semi, osv.solve_p2(table2, semi)


@pytest.mark.parametrize("status", ["max-iter", "infeasible"])
def test_non_optimal_subproblem_falls_back_to_expansion(table2, semi_p2, monkeypatch,
                                                        status):
    """Only an optimal subproblem solution moves the path: a solve that
    ends otherwise (a "max-iter" return with NaN multipliers, or a raised
    QcqpInfeasibleError) leaves the refinement at its feasible expansion
    point, and with an infeasible expansion point it raises instead of
    returning a path."""
    semi, sol = semi_p2
    slack = (0.8 * sol.l, 0.8 * sol.f_user, 0.8 * sol.f_uav)

    def broken(p, x0=None, **kw):
        if status == "infeasible":
            raise qcqp.QcqpInfeasibleError("no strictly feasible point")
        return qcqp.QcqpSolution(x=np.full(p.dim, np.nan), lambdas=np.full(p.m, np.nan),
                                 status=status,
                                 kkt=qcqp.KktReport(np.inf, np.inf, np.inf, np.inf),
                                 objective=np.nan, gap=np.nan)

    monkeypatch.setattr(qcqp, "solve", broken)
    out, state = solve_p3(table2, slack, semi)
    assert state.iterations == 1
    assert np.array_equal(out, semi)
    # 1.5x the users' bits and cycles after the first slot overdraw the
    # semicircle's harvest (the first-slot rows stay within it)
    w = np.full(table2.N, 1.5)
    w[0] = 0.8
    with pytest.raises(ExpansionInfeasibleError, match=status):
        solve_p3(table2, (w * sol.l, w * sol.f_user, sol.f_uav), semi)


def test_slack_schedule_descends_and_stays_feasible(table2, semi_p2):
    """With causal headroom the refinement walks the semicircle toward the
    straight dash, monotonically in propulsion, keeping the true
    constraints satisfied at every iterate."""
    semi, sol = semi_p2
    slack = (0.8 * sol.l, 0.8 * sol.f_user, 0.8 * sol.f_uav)
    out, state = solve_p3(table2, slack, semi)
    hist = state.objective_history
    assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))
    assert hist[-1] < 595.0  # strictly below the semicircle's propulsion
    plan = Plan(traj=out, l=slack[0], f_user=slack[1], f_uav=slack[2])
    rep = check_constraints(table2, plan)
    assert rep.energy_causal.violation <= 1e-12
    assert rep.speed.violation <= 1e-9
    assert rep.endpoints.violation <= 1e-12


def test_refinement_fixed_point(table2):
    """Re-running from its own output moves the path by at most xi."""
    semi = semicircle_trajectory(table2)
    sol = osv.solve_p2(table2, semi)
    slack = (0.8 * sol.l, 0.8 * sol.f_user, 0.8 * sol.f_uav)
    out, _ = solve_p3(table2, slack, semi)
    out2, state2 = solve_p3(table2, slack, out)
    disp = float(np.sum(np.linalg.norm(out2 - out, axis=1)))
    assert disp <= table2.xi
