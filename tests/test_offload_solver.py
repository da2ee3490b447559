import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from uavmec.model import Scenario, Plan, check_constraints
from uavmec.planner import semicircle_trajectory, straight_line_trajectory
from uavmec import offload_solver
from uavmec.offload_solver import (
    DualState,
    OffloadKkt,
    recover_primal,
    dual_value,
    lagrangian_value,
    solve_p2,
    probe_feasibility,
    InfeasibleTrajectoryError,
    DualIterationLimitError,
    DualRecoveryError,
    _ScaledP2,
    _warm_start,
    _policy_split_scaled,
    _pack,
    _unpack,
    _recover_scaled,
    _neg_dual_and_grad,
    _neg_dual_hessian,
)

from references import primal_oracle_p2

# Frozen after the first oracle-verified converged run on the reference
# instance (both routes agreed to 9e-9 relative).
REF_OBJECTIVE_J = 4.893897958e-2


@pytest.fixture(scope="module")
def ref_solution(ref2x6, ref2x6_traj):
    return solve_p2(ref2x6, ref2x6_traj)


@pytest.fixture(scope="module")
def ref_oracle(ref2x6, ref2x6_traj):
    return primal_oracle_p2(ref2x6, ref2x6_traj)


# --- primal recovery ---------------------------------------------------------

def test_recovery_zero_duals_is_idle(ref2x6, ref2x6_traj):
    d = DualState.zeros(ref2x6.K, ref2x6.N)
    l, f, fu = recover_primal(ref2x6, ref2x6_traj, d)
    assert not l.any() and not f.any() and not fu.any()


def test_recovery_uav_frequency_ladder(ref2x6, ref2x6_traj):
    s = ref2x6
    theta = np.zeros(s.N)
    theta[-1] = 3.0 * s.gamma_c * s.M          # prices one cycle/s at every slot
    d = DualState(mu=np.zeros(s.K), nu=np.full((s.K, s.N), 0.1), theta=theta)
    _, _, fu = recover_primal(s, ref2x6_traj, d)
    assert fu[0] == 0.0
    assert fu[1:] == pytest.approx(np.ones(s.N - 1), rel=1e-9)


def test_recovery_first_uav_slot_always_zero(ref_solution, ref2x6, ref2x6_traj):
    _, _, fu = recover_primal(ref2x6, ref2x6_traj, ref_solution.duals)
    assert fu[0] == 0.0


def test_recovery_rejects_price_cone_violation(ref2x6, ref2x6_traj):
    s = ref2x6
    theta = np.zeros(s.N)
    theta[1] = 1.0                              # mid price with no dominating last
    d = DualState(mu=np.zeros(s.K), nu=np.zeros((s.K, s.N)), theta=theta)
    with pytest.raises(DualRecoveryError):
        recover_primal(s, ref2x6_traj, d)


@st.composite
def _prices_with_vanished_tail(draw, s):
    """Admissible SI prices under which user 0's energy-price tail
    vanishes from a drawn slot on while its bit price stays positive."""
    K, N = s.K, s.N
    unit = st.floats(0.0, 1.0)
    mu = draw(arrays(np.float64, K, elements=st.floats(0.01, 1.0))) * 1e-6
    nu = draw(arrays(np.float64, (K, N), elements=unit)) * 300.0
    nu[0, draw(st.integers(1, N - 2)):] = 0.0
    mid = draw(arrays(np.float64, N - 2, elements=unit)) * 2e-7
    theta = np.concatenate([[0.0], mid, [mid.sum() + draw(unit) * 5e-7]])
    return DualState(mu=mu, nu=nu, theta=theta)


@given(data=st.data())
def test_dual_value_is_the_lagrangian_at_the_recovered_primal(ref2x6, ref2x6_traj, data):
    """recover_primal returns the Lagrangian minimizer, so the dual value is
    the Lagrangian there, also where a price tail vanishes (the minimizer
    then puts that user's bits and cycles at their caps)."""
    d = data.draw(_prices_with_vanished_tail(ref2x6))
    g = dual_value(ref2x6, ref2x6_traj, d)
    plan_part = recover_primal(ref2x6, ref2x6_traj, d)
    assert abs(lagrangian_value(ref2x6, ref2x6_traj, plan_part, d) - g) <= 1e-12 * abs(g)


def test_recovery_finite_at_rounding_negative_bit_price(ref2x6, ref2x6_traj):
    """DualState admits prices a rounding below zero; a bit price of -1e-30
    buys no cycles instead of a NaN frequency (square root of a negative)."""
    theta = np.zeros(ref2x6.N)
    theta[-1] = 1e-7
    d = DualState(mu=[1e-7, -1e-30], nu=np.full((ref2x6.K, ref2x6.N), 10.0), theta=theta)
    _, f, _ = recover_primal(ref2x6, ref2x6_traj, d)
    assert not f[1].any()
    assert np.isfinite(dual_value(ref2x6, ref2x6_traj, d))


def test_recovery_monotone_in_channel(ref_solution, ref2x6, ref2x6_traj):
    """At fixed prices, a better channel can only raise the offloaded bits."""
    s = ref2x6
    d = ref_solution.duals
    l_base, _, _ = recover_primal(s, ref2x6_traj, d)
    closer = ref2x6_traj.copy()
    closer[2] = s.user_pos[0]                  # slot 2 now directly over user 0
    l_close, _, _ = recover_primal(s, closer, d)
    assert l_close[0, 2] >= l_base[0, 2] - 1e-9


# --- dual Newton ascent ------------------------------------------------------

@pytest.fixture(scope="module")
def k5n20():
    """Five users over twenty slots, each asking for half its deliverable bits."""
    from uavmec.planner import straight_line_trajectory
    s0 = Scenario(K=5, N=20, T=4.0, H=10.0,
                  user_pos=[[0.0, 1.0], [2.0, -3.0], [5.0, 4.0], [7.0, 0.5], [3.0, 6.0]],
                  R=np.full(5, 1.0), P_u=1e5, eta=0.8, B=2e6, sigma2=1e-9, Gamma=1.0,
                  beta0=1e-5, M=1e3, gamma_c=1e-28, W_mass=9.65, V_max=10.0,
                  q0=[0.0, 0.0], qF=[8.0, 0.0])
    traj = straight_line_trajectory(s0)
    fields = {n: getattr(s0, n) for n in s0.__dataclass_fields__}
    demand = 0.5 * (probe_feasibility(s0, traj) + s0.R)
    return Scenario(**{**fields, "R": demand}), traj


def _check_hessian_by_central_differences(s, traj, factors):
    """Analytic Hessian of the negated dual against central differences of
    its gradient, at warm-start prices scaled entrywise by ``factors``
    (all mid UAV prices made positive, so every price is interior)."""
    sp = _ScaledP2(s, traj)
    mu, nu, theta = _warm_start(sp, _policy_split_scaled(sp))
    N = s.N
    z = _pack(mu, nu, np.full(N - 2, theta[N - 1] / N), theta[N - 1])
    z = z * factors[: z.size]
    H = _neg_dual_hessian(sp, _neg_dual_and_grad(z, sp)[2])
    fd = np.empty_like(H)
    for j in range(z.size):
        h = 1e-5 * z[j]
        up, down = z.copy(), z.copy()
        up[j] += h
        down[j] -= h
        fd[:, j] = (_neg_dual_and_grad(up, sp)[1] - _neg_dual_and_grad(down, sp)[1]) / (2 * h)
    assert np.abs(H - fd).max() <= 1e-6 * np.abs(fd).max()


# One factor per k5n20 price (K + K N + N - 1 = 124); ref2x6 takes the first 19.
_FACTORS = arrays(np.float64, 124, elements=st.floats(0.5, 2.0))


@given(factors=_FACTORS)
def test_dual_hessian_matches_central_differences_ref(ref2x6, ref2x6_traj, factors):
    _check_hessian_by_central_differences(ref2x6, ref2x6_traj, factors)


@given(factors=_FACTORS)
def test_dual_hessian_matches_central_differences_k5n20(k5n20, factors):
    _check_hessian_by_central_differences(*k5n20, factors)


def _dense_dual_hessian(z, sp):
    """Reference J_F diag(h_F)^-1 J_F^T, formed as a product.

    The derivatives of the packed gaps (rows z = (mu, nu, theta_mid,
    slack)) in the flattened primal (l, f_user, f_uav) are written out as
    a dense matrix, the columns of variables on a bound are dropped and
    the rest scaled by their inverse root curvatures.
    """
    K, N = sp.K, sp.N
    KN = K * N
    mu, nu, theta = _unpack(z, K, N)
    l, f, fu = _recover_scaled(sp, mu, nu, theta).primal
    V = np.flip(np.cumsum(np.flip(nu, axis=1), axis=1), axis=1)
    rate = np.log(2.0) / sp.bl
    tx_slope = sp.a_tx * rate * np.exp2(l / sp.bl)
    A = np.zeros((K + KN + N - 1, 2 * KN + N))
    for k in range(K):
        A[k, k * N : (k + 1) * N] = -1.0                          # bit balance
        A[k, KN + k * N : KN + (k + 1) * N] = -sp.bits_f
        for m in range(N):                # slot n <= m spends into prefix m
            A[K + k * N + m, k * N : k * N + m + 1] = tx_slope[k, : m + 1]
            A[K + k * N + m, KN + k * N : KN + k * N + m + 1] = 3.0 * sp.c_f * f[k, : m + 1] ** 2
    for i in range(1, N - 1):             # mid UAV prices, compute balance folded in
        for k in range(K):
            A[K + KN + i - 1, k * N + i : (k + 1) * N] = 1.0
        A[K + KN + i - 1, 2 * KN + i + 1 :] = -sp.bits_f
    A[-1, :KN] = 1.0                      # compute balance (the slack)
    A[-1, 2 * KN :] = -sp.bits_f
    free_l = (l > 0.0) & (l < sp.l_cap) & (V > 0.0)
    free_l[:, N - 1] = False
    free_f = (f > 0.0) & (f < sp.f_cap[:, None]) & (V > 0.0)
    free = np.concatenate([free_l.ravel(), free_f.ravel(), fu > 0.0])
    h = np.concatenate([(V * tx_slope * rate).ravel(), (6.0 * sp.c_f * f * V).ravel(),
                        6.0 * sp.c_f * fu])
    B = A[:, free] / np.sqrt(h[free])
    return B @ B.T


@st.composite
def _prices_on_bounds(draw, s, traj):
    """Warm-start prices scaled entrywise, then bent so that every kind of
    bound is active: user 0's causality prices shrink by 1e-25 from a
    drawn slot on (its bits reach l_cap and its cycles f_cap there, with
    a positive price tail), user 1's bit price by 1e-3 (its bits stay at
    0), and the slack and the first drawn mid UAV prices are zero (the
    UAV idles in those slots)."""
    sp = _ScaledP2(s, traj)
    mu, nu, theta = _warm_start(sp, _policy_split_scaled(sp))
    K, N = s.K, s.N
    factors = draw(arrays(np.float64, K + K * N + N - 1, elements=st.floats(0.5, 2.0)))
    cut = draw(st.integers(1, N - 2))
    idle = draw(st.integers(1, N // 2))
    nu = nu * factors[K : K + K * N].reshape(K, N)
    nu[0, cut:] *= 1e-25
    mu = mu * factors[:K]
    mu[1] *= 1e-3
    # Dyadic mid prices sum exactly, so the UAV price gaps of the idle
    # slots are exactly zero.
    mid = np.round(theta[N - 1] / N * factors[K + K * N : -1] * 2.0 ** 10) / 2.0 ** 10
    mid[: idle - 1] = 0.0
    return sp, _pack(mu, nu, mid, 0.0)


def _check_hessian_against_dense(sp, z):
    point = _recover_scaled(sp, *_unpack(z, sp.K, sp.N))
    l, f, fu = point.primal
    assert (l[:, : sp.N - 1] == 0.0).any() and (l == sp.l_cap).any()
    assert (f == sp.f_cap[:, None]).any() and (fu[1:] == 0.0).any()
    ref = _dense_dual_hessian(z, sp)
    assert np.abs(_neg_dual_hessian(sp, point) - ref).max() <= 1e-12 * np.abs(ref).max()


@given(data=st.data())
def test_dual_hessian_matches_dense_product_table2(table2, data):
    traj = straight_line_trajectory(table2)
    _check_hessian_against_dense(*data.draw(_prices_on_bounds(table2, traj)))


@given(data=st.data())
def test_dual_hessian_matches_dense_product_k5n20(k5n20, data):
    _check_hessian_against_dense(*data.draw(_prices_on_bounds(*k5n20)))


def test_newton_trace_ascends_to_tolerance(ref_solution, ref_oracle):
    """One row per Newton iterate from the warm start: the dual value never
    falls (beyond rounding), stays below the primal optimum (weak duality),
    and the last row's KKT residual is within the solver tolerance."""
    its, values, resid = (np.array(col) for col in zip(*ref_solution.trace))
    assert np.array_equal(its, np.arange(1, its.size + 1))
    assert np.all(np.diff(values) >= -1e-12 * np.abs(values[1:]))
    _, oracle_obj = ref_oracle
    assert np.all(values <= oracle_obj + 1e-6)
    assert resid[-1] <= 1e-6
    assert resid[-1] == ref_solution.kkt.max()


@pytest.mark.parametrize("instance", ["table2", "ref2x6"])
def test_polish_costs_one_evaluation_per_step(monkeypatch, request, instance):
    """Once the KKT max is within tol, each polish step is one evaluation
    of the full step, and the first step that no longer shrinks the
    natural residual ends the solve (no search along shorter steps).
    The cold solve logs "eval" per dual evaluation and the KKT max of
    each trace row, in the order they happen.  The ascent's counters
    (those DualIterationLimitError reports and the benchmark reads) agree
    with that log."""
    s = request.getfixturevalue(instance)
    log = []
    ascents = []
    evaluate = offload_solver._neg_dual_and_grad
    residuals = offload_solver._residuals_scaled
    ascend = offload_solver.minimize

    def counted_evaluate(z, sp):
        log.append("eval")
        return evaluate(z, sp)

    def logged_residuals(sp, point):
        kkt = residuals(sp, point)
        log.append(kkt.max())
        return kkt

    def captured_minimize(*args, **kwargs):
        ascents.append(ascend(*args, **kwargs))
        return ascents[-1]

    monkeypatch.setattr(offload_solver, "_neg_dual_and_grad", counted_evaluate)
    monkeypatch.setattr(offload_solver, "_residuals_scaled", logged_residuals)
    monkeypatch.setattr(offload_solver, "minimize", captured_minimize)
    sol = solve_p2(s, straight_line_trajectory(s))
    rows = [i for i, entry in enumerate(log) if entry != "eval"]
    assert [log[i] for i in rows] == [kkt for _, _, kkt in sol.trace]
    first = next(i for i in rows if log[i] <= 1e-6)
    after = log[first + 1 :]
    assert after.count("eval") <= (len(after) - after.count("eval")) + 1
    opt, = ascents
    assert opt.nit == len(sol.trace) - 1
    assert opt.nfev == log.count("eval")


def test_kkt_max_is_nan_if_any_residual_is():
    """solve_p2 accepts a solve only if ``kkt.max() <= tol``, so a NaN
    residual in any position must reach that test."""
    nan = float("nan")
    for kkt in (OffloadKkt(nan, 0.0, 0.0), OffloadKkt(1e-9, nan, 0.0),
                OffloadKkt(1e-9, 0.0, nan)):
        assert np.isnan(kkt.max())
    assert OffloadKkt(1e-9, 3e-9, 2e-9).max() == 3e-9


def test_rows_subsets_every_per_user_array(table2):
    """The restricted instance ``sp.rows(u)`` prices exactly like the
    instance built from a scenario holding only users u on the same path.
    Halving the users doubles each user's TX subslot, so bandwidth and
    capacity gap are halved to keep the same physics bit for bit."""
    traj = straight_line_trajectory(table2)
    users = np.array([1, 3])
    fields = {n: getattr(table2, n) for n in table2.__dataclass_fields__}
    sub = Scenario(**{**fields, "K": users.size, "user_pos": table2.user_pos[users],
                      "R": table2.R[users], "B": table2.B / 2, "Gamma": table2.Gamma / 2})
    sp = _ScaledP2(table2, traj)
    mu, nu, theta = _warm_start(sp, _policy_split_scaled(sp))
    rng = np.random.default_rng(7)
    for _ in range(20):
        args = (mu[users] * rng.uniform(0.1, 10.0, users.size),
                nu[users] * rng.uniform(0.1, 10.0, (users.size, table2.N)),
                theta * rng.uniform(0.5, 2.0, table2.N))
        restricted = _recover_scaled(sp.rows(users), *args)
        own = _recover_scaled(_ScaledP2(sub, traj), *args)
        for a, b in zip(restricted, own):
            for x, y in (zip(a, b) if isinstance(a, tuple) else [(a, b)]):
                assert np.array_equal(x, y)


def test_large15_schedule_ends_typed(ref2x6):
    """A feasible schedule on which the dual ascent stalls (the presolve
    leaves one user and the damping swings between 1e-1 and 1e+2): the
    solve either meets tol or raises the typed iteration-limit error,
    whose message tells the Newton steps and evaluations it used."""
    fields = {n: getattr(ref2x6, n) for n in ref2x6.__dataclass_fields__}
    s = Scenario(**{**fields, "K": 2, "N": 40, "T": 8.0, "P_u": 57622.0,
                    "user_pos": [[2.319, 5.285], [5.696, -0.885]],
                    "R": [2.670e6, 3.325e6], "qF": [8.0, 0.0]})
    traj = semicircle_trajectory(s)
    assert np.all(probe_feasibility(s, traj) > 0.0)
    try:
        sol = solve_p2(s, traj)
    except DualIterationLimitError as exc:
        assert "Newton steps" in str(exc) and "evaluations" in str(exc)
    else:
        assert sol.kkt.max() <= 1e-6


# --- feasibility probe -------------------------------------------------------

def test_probe_positive_on_reference(ref2x6, ref2x6_traj):
    margins = probe_feasibility(ref2x6, ref2x6_traj)
    assert np.all(margins > 0.0)


def test_probe_and_solver_flag_starved_instance(ref2x6, ref2x6_traj):
    fields = {n: getattr(ref2x6, n) for n in ref2x6.__dataclass_fields__}
    starved = Scenario(**{**fields, "P_u": 1.0})
    assert np.any(probe_feasibility(starved, ref2x6_traj) < 0.0)
    with pytest.raises(InfeasibleTrajectoryError):
        solve_p2(starved, ref2x6_traj)


# --- solve_p2 ----------------------------------------------------------------

def test_zero_demand_is_free(ref2x6, ref2x6_traj):
    fields = {n: getattr(ref2x6, n) for n in ref2x6.__dataclass_fields__}
    idle = Scenario(**{**fields, "R": np.zeros(ref2x6.K)})
    sol = solve_p2(idle, ref2x6_traj)
    assert sol.objective == 0.0
    assert not sol.l.any() and not sol.f_uav.any()


def test_user_local_when_spending_as_harvested(ref2x6):
    """User 2 breaks early causality at its constant frequency, but spending
    each slot's harvest on local compute delivers its demand: it is
    presolved to that schedule scaled to exactly R, without offloading,
    and the other users' dual converges (it stalled near 1e-2 before)."""
    fields = {n: getattr(ref2x6, n) for n in ref2x6.__dataclass_fields__}
    s = Scenario(**{**fields, "K": 5, "N": 10, "T": 2.0, "P_u": 103677.0,
                    "user_pos": [[-1.31, -1.2], [1.95, 5.07], [7.88, -1.37],
                                 [4.29, 0.57], [7.72, 5.34]],
                    "R": [0.502e6, 1.152e6, 0.765e6, 1.750e6, 1.329e6],
                    "qF": [8.0, 0.0]})
    traj = semicircle_trajectory(s)
    sol = solve_p2(s, traj)
    assert sol.kkt.max() <= 1e-6
    plan = Plan(traj=traj, l=sol.l, f_user=sol.f_user, f_uav=sol.f_uav)
    assert check_constraints(s, plan).feasible(1e-6)
    assert not sol.l[2].any() and sol.duals.mu[2] == 0.0
    assert np.ptp(sol.f_user[2]) > 0.0
    assert s.slot * sol.f_user[2].sum() / s.M == pytest.approx(s.R[2], rel=1e-12)


def test_reference_matches_frozen_value(ref_solution):
    assert ref_solution.objective == pytest.approx(REF_OBJECTIVE_J, rel=1e-6)


def test_reference_matches_oracle(ref_solution, ref_oracle):
    _, oracle_obj = ref_oracle
    assert abs(ref_solution.objective - oracle_obj) <= 5e-3 * oracle_obj
    assert ref_solution.kkt.max() <= 1e-6


def test_duality_gap_tiny(ref_solution):
    assert ref_solution.objective - ref_solution.dual_objective <= 1e-9


def test_weak_duality_along_trace(ref_solution, ref_oracle):
    _, oracle_obj = ref_oracle
    for _, g, _ in ref_solution.trace:
        assert g <= oracle_obj + 1e-6


def test_complementary_slackness(ref_solution):
    assert ref_solution.kkt.complementarity <= 1e-6


def test_uav_frequency_nondecreasing(ref_solution):
    fu = ref_solution.f_uav
    assert np.all(np.diff(fu[1:]) >= -1e-9 * max(fu.max(), 1.0))


def test_pipeline_pins_exact(ref_solution):
    assert np.all(ref_solution.l[:, -1] == 0.0)
    assert ref_solution.f_uav[0] == 0.0


def test_nearer_user_is_cheaper():
    """One hovering spot versus a far one: proximity can only help."""
    base = dict(K=1, N=4, T=0.8, H=10.0, user_pos=[[0.0, 0.0]], R=[0.4e6],
                P_u=3e5, eta=0.8, B=2e6, sigma2=1e-9, Gamma=1.0, beta0=1e-5,
                M=1e3, gamma_c=1e-28, W_mass=9.65, V_max=10.0)
    near = Scenario(**base, q0=[0.0, 0.0], qF=[0.0, 0.0])
    far = Scenario(**base, q0=[12.0, 0.0], qF=[12.0, 0.0])
    hover_near = np.tile(near.q0, (near.N + 1, 1))
    hover_far = np.tile(far.q0, (far.N + 1, 1))
    obj_near = solve_p2(near, hover_near).objective
    obj_far = solve_p2(far, hover_far).objective
    assert obj_near <= obj_far * (1 + 1e-9)


def test_solver_deterministic(ref2x6, ref2x6_traj, ref_solution):
    again = solve_p2(ref2x6, ref2x6_traj)
    assert np.array_equal(again.l, ref_solution.l)
    assert np.array_equal(again.f_user, ref_solution.f_user)
    assert np.array_equal(again.f_uav, ref_solution.f_uav)


def test_lagrangian_stationarity_by_finite_differences(ref_solution, ref2x6,
                                                       ref2x6_traj):
    """Central differences of the Lagrangian at the converged primal, taken
    in the solver's internal units, stay below 1e-5 for interior variables
    (and point inward at clamped zeros)."""
    s = ref2x6
    l, f, fu = ref_solution.plan_part
    d = ref_solution.duals

    def lagr(lv, fv, fuv):
        return lagrangian_value(s, ref2x6_traj, (lv, fv, fuv), d) * 1e3  # mJ

    h_bits = 1e-6 * 1e6     # one scaled unit of 1e-6 in bits
    h_freq = 1e-6 * 1e9
    worst = 0.0
    for k in range(s.K):
        for n in range(s.N - 1):
            lp, lm = l.copy(), l.copy()
            lp[k, n] += h_bits
            lm[k, n] = max(lm[k, n] - h_bits, 0.0)
            fd = (lagr(lp, f, fu) - lagr(lm, f, fu)) / ((lp[k, n] - lm[k, n]) / 1e6)
            if l[k, n] > h_bits:
                worst = max(worst, abs(fd))
            else:
                assert fd >= -1e-5
    for k in range(s.K):
        for n in range(s.N):
            fp, fm = f.copy(), f.copy()
            fp[k, n] += h_freq
            fm[k, n] = max(fm[k, n] - h_freq, 0.0)
            fd = (lagr(l, fp, fu) - lagr(l, fm, fu)) / ((fp[k, n] - fm[k, n]) / 1e9)
            if f[k, n] > h_freq:
                worst = max(worst, abs(fd))
    for n in range(1, s.N):
        fup, fum = fu.copy(), fu.copy()
        fup[n] += h_freq
        fum[n] = max(fum[n] - h_freq, 0.0)
        fd = (lagr(l, f, fup) - lagr(l, f, fum)) / ((fup[n] - fum[n]) / 1e9)
        if fu[n] > h_freq:
            worst = max(worst, abs(fd))
    assert worst <= 1e-5


def test_dual_value_helper_matches_solution(ref_solution, ref2x6, ref2x6_traj):
    g = dual_value(ref2x6, ref2x6_traj, ref_solution.duals)
    assert g == pytest.approx(ref_solution.dual_objective, rel=1e-9)


# --- primal oracle -----------------------------------------------------------

def test_oracle_zero_demand(ref2x6, ref2x6_traj):
    fields = {n: getattr(ref2x6, n) for n in ref2x6.__dataclass_fields__}
    idle = Scenario(**{**fields, "R": np.zeros(ref2x6.K)})
    (l, f, fu), obj = primal_oracle_p2(idle, ref2x6_traj)
    assert obj == 0.0 and not l.any()


def test_oracle_descends_monotonically(ref2x6, ref2x6_traj):
    log = []
    primal_oracle_p2(ref2x6, ref2x6_traj, descent_log=log)
    diffs = np.diff(np.array(log))
    assert len(log) > 10
    assert np.all(diffs <= 1e-9 * np.maximum(1.0, np.abs(np.array(log[:-1]))))


def test_oracle_residuals_and_determinism(ref2x6, ref2x6_traj, ref_oracle):
    (l, f, fu), obj = ref_oracle
    sp = _ScaledP2(ref2x6, ref2x6_traj)
    c1, c2, c3, c4 = sp.violations(l / 1e6, f / 1e9, fu / 1e9)
    resid = max(float(np.abs(c1).max()), float(np.max(c2, initial=0.0)),
                float(np.max(c3, initial=0.0)), abs(c4))
    assert resid <= 1e-8
    (_, _, _), obj2 = primal_oracle_p2(ref2x6, ref2x6_traj)
    assert abs(obj - obj2) <= 1e-9 * max(obj, 1e-12)


# --- randomized cross-validation ----------------------------------------------

def _random_scenario(seed: int):
    """Feasible-by-construction instance in the oracle's size range."""
    rng = np.random.default_rng(seed)
    K = int(rng.integers(1, 4))
    N = int(rng.integers(4, 9))
    s0 = Scenario(K=K, N=N, T=0.2 * N, H=10.0,
                  user_pos=rng.uniform(-2.0, 8.0, size=(K, 2)),
                  R=np.full(K, 1.0),
                  P_u=float(rng.uniform(5e4, 3e5)),
                  eta=0.8, B=2e6, sigma2=1e-9, Gamma=1.0, beta0=1e-5,
                  M=1e3, gamma_c=1e-28, W_mass=9.65, V_max=10.0,
                  q0=[0.0, 0.0], qF=[6.0, 0.0])
    from uavmec.planner import straight_line_trajectory
    traj = straight_line_trajectory(s0)
    deliverable = probe_feasibility(s0, traj) + s0.R
    demand = rng.uniform(0.35, 0.7, size=K) * deliverable
    fields = {n: getattr(s0, n) for n in s0.__dataclass_fields__}
    return Scenario(**{**fields, "R": demand}), traj


@pytest.mark.parametrize("seed", [11, 22, 33, 44, 55, 66])
def test_random_scenarios_match_oracle(seed):
    s, traj = _random_scenario(seed)
    sol = solve_p2(s, traj)
    (_, _, _), oracle_obj = primal_oracle_p2(s, traj)
    assert sol.kkt.max() <= 1e-6
    assert abs(sol.objective - oracle_obj) <= 5e-3 * max(oracle_obj, 1e-12)


def test_weak_duality_at_random_prices(ref2x6, ref2x6_traj, ref_oracle):
    """The dual value is a lower bound on the optimum at any admissible
    price state, not just along the solver's own path."""
    _, oracle_obj = ref_oracle
    rng = np.random.default_rng(3)
    K, N = ref2x6.K, ref2x6.N
    for _ in range(25):
        theta = np.zeros(N)
        theta[1 : N - 1] = rng.uniform(0.0, 2e-7, N - 2)
        theta[N - 1] = theta[1 : N - 1].sum() + rng.uniform(0.0, 5e-7)
        d = DualState(mu=rng.uniform(0.0, 1e-6, K),
                      nu=rng.uniform(0.0, 300.0, (K, N)),
                      theta=theta)
        assert dual_value(ref2x6, ref2x6_traj, d) <= oracle_obj + 1e-6
