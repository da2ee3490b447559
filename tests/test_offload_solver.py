import ast
import copy
import pickle
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from uavmec.model import Scenario, Plan, channel_gains, check_constraints
from uavmec.planner import (joint_step, run_algorithm1, run_baseline,
                            semicircle_trajectory, straight_line_trajectory)
from uavmec import offload_solver
from uavmec.offload_solver import (
    DualState,
    OffloadKkt,
    solve_p2,
    probe_feasibility,
    InfeasibleTrajectoryError,
    DualIterationLimitError,
    _ScaledP2,
    _taut_string,
    _total_budget_start,
    _pack,
    _unpack,
    _recover_scaled,
    _duals_to_scaled,
    _neg_dual_and_grad,
    _tail_newton,
    _price_gaps,
    _BIT,
    _FREQ,
    _EN,
)

import references
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


def _scaled(s: Scenario, traj, users=slice(None)):
    """The solver's scaled problem for ``users`` of ``s`` on path ``traj``."""
    return _ScaledP2(s, channel_gains(s, traj), users)


# --- primal recovery ---------------------------------------------------------
# SI views of the solver's scaled Lagrangian, for prices given as a DualState.

def _recover_primal(s: Scenario, traj, d: DualState):
    """Minimizer (l, f_user, f_uav) of the Lagrangian at the given prices (SI)."""
    l, f, fu = _recover_scaled(_scaled(s, traj), *_duals_to_scaled(d)).primal
    return l * _BIT, f * _FREQ, fu * _FREQ


def _dual_value(s: Scenario, traj, d: DualState) -> float:
    """Lagrangian dual lower bound on the UAV compute energy [J]."""
    return _recover_scaled(_scaled(s, traj), *_duals_to_scaled(d)).value * _EN


def _lagrangian_value(s: Scenario, traj, plan_part, d: DualState) -> float:
    """Lagrangian of the fixed-trajectory subproblem at an SI primal point [J]."""
    sp = _scaled(s, traj)
    l, f, fu = plan_part
    l, f, fu = np.asarray(l, dtype=float) / _BIT, np.asarray(f) / _FREQ, np.asarray(fu) / _FREQ
    grow = np.exp2(np.minimum(l, sp.l_cap) / sp.bl)
    return sp.lagrangian(*_duals_to_scaled(d)[:3], fu, sp.violations(l, f, fu, grow)) * _EN


def test_recovery_zero_duals_is_idle(ref2x6, ref2x6_traj):
    d = DualState.zeros(ref2x6.K, ref2x6.N)
    l, f, fu = _recover_primal(ref2x6, ref2x6_traj, d)
    assert not l.any() and not f.any() and not fu.any()


def test_recovery_uav_frequency_ladder(ref2x6, ref2x6_traj):
    s = ref2x6
    theta = np.zeros(s.N)
    theta[-1] = 3.0 * s.gamma_c * s.M          # prices one cycle/s at every slot
    d = DualState(mu=np.zeros(s.K), nu=np.full((s.K, s.N), 0.1), theta=theta)
    _, _, fu = _recover_primal(s, ref2x6_traj, d)
    assert fu[0] == 0.0
    assert fu[1:] == pytest.approx(np.ones(s.N - 1), rel=1e-9)


def test_recovery_first_uav_slot_always_zero(ref_solution, ref2x6, ref2x6_traj):
    _, _, fu = _recover_primal(ref2x6, ref2x6_traj, ref_solution.duals)
    assert fu[0] == 0.0


def test_recovery_idles_uav_without_dominating_last_price(ref2x6, ref2x6_traj):
    """A mid UAV price with no dominating last one leaves every UAV price
    gap negative: the minimizer idles the UAV, and the dual value is the
    Lagrangian there."""
    s = ref2x6
    theta = np.zeros(s.N)
    theta[1] = 1.0                              # mid price with no dominating last
    d = DualState(mu=np.zeros(s.K), nu=np.zeros((s.K, s.N)), theta=theta)
    plan_part = _recover_primal(s, ref2x6_traj, d)
    assert not plan_part[2].any()
    assert _dual_value(s, ref2x6_traj, d) == _lagrangian_value(s, ref2x6_traj, plan_part, d)


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
    """_recover_primal returns the Lagrangian minimizer, so the dual value is
    the Lagrangian there, also where a price tail vanishes (the minimizer
    then puts that user's bits and cycles at their caps, never above)."""
    d = data.draw(_prices_with_vanished_tail(ref2x6))
    g = _dual_value(ref2x6, ref2x6_traj, d)
    plan_part = _recover_primal(ref2x6, ref2x6_traj, d)
    assert abs(_lagrangian_value(ref2x6, ref2x6_traj, plan_part, d) - g) <= 1e-12 * abs(g)
    # The recovery keeps its bits within l_cap, so the 2^(l / bl) it shares
    # with the gaps, the residuals and the Newton system is exact there.
    sp = _scaled(ref2x6, ref2x6_traj)
    point = _recover_scaled(sp, *_duals_to_scaled(d))
    l = point.primal[0]
    assert np.all(l <= sp.l_cap)
    assert np.array_equal(point.grow, np.exp2(l / sp.bl))


def test_recovery_finite_at_rounding_negative_bit_price(ref2x6, ref2x6_traj):
    """DualState admits prices a rounding below zero; a bit price of -1e-30
    buys no cycles instead of a NaN frequency (square root of a negative)."""
    theta = np.zeros(ref2x6.N)
    theta[-1] = 1e-7
    d = DualState(mu=[1e-7, -1e-30], nu=np.full((ref2x6.K, ref2x6.N), 10.0), theta=theta)
    _, f, _ = _recover_primal(ref2x6, ref2x6_traj, d)
    assert not f[1].any()
    assert np.isfinite(_dual_value(ref2x6, ref2x6_traj, d))


def test_recovery_monotone_in_channel(ref_solution, ref2x6, ref2x6_traj):
    """At fixed prices, a better channel can only raise the offloaded bits."""
    s = ref2x6
    d = ref_solution.duals
    l_base, _, _ = _recover_primal(s, ref2x6_traj, d)
    closer = ref2x6_traj.copy()
    closer[2] = s.user_pos[0]                  # slot 2 now directly over user 0
    l_close, _, _ = _recover_primal(s, closer, d)
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


def _assembled_hessian(sp, z, free=None):
    """The tail-coordinate weights of :func:`_tail_newton` at z mapped back
    to the dense Hessian of the negated dual over the packed prices where
    ``free`` holds (all of them by default), with zero rows and columns
    elsewhere: H_FF = P^T [[diag(d), G], [G^T, B]] P, where P takes the
    free prices to their tails: a user's causality prices summed from each
    one on, its bit price as it is, and the UAV prices (by first slot,
    last first) summed from each one on."""
    free = np.ones(z.size, bool) if free is None else free
    _, grad, point = _neg_dual_and_grad(z, sp)
    t = _tail_newton(sp, point, free, grad, 1.0)
    S, R = t.seg.size, t.rest.size
    n_mu = int((t.rest < sp.K).sum())
    user = (t.seg - sp.K) // sp.N
    P = np.eye(S + R)
    P[:S, :S] = (user[:, None] == user[None, :]) & np.less_equal.outer(t.seg, t.seg)
    P[S + n_mu :, S + n_mu :] = np.triu(np.ones((R - n_mu, R - n_mu)))
    tails = np.block([[np.diag(t.d), t.G], [t.G.T, t.B]])
    idx = np.concatenate([t.seg, t.rest])
    H = np.zeros((z.size, z.size))
    H[np.ix_(idx, idx)] = P.T @ tails @ P
    return H


def _spread_start(sp):
    """The cold start's prices (:func:`_total_budget_start`) as (mu, nu,
    theta), with each user's energy price V_k spread evenly over its
    slots.  A user the start leaves unpriced (its total harvest covers its
    demand locally) takes the other users' mean prices, so every bit and
    energy price is positive."""
    K, N = sp.K, sp.N
    mu, nu, theta, _ = _unpack(_total_budget_start(sp), K, N)
    V = nu[:, N - 1]
    priced = mu > 0.0
    mu = np.where(priced, mu, mu[priced].mean())
    V = np.where(priced, V, V[priced].mean())
    return mu, np.repeat(V[:, None] / N, N, axis=1), theta


def _interior_prices(sp, factors):
    """Spread cold-start prices (:func:`_spread_start`) scaled entrywise by
    ``factors``, with every mid UAV price positive, so every price is
    interior."""
    mu, nu, theta = _spread_start(sp)
    N = sp.N
    z = _pack(mu, nu, np.full(N - 2, theta[N - 1] / N), theta[N - 1])
    return z * factors[: z.size]


def _check_hessian_by_central_differences(s, traj, factors):
    """Analytic Hessian of the negated dual against central differences of
    its gradient, at interior prices."""
    sp = _scaled(s, traj)
    z = _interior_prices(sp, factors)
    H = _assembled_hessian(sp, z)
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
    mu, nu, theta, gap = _unpack(z, K, N)
    l, f, fu = _recover_scaled(sp, mu, nu, theta, gap).primal
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
def _prices_on_bounds(draw, s, traj, users=slice(None)):
    """Spread cold-start prices of ``users`` scaled entrywise, then bent so that
    every kind of bound is active: user 0's causality prices shrink by
    1e-25 from a drawn slot on (its bits reach l_cap and its cycles f_cap
    there, with a positive price tail), user 1's bit price (user 0's when
    it is the only one) by 1e-3 (its bits stay at 0), and the slack and
    the first drawn mid UAV prices are zero (the UAV idles in those
    slots)."""
    sp = _scaled(s, traj, users)
    mu, nu, theta = _spread_start(sp)
    K, N = sp.K, sp.N
    factors = draw(arrays(np.float64, K + K * N + N - 1, elements=st.floats(0.5, 2.0)))
    cut = draw(st.integers(1, N - 2))
    idle = draw(st.integers(1, N // 2))
    nu = nu * factors[K : K + K * N].reshape(K, N)
    nu[0, cut:] *= 1e-25
    mu = mu * factors[:K]
    mu[min(1, K - 1)] *= 1e-3
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
    assert np.abs(_assembled_hessian(sp, z) - ref).max() <= 1e-12 * np.abs(ref).max()


@given(data=st.data())
def test_dual_hessian_matches_dense_product_table2(table2, data):
    traj = straight_line_trajectory(table2)
    _check_hessian_against_dense(*data.draw(_prices_on_bounds(table2, traj)))


@given(data=st.data())
def test_dual_hessian_matches_dense_product_k5n20(k5n20, data):
    _check_hessian_against_dense(*data.draw(_prices_on_bounds(*k5n20)))


@pytest.fixture(scope="module")
def large15(ref2x6):
    """A schedule on which the dual ascent stalled while the damping acted
    on the prices themselves: the presolve leaves one user, and the
    damping swung between 1e-1 and 1e+2 until the 200-iterate cap."""
    fields = {n: getattr(ref2x6, n) for n in ref2x6.__dataclass_fields__}
    s = Scenario(**{**fields, "K": 2, "N": 40, "T": 8.0, "P_u": 57622.0,
                    "user_pos": [[2.319, 5.285], [5.696, -0.885]],
                    "R": [2.670e6, 3.325e6], "qF": [8.0, 0.0]})
    return s, semicircle_trajectory(s)


_ACTIVE_SETS = ["all-free", "drawn", "one-user", "one-mu", "no-uav"]


@st.composite
def _free_prices(draw, sp, z):
    """A drawn epsilon-active set's complement on the packed prices."""
    K, N = sp.K, sp.N
    kind = draw(st.sampled_from(_ACTIVE_SETS))
    free = np.ones(z.size, bool)
    k = draw(st.integers(0, K - 1))
    if kind == "drawn":
        free = draw(arrays(np.bool_, z.size))
    elif kind == "one-user":
        free[k] = False
        free[K + k * N : K + (k + 1) * N] = False
    elif kind == "one-mu":
        free[k] = False
    elif kind == "no-uav":
        free[K + K * N :] = False
    return free


def _damping_metric(sp, idx):
    """Lambda of :func:`_tail_newton` on the packed prices idx: the identity
    on the bit and UAV prices, min(rank p, rank q) between two free
    causality prices of one user (ranked in slot order from 1)."""
    Lam = np.eye(idx.size)
    user = np.where((idx >= sp.K) & (idx < sp.K + sp.K * sp.N), (idx - sp.K) // sp.N, -1)
    for k in range(sp.K):
        own = np.flatnonzero(user == k)
        Lam[np.ix_(own, own)] = np.minimum.outer(np.arange(1, own.size + 1),
                                                 np.arange(1, own.size + 1))
    return Lam


@pytest.mark.parametrize("instance", ["table2", "k5n20", "large15"])
@settings(max_examples=30)
@given(data=st.data())
def test_eliminated_direction_matches_dense_damped_solve(request, instance, data):
    """The tail-coordinate elimination solves the damped free Hessian
    system M x = g (M = H_FF + shift Lambda, :func:`_damping_metric`): on
    prices on and off the bounds, with drawn epsilon-active sets (no free
    bit or UAV price leaves the dense system empty) and damping from 1e-12
    to 1e8 times the largest tail-coordinate diagonal.  The step is zero
    off the free prices.

    Its normwise backward error is within 16 eps, as for the dense LU of
    ``np.linalg.solve``, and it equals that dense solve within 1e-10
    relative.  Prices on the bounds leave H_FF singular, so at small
    damping cond(M) is large and the dense solve itself moves under a
    refined residual: there the two solves can agree only to the float64
    limit, 32 eps cond(M)."""
    if instance == "table2":
        s = request.getfixturevalue("table2")
        s_traj, users = (s, straight_line_trajectory(s)), slice(None)
    elif instance == "k5n20":
        s_traj, users = request.getfixturevalue("k5n20"), slice(None)
    else:
        s_traj, users = request.getfixturevalue("large15"), [1]
    if data.draw(st.booleans()):
        sp, z = data.draw(_prices_on_bounds(*s_traj, users))
    else:
        sp = _scaled(*s_traj, users)
        z = _interior_prices(sp, data.draw(arrays(
            np.float64, sp.K + sp.K * sp.N + sp.N - 1, elements=st.floats(0.5, 2.0))))
    free = data.draw(_free_prices(sp, z))
    _, grad, point = _neg_dual_and_grad(z, sp)
    t = _tail_newton(sp, point, free, grad, 10.0 ** data.draw(st.floats(-12.0, 8.0)))
    idx = np.flatnonzero(free)
    assert np.array_equal(np.sort(np.concatenate([t.seg, t.rest])), idx)
    assert not t.step[~free].any()
    if idx.size == 0:
        return
    M = _dense_dual_hessian(z, sp)[np.ix_(idx, idx)] + t.shift * _damping_metric(sp, idx)
    g = grad[idx]
    ref = np.linalg.solve(M, g)
    got = t.step[idx]
    eps = np.finfo(float).eps
    norm = np.abs(M).sum(axis=1).max() * np.abs(got).max() + np.abs(g).max()
    assert np.abs(M @ got - g).max() <= 16 * eps * norm
    tol = max(1e-10, 32 * eps * np.linalg.cond(M))
    assert np.abs(got - ref).max() <= tol * np.abs(ref).max()


@pytest.mark.parametrize("instance", ["table2", "k5n20"])
def test_newton_systems_stay_per_user_and_uav_sized(monkeypatch, request, instance):
    """No Newton system spans the whole price vector: during one solve
    every system is one dense ``np.linalg.solve`` on the free bit and UAV
    prices, at most K + N - 1 rows."""
    s = request.getfixturevalue(instance)
    s, traj = (s, straight_line_trajectory(s)) if instance == "table2" else s
    solve = np.linalg.solve
    shapes = []

    def recorded(a, b):
        shapes.append(a.shape)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recorded)
    assert solve_p2(s, traj).kkt.max() <= 1e-6
    assert shapes and all(len(shape) == 2 for shape in shapes)
    assert max(shape[0] for shape in shapes) <= s.K + s.N - 1


@pytest.mark.parametrize("instance", ["table2", "k5n20"])
def test_only_the_damping_changed_on_accepted_iterates(monkeypatch, request, instance):
    """At every accepted iterate of the cold solve, the step at damping
    1e-13 matches the dense solve of H_FF + sigma I with the same sigma
    within 1e-8 relative: the tail coordinates change where the damping
    acts, not the Newton step."""
    s = request.getfixturevalue(instance)
    s, traj = (s, straight_line_trajectory(s)) if isinstance(s, Scenario) else s
    calls = []
    tail_newton = offload_solver._tail_newton

    def recorded(sp, point, free, grad, damping):
        if not calls or calls[-1][1] is not point:
            calls.append((sp, point, free, grad))
        return tail_newton(sp, point, free, grad, damping)

    monkeypatch.setattr(offload_solver, "_tail_newton", recorded)
    assert solve_p2(s, traj).kkt.max() <= 1e-6
    assert len(calls) >= 10
    for sp, point, free, grad in calls:
        t = tail_newton(sp, point, free, grad, 1e-13)
        z = _pack(point.mu, point.nu, point.theta[1 : sp.N - 1], point.uav_gap[0])
        idx = np.flatnonzero(free)
        H = _dense_dual_hessian(z, sp)[np.ix_(idx, idx)]
        ref = np.linalg.solve(H + t.shift * np.eye(idx.size), grad[idx])
        assert np.abs(t.step[idx] - ref).max() <= 1e-8 * np.abs(ref).max()


_SOLVES = ["table2-straight", "table2-semicircle", "k5n20", "large15", "table2-warm",
           "random-k6n25"]


def _solve_case(request, instance):
    """(s, traj, warm) of a named schedule solve: cold on table2's two
    paths, k5n20, large15 and a K = 6, N = 25 draw of
    :func:`_random_scenario`; "table2-warm" re-solves table2 (T = 2 s) from
    the straight line's prices at the joint step's candidate path, as the
    planner's first step does."""
    if instance == "table2-warm":
        s = request.getfixturevalue("table2")
        traj = straight_line_trajectory(s)
        sol = solve_p2(s, traj)
        step, _ = joint_step(s, traj, sol)
        return s, traj + step, sol.duals
    if instance.startswith("table2"):
        s = request.getfixturevalue("table2")
        path = straight_line_trajectory if instance.endswith("straight") else semicircle_trajectory
        return s, path(s), None
    if instance == "random-k6n25":
        s, traj = _random_scenario(2, users=(4, 7), slots=(20, 41))
        assert (s.K, s.N) == (6, 25)
        return s, traj, None
    return (*request.getfixturevalue(instance), None)


@pytest.mark.parametrize("instance", _SOLVES)
def test_shared_terms_leave_every_accepted_iterate_bit_identical(monkeypatch, request,
                                                                 instance):
    """At every accepted iterate of the solve, the Newton step and damping
    read off the recovery's shared 2^(l / bl) and mu - gap and the
    per-solve scratch equal those of :func:`references.tail_newton_step`,
    which recomputes every per-point term, and the three KKT residuals
    equal those of :func:`references.kkt_residuals`, bit for bit.  The
    warm re-solve starts from the given prices, not the cold start."""
    s, traj, warm = _solve_case(request, instance)
    calls, cold = [], []
    tail_newton, start = offload_solver._tail_newton, offload_solver._total_budget_start

    def recorded(sp, point, free, grad, damping):
        calls.append((sp, point, free, grad, damping))
        return tail_newton(sp, point, free, grad, damping)

    monkeypatch.setattr(offload_solver, "_tail_newton", recorded)
    monkeypatch.setattr(offload_solver, "_total_budget_start",
                        lambda sp: cold.append(sp) or start(sp))
    assert solve_p2(s, traj, warm=warm).kkt.max() <= 1e-6
    assert len(cold) == (warm is None)
    # The warm start takes 8 systems at the damping floor (10 from damping 1).
    assert len(calls) == 8 if instance == "table2-warm" else len(calls) >= 10
    for sp, point, free, grad, damping in calls:
        t = tail_newton(sp, point, free, grad, damping)
        step, shift = references.tail_newton_step(sp, point, free, grad, damping)
        assert np.array_equal(t.step, step)
        assert t.shift == shift
        kkt = offload_solver._residuals_scaled(sp, point)
        assert (kkt.stationarity, kkt.primal, kkt.complementarity) == \
            references.kkt_residuals(sp, point)


@pytest.mark.parametrize("instance", _SOLVES)
def test_every_evaluation_matches_the_reference_recovery(monkeypatch, request, instance):
    """At every price point the solve evaluates, rejected line-search
    trials included, the negated dual value, its packed gradient and the
    recovered primal point equal those of :func:`references.recover_point`,
    which shares no term with the solver, bit for bit."""
    s, traj, warm = _solve_case(request, instance)
    seen = []
    evaluate = offload_solver._neg_dual_and_grad

    def recorded(z, sp):
        phi, grad, point = evaluate(z, sp)
        seen.append((z.copy(), sp, phi, grad.copy(), [a.copy() for a in point.primal]))
        return phi, grad, point

    monkeypatch.setattr(offload_solver, "_neg_dual_and_grad", recorded)
    opt = _captured_ascents(monkeypatch)
    assert solve_p2(s, traj, warm=warm).kkt.max() <= 1e-6
    (_, _, ascent), = opt
    assert len(seen) == ascent.nfev > ascent.nit
    for z, sp, phi, grad, primal in seen:
        value, ref_grad, ref_primal, _ = references.recover_point(sp, z)
        assert phi == -value
        assert np.array_equal(grad, ref_grad)
        assert all(np.array_equal(a, b) for a, b in zip(primal, ref_primal))


def _converged_step(request, instance):
    """(s, traj, converged schedule, joint step, priced users, their packed
    prices) of the straight start of table2 (T = 2 s) or of k5n20."""
    s = request.getfixturevalue(instance)
    s, traj = (s, straight_line_trajectory(s)) if instance == "table2" else s
    sol = solve_p2(s, traj)
    step, _ = joint_step(s, traj, sol)
    users = np.flatnonzero(sol.duals.mu > 0.0)
    return s, traj, sol, step, users, offload_solver._packed(sol.duals, users)


@pytest.mark.parametrize("capped", [False, True], ids=["converged", "capped"])
@pytest.mark.parametrize("instance", ["table2", "k5n20"])
def test_gradient_path_derivative_matches_central_differences(request, instance, capped):
    """At fixed prices, the packed gradient's derivative along a path step
    (:func:`offload_solver._grad_along`, fed the gains' relative rates
    -2 (q - u) . dq / (H^2 + d^2)) matches central differences of
    :func:`_neg_dual_and_grad` on the scaled problems at q +- h dq, h =
    1e-6, to 1e-6 of each block's largest entry (bit prices, each user's
    causality prices, UAV prices).  dq is the joint step's direction scaled
    to 1 m at its largest point (k5n20's step itself is 2.4e-5 m, so h of
    it would only resolve rounding).  The "capped" prices zero user 0's
    causality prices from the middle slot on, which puts the bits of those
    slots at ``l_cap``."""
    s, traj, _, step, users, z = _converged_step(request, instance)
    step = step / np.linalg.norm(step, axis=1).max()
    K, N = users.size, s.N
    if capped:
        z[K : K + K * N].reshape(K, N)[0, N // 2 :] = 0.0
    sp = _scaled(s, traj, users)
    point = _neg_dual_and_grad(z, sp)[2]
    assert np.any(point.primal[0] == sp.l_cap) == capped
    diff = traj[None, :N] - s.user_pos[users, None]
    rho = -2.0 * np.sum(diff * step[:N], axis=2) / (s.H ** 2 + np.sum(diff ** 2, axis=2))
    got = offload_solver._grad_along(sp, point, rho)
    h = 1e-6
    ref = (_neg_dual_and_grad(z, _scaled(s, traj + h * step, users))[1]
           - _neg_dual_and_grad(z, _scaled(s, traj - h * step, users))[1]) / (2.0 * h)
    for block in np.split(np.arange(z.size), K + N * np.arange(K + 1)):
        assert np.abs(got[block] - ref[block]).max() <= 1e-6 * np.abs(ref[block]).max()


def test_price_tangent_matches_central_differences(request):
    """Along table2's first joint step (the "table2-warm" re-solve's), the
    tangent of the optimal prices matches (z*(q + h dq) - z*(q - h dq)) /
    2h of cold solves, h = 1e-3, to 1e-7 of its largest entry on the free
    prices (2.8e-9 here, at most 7.7e-9 on table2's straight starts at T =
    2-3 s), and is zero on those the epsilon-active set holds at the bound,
    which stay exactly zero on both sides."""
    s, traj, sol, step, users, z = _converged_step(request, "table2")
    tangent = offload_solver.price_tangent(s, traj, sol.duals, step)
    assert np.array_equal(tangent.users, users) and np.array_equal(tangent.z, z)
    _, grad, _ = _neg_dual_and_grad(z, _scaled(s, traj, users))
    free = offload_solver._free(z, grad, offload_solver._natural_residual(z, grad))
    assert 0 < free.sum() < z.size
    h = 1e-3
    ref = (offload_solver._packed(solve_p2(s, traj + h * step).duals, users)
           - offload_solver._packed(solve_p2(s, traj - h * step).duals, users)) / (2.0 * h)
    assert np.abs(tangent.dz - ref)[free].max() <= 1e-7 * np.abs(ref[free]).max()
    assert not tangent.dz[~free].any() and not ref[~free].any()


def test_tangent_predicted_resolve_takes_few_rows(request):
    """table2's (T = 2 s) re-solve at the joint step's candidate takes at
    most 4 trace rows from the tangent-predicted prices (10 from the source
    prices at damping 1), and meets the cold solve's objective within
    1e-9."""
    s, traj, sol, step, _, _ = _converged_step(request, "table2")
    warm = offload_solver.price_tangent(s, traj, sol.duals, step).at(1.0)
    got, cold = solve_p2(s, traj + step, warm=warm), solve_p2(s, traj + step)
    assert len(got.trace) <= 4
    assert got.kkt.max() <= 1e-6
    assert got.objective == pytest.approx(cold.objective, rel=1e-9)


def test_a_stalled_warm_ascent_restarts_cold(request, monkeypatch):
    """A warm ascent (from the damping floor) that ends above tol is
    followed by the cold one (from the total-budget start, at damping 1),
    whose solution is returned; a converged warm ascent is kept."""
    s, traj, sol, step, _, _ = _converged_step(request, "table2")
    ascend, calls = offload_solver.minimize, []

    def warm_stalls(sp, z, damping):
        calls.append(damping)
        out = ascend(sp, z, damping)
        return out._replace(kkt=OffloadKkt(1.0, 1.0, 1.0)) if damping < 1.0 else out

    cold = solve_p2(s, traj + step)
    monkeypatch.setattr(offload_solver, "minimize", warm_stalls)
    got = solve_p2(s, traj + step, warm=sol.duals)
    assert calls == [1e-12, 1.0]
    assert got.trace == cold.trace and np.array_equal(got.l, cold.l)
    monkeypatch.setattr(offload_solver, "minimize", ascend)
    assert len(solve_p2(s, traj + step, warm=sol.duals).trace) < len(cold.trace)


def test_a_second_evaluation_leaves_the_first_unchanged(table2):
    """The line search holds the current point while it evaluates a trial
    on the same scaled problem, and the per-solve scratch of ``sp`` is
    reused by every residual and Newton system.  A second evaluation, with
    its KKT residuals and Newton system, changes nothing the first one
    returned: the gradient, every :class:`_Point` array and every array of
    its Newton system, none of which shares memory with the second's."""
    sp = _scaled(table2, straight_line_trajectory(table2))
    z = _total_budget_start(sp)
    free = np.ones(z.size, bool)

    def arrays(z):
        _, grad, point = _neg_dual_and_grad(z, sp)
        offload_solver._residuals_scaled(sp, point)
        t = _tail_newton(sp, point, free, grad, 1e-3)
        return [grad, *point[:6], *point.primal, point.grow, *point.gaps[:3], t.step, *t[2:]]

    first = arrays(z)
    kept = [a.copy() for a in first]
    second = arrays(z * np.linspace(0.5, 2.0, z.size))
    assert all(np.array_equal(a, b) for a, b in zip(first, kept))
    assert not any(np.shares_memory(a, b) for a in first for b in second)


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy, pickle.dumps])
def test_scaled_problem_refuses_to_be_copied(table2, duplicate):
    """The scratch views of ``_ScaledP2`` alias its buffers, which no copy
    or pickle round trip preserves, so each of them raises."""
    sp = _scaled(table2, straight_line_trajectory(table2))
    with pytest.raises(TypeError, match="never copy"):
        duplicate(sp)


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


def _captured_ascents(monkeypatch):
    """The (sp, start, result) of every :func:`offload_solver.minimize`
    call made while ``monkeypatch`` holds."""
    ascents = []
    ascend = offload_solver.minimize

    def captured_minimize(sp, z, damping):
        ascents.append((sp, z.copy(), ascend(sp, z, damping)))
        return ascents[-1][2]

    monkeypatch.setattr(offload_solver, "minimize", captured_minimize)
    return ascents


def _relaxation_prices(K, N):
    """Packed positions of the total-budget relaxation's 2K + 1 prices: the
    bit prices, each user's last causality price and the slack."""
    return np.concatenate([np.arange(K), K + N * np.arange(K) + N - 1, [K + K * N + N - 2]])


@pytest.mark.parametrize("instance", ["table2", "k5n20", "ref2x6"])
def test_cold_start_is_the_total_budget_optimum(monkeypatch, request, instance):
    """A cold solve starts at the optimum of the relaxation that keeps only
    each user's total energy budget and the UAV's total compute balance:
    every other price (each causality price but the user's last, every mid
    UAV price) is exactly zero, and the natural residual of the dual over
    the relaxation's 2K + 1 prices is within tol."""
    s = request.getfixturevalue(instance)
    s, traj = (s, straight_line_trajectory(s)) if isinstance(s, Scenario) else s
    ascents = _captured_ascents(monkeypatch)
    assert solve_p2(s, traj).kkt.max() <= 1e-6
    (sp, z, _), = ascents
    kept = _relaxation_prices(sp.K, sp.N)
    pinned = np.ones(z.size, bool)
    pinned[kept] = False
    assert pinned.sum() == sp.K * (sp.N - 1) + sp.N - 2
    assert np.all(z[pinned] == 0.0)
    assert np.all(z[kept] > 0.0)
    _, grad, _ = _neg_dual_and_grad(z, sp)
    assert offload_solver._natural_residual(z[kept], grad[kept]) <= offload_solver._TOL


@pytest.mark.parametrize("seed", [11, 22, 33, 44, 55, 66])
def test_cold_start_schedule_is_the_relaxation_optimum(seed):
    """At the cold start's prices the Lagrangian minimizer is the total-budget
    relaxation's schedule: each user whose total harvest falls short of its
    local-only demand meets its demand and spends exactly its total
    harvest, the UAV computes the whole offload at one frequency, and local
    compute costs more per bit than TX (a positive energy price).  A user
    whose total harvest covers its demand locally offloads nothing: priced
    at its water level, it computes its whole demand locally within that
    harvest; otherwise its prices are zero.  Only last-slot energy prices
    are set."""
    s, traj = _random_scenario(seed)
    sp = _scaled(s, traj)
    K, N = sp.K, sp.N
    z = _total_budget_start(sp)
    point = _recover_scaled(sp, *_unpack(z, K, N))
    mu, nu = point.mu, point.nu
    l, _, fu = point.primal
    c1, c2, _, c4 = point.gaps
    short = sp.c_f * N * (sp.R / (sp.bits_f * N)) ** 3 > sp.cum_eharv[:, -1]
    priced = mu > 0.0
    assert np.all(priced[short]) and np.array_equal(priced, nu[:, N - 1] > 0.0)
    assert not nu[:, : N - 1].any() and not nu[~priced].any()
    assert np.all(np.abs(c1[priced]) <= 1e-9 * sp.R[priced])
    assert np.all(np.abs(c2[short, -1]) <= 1e-9 * sp.cum_eharv[short, -1])
    assert not l[~short].any() and np.all(c2[~short, -1] <= 0.0)
    assert abs(c4) <= 1e-9 * max(float(l.sum()), 1e-12)
    assert np.ptp(fu[1:]) <= 1e-12 * fu.max()


# Newton steps and dual evaluations of the cold solve when every cold solve
# started the full ascent from the spend-as-harvested prices.
_FULL_ASCENT_COUNTS = {"table2": (51, 139), "k5n20": (56, 149)}


@pytest.mark.parametrize("instance", ["table2", "k5n20"])
def test_face_start_shortens_the_cold_solve(monkeypatch, request, instance):
    """Started at the total-budget relaxation's optimum, the cold solve
    takes at most 60% of the steps and evaluations of a full ascent from
    the spend-as-harvested prices (table2's straight path: 17 and 20
    against 51 and 139; k5n20: 19 and 32 against 56 and 149)."""
    s = request.getfixturevalue(instance)
    s, traj = (s, straight_line_trajectory(s)) if isinstance(s, Scenario) else s
    ascents = _captured_ascents(monkeypatch)
    assert solve_p2(s, traj).kkt.max() <= 1e-6
    (_, _, opt), = ascents
    steps, evaluations = _FULL_ASCENT_COUNTS[instance]
    assert opt.nit <= 0.6 * steps and opt.nfev <= 0.6 * evaluations


def test_cold_start_prices_a_locally_covered_user_at_its_water_level(monkeypatch):
    """User 0 sits at the end of a fast dash, so its harvest arrives late:
    its total harvest covers its demand by local compute, but no causal
    local-only schedule does (its taut string falls short), so the
    presolve leaves it priced.  The relaxation has it offload nothing, and
    it starts at the water-level prices of its cheapest TX slot beside
    user 1, which offloads; the solve then converges to a checked plan at
    the oracle's energy.  Alone (K = 1) no user offloads, the slack is 0
    and the start is all zeros: that solve returns a checked plan or ends
    in the typed iteration-limit error (on this instance it ends typed)."""
    s = Scenario(K=2, N=10, T=2.0, H=10.0, user_pos=[[50.0, 0.0], [25.0, 3.0]],
                 R=[0.5e6, 0.9e6], P_u=1e5, eta=0.8, B=2e6, sigma2=1e-9, Gamma=1.0,
                 beta0=1e-5, M=1e3, gamma_c=1e-28, W_mass=9.65, V_max=100.0,
                 q0=[0.0, 0.0], qF=[50.0, 0.0])
    traj = straight_line_trajectory(s)
    assert np.all(probe_feasibility(s, traj) >= 0.0)
    sp = _scaled(s, traj)
    N = s.N
    local_only = sp.c_f * N * (sp.R / (sp.bits_f * N)) ** 3
    assert local_only[0] <= sp.cum_eharv[0, -1] and local_only[1] > sp.cum_eharv[1, -1]
    assert references.local_capacities(s, traj)[2][0] < s.R[0]
    ascents = _captured_ascents(monkeypatch)
    sol = solve_p2(s, traj)
    plan = Plan(traj=traj, l=sol.l, f_user=sol.f_user, f_uav=sol.f_uav)
    assert check_constraints(s, plan).feasible(1e-6)
    _, oracle_obj = primal_oracle_p2(s, traj)
    assert abs(sol.objective - oracle_obj) <= 5e-3 * oracle_obj
    (sp, z, _), = ascents
    mu, nu, _, _ = _unpack(z, sp.K, N)
    assert np.all(mu > 0.0) and np.all(nu[:, N - 1] > 0.0) and not nu[:, : N - 1].any()

    alone = replace(s, K=1, user_pos=s.user_pos[:1], R=s.R[:1])
    assert not _total_budget_start(_scaled(alone, traj)).any()
    try:
        sol = solve_p2(alone, traj)
    except DualIterationLimitError:
        return
    plan = Plan(traj=traj, l=sol.l, f_user=sol.f_user, f_uav=sol.f_uav)
    assert check_constraints(alone, plan).feasible(1e-6)


def test_newton_step_stiffens_damping_when_the_solve_fails(monkeypatch, ref2x6,
                                                           ref2x6_traj):
    """A damped Newton system is one ``np.linalg.solve`` call on the free
    bit prices and UAV segments.  When it raises LinAlgError the system is
    retried ten times stiffer: the step taken is, bit for bit, the one a
    tenfold damping takes directly."""
    sp = _scaled(ref2x6, ref2x6_traj)
    mu, nu, theta = _spread_start(sp)
    z = _pack(mu, nu, theta[1:-1], theta[-1])

    def evaluate(z):
        return _neg_dual_and_grad(z, sp)

    ev = evaluate(z)
    res = offload_solver._natural_residual(z, ev[1])
    expected = offload_solver._newton_step(sp, evaluate, z, ev, res, 10.0, polish=False)
    assert expected is not None
    solve = np.linalg.solve
    calls = []

    def fails_once(a, b):
        calls.append(a.ndim)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", fails_once)
    got = offload_solver._newton_step(sp, evaluate, z, ev, res, 1.0, polish=False)
    assert calls == [2, 2]
    assert np.array_equal(got[0], expected[0])
    assert got[2:] == expected[2:]


def test_singular_newton_systems_end_in_the_iteration_limit(monkeypatch, table2):
    """When every damped system is singular the damping climbs past its
    cap, the ascent stops at its start, and ``solve_p2`` raises its typed
    error rather than numpy's LinAlgError."""
    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(DualIterationLimitError, match="after 0 Newton steps"):
        solve_p2(table2, straight_line_trajectory(table2))


def test_kkt_max_is_nan_if_any_residual_is():
    """solve_p2 accepts a solve only if ``kkt.max() <= tol``, so a NaN
    residual in any position must reach that test."""
    nan = float("nan")
    for kkt in (OffloadKkt(nan, 0.0, 0.0), OffloadKkt(1e-9, nan, 0.0),
                OffloadKkt(1e-9, 0.0, nan)):
        assert np.isnan(kkt.max())
    assert OffloadKkt(1e-9, 3e-9, 2e-9).max() == 3e-9


def test_rows_subsets_every_per_user_array(table2):
    """The instance ``_scaled(s, traj, u)`` prices exactly like the
    instance built from a scenario holding only users u on the same path.
    Halving the users doubles each user's TX subslot, so bandwidth and
    capacity gap are halved to keep the same physics bit for bit."""
    traj = straight_line_trajectory(table2)
    users = np.array([1, 3])
    fields = {n: getattr(table2, n) for n in table2.__dataclass_fields__}
    sub = Scenario(**{**fields, "K": users.size, "user_pos": table2.user_pos[users],
                      "R": table2.R[users], "B": table2.B / 2, "Gamma": table2.Gamma / 2})
    sp = _scaled(table2, traj)
    mu, nu, theta = _spread_start(sp)
    rng = np.random.default_rng(7)
    for _ in range(20):
        th = theta * rng.uniform(0.5, 2.0, table2.N)
        args = (mu[users] * rng.uniform(0.1, 10.0, users.size),
                nu[users] * rng.uniform(0.1, 10.0, (users.size, table2.N)),
                th, _price_gaps(th[-1] - th[1:-1].sum(), th[1:-1]))
        restricted = _recover_scaled(_scaled(table2, traj, users), *args)
        own = _recover_scaled(_scaled(sub, traj), *args)
        for a, b in zip(restricted, own):
            for x, y in (zip(a, b) if isinstance(a, tuple) else [(a, b)]):
                assert np.array_equal(x, y)


def test_large15_schedule_ends_typed(large15):
    """A feasible schedule on which the dual ascent stalls: the solve either
    meets tol or raises the typed iteration-limit error, whose message
    tells the Newton steps and evaluations it used."""
    s, traj = large15
    assert np.all(probe_feasibility(s, traj) > 0.0)
    try:
        sol = solve_p2(s, traj)
    except DualIterationLimitError as exc:
        assert "Newton steps" in str(exc) and "evaluations" in str(exc)
    else:
        assert sol.kkt.max() <= 1e-6


def test_large15_schedule_converges_at_the_oracle_energy(large15):
    """With the damping on the segment weights the ascent on large15
    converges (69 Newton steps) to a plan that passes check_constraints
    at the primal oracle's energy."""
    s, traj = large15
    sol = solve_p2(s, traj)
    assert sol.kkt.max() <= 1e-6
    plan = Plan(traj=traj, l=sol.l, f_user=sol.f_user, f_uav=sol.f_uav)
    assert check_constraints(s, plan).feasible(1e-6)
    _, oracle_obj = primal_oracle_p2(s, traj)
    assert abs(sol.objective - oracle_obj) <= 5e-3 * oracle_obj


# --- feasibility probe -------------------------------------------------------

def test_probe_positive_on_reference(ref2x6, ref2x6_traj):
    margins = probe_feasibility(ref2x6, ref2x6_traj)
    assert np.all(margins > 0.0)


def _rich_user(**overrides):
    """One user at the start of a fast dash: its harvest comes early, so its
    taut string is flat and the constant frequency fits inside it, while
    spending each slot's harvest as it comes delivers less than the
    demand."""
    fields = dict(K=1, N=10, T=2.0, H=10.0, user_pos=[[0.0, 0.0]], R=[5e5], P_u=1e5,
                  eta=0.8, B=1e3, sigma2=1e-9, Gamma=1.0, beta0=1e-5, M=1e3,
                  gamma_c=1e-28, W_mass=9.65, V_max=100.0, q0=[0.0, 0.0], qF=[100.0, 0.0])
    s = Scenario(**{**fields, **overrides})
    return s, straight_line_trajectory(s)


def test_presolved_user_is_not_probed():
    """The probe runs on the users the presolve leaves: a user whose taut
    string covers its demand is planned locally on it, scaled to the
    demand (here the constant frequency), although the spend-as-harvested
    policy falls short of its demand."""
    s, traj = _rich_user()
    assert probe_feasibility(s, traj)[0] < 0.0
    sol = solve_p2(s, traj)
    assert not sol.l.any() and sol.objective == 0.0
    f_const = s.R[0] * s.M / (s.N * s.slot)
    assert sol.f_user[0] == pytest.approx(np.full(s.N, f_const), rel=1e-12)
    plan = Plan(traj=traj, l=sol.l, f_user=sol.f_user, f_uav=sol.f_uav)
    assert check_constraints(s, plan).feasible(1e-6)


def test_infeasible_error_names_the_scenario_user():
    """A starved user behind a presolved one is named by its index in the
    scenario, not in the priced subset."""
    s, traj = _rich_user(K=2, user_pos=[[0.0, 0.0], [100.0, 0.0]], R=[5e5, 5e7])
    with pytest.raises(InfeasibleTrajectoryError, match="user 1 short"):
        solve_p2(s, traj)


def test_user_local_on_its_taut_string():
    """One user 3 m along a short straight dash, whose harvest rises and
    then falls, demands 336,000 bits: more than the constant frequency
    (334,948 local bits) or spending each slot's harvest as it comes
    (335,941) computes, but within its taut string's 336,110.  It is
    planned locally: the solve, the straight baseline and Algorithm 1
    return a checked all-local plan (the oracle's energy is 5e-13 J),
    where a presolve with only the first two schedules priced the user
    degenerately and every call ended in the typed iteration-limit
    error."""
    s = Scenario(K=1, N=4, T=0.8, H=10.0, user_pos=[[3.0, 0.0]], R=[336e3], P_u=1e5,
                 eta=0.8, B=2e6, sigma2=1e-9, Gamma=1.0, beta0=1e-5, M=1e3,
                 gamma_c=1e-28, W_mass=9.65, V_max=20.0, q0=[0.0, 0.0], qF=[10.0, 0.0])
    traj = straight_line_trajectory(s)
    const, spent, taut = references.local_capacities(s, traj)
    assert max(const[0], spent[0]) < s.R[0] <= taut[0]
    sol = solve_p2(s, traj)
    assert not sol.l.any() and sol.duals.mu[0] == 0.0 and sol.objective == 0.0
    assert s.slot * sol.f_user[0].sum() / s.M == pytest.approx(s.R[0], rel=1e-12)
    plan = Plan(traj=traj, l=sol.l, f_user=sol.f_user, f_uav=sol.f_uav)
    assert check_constraints(s, plan).feasible(1e-6)
    assert primal_oracle_p2(s, traj)[1] <= 1e-9
    for res in (run_baseline(s, "straight-line"), run_algorithm1(s)):
        assert not res.plan.l.any() and check_constraints(s, res.plan).feasible(1e-6)


@st.composite
def _harvests(draw):
    """Slot harvests, one row per user, rising, falling, unimodal or in
    any order, over N = 2 .. 20 slots."""
    K, N = draw(st.integers(1, 3)), draw(st.integers(2, 20))
    h = draw(arrays(np.float64, (K, N), elements=st.floats(0.01, 1.0)))
    shape = draw(st.sampled_from(["rising", "falling", "unimodal", "any"]))
    if shape != "any":
        h.sort(axis=1)
    if shape == "falling":
        h = h[:, ::-1]
    if shape == "unimodal":
        peak = draw(st.integers(1, N))
        h[:, peak:] = h[:, peak:][:, ::-1].copy()
    return h


@given(h=_harvests())
def test_taut_string_matches_pool_adjacent_violators(h):
    """The presolve's taut string matches the reference's pooled fit to
    1e-12, spends no prefix beyond its harvest and the whole harvest at
    the end, and computes at least the local bits (proportional to the sum
    of cube roots of the spending) of the constant frequency and of
    spending each slot's harvest as it comes."""
    taut = _taut_string(h)
    assert np.all(np.abs(taut - references.taut_string(h)) <= 1e-12 * taut)
    cum, spent = np.cumsum(h, axis=1), np.cumsum(taut, axis=1)
    assert np.all(spent <= cum * (1.0 + 1e-13))
    assert spent[:, -1] == pytest.approx(cum[:, -1], rel=1e-13)
    bits = np.cbrt(taut).sum(axis=1)
    const = h.shape[1] * np.cbrt((cum / np.arange(1, h.shape[1] + 1)).min(axis=1))
    assert np.all(bits >= np.maximum(const, np.cbrt(h).sum(axis=1)) * (1.0 - 1e-13))


@st.composite
def _band_missions(draw):
    """A mission like :func:`_random_scenario` (K 1 .. 3, N 4 .. 20, a
    straight or semicircle path) in which the user with the widest band
    demands between its best heuristic local bits (constant frequency or
    spending as harvested) and its taut string's; the others demand 35 to
    70% of what the probe certifies.  Returns the mission, its path and
    that user."""
    K, N = draw(st.integers(1, 3)), draw(st.integers(4, 20))
    pos = draw(arrays(np.float64, (K, 2), elements=st.floats(-2.0, 8.0)))
    s = Scenario(K=K, N=N, T=0.2 * N, H=10.0, user_pos=pos, R=np.ones(K),
                 P_u=draw(st.floats(5e4, 3e5)), eta=0.8, B=2e6, sigma2=1e-9, Gamma=1.0,
                 beta0=1e-5, M=1e3, gamma_c=1e-28, W_mass=9.65, V_max=20.0,
                 q0=[0.0, 0.0], qF=[6.0, 0.0])
    traj = draw(st.sampled_from([straight_line_trajectory, semicircle_trajectory]))(s)
    const, spent, taut = references.local_capacities(s, traj)
    best = np.maximum(const, spent)
    k = int(np.argmax((taut - best) / taut))
    assume(taut[k] - best[k] > 1e-9 * taut[k])
    R = draw(arrays(np.float64, K, elements=st.floats(0.35, 0.7))) * (
        probe_feasibility(s, traj) + s.R)
    R[k] = best[k] + draw(st.floats(0.01, 0.99)) * (taut[k] - best[k])
    return replace(s, R=R), traj, k


@settings(max_examples=30)
@given(mission=_band_missions())
def test_band_user_is_planned_locally(mission):
    """A user whose demand only its taut string covers is presolved: the
    solve returns a checked plan in which it offloads nothing, and the
    other users' plan is, bit for bit, the one they get when that user
    demands nothing (it keeps its TX share of each slot either way).  When
    that solve already ends in the typed iteration-limit error, a stall of
    the priced ascent on some feasible schedules, the mission's must too:
    the presolved user neither causes nor hides it."""
    s, traj, k = mission
    try:
        idle = solve_p2(replace(s, R=np.where(np.arange(s.K) == k, 0.0, s.R)), traj)
    except DualIterationLimitError:
        with pytest.raises(DualIterationLimitError):
            solve_p2(s, traj)
        return
    sol = solve_p2(s, traj)
    plan = Plan(traj=traj, l=sol.l, f_user=sol.f_user, f_uav=sol.f_uav)
    assert check_constraints(s, plan).feasible(1e-6)
    assert not sol.l[k].any() and sol.duals.mu[k] == 0.0
    assert np.array_equal(sol.l, idle.l) and np.array_equal(sol.f_uav, idle.f_uav)


def test_probe_and_solver_flag_starved_instance(ref2x6, ref2x6_traj):
    fields = {n: getattr(ref2x6, n) for n in ref2x6.__dataclass_fields__}
    starved = Scenario(**{**fields, "P_u": 1.0})
    assert np.any(probe_feasibility(starved, ref2x6_traj) < 0.0)
    with pytest.raises(InfeasibleTrajectoryError):
        solve_p2(starved, ref2x6_traj)


# --- set-up roots against the reference bisections -------------------------

_EPS = np.finfo(float).eps


@settings(max_examples=200)
@given(slots=st.lists(st.tuples(st.floats(-12.0, 12.0),
                                st.one_of(st.just(-np.inf), st.floats(-12.0, -4.35e-4))),
                      min_size=2, max_size=8))
def test_policy_split_matches_the_bisection(table2, slots):
    """One user's slots with room / A from 1e-12 to 1e12 (table2's gains)
    and harvest shares e / room of 0 (no harvest) or from 1e-12 to 0.999,
    both drawn on a log scale.  The Newton split agrees with the
    reference's 60 bisection rounds within 8 eps of x plus the bisection's
    bracket e 2^-61, and the policy's bits within 4 eps.  The bracket
    bounds the reference's own error where x is far below e; elsewhere
    each root is within about 4 eps of the exact one (the sign test rounds
    cbrt(x)^2, and x = y^3 triples y's rounding; 3.7 and 2.6 eps on table2
    against an 80-bit root), so the two can differ by more than 4 eps.
    The bits do not: their slope in x vanishes at an interior split."""
    c = _scaled(table2, straight_line_trajectory(table2))
    A = c.bl / np.log(2.0) * 3.0 * np.cbrt(c.c_f) / c.bits_f
    ratio, share = 10.0 ** np.array(slots).T
    room = A * ratio[None, :]
    e = share * room
    sp = SimpleNamespace(eharv=e, a_tx=room - e, bits_f=c.bits_f, c_f=c.c_f, bl=c.bl,
                         R=np.zeros(1))
    x = offload_solver._policy_split_scaled(sp)
    x_ref = references.policy_split(e, sp.a_tx, c.bits_f, c.c_f, c.bl)
    assert np.all(np.abs(x - x_ref) <= 8.0 * _EPS * x_ref + 2.0 ** -61 * e)
    bits = references.policy_bits(e, sp.a_tx, c.bits_f, c.c_f, c.bl) * 1e6
    assert np.all(np.abs(offload_solver._margins(sp) - bits) <= 4.0 * _EPS * bits)


@pytest.mark.parametrize("instance", ["straight-line", "semi-circle", "ref2x6"])
def test_probe_matches_the_bisection_policy(request, instance):
    """The benchmark's scenario generator sizes its demands with
    ``probe_feasibility`` on table2's physics and both baseline paths, so
    the probe is pinned to the reference bisection's margins within 4 eps
    of the deliverable bits on table2's two baseline paths and on
    ref2x6."""
    if instance == "ref2x6":
        s, traj = request.getfixturevalue("ref2x6"), request.getfixturevalue("ref2x6_traj")
    else:
        s = request.getfixturevalue("table2")
        traj = (straight_line_trajectory if instance == "straight-line"
                else semicircle_trajectory)(s)
    ref = references.policy_margins(s, traj)
    assert np.all(np.abs(probe_feasibility(s, traj) - ref) <= 4.0 * _EPS * (ref + s.R))


def _relaxed_min_energy(sp):
    """Least total energy [mJ] of the lone user of ``sp`` in the
    total-budget relaxation: its energy at the water level where local
    compute and TX cost the same per bit (60 geometric bisection rounds)."""
    a, N, rate = np.sort(sp.a_tx[0, : sp.N - 1]), sp.N, np.log(2.0) / sp.bl

    def schedule(omega):
        off = sp.bl * np.log2(np.maximum(omega / a, 1.0)).sum()
        f = max(sp.R[0] - off, 0.0) / (sp.bits_f * N)
        return 3.0 * sp.c_f * f ** 2 / sp.bits_f - omega * rate, \
            sp.c_f * N * f ** 3 + np.maximum(omega - a, 0.0).sum()

    lo = a[0]
    hi = max(lo, schedule(lo)[0] / rate + lo)
    for _ in range(60):
        omega = np.sqrt(lo * hi)
        lo, hi = (omega, hi) if schedule(omega)[0] > 0.0 else (lo, omega)
    return schedule(lo)[1]


# Near-double energy roots: table2's user alone on a path, with the RF feed
# scaled so that its total harvest exceeds the relaxation's least energy by
# the factor given; its energy root sits next to that minimum.
_DOUBLE_ROOTS = {"double-root": (2, semicircle_trajectory, 1.01),
                 "double-root-1e-4": (0, straight_line_trajectory, 1.0 + 1e-4)}


def _start_instance(request, name):
    if name.startswith("seed"):
        return _random_scenario(int(name[4:]))
    if name == "large15":
        return request.getfixturevalue("large15")
    if name in _DOUBLE_ROOTS:
        user, path, margin = _DOUBLE_ROOTS[name]
        t2 = request.getfixturevalue("table2")
        fields = {**{n: getattr(t2, n) for n in t2.__dataclass_fields__},
                  "K": 1, "user_pos": [t2.user_pos[user]], "R": [t2.R[user]]}
        traj = path(Scenario(**fields))
        sp = _scaled(Scenario(**fields), traj)
        scale = margin * _relaxed_min_energy(sp) / sp.cum_eharv[0, -1]
        return Scenario(**{**fields, "P_u": t2.P_u * scale}), traj
    path, T = name.split("@")
    s = request.getfixturevalue("table2").with_T(float(T))
    return s, (straight_line_trajectory if path == "straight-line"
               else semicircle_trajectory)(s)


@pytest.mark.parametrize("name", [f"seed{seed}" for seed in (11, 22, 33, 44, 55, 66, 77, 99)]
                         + [f"{path}@{T}" for path in ("straight-line", "semi-circle")
                            for T in ("2", "2.2", "2.4")]
                         + ["large15", *_DOUBLE_ROOTS])
def test_total_budget_start_matches_the_bisection(request, name):
    """The breakpoint pass and the Newton water levels give the reference
    bisection's packed start within 1e-12 relative, entry by entry, on
    every user of the instance (8.3e-14 at most when measured), also on a
    near-double root 1% above the least energy (2.2e-13 there).

    At 1e-4 above it, m_loc - m_tx is small, V = slack / (m_loc - m_tx) is
    ill-conditioned, and a float64 bisection is itself off by about
    1e-12; there the start is held to an 80-bit ``np.longdouble``
    bisection within 1e-10 (3.2e-11 when measured), where the platform
    has extended precision.  That instance is causally infeasible (the
    primal oracle's best point breaks energy causality by 19% of the
    harvest), so ``solve_p2`` refuses it with its typed error."""
    s, traj = _start_instance(request, name)
    sp = _scaled(s, traj)
    K, N = sp.K, sp.N
    if name in _DOUBLE_ROOTS:
        assert abs(sp.cum_eharv[0, -1] / _relaxed_min_energy(sp) - _DOUBLE_ROOTS[name][2]) <= 1e-9
    extended = name == "double-root-1e-4"
    if extended and np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        pytest.skip("np.longdouble is plain double on this platform")
    mu, V, slack = references.total_budget_prices(
        sp.a_tx[:, : N - 1], sp.cum_eharv[:, -1], sp.R, sp.bits_f, sp.c_f, sp.bl,
        **({"dtype": np.longdouble, "rounds": 80} if extended else {}))
    nu = np.zeros((K, N), mu.dtype)
    nu[:, N - 1] = V
    ref = _pack(mu, nu, np.zeros(N - 2, mu.dtype), slack)
    assert ref.dtype == (np.longdouble if extended else float)
    bound = 1e-10 if extended else 1e-12
    assert np.all(np.abs(_total_budget_start(sp) - ref) <= bound * np.abs(ref))
    if extended:
        with pytest.raises(InfeasibleTrajectoryError):
            solve_p2(s, traj)


def _with_point(traj, value):
    bad = np.array(traj, dtype=float)
    bad[2, 0] = value
    return bad


def _warm_with(sol, name, value):
    prices = {n: np.array(getattr(sol.duals, n)) for n in ("mu", "nu", "theta")}
    prices[name].flat[0] = value
    return DualState(**prices)


@pytest.mark.parametrize("case, message", [
    (lambda s, traj, sol: solve_p2(s, traj, warm=_warm_with(sol, "nu", np.nan)),
     "nu entries must be finite"),
    (lambda s, traj, sol: solve_p2(s, traj, warm=_warm_with(sol, "theta", np.inf)),
     "theta entries must be finite"),
    (lambda s, traj, sol: solve_p2(s, _with_point(traj, np.nan)), "trajectory entries"),
    (lambda s, traj, sol: solve_p2(s, _with_point(traj, np.inf)), "trajectory entries"),
    (lambda s, traj, sol: probe_feasibility(s, _with_point(traj, np.nan)), "trajectory entries"),
    (lambda s, traj, sol: run_algorithm1(s, init=_with_point(traj, np.nan)),
     "trajectory entries"),
], ids=["warm-nan-nu", "warm-inf-theta", "nan-point", "inf-point", "probe-nan-point",
        "planner-nan-start"])
def test_nonfinite_schedule_input_is_refused(ref2x6, ref2x6_traj, ref_solution, case, message):
    """A NaN or inf price or path point is refused at the boundary, not
    carried into a dual ascent that stalls on it or a margin that no sign
    test refuses."""
    with pytest.raises(ValueError, match=message):
        case(ref2x6, ref2x6_traj, ref_solution)


# --- solve_p2 ----------------------------------------------------------------

def test_zero_demand_is_free(ref2x6, ref2x6_traj):
    fields = {n: getattr(ref2x6, n) for n in ref2x6.__dataclass_fields__}
    idle = Scenario(**{**fields, "R": np.zeros(ref2x6.K)})
    sol = solve_p2(idle, ref2x6_traj)
    assert sol.objective == 0.0
    assert not sol.l.any() and not sol.f_uav.any()


def test_user_local_when_spending_as_harvested(ref2x6):
    """User 2 breaks early causality at its constant frequency, but spending
    each slot's harvest on local compute delivers its demand, and its taut
    string delivers more: it is presolved to the taut string scaled to
    exactly R, without offloading, and the other users' dual converges (it
    stalled near 1e-2 when such users were priced)."""
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
        return _lagrangian_value(s, ref2x6_traj, (lv, fv, fuv), d) * 1e3  # mJ

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
    g = _dual_value(ref2x6, ref2x6_traj, ref_solution.duals)
    assert g == pytest.approx(ref_solution.dual_objective, rel=1e-9)


# --- primal oracle -----------------------------------------------------------

def test_oracle_zero_demand(ref2x6, ref2x6_traj):
    fields = {n: getattr(ref2x6, n) for n in ref2x6.__dataclass_fields__}
    idle = Scenario(**{**fields, "R": np.zeros(ref2x6.K)})
    (l, f, fu), obj = primal_oracle_p2(idle, ref2x6_traj)
    assert obj == 0.0 and not l.any()


def test_oracle_stays_independent_of_the_solver():
    """The reference imports nothing from ``uavmec.offload_solver`` and no
    private name from the package, so a defect in the schedule solver's
    internals cannot also sit in the oracle that checks it."""
    names = []
    for node in ast.walk(ast.parse(Path(references.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names += [f"{node.module}.{alias.name}" for alias in node.names]
    uavmec = [name for name in names if name.split(".")[0] == "uavmec"]
    assert uavmec, "references.py no longer imports the model"
    for name in uavmec:
        parts = name.split(".")
        assert "offload_solver" not in parts and not any(p.startswith("_") for p in parts), name


def test_oracle_residuals_and_determinism(ref2x6, ref2x6_traj, ref_oracle):
    (l, f, fu), obj = ref_oracle
    sp = _scaled(ref2x6, ref2x6_traj)
    l = l / 1e6
    c1, c2, c3, c4 = sp.violations(l, f / 1e9, fu / 1e9,
                                   np.exp2(np.minimum(l, sp.l_cap) / sp.bl))
    resid = max(float(np.abs(c1).max()), float(np.max(c2, initial=0.0)),
                float(np.max(c3, initial=0.0)), abs(c4))
    assert resid <= 1e-8
    (_, _, _), obj2 = primal_oracle_p2(ref2x6, ref2x6_traj)
    assert abs(obj - obj2) <= 1e-9 * max(obj, 1e-12)


# --- randomized cross-validation ----------------------------------------------

def _random_scenario(seed: int, users=(1, 4), slots=(4, 9)):
    """Feasible-by-construction instance, K and N drawn from the half-open
    ranges ``users`` and ``slots`` (by default the oracle's size range)."""
    rng = np.random.default_rng(seed)
    K = int(rng.integers(*users))
    N = int(rng.integers(*slots))
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


@pytest.mark.parametrize("seed", [11, 22, 33, 44, 55, 66, 77, 99, 110, 121, 132, 154])
def test_random_scenarios_match_oracle(seed):
    s, traj = _random_scenario(seed)
    sol = solve_p2(s, traj)
    (_, _, _), oracle_obj = primal_oracle_p2(s, traj)
    assert sol.kkt.max() <= 1e-6
    assert abs(sol.objective - oracle_obj) <= 5e-3 * max(oracle_obj, 1e-12)


def test_weak_duality_at_random_prices(ref2x6, ref2x6_traj, ref_oracle):
    """The dual value is a lower bound on the optimum at any nonnegative
    price state, not just along the solver's own path, also where the last
    UAV price does not dominate the mid ones."""
    _, oracle_obj = ref_oracle
    rng = np.random.default_rng(3)
    K, N = ref2x6.K, ref2x6.N
    for i in range(50):
        theta = np.zeros(N)
        theta[1 : N - 1] = rng.uniform(0.0, 2e-7, N - 2)
        mid = theta[1 : N - 1].sum()
        # The last half leaves the last price below the mid prices' sum.
        theta[N - 1] = mid + rng.uniform(0.0, 5e-7) if i < 25 else rng.uniform(0.0, mid)
        d = DualState(mu=rng.uniform(0.0, 1e-6, K),
                      nu=rng.uniform(0.0, 300.0, (K, N)),
                      theta=theta)
        assert _dual_value(ref2x6, ref2x6_traj, d) <= oracle_obj + 1e-6
