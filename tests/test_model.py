import numpy as np
import pytest
from hypothesis import given, strategies as st

from uavmec.model import (
    Scenario,
    Plan,
    ScenarioError,
    DimensionError,
    OffloadRangeError,
    propulsion_profile,
    evaluate_ledger,
    check_constraints,
)
from uavmec.planner import straight_line_trajectory

from references import (
    channel_gain,
    harvested_energy_prefix,
    offload_tx_power,
    compute_energy,
    propulsion_energy,
    zero_plan,
)


def test_derived_timing(table2):
    assert table2.lam == pytest.approx(0.01)
    assert table2.slot == pytest.approx(0.04)
    assert table2.kappa == pytest.approx(0.193)


def test_scenario_rejects_unreachable_endpoints(table2):
    with pytest.raises(ScenarioError):
        Scenario(**{**_fields(table2), "T": 0.5})  # 10 m in 0.5 s > 10 m/s


def test_scenario_rejects_bad_eta(table2):
    with pytest.raises(ScenarioError):
        Scenario(**{**_fields(table2), "eta": 1.5})


def _fields(s: Scenario) -> dict:
    return {name: getattr(s, name) for name in s.__dataclass_fields__}


# --- channel gain -----------------------------------------------------------

def test_gain_directly_overhead(table2):
    # altitude 10 m, unit-distance gain 1e-5: 1e-5 / 100
    assert channel_gain(table2, [0.0, 0.0], 0) == pytest.approx(1e-7)


def test_gain_corner_user(table2):
    # horizontal offset 10*sqrt(2): 1e-5 / (100 + 200)
    assert channel_gain(table2, [0.0, 0.0], 2) == pytest.approx(1e-5 / 300)


def test_gain_decreases_with_distance(table2):
    assert channel_gain(table2, [0.0, 0.0], 0) > channel_gain(table2, [10.0, 0.0], 0)


@given(angle=st.floats(0.0, 2 * np.pi), radius=st.floats(0.0, 30.0))
def test_gain_rotation_invariant(angle, radius):
    s = Scenario(K=1, N=2, T=1.0, H=10.0, user_pos=[[3.0, 4.0]], R=[1e6],
                 P_u=1e5, eta=0.8, B=4e7, sigma2=1e-9, Gamma=1.0, beta0=1e-5,
                 M=1e3, gamma_c=1e-28, W_mass=9.65, V_max=10.0,
                 q0=[3.0, 4.0], qF=[3.0, 4.0])
    base = s.user_pos[0] + np.array([radius, 0.0])
    rotated = s.user_pos[0] + radius * np.array([np.cos(angle), np.sin(angle)])
    assert channel_gain(s, rotated, 0) == pytest.approx(channel_gain(s, base, 0),
                                                        rel=1e-12)


# --- harvesting -------------------------------------------------------------

def test_harvest_zero_power(table2):
    s = Scenario(**{**_fields(table2), "P_u": 1e-300})
    traj = straight_line_trajectory(s)
    assert harvested_energy_prefix(s, traj, 0, s.N) == pytest.approx(0.0, abs=1e-290)


def test_harvest_single_slot_hover():
    s = Scenario(K=1, N=2, T=0.08, H=10.0, user_pos=[[0.0, 0.0]], R=[1e6],
                 P_u=10.0, eta=0.8, B=4e7, sigma2=1e-9, Gamma=1.0, beta0=1e-5,
                 M=1e3, gamma_c=1e-28, W_mass=9.65, V_max=10.0,
                 q0=[0.0, 0.0], qF=[0.0, 0.0])
    # slot 0.04 s, gain 1e-7 overhead, 10 W at 80% conversion
    traj = np.zeros((3, 2))
    assert harvested_energy_prefix(s, traj, 0, 1) == pytest.approx(3.2e-8)


def test_harvest_prefix_sum_identity(table2):
    traj = straight_line_trajectory(table2)
    for k in range(table2.K):
        p1 = harvested_energy_prefix(table2, traj, k, 1)
        p2 = harvested_energy_prefix(table2, traj, k, 2)
        single = table2.slot * table2.eta * table2.P_u * channel_gain(table2, traj[1], k)
        assert p2 - p1 == pytest.approx(single, rel=1e-12)


def test_harvest_nondecreasing(table2):
    traj = straight_line_trajectory(table2)
    prefs = [harvested_energy_prefix(table2, traj, 1, n) for n in range(1, table2.N + 1)]
    assert np.all(np.diff(prefs) >= 0.0)


# --- offload TX power -------------------------------------------------------

def test_tx_power_zero_bits(table2):
    assert offload_tx_power(table2, 1e-7, 0.0) == 0.0


def test_tx_power_one_bit_per_hz(table2):
    load = table2.B * table2.lam
    assert offload_tx_power(table2, 1e-7, load) == pytest.approx(0.01)


def test_tx_power_convexity_spot(table2):
    load = table2.B * table2.lam
    assert offload_tx_power(table2, 1e-7, 2 * load) == pytest.approx(0.03)


def test_tx_power_exponent_cap(table2):
    with pytest.raises(OffloadRangeError):
        offload_tx_power(table2, 1e-7, 65.0 * table2.B * table2.lam)


@given(l1=st.floats(0.0, 2e6), l2=st.floats(0.0, 2e6), t=st.floats(0.01, 0.99))
def test_tx_power_convex_combination(table2, l1, l2, t):
    gain = 5e-8
    lhs = offload_tx_power(table2, gain, t * l1 + (1 - t) * l2)
    rhs = (t * offload_tx_power(table2, gain, l1)
           + (1 - t) * offload_tx_power(table2, gain, l2))
    assert lhs <= rhs * (1 + 1e-12) + 1e-30


# --- compute energy ---------------------------------------------------------

def test_compute_energy_zero(table2):
    assert compute_energy(table2, 0.0) == 0.0


def test_compute_energy_reference_point(table2):
    # 1e-28 * 0.04 s * (1e9)^3
    assert compute_energy(table2, 1e9) == pytest.approx(4e-3)


@given(f=st.floats(1e3, 1e10))
def test_compute_energy_cubic_scaling(table2, f):
    assert compute_energy(table2, 2 * f) == pytest.approx(8 * compute_energy(table2, f),
                                                          rel=1e-12)


# --- propulsion -------------------------------------------------------------

def test_propulsion_stationary(table2):
    assert propulsion_energy(table2, [1.0, 2.0], [1.0, 2.0]) == 0.0


def test_propulsion_straight_line_slot(table2):
    # 0.2 m per 0.04 s slot at kappa = 0.193
    assert propulsion_energy(table2, [0.0, 0.0], [0.2, 0.0]) == pytest.approx(4.825)


def test_propulsion_straight_line_total(table2):
    traj = straight_line_trajectory(table2)
    assert float(np.sum(propulsion_profile(table2, traj))) == pytest.approx(241.25)


# --- ledger -----------------------------------------------------------------

def test_ledger_stationary_uav_is_wpt_only(table2):
    s = Scenario(**{**_fields(table2), "qF": np.array([0.0, 0.0])})
    plan = zero_plan(s, np.tile(s.q0, (s.N + 1, 1)))
    led = evaluate_ledger(s, plan)
    assert led.uav_total == pytest.approx(s.T * s.P_u)


def test_ledger_straight_line_zero_compute(table2):
    plan = zero_plan(table2)
    led = evaluate_ledger(table2, plan)
    assert led.uav_total == pytest.approx(241.25 + 2.0 * table2.P_u)


def test_ledger_matches_independent_total(table2):
    rng = np.random.default_rng(7)
    traj = straight_line_trajectory(table2)
    plan = Plan(traj=traj,
                l=rng.uniform(0, 1e4, (table2.K, table2.N)),
                f_user=rng.uniform(0, 1e8, (table2.K, table2.N)),
                f_uav=rng.uniform(0, 1e9, table2.N))
    led = evaluate_ledger(table2, plan)
    # independent re-evaluation, term by term through the scalar helpers
    total = table2.T * table2.P_u
    for n in range(table2.N):
        total += propulsion_energy(table2, traj[n], traj[n + 1])
    for n in range(1, table2.N):
        total += compute_energy(table2, plan.f_uav[n])
    assert led.uav_total == pytest.approx(total, rel=1e-12)


def test_ledger_user_permutation_invariance(table2):
    rng = np.random.default_rng(3)
    traj = straight_line_trajectory(table2)
    l = rng.uniform(0, 1e4, (table2.K, table2.N))
    f = rng.uniform(0, 1e8, (table2.K, table2.N))
    fu = rng.uniform(0, 1e9, table2.N)
    led = evaluate_ledger(table2, Plan(traj=traj, l=l, f_user=f, f_uav=fu))
    perm = np.array([2, 0, 3, 1])
    s_perm = Scenario(**{**_fields(table2),
                         "user_pos": table2.user_pos[perm],
                         "R": table2.R[perm]})
    led_perm = evaluate_ledger(s_perm, Plan(traj=traj, l=l[perm], f_user=f[perm],
                                            f_uav=fu))
    assert led_perm.uav_total == pytest.approx(led.uav_total, rel=1e-14)
    assert np.allclose(led_perm.harvested, led.harvested[perm])


# --- constraint checker -----------------------------------------------------

def test_zero_plan_violates_demand_by_R(table2):
    rep = check_constraints(table2, zero_plan(table2))
    assert rep.demand.violation == pytest.approx(float(np.max(table2.R)))
    assert not rep.feasible(1e-6)


def test_shifted_start_violates_endpoints(table2):
    plan = zero_plan(table2)
    traj = plan.traj.copy()
    traj[0] += np.array([0.5, 0.0])
    rep = check_constraints(table2, Plan(traj=traj, l=plan.l,
                                         f_user=plan.f_user, f_uav=plan.f_uav))
    assert rep.endpoints.violation == pytest.approx(0.5)


def test_speeding_plan_flagged(table2):
    plan = zero_plan(table2)
    traj = plan.traj.copy()
    traj[10] += np.array([0.0, 1.0])  # detour spike: speed way over cap
    rep = check_constraints(table2, Plan(traj=traj, l=plan.l,
                                         f_user=plan.f_user, f_uav=plan.f_uav))
    assert rep.speed.violation > 0.0


def test_dimension_mismatch_raises(table2, ref2x6):
    with pytest.raises(DimensionError):
        check_constraints(table2, zero_plan(ref2x6))


@given(cut=st.floats(0.1, 1.0), slot=st.integers(0, 5), user=st.integers(0, 1))
def test_causality_preserved_under_reduction(ref2x6, cut, slot, user):
    """Scaling down early spending can only relax the causality prefixes."""
    s = ref2x6
    rng = np.random.default_rng(11)
    traj = straight_line_trajectory(s)
    l = rng.uniform(0, 5e4, (s.K, s.N))
    l[:, -1] = 0.0
    f = rng.uniform(0, 2e8, (s.K, s.N))
    base = Plan(traj=traj, l=l, f_user=f, f_uav=np.zeros(s.N))
    gaps_before = _causality_gaps(s, base)
    l2 = l.copy()
    f2 = f.copy()
    l2[user, slot] *= cut
    f2[user, slot] *= cut
    reduced = Plan(traj=traj, l=l2, f_user=f2, f_uav=np.zeros(s.N))
    gaps_after = _causality_gaps(s, reduced)
    assert np.all(gaps_after <= gaps_before + 1e-15)


def _causality_gaps(s, plan):
    from uavmec.model import channel_gains, harvest_increments, tx_energy
    gains = channel_gains(s, plan.traj)
    spend = s.gamma_c * s.slot * plan.f_user ** 3 + tx_energy(s, gains, plan.l)
    return np.cumsum(spend, axis=1) - np.cumsum(harvest_increments(s, plan.traj), axis=1)
