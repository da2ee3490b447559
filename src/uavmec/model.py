"""Physical model of a UAV-carried wireless-powered edge-computing system.

A single rotary UAV flies a fixed-altitude mission of duration ``T`` over
``K`` ground users.  It radiates RF power continuously (the users harvest
it), receives offloaded computation bits over TDMA subslots, computes them
on board, and spends propulsion energy proportional to squared speed.

This module holds the scenario description, the candidate plan (offloaded
bits, CPU frequencies, trajectory), the per-slot energy formulas
(vectorized over users and slots), the full
feasibility checker for the joint planning problem, and the energy ledger
used as the planner objective.  Everything here is a pure function of its
inputs; :class:`Scenario` and :class:`Plan` are immutable after
construction.

Conventions
-----------
* positions are 2-D horizontal coordinates in meters, altitude is ``H``;
* slot ``n`` (0-based in code) occupies wall time ``T/N`` and uses the
  trajectory point ``traj[n]``; ``traj`` has ``N + 1`` points;
* each slot is split into ``K`` TDMA subslots of duration
  ``lam = T / (N K)``, one per user, so TX energy in a slot is
  ``lam * P_k``;
* users cannot offload in the last slot and the UAV cannot compute in the
  first one (the pipeline needs one slot of latency).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

__all__ = [
    "Scenario",
    "Plan",
    "EnergyLedger",
    "ConstraintReport",
    "ScenarioError",
    "DimensionError",
    "OffloadRangeError",
    "EXPONENT_CAP",
    "channel_gains",
    "harvest_increments",
    "tx_energy",
    "propulsion_profile",
    "evaluate_ledger",
    "check_constraints",
]

# Spectral-efficiency cap: loads above 64 bit/s/Hz would overflow the
# power formula long before they are physically meaningful.
EXPONENT_CAP = 64.0


class ScenarioError(ValueError):
    """A scenario field violates its physical range or an invariant."""


class DimensionError(ValueError):
    """Array shapes do not match the scenario dimensions."""


class OffloadRangeError(ValueError):
    """Offload load out of numeric range (spectral efficiency over cap)."""


def _as_array(x, shape, name: str) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.shape != shape:
        raise DimensionError(f"{name}: expected shape {shape}, got {a.shape}")
    a = a.copy()
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Scenario:
    """Full physical and timing description of one mission.

    Attributes
    ----------
    K         : number of ground users (>= 1)
    user_pos  : (K, 2) user coordinates [m]
    R         : (K,) total computation demand per user [bits]
    H         : UAV altitude [m]
    T         : mission duration [s]
    N         : number of time slots (>= 2)
    P_u       : UAV RF transmit power [W]
    eta       : energy conversion efficiency, 0 < eta <= 1
    B         : offload bandwidth [Hz]
    sigma2    : receiver noise power [W]
    Gamma     : capacity gap of the modulation/coding scheme (>= 1 typical)
    beta0     : reference channel power gain at 1 m [linear]
    M         : CPU cycles per bit
    gamma_c   : effective switched capacitance [J s^2 / cycle^3]
    W_mass    : UAV mass [kg]
    V_max     : maximum horizontal speed [m/s]
    q0, qF    : required initial / final horizontal positions [m]
    xi        : trajectory-refinement displacement tolerance
    xi1       : outer-loop energy tolerance [J]
    """

    K: int
    user_pos: np.ndarray
    R: np.ndarray
    H: float
    T: float
    N: int
    P_u: float
    eta: float
    B: float
    sigma2: float
    Gamma: float
    beta0: float
    M: float
    gamma_c: float
    W_mass: float
    V_max: float
    q0: np.ndarray
    qF: np.ndarray
    xi: float = 1e-4
    xi1: float = 1e-4

    def __post_init__(self):
        if int(self.K) != self.K or self.K < 1:
            raise ScenarioError(f"K must be a positive integer, got {self.K}")
        object.__setattr__(self, "K", int(self.K))
        if int(self.N) != self.N or self.N < 2:
            raise ScenarioError(f"N must be an integer >= 2, got {self.N}")
        object.__setattr__(self, "N", int(self.N))
        if np.ndim(self.R) == 1 and np.size(self.R) < self.K:
            # Name the user index when the demand list is short, the most common slip.
            raise DimensionError(f"R has {np.size(self.R)} entries but K={self.K}; "
                                 f"missing demand for user {np.size(self.R) + 1}")
        for name, shape in (("user_pos", (self.K, 2)), ("R", (self.K,)),
                            ("q0", (2,)), ("qF", (2,))):
            a = _as_array(getattr(self, name), shape, name)
            if not np.all(np.isfinite(a)):
                raise ScenarioError(f"{name} entries must be finite")
            object.__setattr__(self, name, a)
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and f.name != "eta" and not (0 < value < np.inf):
                raise ScenarioError(f"{f.name} must be positive and finite, got {value}")
        if not (0.0 < self.eta <= 1.0):
            raise ScenarioError(f"eta must lie in (0, 1], got {self.eta}")
        if np.any(self.R < 0):
            raise ScenarioError("R entries must be nonnegative")
        # The endpoint dash must be flyable at all; otherwise no trajectory
        # can satisfy both the speed cap and the endpoint pins.
        dash = float(np.linalg.norm(self.qF - self.q0)) / self.T
        if dash > self.V_max * (1 + 1e-12):
            raise ScenarioError(
                f"endpoints require average speed {dash:.3g} m/s > V_max={self.V_max}")

    # Derived timing quantities -------------------------------------------------

    @property
    def lam(self) -> float:
        """TDMA subslot duration T/(N K) [s]."""
        return self.T / (self.N * self.K)

    @property
    def slot(self) -> float:
        """Slot duration T/N [s]."""
        return self.T / self.N

    @property
    def kappa(self) -> float:
        """Propulsion coefficient 0.5 * W_mass * T / N [J s^2 / m^2]."""
        return 0.5 * self.W_mass * self.T / self.N

    def with_T(self, T: float) -> "Scenario":
        """Same mission with a different duration (lam/kappa re-derive)."""
        return replace(self, T=float(T))


# ---------------------------------------------------------------------------
# Per-slot physics
# ---------------------------------------------------------------------------

def channel_gains(s: Scenario, traj) -> np.ndarray:
    """(K, N) channel gains; slot n uses trajectory point n.  Every
    path-dependent quantity reads these, so a non-finite point is refused
    here (``ValueError``)."""
    traj = np.asarray(traj, dtype=float)
    if traj.shape[0] < s.N:
        raise DimensionError(f"trajectory has {traj.shape[0]} points, need >= {s.N}")
    if not np.all(np.isfinite(traj)):
        raise ValueError("trajectory entries must be finite")
    d2 = np.sum((traj[None, : s.N, :] - s.user_pos[:, None, :]) ** 2, axis=2)
    return s.beta0 / (s.H ** 2 + d2)


def harvest_increments(s: Scenario, gains: np.ndarray) -> np.ndarray:
    """Per-slot harvested energy (T/N) * eta * h * P_u [J] for channel ``gains`` h."""
    return s.slot * s.eta * s.P_u * gains


def tx_energy(s: Scenario, gains: np.ndarray, l: np.ndarray) -> np.ndarray:
    """Vectorized per-slot TX energy lam * P_k for a (K, N) load matrix [J]."""
    ratio = np.asarray(l, dtype=float) / (s.B * s.lam)
    if np.any(ratio > EXPONENT_CAP):
        raise OffloadRangeError("offload load out of numeric range")
    return s.lam * s.Gamma * s.sigma2 * (np.exp2(ratio) - 1.0) / gains


def propulsion_profile(s: Scenario, traj) -> np.ndarray:
    """(N,) per-slot propulsion energies along a trajectory [J]."""
    traj = np.asarray(traj, dtype=float)
    if traj.shape != (s.N + 1, 2):
        raise DimensionError(f"trajectory: expected {(s.N + 1, 2)}, got {traj.shape}")
    seg = np.linalg.norm(np.diff(traj, axis=0), axis=1)
    return s.kappa * (seg / s.slot) ** 2


# ---------------------------------------------------------------------------
# Plan and ledger
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Plan:
    """One candidate joint decision: trajectory, loads and CPU schedules.

    traj   : (N+1, 2) UAV horizontal positions [m]
    l      : (K, N) offloaded bits per user and slot (last column zero)
    f_user : (K, N) user CPU frequencies [cycles/s]
    f_uav  : (N,) UAV CPU frequencies [cycles/s] (first entry zero)
    """

    traj: np.ndarray
    l: np.ndarray
    f_user: np.ndarray
    f_uav: np.ndarray

    def __post_init__(self):
        traj = np.asarray(self.traj, dtype=float)
        if traj.ndim != 2 or traj.shape[1] != 2 or traj.shape[0] < 3:
            raise DimensionError(f"traj: expected (N+1, 2) with N >= 2, got {traj.shape}")
        n = traj.shape[0] - 1
        object.__setattr__(self, "traj", _as_array(traj, (n + 1, 2), "traj"))
        k = np.asarray(self.l, dtype=float).shape[0]
        object.__setattr__(self, "l", _as_array(self.l, (k, n), "l"))
        object.__setattr__(self, "f_user", _as_array(self.f_user, (k, n), "f_user"))
        object.__setattr__(self, "f_uav", _as_array(self.f_uav, (n,), "f_uav"))

    @property
    def K(self) -> int:
        return self.l.shape[0]

    @property
    def N(self) -> int:
        return self.l.shape[1]

    def validate_shapes(self, s: Scenario) -> None:
        if (self.K, self.N) != (s.K, s.N):
            raise DimensionError(
                f"plan is {self.K} users x {self.N} slots, scenario wants {s.K} x {s.N}")


@dataclass(frozen=True)
class EnergyLedger:
    """Per-slot, per-party energy accounting for one plan [J].

    harvested   : (K, N) per-slot harvested increments
    local       : (K, N) user compute energy
    tx          : (K, N) user TX energy (lam * P_k)
    uav_compute : (N,) UAV compute energy (first entry zero)
    propulsion  : (N,) per-slot propulsion energy
    uav_total   : scalar planner objective:
                  sum(propulsion) + T * P_u + sum(uav_compute)
    """

    harvested: np.ndarray
    local: np.ndarray
    tx: np.ndarray
    uav_compute: np.ndarray
    propulsion: np.ndarray
    uav_total: float


def evaluate_ledger(s: Scenario, p: Plan) -> EnergyLedger:
    """Price every energy flow of a plan and total the UAV side."""
    p.validate_shapes(s)
    gains = channel_gains(s, p.traj)
    harvested = harvest_increments(s, gains)
    local = s.gamma_c * s.slot * p.f_user ** 3
    tx = tx_energy(s, gains, p.l)
    uav_compute = s.gamma_c * s.slot * p.f_uav ** 3
    propulsion = propulsion_profile(s, p.traj)
    total = float(np.sum(propulsion) + s.T * s.P_u + np.sum(uav_compute[1:]))
    return EnergyLedger(harvested=harvested, local=local, tx=tx,
                        uav_compute=uav_compute, propulsion=propulsion,
                        uav_total=total)


# ---------------------------------------------------------------------------
# Constraint checker
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstraintCheck:
    """Worst absolute violation of one constraint family and its scale."""

    violation: float
    scale: float

    @property
    def relative(self) -> float:
        return self.violation / self.scale if self.scale > 0 else self.violation

    def ok(self, tol: float) -> bool:
        return self.relative <= tol


@dataclass(frozen=True)
class ConstraintReport:
    """Worst violations of the eight joint-planning constraint families.

    demand        : per-user bit balance (equality, scaled by R_k)
    energy_causal : user prefix spending vs prefix harvest (scaled by the
                    user's total harvest)
    uav_causal    : UAV compute prefix vs offloaded prefix (bits, scaled by
                    total demand)
    uav_balance   : total UAV compute vs total offloaded bits (equality)
    pipeline      : last-slot offload and first-slot UAV compute pins
    speed         : per-slot speed vs V_max
    endpoints     : initial/final position pins
    signs         : nonnegativity of l, f_user, f_uav
    """

    demand: ConstraintCheck
    energy_causal: ConstraintCheck
    uav_causal: ConstraintCheck
    uav_balance: ConstraintCheck
    pipeline: ConstraintCheck
    speed: ConstraintCheck
    endpoints: ConstraintCheck
    signs: ConstraintCheck

    def entries(self) -> dict[str, ConstraintCheck]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def feasible(self, tol: float = 1e-6) -> bool:
        return all(c.ok(tol) for c in self.entries().values())

    def worst(self) -> tuple[str, float]:
        name = max(self.entries(), key=lambda k: self.entries()[k].relative)
        return name, self.entries()[name].relative

    def summary(self) -> str:
        lines = []
        for name, c in self.entries().items():
            lines.append(f"{name:14s} worst {c.violation:.3e} (rel {c.relative:.3e})")
        return "\n".join(lines)


def check_constraints(s: Scenario, p: Plan) -> ConstraintReport:
    """Measure the worst violation of every constraint family for a plan.

    Equality constraints report absolute residuals; inequalities report
    only the violating side (negative slack clamped at zero).  Each family
    carries a natural scale so callers can apply a single relative
    tolerance across mixed units.
    """
    led = evaluate_ledger(s, p)

    # Per-user bit balance: local bits over all N slots plus offloaded bits
    # over the first N-1 slots must equal the demand exactly.
    local_bits = s.slot * np.sum(p.f_user, axis=1) / s.M
    off_bits = np.sum(p.l[:, : s.N - 1], axis=1)
    demand_res = np.abs(local_bits + off_bits - s.R)
    demand = ConstraintCheck(float(np.max(demand_res)),
                             float(np.max(np.maximum(s.R, 1.0))))

    # Energy causality: cumulative spending can never exceed cumulative
    # harvest, for every user and every prefix.
    spend_prefix = np.cumsum(led.local + led.tx, axis=1)
    harv_prefix = np.cumsum(led.harvested, axis=1)
    gap = spend_prefix - harv_prefix
    energy_causal = ConstraintCheck(float(np.max(np.maximum(gap, 0.0))),
                                    float(np.max(harv_prefix[:, -1])))

    # UAV compute causality: bits computed through slot n are bounded by
    # bits offloaded through slot n-1, for n = 1..N-1 (equality at N below).
    uav_bits_prefix = np.cumsum(s.slot * p.f_uav / s.M)
    off_prefix = np.concatenate([[0.0], np.cumsum(np.sum(p.l, axis=0))])
    causal_gap = uav_bits_prefix[: s.N - 1] - off_prefix[: s.N - 1]
    bit_scale = float(max(np.sum(s.R), 1.0))
    uav_causal = ConstraintCheck(float(np.max(np.maximum(causal_gap, 0.0), initial=0.0)),
                                 bit_scale)

    # Total balance: the UAV must compute exactly what was offloaded.
    balance_res = abs(float(uav_bits_prefix[-1] - off_prefix[s.N - 1]))
    uav_balance = ConstraintCheck(balance_res, bit_scale)

    # Pipeline pins: no offload in the last slot, no UAV compute in the first.
    f_scale = float(max(np.max(p.f_uav), np.max(p.f_user), 1.0))
    pipeline_rel = max(float(np.max(np.abs(p.l[:, -1]))) / bit_scale,
                       abs(float(p.f_uav[0])) / f_scale)
    pipeline = ConstraintCheck(pipeline_rel, 1.0)

    # Speed cap per slot.
    seg_speed = np.linalg.norm(np.diff(p.traj, axis=0), axis=1) / s.slot
    speed = ConstraintCheck(float(np.max(np.maximum(seg_speed - s.V_max, 0.0))),
                            s.V_max)

    # Endpoint pins.
    end_res = max(float(np.linalg.norm(p.traj[0] - s.q0)),
                  float(np.linalg.norm(p.traj[-1] - s.qF)))
    endpoints = ConstraintCheck(end_res,
                                float(max(np.linalg.norm(s.qF - s.q0), 1.0)))

    # Sign constraints.
    neg_bits = float(max(0.0, -np.min(p.l, initial=0.0)))
    neg_f = float(max(0.0, -min(np.min(p.f_user, initial=0.0),
                                np.min(p.f_uav, initial=0.0))))
    signs = ConstraintCheck(max(neg_bits / bit_scale, neg_f / f_scale), 1.0)

    return ConstraintReport(demand=demand, energy_causal=energy_causal,
                            uav_causal=uav_causal, uav_balance=uav_balance,
                            pipeline=pipeline, speed=speed,
                            endpoints=endpoints, signs=signs)
