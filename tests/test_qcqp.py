import numpy as np
import pytest
from hypothesis import given, strategies as st

from uavmec import qcqp


def _random_instance(rng, dim, m):
    """Convex instance with a fat interior around the origin."""
    a0 = rng.normal(size=(dim, dim))
    q0 = a0 @ a0.T + 0.5 * np.eye(dim)
    c0 = rng.normal(size=dim)
    ineq = []
    for _ in range(m):
        a = rng.normal(size=(dim, dim))
        q = a @ a.T + 0.1 * np.eye(dim)
        c = 0.3 * rng.normal(size=dim)
        d = -(1.0 + rng.uniform(0.0, 2.0))
        ineq.append((q, c, d))
    return qcqp.QcqpProblem.from_dense(dim=dim, objective=(q0, c0, 0.0), ineq=ineq)


def grid_refinement_minimum(p: qcqp.QcqpProblem, half_width: float,
                            pts: int = 9, levels: int = 70) -> float:
    """Brute-force zooming grid search over the feasible box.

    Independent of the interior-point path: evaluates the objective on a
    dense grid, keeps the best feasible point and shrinks the box to 1.5
    cells around it (the margin keeps boundary optima inside the next
    level).  Convex objective over a fat feasible set, so the zoom
    converges.
    """
    lo = np.full(p.dim, -half_width)
    hi = np.full(p.dim, half_width)
    best_x = None
    ineq = p.ineq                     # a dense view, built on each read
    q0, c0, d0 = p.objective
    for _ in range(levels):
        axes = [np.linspace(lo[d], hi[d], pts) for d in range(p.dim)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, p.dim)
        feas = np.ones(grid.shape[0], dtype=bool)
        for q, c, d in ineq:
            vals = 0.5 * np.einsum("ij,ij->i", grid @ q, grid) + grid @ c + d
            feas &= vals <= 1e-12
        if not feas.any():
            lo *= 1.5
            hi *= 1.5
            continue
        obj = 0.5 * np.einsum("ij,ij->i", grid @ q0, grid) + grid @ c0 + d0
        obj[~feas] = np.inf
        best = int(np.argmin(obj))
        best_x = grid[best]
        cell = (hi - lo) / (pts - 1)
        lo = best_x - 1.5 * cell
        hi = best_x + 1.5 * cell
    return p.objective_value(best_x)


# --- analytic toys ----------------------------------------------------------

def test_halfspace_toy():
    # minimize x1^2 + x2^2 subject to x1 >= 1
    p = qcqp.QcqpProblem.from_dense(dim=2, objective=(2 * np.eye(2), np.zeros(2), 0.0),
                                    ineq=[(np.zeros((2, 2)), np.array([-1.0, 0.0]), 1.0)])
    sol = qcqp.solve(p)
    assert sol.status == "optimal"
    assert sol.x == pytest.approx([1.0, 0.0], abs=1e-8)
    assert sol.objective == pytest.approx(1.0, abs=1e-8)
    assert sol.lambdas[0] == pytest.approx(2.0, abs=1e-7)


def test_unconstrained_quadratic():
    # gradient zero at the all-ones point
    p = qcqp.QcqpProblem.from_dense(dim=3, objective=(np.eye(3), -np.ones(3), 0.0))
    sol = qcqp.solve(p)
    assert sol.x == pytest.approx(np.ones(3), abs=1e-10)


def test_projection_onto_ball():
    # closest point in the unit ball to (2, 0)
    p = qcqp.QcqpProblem.from_dense(dim=2, objective=(np.eye(2), np.array([-2.0, 0.0]), 2.0),
                                    ineq=[(2 * np.eye(2), np.zeros(2), -1.0)])
    sol = qcqp.solve(p)
    assert sol.x == pytest.approx([1.0, 0.0], abs=1e-8)
    assert sol.kkt.max() < 1e-8


def test_infeasible_pair_raises():
    p = qcqp.QcqpProblem.from_dense(dim=1, objective=(np.eye(1), np.zeros(1), 0.0),
                                    ineq=[(np.zeros((1, 1)), np.array([-1.0]), 1.0),
                                          (np.zeros((1, 1)), np.array([1.0]), 0.0)])
    with pytest.raises(qcqp.QcqpInfeasibleError):
        qcqp.solve(p)


def test_non_psd_rejected():
    with pytest.raises(ValueError):
        qcqp.QcqpProblem.from_dense(dim=2, objective=(np.diag([1.0, -1.0]), np.zeros(2), 0.0))


def _embedded_row(block, dim=6, at=(1, 4)):
    q = np.zeros((dim, dim))
    q[np.ix_(at, at)] = block
    return (q, np.zeros(dim), -1.0)


def test_non_psd_block_in_zero_matrix_rejected():
    # the support check sees only the 2x2 block; its -1 eigenvalue must still
    # reject the row, as the full matrix's would
    objective = (np.eye(6), np.zeros(6), 0.0)
    for block in ([[1.0, 2.0], [2.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]):
        with pytest.raises(ValueError, match="positive semidefinite"):
            qcqp.QcqpProblem.from_dense(dim=6, objective=objective,
                                        ineq=[_embedded_row(np.array(block))])
    with pytest.raises(ValueError, match="not symmetric"):
        qcqp.QcqpProblem.from_dense(dim=6, objective=objective,
                                    ineq=[_embedded_row(np.array([[1.0, 0.5], [-0.5, 1.0]]))])
    # the PSD two-point block w * (x1 - x4)^2 passes
    qcqp.QcqpProblem.from_dense(dim=6, objective=objective,
                                ineq=[_embedded_row(np.array([[2.0, -2.0], [-2.0, 2.0]]))])


def _triplet_problem(row, j, k, val, dim=3, m=2):
    rows = qcqp.Rows(dim, row, j, k, val, np.zeros((m, dim)), -np.ones(m))
    return qcqp.QcqpProblem(objective=(np.eye(dim), np.zeros(dim), 0.0), rows=rows)


def test_triplet_rows_validated():
    # two-point row 1: (x0 - x2)^2, with its mirror entries
    p = _triplet_problem([1, 1, 1, 1], [0, 0, 2, 2], [0, 2, 0, 2], [2.0, -2.0, -2.0, 2.0])
    assert p.m == 2
    assert np.array_equal(p.ineq[1][0], [[2.0, 0.0, -2.0], [0.0, 0.0, 0.0], [-2.0, 0.0, 2.0]])
    assert not p.ineq[0][0].any()
    # duplicate triplets add up
    q = _triplet_problem([0, 0], [1, 1], [1, 1], [1.0, 0.5]).ineq[0][0]
    assert q[1, 1] == 1.5
    with pytest.raises(ValueError, match="out of range"):
        _triplet_problem([0], [3], [3], [1.0])
    with pytest.raises(ValueError, match="out of range"):
        _triplet_problem([2], [0], [0], [1.0])
    with pytest.raises(ValueError, match=r"ineq\[1\]: matrix is not symmetric"):
        _triplet_problem([1, 1, 1], [0, 0, 2], [0, 2, 2], [2.0, -2.0, 2.0])
    with pytest.raises(ValueError, match=r"ineq\[0\]: matrix is not positive semidefinite"):
        _triplet_problem([0, 0, 0, 0], [0, 0, 2, 2], [0, 2, 0, 2], [1.0, 2.0, 2.0, 1.0])
    with pytest.raises(ValueError, match=r"ineq\[1\]: matrix is not positive semidefinite"):
        _triplet_problem([1, 1], [0, 2], [0, 2], [1.0, -1.0])
    with pytest.raises(ValueError, match="one length"):
        _triplet_problem([0, 0], [0], [0], [1.0])


# --- phase 1 ----------------------------------------------------------------

def test_phase1_infeasible_pair_margin():
    p = qcqp.QcqpProblem.from_dense(dim=1, objective=(np.eye(1), np.zeros(1), 0.0),
                                    ineq=[(np.zeros((1, 1)), np.array([-1.0]), 1.0),
                                          (np.zeros((1, 1)), np.array([1.0]), 0.0)])
    x, margin, status = qcqp.phase1(p)
    assert status == "infeasible"
    assert margin == pytest.approx(-0.5, abs=1e-6)


def test_phase1_ball_interior():
    p = qcqp.QcqpProblem.from_dense(dim=2, objective=(np.eye(2), np.zeros(2), 0.0),
                                    ineq=[(2 * np.eye(2), np.zeros(2), -1.0)])
    x, margin, status = qcqp.phase1(p, x_hint=np.array([3.0, -4.0]))
    assert status == "feasible"
    assert float(np.linalg.norm(x)) < 1.0


def test_phase1_margin_stops_at_cap():
    # the ball ||x||^2 <= 4 allows a margin of 4; the lifted cap row holds
    # the certificate at s_cap
    p = qcqp.QcqpProblem.from_dense(dim=2, objective=(np.eye(2), np.zeros(2), 0.0),
                                    ineq=[(2 * np.eye(2), np.zeros(2), -4.0)])
    x, margin, status = qcqp.phase1(p, x_hint=np.array([3.0, 0.0]))
    assert status == "feasible"
    assert margin == pytest.approx(1.0, abs=1e-6)


# --- randomized vs grid oracle ----------------------------------------------

@pytest.mark.parametrize("seed,dim,m", [(0, 2, 3), (1, 3, 4), (2, 4, 5),
                                        (3, 2, 5), (4, 3, 2), (5, 4, 3)])
def test_random_instances_match_grid_oracle(seed, dim, m):
    rng = np.random.default_rng(seed)
    p = _random_instance(rng, dim, m)
    sol = qcqp.solve(p)
    assert sol.status == "optimal"
    hw = 4.0 * (1.0 + float(np.abs(sol.x).max()))
    oracle = grid_refinement_minimum(p, hw)
    scale = max(abs(oracle), 1.0)
    assert abs(sol.objective - oracle) <= 1e-4 * scale


# --- solver-internal invariants ---------------------------------------------

def test_kkt_checker_agrees_with_solver_report():
    rng = np.random.default_rng(12)
    p = _random_instance(rng, 4, 4)
    sol = qcqp.solve(p)
    check = qcqp.kkt_residuals(p, sol.x, sol.lambdas)
    assert abs(check.stationarity - sol.kkt.stationarity) <= 1e-10
    assert abs(check.primal - sol.kkt.primal) <= 1e-10
    assert abs(check.dual - sol.kkt.dual) <= 1e-10
    assert abs(check.complementarity - sol.kkt.complementarity) <= 1e-10


def test_nonfinite_multiplier_is_not_optimal(monkeypatch):
    """A NaN multiplier makes the KKT report NaN, and NaN is not within the
    optimality bound, so ``solve`` must not report the point optimal."""
    assert np.isnan(qcqp.KktReport(0.0, 0.0, np.nan, 0.0).max())
    p = qcqp.QcqpProblem.from_dense(1, (np.zeros((1, 1)), np.array([-1.0]), 0.0),
                                    [(np.zeros((1, 1)), np.array([1.0]), -1.0)])

    def nan_barrier(p, x0):
        return np.array([0.5]), np.array([np.nan]), "optimal", 0.0, [(1e9, -0.5, 0.0)]

    monkeypatch.setattr(qcqp, "_barrier", nan_barrier)
    sol = qcqp.solve(p)
    assert np.isnan(sol.kkt.max())
    assert sol.status == "max-iter"


def test_polish_clips_weakly_active_multiplier(monkeypatch):
    """A row within the active tolerance that is slack at the optimum takes
    a negative multiplier in the active-set polish.  The polished point,
    judged with that multiplier clipped at zero, still beats a poorly
    centered barrier point, so the solve ends optimal within delta of the
    true optimum (1 - delta, 0)."""
    delta = 1e-5
    p = qcqp.QcqpProblem.from_dense(
        2, (np.eye(2), np.array([delta - 1.0, 0.0]), 0.0),
        [(np.zeros((2, 2)), np.array([1.0, 0.0]), -1.0),
         (np.zeros((2, 2)), np.array([0.0, 1.0]), -1.0)])

    def off_center(p, x0):
        x = np.array([1.0 - 1e-6, 1e-2])
        return x, np.array([1e-3, 1e-9]), "optimal", 0.0, [(1e9, p.objective_value(x), 0.0)]

    monkeypatch.setattr(qcqp, "_barrier", off_center)
    sol = qcqp.solve(p)
    assert sol.status == "optimal"
    assert sol.kkt.stationarity == pytest.approx(delta, rel=1e-6)
    assert np.all(sol.lambdas >= 0.0)
    assert p.objective_value(sol.x) <= p.objective_value([1.0 - delta, 0.0]) + delta ** 2


def test_outer_objective_monotone_and_gap_bound():
    rng = np.random.default_rng(21)
    p = _random_instance(rng, 5, 4)
    sol = qcqp.solve(p)
    objs = [row[1] for row in sol.trace]
    assert all(b <= a + 1e-9 * max(1.0, abs(a)) for a, b in zip(objs, objs[1:]))
    for t, _, gap in sol.trace:
        assert gap <= p.m / t * (1.0 + 1e-6)


# --- structured constraint rows vs a dense reference ------------------------

@st.composite
def mixed_row_problems(draw):
    """Random convex problems mixing diagonal, two-point and dense PSD rows,
    with a point x strictly inside every row and a direction dx."""
    dim = draw(st.integers(2, 7))
    kinds = draw(st.lists(st.sampled_from(["diagonal", "two-point", "dense"]),
                          min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.normal(size=dim)
    ineq = []
    for kind in kinds:
        if kind == "diagonal":
            q = np.diag(rng.uniform(0.0, 3.0, dim) * (rng.random(dim) < 0.6))
        elif kind == "two-point":
            i, j = rng.choice(dim, size=2, replace=False)
            w = rng.uniform(0.1, 3.0)
            q = np.zeros((dim, dim))
            q[i, i] = q[j, j] = w
            q[i, j] = q[j, i] = -w
        else:
            a = rng.normal(size=(dim, dim))
            q = a @ a.T
        c = rng.normal(size=dim)
        d = -(0.5 * x @ q @ x + c @ x) - rng.uniform(0.1, 2.0)
        ineq.append((q, c, d))
    a0 = rng.normal(size=(dim, dim))
    p = qcqp.QcqpProblem.from_dense(dim=dim, objective=(a0 @ a0.T, rng.normal(size=dim), 0.5),
                                    ineq=ineq)
    return p, x, rng.normal(size=dim), float(rng.uniform(0.1, 100.0))


def _close(got, ref):
    return np.max(np.abs(got - ref), initial=0.0) <= 1e-12 * max(1.0, np.abs(ref).max())


@given(mixed_row_problems())
def test_structured_rows_match_dense_reference(case):
    p, x, dx, t = case
    qs = [q for q, _, _ in p.ineq]
    g = np.array([0.5 * x @ q @ x + c @ x + d for q, c, d in p.ineq])
    gx = np.array([q @ x + c for q, c, _ in p.ineq])
    assert _close(p.ineq_values(x), g)
    assert _close(p.ineq_gradients(x), gx)
    assert _close(p.rows.quad_forms(dx), np.array([0.5 * dx @ q @ dx for q in qs]))

    q0, c0, d0 = p.objective
    inv = -1.0 / g
    val = t * (0.5 * x @ q0 @ x + c0 @ x + d0) - np.sum(np.log(-g))
    grad = t * (q0 @ x + c0) + inv @ gx
    hess = (t * q0 + sum(w * q for w, q in zip(inv, qs))
            + sum(w * w * np.outer(r, r) for w, r in zip(inv, gx)))
    got = qcqp._grad_hess_barrier(p.objective, p.rows, x, t)
    # the barrier reads the constraint values with the same formula as the
    # feasibility tests and multipliers, bit for bit
    assert np.array_equal(got[3], p.ineq_values(x))
    assert _close(np.array(got[0]), np.array(val))
    assert _close(got[1], grad)
    assert _close(got[2], hess)
    assert np.array_equal(got[2], got[2].T)
