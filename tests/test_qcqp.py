import numpy as np
import pytest
from hypothesis import given, strategies as st

from uavmec import qcqp
from uavmec.model import Scenario
from uavmec.planner import run_algorithm1


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


def _psd_verdict_by_loop(triples):
    """Reference for :meth:`qcqp.Rows.checked`'s semidefiniteness check, one
    row at a time: the eigenvalues of its support block, or its nonzero
    diagonal entries when it has no off-diagonal one."""
    for i, (q, _, _) in enumerate(triples):
        s = np.flatnonzero((q != 0.0).any(axis=0))
        block = q[np.ix_(s, s)]
        if np.count_nonzero(block - np.diag(np.diag(block))):
            w = np.linalg.eigvalsh(block)
        else:
            w = np.sort(block.diagonal()[block.diagonal() != 0.0]) if s.size else [np.inf, -np.inf]
        if w[0] < -1e-9 * max(1.0, w[-1]):
            return f"ineq[{i}]: matrix is not positive semidefinite (min eigenvalue {w[0]:.3g})"
    return None


@pytest.mark.parametrize("seed", range(4))
def test_batched_psd_check_matches_the_row_loop(seed):
    """Rows with supports of one to six entries, some sizes shared by many
    rows, dense PSD, indefinite (some by less than the 1e-9 tolerance),
    diagonal or zero: the batched check passes or names the same first
    row with the same minimum eigenvalue as the row-by-row loop."""
    rng = np.random.default_rng(seed)
    seen = set()
    for _ in range(60):
        dim, m = int(rng.integers(1, 7)), int(rng.integers(1, 9))
        triples = []
        for _ in range(m):
            q = np.zeros((dim, dim))
            s = rng.choice(dim, size=int(rng.integers(1, dim + 1)), replace=False)
            a = rng.normal(size=(s.size, s.size))
            kind = rng.integers(4)
            block = [a @ a.T, (a + a.T) / 2, np.diag(rng.normal(size=s.size)), 0.0 * a][kind]
            if rng.random() < 0.3:
                block = block - rng.uniform(0.0, 2e-9) * np.eye(s.size)
            q[np.ix_(s, s)] = block
            triples.append((q, np.zeros(dim), -1.0))
        expected = _psd_verdict_by_loop(triples)
        seen.add(expected is None)
        try:
            qcqp.Rows.from_dense(dim, triples).checked()
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == expected
    assert seen == {True, False}


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


def _unit_ball(c=(0.0, 0.0), d=-1.0, q=((1.0, 0.0), (0.0, 1.0)), c0=(1.0, 1.0)):
    """min 0.5 ||x||^2 + c0'x subject to 0.5 x'Qx + c'x + d <= 0 (feasible
    at the origin with the defaults)."""
    return qcqp.QcqpProblem.from_dense(dim=2, objective=(np.eye(2), np.array(c0), 0.0),
                                       ineq=[(np.array(q), np.array(c), d)])


@pytest.mark.parametrize("case, message", [
    (lambda: qcqp.solve(_unit_ball(), x0=np.array([np.nan, 0.0])), "hint"),
    (lambda: qcqp.solve(_unit_ball(), x0=np.array([np.inf, 0.0])), "hint"),
    (lambda: qcqp.phase1(_unit_ball(), x_hint=np.array([np.nan, 0.0])), "hint"),
    (lambda: _unit_ball(c=(np.nan, 0.0)), r"ineq\[0\]: entries must be finite"),
    (lambda: _unit_ball(d=np.nan), r"ineq\[0\]: entries must be finite"),
    (lambda: _unit_ball(q=((np.nan, 0.0), (0.0, 1.0))), r"ineq\[0\]: entries must be finite"),
    (lambda: _unit_ball(c0=(np.inf, 1.0)), "objective: entries must be finite"),
], ids=["solve-nan-hint", "solve-inf-hint", "phase1-nan-hint", "nan-c", "nan-d", "nan-q",
        "inf-objective"])
def test_nonfinite_data_or_hint_is_refused(case, message):
    """A NaN or inf hint is refused rather than reported as a phase-1
    margin of 1 on a feasible problem, and a non-finite row entry is named
    by its row rather than accepted or left to a RuntimeWarning."""
    with pytest.raises(ValueError, match=message):
        case()


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


@pytest.mark.parametrize("hint", [30.0, 1e3])
def test_solve_from_a_far_hint_reaches_the_origin(hint):
    """A hint far outside the ball ||x||^2 <= 100 starts phase 1 at a
    margin of about -hint^2; its barrier parameter starts sized to that gap,
    so phase 1 reaches the cap and the solve ends optimal at the origin."""
    p = qcqp.QcqpProblem.from_dense(dim=2, objective=(np.eye(2), np.zeros(2), 0.0),
                                    ineq=[(2 * np.eye(2), np.zeros(2), -100.0)])
    _, margin, status = qcqp.phase1(p, x_hint=np.array([hint, 0.0]))
    assert status == "feasible"
    assert margin == pytest.approx(1.0, abs=1e-6)
    sol = qcqp.solve(p, x0=np.array([hint, 0.0]))
    assert sol.status == "optimal"
    assert np.abs(sol.x).max() <= 1e-8


def test_newton_solve_regularizes_a_singular_hessian():
    """A singular Newton system (the LU solve raises) is solved with the
    first diagonal shift, 1e-12 times the Hessian's scale (at least 1)."""
    g = np.array([1.0, -2.0])
    dx = qcqp._newton_solve(np.zeros((2, 2)), g)
    assert dx == pytest.approx(-g / 1e-12, rel=1e-15)


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

    def nan_interior_point(obj, rows, x):
        return np.array([0.5]), np.array([np.nan]), "optimal", [(1e9, -0.5, 0.0)]

    monkeypatch.setattr(qcqp, "_interior_point", nan_interior_point)
    sol = qcqp.solve(p)
    assert np.isnan(sol.kkt.max())
    assert sol.status == "max-iter"


def test_weakly_active_row_keeps_a_nonnegative_multiplier():
    """Row x1 <= 1 is slack by only delta at the optimum (1 - delta, 0):
    the solve ends optimal with nonnegative multipliers and the objective
    within delta^2 of the optimum."""
    delta = 1e-5
    p = qcqp.QcqpProblem.from_dense(
        2, (np.eye(2), np.array([delta - 1.0, 0.0]), 0.0),
        [(np.zeros((2, 2)), np.array([1.0, 0.0]), -1.0),
         (np.zeros((2, 2)), np.array([0.0, 1.0]), -1.0)])
    sol = qcqp.solve(p)
    assert sol.status == "optimal"
    assert np.all(sol.lambdas >= 0.0)
    assert p.objective_value(sol.x) <= p.objective_value([1.0 - delta, 0.0]) + delta ** 2


def test_trace_rows_follow_the_stop_rule():
    """Each trace row is (m / gap, f, gap); the last one meets the stop
    rule and holds the returned objective."""
    rng = np.random.default_rng(21)
    p = _random_instance(rng, 5, 4)
    sol = qcqp.solve(p)
    assert sol.status == "optimal"
    for t, _, gap in sol.trace:
        assert t * gap == pytest.approx(p.m, rel=1e-12)
    _, f, gap = sol.trace[-1]
    assert f == sol.objective
    assert gap <= p.m * qcqp._EPS * (1.0 + abs(f))
    q0, c0, _ = p.objective
    assert sol.kkt.stationarity <= qcqp._GAP_TOL * (
        1.0 + np.abs(c0).max() + np.abs(q0 @ sol.x).max())


def test_one_row_from_its_own_boundary_ends_optimal():
    """One ellipse row with d = -1e-6 and x0 = 0 just inside it, under a
    steep objective: the start's slack is 1e-6 and its multiplier 1e6,
    yet the solve ends optimal."""
    q0 = np.array([[1.96029411388216, 1.7299471135545508],
                   [1.7299471135545508, 2.4556095397994095]])
    c0 = np.array([-137.62911642520754, -73.46680376739675])
    q1 = np.array([[0.9052101090722267, -1.0205228030454156],
                   [-1.0205228030454156, 1.5470285992365422]])
    c1 = np.array([0.22877652816412952, -0.6231948027150641])
    p = qcqp.QcqpProblem.from_dense(2, (q0, c0, 0.0), [(q1, c1, -1e-6)])
    sol = qcqp.solve(p, x0=np.zeros(2))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-406.2309, abs=1e-4)


def test_capped_joint_steps_take_few_newton_solves(table2, monkeypatch):
    """With V_max at 1.001 times table2's dash speed both joint-step QCQPs
    bind their caps; each needs at most 40 Newton solves (20 steps)."""
    dash = float(np.linalg.norm(table2.qF - table2.q0)) / table2.T
    capped = Scenario(**{**{n: getattr(table2, n) for n in table2.__dataclass_fields__},
                         "V_max": 1.001 * dash})
    counts = []
    newton_solve, solve = qcqp._newton_solve, qcqp.solve

    def counted_newton_solve(hess, grad):
        counts[-1] += 1
        return newton_solve(hess, grad)

    def counted_solve(p, x0=None):
        counts.append(0)
        return solve(p, x0)

    monkeypatch.setattr(qcqp, "_newton_solve", counted_newton_solve)
    monkeypatch.setattr(qcqp, "solve", counted_solve)
    assert run_algorithm1(capped).status == "converged"
    assert counts and max(counts) <= 40


def _row_matrix(rng, kind, dim):
    """A PSD row matrix: "diagonal" (some zeros), "two-point" w (x_i - x_j)^2
    or "dense"."""
    if kind == "diagonal":
        return np.diag(rng.uniform(0.0, 3.0, dim) * (rng.random(dim) < 0.6))
    if kind == "two-point":
        i, j = rng.choice(dim, size=2, replace=False)
        w = rng.uniform(0.1, 3.0)
        q = np.zeros((dim, dim))
        q[i, i] = q[j, j] = w
        q[i, j] = q[j, i] = -w
        return q
    a = rng.normal(size=(dim, dim))
    return a @ a.T


@st.composite
def hinted_problems(draw):
    """Convex problems strictly feasible at the origin: diagonal, two-point
    and dense rows with d from -3 down to -1e-6, a positive definite Q0
    with c0 scaled by up to 100, and no hint or one at scale 0, 1 or 30."""
    dim = draw(st.integers(2, 8))
    kinds = draw(st.lists(st.sampled_from(["diagonal", "two-point", "dense"]),
                          min_size=1, max_size=10))
    ds = draw(st.lists(st.sampled_from([-3.0, -1.0, -1e-3, -1e-6]),
                       min_size=len(kinds), max_size=len(kinds)))
    c0_scale = draw(st.sampled_from([1.0, 10.0, 100.0]))
    hint_scale = draw(st.sampled_from([None, 0.0, 1.0, 30.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ineq = []
    for kind, d in zip(kinds, ds):
        ineq.append((_row_matrix(rng, kind, dim), rng.normal(size=dim), d))
    a0 = rng.normal(size=(dim, dim))
    p = qcqp.QcqpProblem.from_dense(
        dim=dim, objective=(a0 @ a0.T + 0.1 * np.eye(dim), c0_scale * rng.normal(size=dim), 0.0),
        ineq=ineq)
    return p, None if hint_scale is None else hint_scale * rng.normal(size=dim)


@given(hinted_problems())
def test_solve_ends_optimal_or_certifies_infeasibility(case):
    """Every draw ends optimal within the KKT bound of ``solve``, or raises
    QcqpInfeasibleError only where phase 1's margin is not positive."""
    p, hint = case
    try:
        sol = qcqp.solve(p, x0=hint)
    except qcqp.QcqpInfeasibleError:
        _, margin, _ = qcqp.phase1(p, x_hint=hint)
        assert margin <= 0.0
        return
    assert sol.status == "optimal"
    kkt = qcqp.kkt_residuals(p, sol.x, sol.lambdas)
    assert kkt.max() <= np.sqrt(qcqp._GAP_TOL) * (1.0 + abs(sol.objective))


# --- structured constraint rows vs a dense reference ------------------------

@st.composite
def mixed_row_problems(draw):
    """Random convex problems mixing diagonal, two-point and dense PSD rows,
    with a point x strictly inside every row, a direction dx, and slacks
    from 1e-14 to 10 and multipliers from 1e-3 to 100."""
    dim = draw(st.integers(2, 7))
    kinds = draw(st.lists(st.sampled_from(["diagonal", "two-point", "dense"]),
                          min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.normal(size=dim)
    ineq = []
    for kind in kinds:
        q = _row_matrix(rng, kind, dim)
        c = rng.normal(size=dim)
        d = -(0.5 * x @ q @ x + c @ x) - rng.uniform(0.1, 2.0)
        ineq.append((q, c, d))
    a0 = rng.normal(size=(dim, dim))
    p = qcqp.QcqpProblem.from_dense(dim=dim, objective=(a0 @ a0.T, rng.normal(size=dim), 0.5),
                                    ineq=ineq)
    m = len(kinds)
    return (p, x, rng.normal(size=dim), 10.0 ** rng.uniform(-14.0, 1.0, m),
            rng.uniform(1e-3, 100.0, m))


def _close(got, ref):
    return np.max(np.abs(got - ref), initial=0.0) <= 1e-12 * max(1.0, np.abs(ref).max())


@given(mixed_row_problems())
def test_structured_rows_match_dense_reference(case):
    p, x, dx, s, lam = case
    qs = [q for q, _, _ in p.ineq]
    g = np.array([0.5 * x @ q @ x + c @ x + d for q, c, d in p.ineq])
    gx = np.array([q @ x + c for q, c, _ in p.ineq])
    assert _close(p.ineq_values(x), g)
    assert _close(p.ineq_gradients(x), gx)
    assert _close(p.rows.quad_forms(dx), np.array([0.5 * dx @ q @ dx for q in qs]))

    q0, c0, d0 = p.objective
    w = lam / s
    hess = (q0 + sum(li * q for li, q in zip(lam, qs))
            + sum(wi * np.outer(r, r) for wi, r in zip(w, gx)))
    f, r_dual, got_g, got_gx, matrix, keep = qcqp._newton_system(p.objective, p.rows, x, s, lam)
    # the loop reads the constraint values with the same formula as the
    # feasibility tests, bit for bit
    assert np.array_equal(got_g, p.ineq_values(x))
    assert _close(np.array(f), np.array(0.5 * x @ q0 @ x + c0 @ x + d0))
    assert _close(r_dual, q0 @ x + c0 + lam @ gx)
    assert _close(got_gx, gx)
    assert np.array_equal(matrix, matrix.T)
    # the rows kept as unknowns fold back into the reduced matrix
    n = p.dim
    assert np.array_equal(matrix[n:, n:], np.diag(-1.0 / w[keep]))
    reduced = matrix[:n, :n] + matrix[:n, n:] @ np.diag(w[keep]) @ matrix[n:, :n]
    assert _close(reduced, hess)
