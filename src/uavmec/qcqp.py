"""Convex QCQP solver (log-barrier interior point) on structured constraint rows.

Solves
    minimize    0.5 x'Q0 x + c0'x + d0
    subject to  0.5 x'Qi x + ci'x + di <= 0,   i = 1..m
with all Qi symmetric positive semidefinite.  The constraints have one
representation, :class:`Rows`: the nonzero entries of every Qi as
(row, j, k, value) triplets, plus the stacked c and d.  Structured callers
build the triplets directly; dense (Q, c, d) triples go through one
converter.  Row values, gradients, ray quadratic forms and the barrier
Hessian's weighted sum of the Qi are scatter-adds over those triplets, so
their cost follows the number of nonzeros rather than m * dim^2.
Diagonal, two-point and dense rows share that one mechanism.  The
objective and the Newton systems stay dense; the Hessian's gradient
outer-product term is dense anyway.

Algorithm: a phase-1 margin maximization produces a strictly feasible start
when the caller cannot supply one, then a standard log-barrier outer loop
with damped Newton inner steps (backtracking line search, parameters
0.25/0.5) drives the duality gap below tolerance.  A final active-set
Newton polish sharpens the KKT residuals to near machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import SolverError

__all__ = [
    "Rows",
    "QcqpProblem",
    "QcqpSolution",
    "KktReport",
    "QcqpInfeasibleError",
    "solve",
    "phase1",
    "kkt_residuals",
]

_BARRIER_MU = 10.0          # barrier parameter growth per outer iteration
_GAP_TOL = 1e-9             # duality-gap bound m / t of solve and phase 1
_MAX_OUTER = 60             # barrier outer iterations before "max-iter"
_NEWTON_TOL = 1e-10         # Newton decrement^2 / 2 threshold
_CENTER_STEPS = 100         # damped Newton steps per centering
_PHASE1_CAP = 1.0           # phase 1 stops raising the margin at this cap
_PHASE1_PROX = 1e-9         # phase 1's proximal pull toward the hint
_LS_ALPHA = 0.25            # Armijo fraction
_LS_BETA = 0.5              # backtracking shrink factor


class QcqpInfeasibleError(SolverError):
    """No strictly feasible point exists (phase-1 margin nonpositive)."""


@dataclass(frozen=True)
class KktReport:
    """Residual norms of the four KKT condition groups."""

    stationarity: float
    primal: float
    dual: float
    complementarity: float

    def max(self) -> float:
        """Largest residual; NaN if any residual is NaN."""
        return float(np.max([self.stationarity, self.primal, self.dual, self.complementarity]))


class Rows:
    """Constraint rows 0.5 x'Qi x + ci'x + di: the (row, j, k, value)
    triplets of the nonzero entries of every Qi (duplicates add up), plus
    the stacked c (m, dim) and d (m,).  Structured callers build the
    triplets directly, dense (Q, c, d) triples go through :meth:`from_dense`;
    :class:`QcqpProblem` validates its rows with :meth:`checked`.
    """

    def __init__(self, dim: int, row, j, k, val, c, d):
        self.dim = dim
        self.row, self.j, self.k = (np.asarray(a, dtype=np.intp) for a in (row, j, k))
        self.val = np.asarray(val, dtype=float)
        self.c = np.asarray(c, dtype=float)
        self.d = np.asarray(d, dtype=float)
        self.m = self.d.size
        if not (self.row.shape == self.j.shape == self.k.shape == self.val.shape
                == (self.val.size,) and self.c.shape == (self.m, dim) and self.d.ndim == 1):
            raise ValueError(f"rows: expected row, j, k and val of one length, "
                             f"c of shape (m, {dim}) and d of shape (m,)")
        self._grad_at = self.row * dim + self.j     # flat slot of each entry in an (m, dim) array
        self._hess_at = self.j * dim + self.k       # flat slot of each entry in a (dim, dim) array

    @classmethod
    def from_dense(cls, dim: int, triples, name: str = "ineq[{}]") -> "Rows":
        """Rows from dense (Q, c, d) triples.  Each entry that is nonzero in
        Q or in Q' becomes a triplet, so no mirror entry is missing.
        ``name`` formats a row index into the label of error messages."""
        q = np.zeros((len(triples), dim, dim))
        for i, (qi, _, _) in enumerate(triples):
            if np.shape(qi) != (dim, dim):
                raise ValueError(f"{name.format(i)}: expected {(dim, dim)}, got {np.shape(qi)}")
            q[i] = qi
        row, j, k = np.nonzero((q != 0.0) | (q.transpose(0, 2, 1) != 0.0))
        return cls(dim, row, j, k, q[row, j, k],
                   np.reshape([np.reshape(c, dim) for _, c, _ in triples], (len(triples), dim)),
                   [float(d) for _, _, d in triples])

    def checked(self, name: str = "ineq[{}]") -> "Rows":
        """Validated copy: duplicates summed, entries in row-major order, each
        Qi symmetrized.  Raises ValueError for an index out of range, a
        missing or differing mirror entry (``numpy.allclose`` with absolute
        tolerance 1e-10 times the row's largest entry, at least 1), and a
        minimum eigenvalue below -1e-9 times the largest (at least 1).
        """
        dim, m = self.dim, self.m
        idx = np.stack([self.row, self.j, self.k], axis=1)
        if np.any((idx < 0) | (idx >= [m, dim, dim])):
            raise ValueError(f"rows: triplet index out of range for {m} rows in dimension {dim}")
        key, inv = np.unique((self.row * dim + self.j) * dim + self.k, return_inverse=True)
        val = np.bincount(inv, self.val, minlength=key.size)
        row, jk = np.divmod(key, dim * dim)
        j, k = np.divmod(jk, dim)

        mirror_key = (row * dim + k) * dim + j
        mirror = np.minimum(np.searchsorted(key, mirror_key), max(key.size - 1, 0))
        big = np.ones(m)
        np.maximum.at(big, row, np.abs(val))
        asym = ((key[mirror] != mirror_key)
                | (np.abs(val - val[mirror]) > 1e-10 * big[row] + 1e-5 * np.abs(val[mirror])))
        if asym.any():
            raise ValueError(f"{name.format(row[np.argmax(asym)])}: matrix is not symmetric")
        val = 0.5 * (val + val[mirror])

        # Off the support every row and column of Qi is zero, so Qi has the
        # support submatrix's eigenvalues plus zeros: same verdict.  A row
        # with diagonal entries only has those entries as eigenvalues.
        nz = val != 0.0
        rn, jn, kn, vn = row[nz], j[nz], k[nz], val[nz]
        lo, hi = np.full(m, np.inf), np.full(m, -np.inf)
        np.minimum.at(lo, rn, vn)
        np.maximum.at(hi, rn, vn)
        start = np.searchsorted(rn, np.arange(m + 1))
        for i in np.unique(rn[jn != kn]):
            jj, kk, vv = (a[start[i]:start[i + 1]] for a in (jn, kn, vn))
            s = np.unique(jj)
            block = np.zeros((s.size, s.size))
            block[np.searchsorted(s, jj), np.searchsorted(s, kk)] = vv
            w = np.linalg.eigvalsh(block)
            lo[i], hi[i] = w[0], w[-1]
        neg = lo < -1e-9 * np.maximum(1.0, hi)
        if neg.any():
            i = int(np.argmax(neg))
            raise ValueError(f"{name.format(i)}: matrix is not positive semidefinite "
                             f"(min eigenvalue {lo[i]:.3g})")
        return Rows(dim, row, j, k, val, self.c, self.d)

    def dense(self) -> list[tuple[np.ndarray, np.ndarray, float]]:
        """The rows as dense (Q, c, d) triples."""
        q = np.zeros((self.m, self.dim, self.dim))
        np.add.at(q, (self.row, self.j, self.k), self.val)
        return [(q[i], self.c[i], float(self.d[i])) for i in range(self.m)]

    def lifted(self) -> "Rows":
        """Phase-1 rows in (x, s): g_i(x) + s <= 0, then the cap s <= _PHASE1_CAP."""
        c = np.zeros((self.m + 1, self.dim + 1))
        c[:-1, :-1] = self.c
        c[:, -1] = 1.0
        return Rows(self.dim + 1, self.row, self.j, self.k, self.val, c,
                    np.append(self.d, -_PHASE1_CAP))

    def quad_forms(self, x) -> np.ndarray:
        """(m,) values of 0.5 x'Qi x."""
        return 0.5 * np.bincount(self.row, self.val * x[self.j] * x[self.k],
                                 minlength=self.m)

    def values(self, x) -> np.ndarray:
        return self.quad_forms(x) + self.c @ x + self.d

    def gradients(self, x) -> np.ndarray:
        """(m, dim) rows Qi x + ci."""
        qx = np.bincount(self._grad_at, self.val * x[self.k], minlength=self.m * self.dim)
        return qx.reshape(self.m, self.dim) + self.c

    def q_sum(self, w) -> np.ndarray:
        """Dense (dim, dim) sum of w_i Qi."""
        h = np.bincount(self._hess_at, w[self.row] * self.val,
                        minlength=self.dim * self.dim)
        return h.reshape(self.dim, self.dim)


@dataclass
class QcqpProblem:
    """Convex QCQP data.  All quadratic forms use the 0.5 x'Qx convention.

    The objective is a dense (Q0, c0, d0) triple and the constraints are
    :class:`Rows`; both are validated at construction and the rows kept in
    their validated form.  Edit a problem by building a new one.
    """

    objective: tuple[np.ndarray, np.ndarray, float]
    rows: Rows

    def __post_init__(self):
        obj = Rows.from_dense(self.dim, [self.objective], "objective")
        self.objective = obj.checked("objective").dense()[0]
        self.rows = self.rows.checked()

    @classmethod
    def from_dense(cls, dim: int, objective, ineq=()) -> "QcqpProblem":
        """Problem with dense (Q, c, d) constraint triples ``ineq``."""
        return cls(objective, Rows.from_dense(dim, list(ineq)))

    @property
    def dim(self) -> int:
        return self.rows.dim

    @property
    def m(self) -> int:
        return self.rows.m

    @property
    def ineq(self) -> list[tuple[np.ndarray, np.ndarray, float]]:
        """Dense (Q, c, d) view of the constraint rows, built on each read."""
        return self.rows.dense()

    def objective_value(self, x) -> float:
        q, c, d = self.objective
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ q @ x + c @ x + d)

    def ineq_values(self, x) -> np.ndarray:
        return self.rows.values(np.asarray(x, dtype=float))

    def ineq_gradients(self, x) -> np.ndarray:
        """(m, dim) matrix of constraint gradients at x."""
        return self.rows.gradients(np.asarray(x, dtype=float))


@dataclass
class QcqpSolution:
    x: np.ndarray
    lambdas: np.ndarray
    status: str                      # "optimal" | "max-iter" | "infeasible"
    kkt: KktReport
    objective: float
    gap: float
    # (barrier_t, objective, duality gap) after each outer centering
    trace: list[tuple[float, float, float]] = field(default_factory=list)


def kkt_residuals(p: QcqpProblem, x, lambdas) -> KktReport:
    """Recompute all four KKT residual norms from scratch.

    Independent of the solve path on purpose: tests compare this against
    solver-reported residuals.
    """
    x = np.asarray(x, dtype=float)
    lambdas = np.asarray(lambdas, dtype=float).reshape(p.m)
    q0, c0, _ = p.objective
    r = q0 @ x + c0 + lambdas @ p.ineq_gradients(x)
    g = p.ineq_values(x)
    primal = max(float(np.max(g, initial=0.0)), 0.0)
    dual = float(max(0.0, -np.min(lambdas, initial=0.0)))
    comp = float(np.max(np.abs(lambdas * g), initial=0.0))
    return KktReport(stationarity=float(np.max(np.abs(r), initial=0.0)),
                     primal=primal, dual=dual, complementarity=comp)


# ---------------------------------------------------------------------------
# Internals
# ---------------------------------------------------------------------------

def _grad_hess_barrier(obj, rows: Rows, x: np.ndarray, t: float):
    """Value, gradient, Hessian of t*f0(x) - sum log(-g_i(x)), plus the
    constraint values and gradients (for reuse in the line search).

    ``obj`` is the objective triple (Q0, c0, d0) and ``rows`` the
    constraint rows.  The values come from :meth:`Rows.values`, as in every
    feasibility test and multiplier, so they agree bit for bit.
    """
    q0, c0, d0 = obj
    val = t * (0.5 * x @ q0 @ x + c0 @ x + d0)
    grad = t * (q0 @ x + c0)
    hess = t * q0
    if not rows.m:
        return val, grad, hess, np.zeros(0), np.zeros((0, rows.dim))
    gx = rows.gradients(x)
    g = rows.values(x)
    if np.any(g >= 0.0):
        return np.inf, grad, hess, g, gx
    inv = -1.0 / g
    val -= float(np.sum(np.log(-g)))
    grad = grad + inv @ gx
    gxw = gx * inv[:, None]
    hess = hess + rows.q_sum(inv) + gxw.T @ gxw
    return val, grad, hess, g, gx


def _newton_solve(hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Solve hess @ dx = -grad by Cholesky, with a regularized fallback.

    The LAPACK factorization is the one ``scipy.linalg.solve(assume_a="pos")``
    runs, without the condition estimate that call adds to every solve.
    """
    n = hess.shape[0]
    if n == 0:
        return np.zeros(0)
    reg = 0.0
    scale = max(1.0, float(np.abs(hess).max()))
    for _ in range(8):
        try:
            factor = scipy.linalg.cho_factor(hess + reg * np.eye(n))
            dx = scipy.linalg.cho_solve(factor, -grad)
            if np.all(np.isfinite(dx)):
                return dx
        except (np.linalg.LinAlgError, scipy.linalg.LinAlgError, ValueError):
            pass
        reg = max(reg * 100.0, 1e-12 * scale)
    return np.linalg.lstsq(hess, -grad, rcond=None)[0]


def _center(obj, rows: Rows, x: np.ndarray, t: float):
    """Damped Newton minimization of the barrier objective at fixed t.

    Along a fixed direction every constraint restricts to an exact
    quadratic in the step length, so the line search (boundary step plus
    Armijo backtracking) runs on precomputed ray coefficients.  A step the
    ray accepts is kept only if the constraint values recomputed at the new
    point are strictly negative too: rounding can put a boundary row at
    exactly zero there while the ray predicted a tiny negative value.
    """
    q0, c0, d0 = obj
    val, grad, hess, g, gx = _grad_hess_barrier(obj, rows, x, t)
    if not np.isfinite(val):
        return x
    for _ in range(_CENTER_STEPS):
        dx = _newton_solve(hess, grad)
        decr2 = float(-grad @ dx)
        if not np.isfinite(decr2) or decr2 <= 0:
            dx = -grad / max(1.0, float(np.abs(hess).max()))
            decr2 = float(-grad @ dx)
            if decr2 <= 0:
                break
        if 0.5 * decr2 <= _NEWTON_TOL:
            break
        # Ray coefficients: each g_i(x + a dx) = qa_i a^2 + qb_i a + qc_i.
        qa = rows.quad_forms(dx)
        qb = gx @ dx
        qc = g
        f_a = 0.5 * dx @ q0 @ dx
        f_b = (q0 @ x + c0) @ dx
        f_c = 0.5 * x @ q0 @ x + c0 @ x + d0

        # Fraction-to-boundary initial step.
        cand = np.full(rows.m, np.inf)
        quad = qa > 0.0
        disc = np.sqrt(np.maximum(qb[quad] ** 2 - 4.0 * qa[quad] * qc[quad], 0.0))
        cand[quad] = (-qb[quad] + disc) / (2.0 * qa[quad])
        lin = (~quad) & (qb > 0.0)
        cand[lin] = -qc[lin] / qb[lin]
        alpha_max = float(np.min(cand, initial=np.inf))
        step = min(1.0, 0.99 * alpha_max) if alpha_max > 0 else 1.0

        accepted = False
        for _ in range(100):
            g_ray = qa * step * step + qb * step + qc
            if np.all(g_ray < 0.0):
                v_cand = t * (f_a * step * step + f_b * step + f_c)
                v_cand -= float(np.sum(np.log(-g_ray)))
                if v_cand <= val - _LS_ALPHA * step * decr2:
                    x_new = x + step * dx
                    new = _grad_hess_barrier(obj, rows, x_new, t)
                    if np.isfinite(new[0]):
                        x = x_new
                        val, grad, hess, g, gx = new
                        accepted = True
                        break
            step *= _LS_BETA
        if not accepted:
            break
    return x


def _strictly_feasible(p: QcqpProblem, x, margin: float = 0.0) -> bool:
    return bool(np.all(p.ineq_values(x) < -margin))


def phase1(p: QcqpProblem, x_hint=None) -> tuple[np.ndarray, float, str]:
    """Maximize the slack margin s subject to g_i(x) <= -s, up to the cap
    ``_PHASE1_CAP`` (1), until the barrier's duality gap is within
    ``_GAP_TOL``.

    Returns (x, margin, status) with status "feasible" when margin > 0 and
    "infeasible" otherwise.  A tiny proximal pull toward the hint keeps the
    Newton systems full rank (the raw margin objective has no curvature of
    its own); it perturbs the reported margin by at most ``_PHASE1_PROX``
    times the squared drift.
    """
    if p.m == 0:
        x = np.zeros(p.dim) if x_hint is None else np.asarray(x_hint, dtype=float)
        return x, float("inf"), "feasible"
    x0 = np.zeros(p.dim) if x_hint is None else np.asarray(x_hint, dtype=float).copy()
    g0 = p.ineq_values(x0)
    if np.all(g0 < -0.01 * _PHASE1_CAP):
        return x0, float(-np.max(g0)), "feasible"

    n = p.dim
    q_prox = 2.0 * _PHASE1_PROX * np.eye(n + 1)
    q_prox[-1, -1] = 0.0
    c_prox = np.concatenate([-2.0 * _PHASE1_PROX * x0, [-1.0]])
    obj = (q_prox, c_prox, _PHASE1_PROX * float(x0 @ x0))
    rows = p.rows.lifted()

    s0 = min(-float(np.max(g0)) - 1.0, _PHASE1_CAP - 1.0)
    z = np.concatenate([x0, [s0]])
    t = 1.0
    while rows.m / t > _GAP_TOL:
        z = _center(obj, rows, z, t)
        t *= _BARRIER_MU
    x, s = z[:n], float(z[-1])
    status = "feasible" if s > 0.0 else "infeasible"
    return x, s, status


def _barrier(p: QcqpProblem, x0) -> tuple[np.ndarray, np.ndarray, str, float, list]:
    """Log-barrier outer loop from a strictly feasible start."""
    q0, c0, _ = p.objective
    if p.m == 0:
        x, res, _, _ = np.linalg.lstsq(q0, -c0, rcond=None)
        if np.max(np.abs(q0 @ x + c0), initial=0.0) > 1e-8 * (1.0 + np.abs(c0).max(initial=0.0)):
            raise ValueError("objective is unbounded below (no constraints bind it)")
        return x, np.zeros(0), "optimal", 0.0, [(np.inf, p.objective_value(x), 0.0)]

    if x0 is not None and _strictly_feasible(p, x0, margin=1e-12):
        x = np.asarray(x0, dtype=float).copy()
    else:
        x, margin, status = phase1(p, x_hint=x0)
        if status == "infeasible" or not _strictly_feasible(p, x):
            raise QcqpInfeasibleError(
                f"no strictly feasible point found (phase-1 margin {margin:.3g})")

    t = 1.0
    trace = []
    outer = 0
    while True:
        x = _center(p.objective, p.rows, x, t)
        g = p.ineq_values(x)
        lam = 1.0 / (t * (-g))
        gap = float(np.sum(lam * (-g)))
        trace.append((t, p.objective_value(x), gap))
        outer += 1
        if p.m / t <= _GAP_TOL:
            return x, lam, "optimal", gap, trace
        if outer >= _MAX_OUTER:
            return x, lam, "max-iter", gap, trace
        t *= _BARRIER_MU


def _polish(p: QcqpProblem, x: np.ndarray, lam: np.ndarray, t_final: float):
    """Newton refinement on the active-set KKT equations.

    Keeps the refined point only if it stays feasible and its residuals,
    recomputed with the multipliers clipped at zero, are strictly better
    (a weakly active row can take a slightly negative multiplier).
    """
    if p.m == 0:
        return x, lam
    g = p.ineq_values(x)
    gscale = 1.0 + float(np.abs(g).max(initial=0.0))
    act_tol = max(np.sqrt(p.m / t_final) * gscale, 1e-9 * gscale)
    active = np.where((-g <= act_tol) | (lam >= np.sqrt(p.m / t_final)))[0]
    q0, c0, _ = p.objective

    def residual(xc, lam_act):
        grads = p.ineq_gradients(xc)[active]
        r = q0 @ xc + c0 + lam_act @ grads
        ga = p.ineq_values(xc)[active]
        return np.concatenate([r, ga])

    xc = x.copy()
    lam_act = lam[active].copy()
    best = (x, lam)
    best_res = kkt_residuals(p, x, lam).max()
    w = np.zeros(p.m)
    for _ in range(30):
        f = residual(xc, lam_act)
        if np.max(np.abs(f), initial=0.0) < 1e-14 * (1.0 + np.abs(c0).max(initial=0.0)):
            break
        w[active] = lam_act
        h = q0 + p.rows.q_sum(w)
        grads = p.ineq_gradients(xc)[active]
        na = len(active)
        jac = np.zeros((p.dim + na, p.dim + na))
        jac[: p.dim, : p.dim] = h
        if na:
            jac[: p.dim, p.dim:] = grads.T
            jac[p.dim:, : p.dim] = grads
        try:
            delta = np.linalg.lstsq(jac, -f, rcond=None)[0]
        except np.linalg.LinAlgError:
            break
        step = 1.0
        improved = False
        for _ in range(30):
            x_try = xc + step * delta[: p.dim]
            lam_try = lam_act + step * delta[p.dim:]
            if np.linalg.norm(residual(x_try, lam_try)) < np.linalg.norm(f):
                xc, lam_act = x_try, lam_try
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    lam_full = np.zeros(p.m)
    lam_full[active] = np.maximum(lam_act, 0.0)
    if (np.all(p.ineq_values(xc) <= 1e-9 * gscale)
            and kkt_residuals(p, xc, lam_full).max() < best_res):
        best = (xc, lam_full)
    return best


def solve(p: QcqpProblem, x0=None) -> QcqpSolution:
    """Solve a convex QCQP until the barrier's duality gap is within
    ``_GAP_TOL`` (1e-9); after ``_MAX_OUTER`` (60) centerings it ends
    "max-iter".

    ``x0`` is an optional strictly feasible hint; phase 1 runs otherwise.
    Raises :class:`QcqpInfeasibleError` when phase 1 certifies that no
    strictly feasible point exists.
    """
    x, lam, status, gap, trace = _barrier(p, x0)
    if status == "optimal" and p.m > 0:
        t_final = trace[-1][0]
        x, lam = _polish(p, x, lam, t_final)
        gap = float(np.sum(lam * (-p.ineq_values(x))))
    kkt = kkt_residuals(p, x, lam)
    # Fails closed: a NaN residual is not within the bound.
    if status == "optimal" and not kkt.max() <= np.sqrt(_GAP_TOL) * (
            1.0 + abs(p.objective_value(x))):
        status = "max-iter"
    return QcqpSolution(x=x, lambdas=lam, status=status, kkt=kkt,
                        objective=p.objective_value(x), gap=gap, trace=trace)
