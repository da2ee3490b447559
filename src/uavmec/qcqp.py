"""Convex QCQP solver (primal-dual interior point) on structured constraint rows.

Solves
    minimize    0.5 x'Q0 x + c0'x + d0
    subject to  0.5 x'Qi x + ci'x + di <= 0,   i = 1..m
with all Qi symmetric positive semidefinite.  The constraints have one
representation, :class:`Rows`: the nonzero entries of every Qi as
(row, j, k, value) triplets, plus the stacked c and d.  Structured callers
build the triplets directly; dense (Q, c, d) triples go through one
converter.  Row values, gradients and the Newton matrix's weighted sum of
the Qi are scatter-adds over those triplets, so their cost follows the
number of nonzeros rather than m * dim^2.  Diagonal, two-point and dense
rows share that one mechanism.  The objective and the Newton systems stay
dense; the matrix's gradient outer-product term is dense anyway.

Algorithm: one Mehrotra predictor-corrector loop on (x, s, lam), with
g(x) + s = 0 and s, lam > 0 (Mehrotra, SIAM J. Optim. 2(4), 1992; Nocedal
& Wright section 19.1), stopping on its own gap and KKT residuals.  It
starts from a strictly feasible point: the caller's, or the one phase 1
finds by maximizing the slack margin with the same loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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

_GAP_TOL = 1e-9             # relative residual bound of the primal-dual loop's stop
_MAX_STEPS = 300            # primal-dual steps before "max-iter"
_PHASE1_CAP = 1.0           # phase 1 stops raising the margin at this cap
_PHASE1_PROX = 1e-12        # phase 1's proximal pull toward the hint
_EPS = np.finfo(float).eps


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
        non-finite entry of a Qi, c or d (naming the first such row), a
        missing or differing mirror entry (``numpy.allclose`` with absolute
        tolerance 1e-10 times the row's largest entry, at least 1), and a
        minimum eigenvalue below -1e-9 times the largest (at least 1).
        """
        dim, m = self.dim, self.m
        idx = np.stack([self.row, self.j, self.k], axis=1)
        if np.any((idx < 0) | (idx >= [m, dim, dim])):
            raise ValueError(f"rows: triplet index out of range for {m} rows in dimension {dim}")
        bad = ~(np.isfinite(self.c).all(axis=1) & np.isfinite(self.d))
        np.logical_or.at(bad, self.row, ~np.isfinite(self.val))
        if bad.any():
            raise ValueError(f"{name.format(int(np.argmax(bad)))}: entries must be finite")
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
        sup = np.unique(rn * dim + jn)                  # every row's support, in order
        pj, pk = (np.searchsorted(sup, rn * dim + a) - np.searchsorted(sup, rn * dim)
                  for a in (jn, kn))
        size = np.where(np.bincount(rn, jn != kn, minlength=m) > 0,
                        np.bincount(sup // dim, minlength=m), 0)
        for n in np.unique(size[size > 0]):             # one batched eigvalsh per size
            rows, e = np.flatnonzero(size == n), size[rn] == n
            block = np.zeros((rows.size, n, n))
            block[np.searchsorted(rows, rn[e]), pj[e], pk[e]] = vn[e]
            lo[rows], hi[rows] = np.linalg.eigvalsh(block)[:, [0, -1]].T
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
    """A solve's point and multipliers, judged by their KKT residuals.

    The primal-dual loop's gaps are in ``trace``; an "optimal" stop keeps
    its status only with ``kkt`` within sqrt(_GAP_TOL) (1 + |objective|).
    """

    x: np.ndarray
    lambdas: np.ndarray
    status: str                      # "optimal" | "max-iter" | "infeasible"
    kkt: KktReport
    objective: float
    # (m / gap, objective, gap s'lam) at each primal-dual iterate
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

def _newton_solve(hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Solve hess @ dx = -grad by LU (numpy has no triangular solve to pair
    with a Cholesky factor).  When the solve raises or returns non-finite
    values, the minimum-norm least-squares step is taken instead."""
    try:
        dx = np.linalg.solve(hess, -grad)
        if np.all(np.isfinite(dx)):
            return dx
    except np.linalg.LinAlgError:
        pass
    return np.linalg.lstsq(hess, -grad, rcond=None)[0]


def _to_boundary(s, ds, lam, dlam) -> float:
    """Largest a keeping s + a ds >= 0 and lam + a dlam >= 0 (inf if none shrinks)."""
    v, dv = np.concatenate([s, lam]), np.concatenate([ds, dlam])
    shrink = dv < 0.0
    return float(np.min(-v[shrink] / dv[shrink], initial=np.inf))


def _newton_system(obj, rows: Rows, x: np.ndarray, s: np.ndarray, lam: np.ndarray):
    """At (x, s, lam) for objective ``obj`` = (Q0, c0, d0) and ``rows``:
    f(x), the dual residual Q0 x + c0 + gx' lam, the row values g (from
    :meth:`Rows.values`, bit for bit as every feasibility test reads them),
    their gradients gx, and the step's Newton matrix with its ``keep`` mask.

    The step eliminates ds and dlam into the reduced matrix
    H = A + gx' diag(w) gx, with A = Q0 + sum lam_i Qi and w = lam / s.  A
    row with w_i ||g_i||^2 above 1 / sqrt(eps) times A's scale would round
    A's digits away in that sum, so it keeps dlam_i as an unknown, giving
    [[H without the kept rows, gx_k'], [gx_k, -diag(1 / w_k)]].
    """
    q0, c0, d0 = obj
    g, gx = rows.values(x), rows.gradients(x)
    w = lam / s
    a = q0 + rows.q_sum(lam)
    keep = w * np.einsum("ij,ij->i", gx, gx) > (1.0 + np.abs(a).max()) / np.sqrt(_EPS)
    gxw = gx * np.sqrt(np.where(keep, 0.0, w))[:, None]
    matrix = a + gxw.T @ gxw
    if keep.any():
        matrix = np.block([[matrix, gx[keep].T], [gx[keep], np.diag(-1.0 / w[keep])]])
    # f as objective_value computes it: a solve's last trace row holds its objective
    return (float(0.5 * x @ q0 @ x + c0 @ x + d0), q0 @ x + c0 + lam @ gx, g, gx,
            matrix, keep)


def _interior_point(obj, rows: Rows, x: np.ndarray):
    """Mehrotra predictor-corrector on g(x) + s = 0 with s, lam > 0, from a
    strictly feasible x with s = -g(x) and lam = 1 / s.

    Each step solves the :func:`_newton_system` for the predictor, then for
    the corrector, whose centering target sigma * mu (sigma = (mu_aff / mu)^3)
    is floored at eps (1 + |f|) / m so that the gap cannot outrun the
    residuals' rounding, and moves 0.99 of the way to the boundary of
    s, lam >= 0.  Stops "optimal" once the gap s'lam is within m eps (1 + |f|)
    and the dual and primal residuals within ``_GAP_TOL`` of their scales,
    "max-iter" after ``_MAX_STEPS`` steps.  Returns (x, lam, status, trace)
    with one trace row (m / gap, f(x), gap) per iterate.
    """
    q0, c0, _ = obj
    n, m = x.size, rows.m
    s = -rows.values(x)
    lam = 1.0 / s
    trace = []
    for step in range(_MAX_STEPS + 1):
        f, r_dual, g, gx, matrix, keep = _newton_system(obj, rows, x, s, lam)
        r_pri = g + s
        gap = float(s @ lam)
        trace.append((m / gap, f, gap))
        floor = _EPS * (1.0 + abs(f))
        if (gap <= m * floor
                and np.abs(r_dual).max() <= _GAP_TOL * (
                    1.0 + np.abs(c0).max() + np.abs(q0 @ x).max())
                and np.abs(r_pri).max() <= _GAP_TOL * (1.0 + np.abs(rows.d).max())):
            return x, lam, "optimal", trace
        if step == _MAX_STEPS or not (np.isfinite(gap) and np.isfinite(f)):
            return x, lam, "max-iter", trace

        def direction(r_cent):      # r_cent: s * lam minus the centering target
            rhs = np.where(keep, 0.0, (lam * r_pri - r_cent) / s)
            sol = _newton_solve(matrix, np.concatenate(
                [r_dual + gx.T @ rhs, (r_pri - r_cent / lam)[keep]]))
            dx = sol[:n]
            ds = -r_pri - gx @ dx
            dlam = -(r_cent + lam * ds) / s
            dlam[keep] = sol[n:]
            return dx, ds, dlam

        _, ds, dlam = direction(s * lam)
        a = min(1.0, _to_boundary(s, ds, lam, dlam))
        sigma = (float((s + a * ds) @ (lam + a * dlam)) / gap) ** 3      # (mu_aff / mu)^3
        dx, ds, dlam = direction(s * lam + ds * dlam - max(sigma * gap, floor) / m)
        a = min(1.0, 0.99 * _to_boundary(s, ds, lam, dlam))
        x, s, lam = x + a * dx, s + a * ds, lam + a * dlam


def _finite_hint(x) -> np.ndarray:
    x = np.asarray(x, dtype=float).copy()
    if not np.all(np.isfinite(x)):
        raise ValueError("hint entries must be finite")
    return x


def phase1(p: QcqpProblem, x_hint=None) -> tuple[np.ndarray, float, str]:
    """Maximize the slack margin s subject to g_i(x) <= -s, up to the cap
    ``_PHASE1_CAP`` (1), with the primal-dual loop of :func:`solve` on the
    lifted rows.

    Returns (x, margin, status): the margin x attains, min(cap, -max g(x)),
    and status "feasible" when it is positive, "infeasible" otherwise;
    ``ValueError`` for a non-finite hint.  A hint strictly inside every row
    by 0.01 * cap (or a problem without rows) is returned as it stands.  A
    tiny proximal pull toward the hint keeps the Newton systems full rank
    (the margin objective has no curvature of its own).  It perturbs the
    margin by at most ``_PHASE1_PROX`` times the squared drift, and it is
    kept below the loop's dual tolerance: once the slack rows' multipliers
    vanish, a stronger pull would drive full Newton steps in x across
    their curved boundaries.
    """
    x0 = np.zeros(p.dim) if x_hint is None else _finite_hint(x_hint)
    g0 = p.ineq_values(x0)
    if np.all(g0 < -0.01 * _PHASE1_CAP):
        return x0, -float(np.max(g0, initial=-np.inf)), "feasible"

    n = p.dim
    q_prox = np.diag(np.append(np.full(n, 2.0 * _PHASE1_PROX), 0.0))
    c_prox = np.concatenate([-2.0 * _PHASE1_PROX * x0, [-1.0]])
    obj = (q_prox, c_prox, _PHASE1_PROX * float(x0 @ x0))
    s0 = min(-float(np.max(g0)) - 1.0, _PHASE1_CAP - 1.0)
    z, _, _, _ = _interior_point(obj, p.rows.lifted(), np.append(x0, s0))
    x = z[:n]
    margin = min(_PHASE1_CAP, -float(np.max(p.ineq_values(x))))
    return x, margin, "feasible" if margin > 0.0 else "infeasible"


def solve(p: QcqpProblem, x0=None) -> QcqpSolution:
    """Solve a convex QCQP with the Mehrotra predictor-corrector primal-dual
    loop; after ``_MAX_STEPS`` (300) steps it ends "max-iter".  An "optimal"
    x may exceed a row by up to ``_GAP_TOL`` (1 + max |d_i|), the loop's
    primal tolerance.  ``x0`` is an optional strictly feasible hint; phase 1 runs otherwise.
    Raises :class:`QcqpInfeasibleError` when phase 1 certifies that no
    strictly feasible point exists and ``ValueError`` for a non-finite hint.
    Without rows the objective's stationary point is returned as it stands.
    """
    if x0 is not None:
        x0 = _finite_hint(x0)
    if p.m == 0:
        q0, c0, _ = p.objective
        x = np.linalg.lstsq(q0, -c0, rcond=None)[0]
        if np.max(np.abs(q0 @ x + c0), initial=0.0) > 1e-8 * (1.0 + np.abs(c0).max(initial=0.0)):
            raise ValueError("objective is unbounded below (no constraints bind it)")
        lam, status, trace = np.zeros(0), "optimal", [(np.inf, p.objective_value(x), 0.0)]
    else:
        if x0 is None or not np.all(p.ineq_values(x0) < -1e-12):
            x0, margin, status = phase1(p, x_hint=x0)
            if status == "infeasible" or not np.all(p.ineq_values(x0) < 0.0):
                raise QcqpInfeasibleError(
                    f"no strictly feasible point found (phase-1 margin {margin:.3g})")
        x, lam, status, trace = _interior_point(p.objective, p.rows, x0)
    kkt = kkt_residuals(p, x, lam)
    # Fails closed: a NaN residual is not within the bound.
    if status == "optimal" and not kkt.max() <= np.sqrt(_GAP_TOL) * (
            1.0 + abs(p.objective_value(x))):
        status = "max-iter"
    return QcqpSolution(x=x, lambdas=lam, status=status, kkt=kkt,
                        objective=p.objective_value(x), trace=trace)
