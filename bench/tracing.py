"""Per-layer spans for the uavmec benchmark, recorded from outside the package.

A :class:`Tracer` replaces each public function listed in :data:`LAYERS`
with a timing wrapper in every ``uavmec`` module namespace that binds it
(``probe_feasibility`` is bound in both ``planner`` and ``offload_solver``,
``solve_p2`` and ``solve_p3`` are called through ``planner``'s bindings,
``minimize`` is scipy's L-BFGS-B entry as ``offload_solver`` imported it),
and puts the originals back on exit (:func:`patched`, which
``speed.SpeedClock`` also uses to take clock marks at layer calls).  Spans
stay in memory; the caller writes them out when the run ends.  No file
under ``src/uavmec`` changes.

A span's self time is its duration minus the time its direct child spans
cover, and minus the time the tracer spent reading those children's
counters (which it does after a child closes, inside the parent).
:func:`layer_metrics` folds the spans into the per-layer metrics named
``<module>.<function>.<metric>``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

import numpy as np


def _qcqp_solve(args, kwargs, sol) -> dict:
    lam_ok = bool(np.all(np.isfinite(sol.lambdas)))
    return {"status": sol.status, "barrier_iters": len(sol.trace),
            "nonfinite": not (lam_ok and np.isfinite(sol.kkt.max()))}


def _assemble_p4(args, kwargs, asm) -> dict:
    p = asm.problem
    nnz = sum(int(np.count_nonzero(q)) for q, _, _ in p.ineq)
    return {"rows": p.m, "nnz_frac": nnz / max(p.m * p.dim * p.dim, 1),
            # bytes of the m dense (dim, dim) constraint matrices, computed
            # from the arrays the assembler built
            "stack_bytes": sum(q.nbytes for q, _, _ in p.ineq)}


def _solve_p3(args, kwargs, out) -> dict:
    return {"sca_iters": out[1].iterations}


def _solve_p2(args, kwargs, sol) -> dict:
    s = args[0]
    # A presolved user keeps the closed-form local-only schedule: no
    # offloaded bits and the constant frequency that meets its demand.
    f_const = s.R * s.M / (s.N * s.slot)
    presolved = (~sol.l.any(axis=1)) & np.all(sol.f_user == f_const[:, None], axis=1)
    return {"subgrad_iters": sol.trace[-1][0] - 1 if sol.trace else 0,
            "kkt_max": sol.kkt.max(), "presolved": float(presolved.mean())}


def _minimize(args, kwargs, res) -> dict:
    return {"nit": int(res.nit), "nfev": int(res.nfev)}


def _run_algorithm1(args, kwargs, res) -> dict:
    return {"outer_iters": len(res.outer_trace)}


# "<module>.<function>" -> function reading counters off its arguments and
# result (called after the span closes, so its cost is not layer time).
LAYERS = {
    "config.load_scenario": None,
    "model.evaluate_ledger": None,
    "offload_solver.probe_feasibility": None,
    "offload_solver.minimize": _minimize,
    "offload_solver.solve_p2": _solve_p2,
    "trajectory_solver.assemble_p4": _assemble_p4,
    "trajectory_solver.solve_p3": _solve_p3,
    "qcqp.phase1": None,
    "qcqp.solve": _qcqp_solve,
    "planner.run_algorithm1": _run_algorithm1,
    "planner.run_baseline": None,
    "cli.main": None,
}

# A span of one of these, not nested in another, starts a new plan id.
PLAN_ENTRIES = ("planner.run_algorithm1", "planner.run_baseline")


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int | None = None
    plan: int | None = None
    error: str | None = None
    attrs: dict = field(default_factory=dict)
    inspect_s: float = 0.0      # time spent reading the counters off the call
    wrapper_s: float = 0.0      # the wrapper's own time outside [start, end], inspect_s included


def package_modules() -> list:
    """The imported ``uavmec`` package and its submodules."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "uavmec" or name.startswith("uavmec."))]


@contextlib.contextmanager
def patched(make_wrapper):
    """Replace every layer function in :data:`LAYERS` while the block runs.

    ``make_wrapper(name, fn)`` returns the stand-in for layer ``name``
    whose original is ``fn``.  Each binding of ``fn`` in any ``uavmec``
    module namespace is replaced, and all are put back on exit.
    """
    patches = []
    try:
        for name in LAYERS:
            mod, attr = name.split(".")
            orig = getattr(importlib.import_module("uavmec." + mod), attr)
            wrapper = make_wrapper(name, orig)
            for m in package_modules():
                for key, value in list(vars(m).items()):
                    if value is orig:
                        patches.append((m, key, orig))
                        setattr(m, key, wrapper)
        yield
    finally:
        for m, key, orig in reversed(patches):
            setattr(m, key, orig)


class Tracer:
    """Context manager that records a span around every call into a layer."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._plans = 0
        self._patched = patched(lambda name, fn: self._wrap(name, fn, LAYERS[name]))

    def __enter__(self) -> "Tracer":
        self._patched.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        self._patched.__exit__(*exc)

    def _wrap(self, name, fn, inspect):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = time.perf_counter()
            parent = self._stack[-1] if self._stack else None
            plan = self.spans[parent].plan if parent is not None else None
            if plan is None and name in PLAN_ENTRIES:
                plan = self._plans
                self._plans += 1
            span = Span(name=name, start=0.0, parent=parent, plan=plan)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                span.wrapper_s = span.start - entered
            if inspect is not None:
                t0 = time.perf_counter()
                try:
                    span.attrs = inspect(args, kwargs, result)
                except Exception as exc:  # the tracer must never change what the program does
                    span.attrs = {"inspect_error": f"{type(exc).__name__}: {exc}"}
                span.inspect_s = time.perf_counter() - t0
            span.wrapper_s += time.perf_counter() - span.end
            return result

        wrapper.__bench_traced__ = True
        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus its direct children's durations and counter reads."""
    own = [sp.end - sp.start for sp in spans]
    for sp in spans:
        if sp.parent is not None:
            own[sp.parent] -= sp.end - sp.start + sp.inspect_s
    return own


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Fold one traced pass's spans into the per-layer metrics."""
    own = self_times(spans)
    out: dict[str, float] = {}
    by_name: dict[str, list[int]] = {name: [] for name in LAYERS}
    for i, sp in enumerate(spans):
        by_name[sp.name].append(i)
    for name, idx in by_name.items():
        out[f"{name}.calls"] = len(idx)
        out[f"{name}.busy_s"] = sum(spans[i].end - spans[i].start for i in idx)
        out[f"{name}.self_s"] = sum(own[i] for i in idx)

    def attrs(name, key):
        return [spans[i].attrs[key] for i in by_name[name] if key in spans[i].attrs]

    def mean(values):
        return float(np.mean(values)) if values else 0.0

    solves = by_name["qcqp.solve"]
    out["qcqp.solve.barrier_iters"] = sum(attrs("qcqp.solve", "barrier_iters"))
    out["qcqp.solve.optimal_frac"] = (
        attrs("qcqp.solve", "status").count("optimal") / len(solves) if solves else 0.0)
    out["qcqp.solve.nonfinite"] = sum(attrs("qcqp.solve", "nonfinite"))

    out["trajectory_solver.assemble_p4.rows"] = mean(attrs("trajectory_solver.assemble_p4", "rows"))
    out["trajectory_solver.assemble_p4.nnz_frac"] = mean(
        attrs("trajectory_solver.assemble_p4", "nnz_frac"))
    out["trajectory_solver.assemble_p4.stack_bytes"] = max(
        attrs("trajectory_solver.assemble_p4", "stack_bytes"), default=0)

    out["trajectory_solver.solve_p3.sca_iters"] = sum(attrs("trajectory_solver.solve_p3", "sca_iters"))
    # The QCQP raised QcqpInfeasibleError, yet solve_p3 returned: it fell
    # back to the expansion point (the pinned path).
    out["trajectory_solver.solve_p3.pinned"] = sum(
        1 for i in solves
        if spans[i].error == "QcqpInfeasibleError"
        and spans[i].parent is not None
        and spans[spans[i].parent].name == "trajectory_solver.solve_p3"
        and spans[spans[i].parent].error is None)

    minimizers = by_name["offload_solver.minimize"]
    p2_with_minimize = {spans[i].parent for i in minimizers}
    out["offload_solver.solve_p2.dual_iters"] = (
        sum(attrs("offload_solver.solve_p2", "subgrad_iters"))
        + sum(attrs("offload_solver.minimize", "nit")))
    out["offload_solver.solve_p2.restarts"] = len(minimizers) - len(p2_with_minimize)
    out["offload_solver.solve_p2.kkt_max"] = max(attrs("offload_solver.solve_p2", "kkt_max"),
                                                 default=0.0)
    out["offload_solver.solve_p2.presolved_frac"] = mean(attrs("offload_solver.solve_p2",
                                                               "presolved"))
    out["offload_solver.minimize.nfev"] = sum(attrs("offload_solver.minimize", "nfev"))

    out["planner.run_algorithm1.outer_iters"] = sum(attrs("planner.run_algorithm1",
                                                          "outer_iters"))
    return out


def span_records(spans: list[Span]) -> list[dict]:
    """Spans as JSON-ready dicts, times relative to the first span."""
    t0 = spans[0].start if spans else 0.0
    own = self_times(spans)
    return [{"name": sp.name, "start": sp.start - t0, "end": sp.end - t0,
             "self": own[i], "parent": sp.parent, "plan": sp.plan,
             "error": sp.error, "inspect_s": sp.inspect_s, "wrapper_s": sp.wrapper_s,
             "attrs": {k: (v if isinstance(v, (str, bool)) else float(v))
                       for k, v in sp.attrs.items()}}
            for i, sp in enumerate(spans)]
