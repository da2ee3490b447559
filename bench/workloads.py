"""Workloads, scenario generator and correctness gate of the uavmec benchmark.

Each workload is one pass of planner work over fixed inputs:

* ``table2-sweep``: ``uavmec.cli.main`` in-process on the bundled
  ``table2.cfg`` with all three schemes over T = 2, 2.2, 2.4 (9 cells),
  writing its files to a temporary directory.  The user-facing path.
* ``random-schedule``: 12 generated scenarios with table2's physics, each
  planned with the straight-line and semi-circle baselines (24 plans).
  Schedule half only; the QCQP is never called.
* ``semicircle-sca``: ``planner.run_algorithm1(table2, init="semi-circle")``
  at T = 2, the one load on which the path half moves (and where the known
  ``max-iter``/NaN QCQP return and the pinned fallbacks show up).  Run by
  hand; ``BENCHMARK.json`` holds the other two.

The package must be importable as ``uavmec`` before this module is imported.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from uavmec import cli, planner
from uavmec.config import load_scenario
from uavmec.model import Scenario, check_constraints
from uavmec.offload_solver import probe_feasibility

from speed import SpeedClock

WORKLOADS = ("table2-sweep", "semicircle-sca", "random-schedule")
SWEEP_T = (2.0, 2.2, 2.4)
BASELINES = ("straight-line", "semi-circle")

# random-schedule draws one design from DESIGN_SEED: 12 scenarios whose
# (K, N) cycle K through 2..6 and N through all four slot counts, with T,
# users and demand shares drawn from the ranges below.  The --seed then
# jitters every drawn value slightly.  A fully fresh draw per seed changes
# how much work the pass is (L-BFGS-B evaluations varied by +-25% between
# seeds), which would drown any code change; the jitter still changes every
# input number and every iterate while keeping the workload's size.
DESIGN_SEED = 1
RANDOM_SIZES = tuple((2 + i % 5, (20, 30, 40, 60)[i % 4]) for i in range(12))
T_RANGE = (1.8, 2.6)
USER_BOX = ((-2.0, 12.0), (-6.0, 12.0))
DEMAND_FRAC = (0.30, 0.95)
JITTER_M = 0.02        # std of the seed's user-position jitter [m]
JITTER_REL = 0.002     # half-width of the seed's relative T and demand jitter

GATE_TOL = 1e-6


def table2_path(root: Path) -> Path:
    return root / "src" / "uavmec" / "scenarios" / "table2.cfg"


def generate_params(base: Scenario, seed: int) -> list[dict]:
    """Scenario parameters for ``random-schedule``: a pure function of the seed.

    Each scenario keeps ``base``'s physics and endpoints, places its users
    in ``USER_BOX``, takes T in ``T_RANGE`` and sets each user's demand to a
    30-95% share of the bits it can move under the spend-as-harvested
    policy on the worse of the two baseline paths (measured with
    ``probe_feasibility`` at zero demand).
    """
    design = np.random.default_rng(DESIGN_SEED)
    jitter = np.random.default_rng(seed)

    def wiggle(x):
        return x * (1.0 + jitter.uniform(-JITTER_REL, JITTER_REL, np.shape(x)))

    out = []
    for K, N in RANDOM_SIZES:
        T = wiggle(design.uniform(*T_RANGE))
        users = np.column_stack([design.uniform(*USER_BOX[0], size=K),
                                 design.uniform(*USER_BOX[1], size=K)])
        users = users + jitter.normal(0.0, JITTER_M, size=users.shape)
        frac = wiggle(design.uniform(*DEMAND_FRAC, size=K))
        probe = Scenario(**{**scenario_params(base), "K": K, "N": N, "T": float(T),
                            "user_pos": users, "R": np.zeros(K)})
        capacity = np.minimum(
            probe_feasibility(probe, planner.straight_line_trajectory(probe)),
            probe_feasibility(probe, planner.semicircle_trajectory(probe)))
        out.append({**scenario_params(probe), "R": (frac * capacity).tolist()})
    return out


def scenario_params(s: Scenario) -> dict:
    """A scenario's constructor arguments as plain JSON-ready values."""
    return {k: (v.tolist() if isinstance(v, np.ndarray) else v)
            for k, v in vars(s).items()}


@dataclass
class PlanRecord:
    name: str
    marks: tuple[int, int]         # the SpeedClock marks just before and after the call
    seconds: float = 0.0           # wall time of the planner call, less the clock's kernel
    scaled_s: float = 0.0          # the same at the quiet host's speed
    energy_J: float = 0.0          # left at 0 for a failed plan (the run is then incorrect)
    error: str | None = None       # why the plan failed, None if it passed


@dataclass
class PassResult:
    seconds: float                 # wall time, less the SpeedClock's kernel
    scaled_s: float                # the same at the quiet host's speed
    bench_s: float                 # of which outside calls into the program: gate, hashing, loop
    plans: list[PlanRecord]
    digest: str
    errors: list[str] = field(default_factory=list)  # pass-level failures

    @property
    def failed(self) -> int:
        return sum(p.error is not None for p in self.plans)

    @property
    def energy_J(self) -> float:
        return float(sum(p.energy_J for p in self.plans))


def gate(s: Scenario, res) -> str | None:
    """Why a planner result is not an acceptable plan, or None if it is."""
    if res.status != "converged":
        return f"status {res.status}"
    plan, led = res.plan, res.ledger
    arrays = (plan.traj, plan.l, plan.f_user, plan.f_uav, led.harvested, led.local,
              led.tx, led.uav_compute, led.propulsion, [led.uav_total])
    if not all(np.all(np.isfinite(a)) for a in arrays):
        return "non-finite plan or ledger entry"
    report = check_constraints(s, plan)
    if not report.feasible(GATE_TOL):
        return "constraint violated: %s %.3g" % report.worst()
    trace = [e for _, e in res.outer_trace]
    if not all(b <= a + 1e-9 * max(1.0, abs(a)) for a, b in zip(trace, trace[1:])):
        return "outer trace increases"
    if res.p2_trace and not res.p2_trace[-1][2] <= GATE_TOL:
        return f"final P2 residual {res.p2_trace[-1][2]:.3g}"
    return None


def plan_energy(res) -> float:
    """Propulsion plus UAV compute energy [J]; the constant RF feed T*P_u is left out."""
    led = res.ledger
    return float(np.sum(led.propulsion) + np.sum(led.uav_compute[1:]))


def _plan_digest(h, res) -> None:
    for a in (res.plan.traj, res.plan.l, res.plan.f_user, res.plan.f_uav):
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())


def _finish_pass(clock: SpeedClock, first: int, plans: list[PlanRecord], h,
                 calls: list[tuple[int, int]] | None = None,
                 errors: list[str] | None = None) -> PassResult:
    """Close a pass begun at mark ``first``.

    ``calls`` are the mark pairs around each call into the program (by
    default the plans' own); the rest of the pass is the benchmark's.
    """
    last = clock.mark()
    for p in plans:
        p.seconds, p.scaled_s = clock.work_s(*p.marks), clock.scaled_s(*p.marks)
    seconds = clock.work_s(first, last)
    program_s = sum(clock.work_s(*m) for m in (calls or [p.marks for p in plans]))
    return PassResult(seconds, clock.scaled_s(first, last), seconds - program_s,
                      plans, h.hexdigest(), errors or [])


def _run_plan(name: str, s: Scenario, call, h, plans: list[PlanRecord],
              clock: SpeedClock) -> None:
    """Plan, gate and hash one plan."""
    start = clock.mark()
    try:
        res = call()
    except Exception as exc:  # a raising plan is a failed plan, not a crashed pass
        plans.append(PlanRecord(name, (start, clock.mark()),
                                error=f"{type(exc).__name__}: {exc}"))
        return
    rec = PlanRecord(name, (start, clock.mark()), error=gate(s, res))
    if rec.error is None:
        rec.energy_J = plan_energy(res)
    _plan_digest(h, res)
    plans.append(rec)


def semicircle_pass(table2: Scenario, clock: SpeedClock) -> PassResult:
    h = hashlib.sha256()
    plans: list[PlanRecord] = []
    first = clock.mark()
    _run_plan("proposed semi-circle T=2", table2,
              lambda: planner.run_algorithm1(table2, init="semi-circle"), h, plans, clock)
    return _finish_pass(clock, first, plans, h)


def random_pass(scenarios: list[Scenario], clock: SpeedClock) -> PassResult:
    h = hashlib.sha256()
    plans: list[PlanRecord] = []
    first = clock.mark()
    for i, s in enumerate(scenarios):
        for scheme in BASELINES:
            _run_plan(f"{scheme} #{i} K={s.K} N={s.N}", s,
                      lambda: planner.run_baseline(s, scheme), h, plans, clock)
    return _finish_pass(clock, first, plans, h)


@contextlib.contextmanager
def _capture_cells(found: list, clock: SpeedClock):
    """Record (scheme, scenario, result or exception, marks) for every plan the CLI runs.

    The CLI reaches the planner through ``planner._run_scheme``, which calls
    the two entry points by their ``planner`` bindings.  A clock mark is
    taken before and after each cell.
    """
    saved = {name: getattr(planner, name) for name in ("run_algorithm1", "run_baseline")}

    def capture(fn, scheme):
        def wrapper(s, *args, **kwargs):
            start = clock.mark()
            try:
                res = fn(s, *args, **kwargs)
            except Exception as exc:
                found.append((scheme(args), s, exc, (start, clock.mark())))
                raise
            found.append((scheme(args), s, res, (start, clock.mark())))
            return res
        return wrapper

    planner.run_algorithm1 = capture(saved["run_algorithm1"], lambda args: "proposed")
    planner.run_baseline = capture(saved["run_baseline"], lambda args: args[0])
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(planner, name, fn)


def sweep_pass(root: Path, scratch: Path, clock: SpeedClock) -> PassResult:
    out = Path(tempfile.mkdtemp(prefix="sweep-", dir=scratch))
    argv = ["--scenario", str(table2_path(root)), "--schemes", "all",
            "--sweep-T", ",".join(f"{t:g}" for t in SWEEP_T),
            "--workers", "1", "--out", str(out)]
    found: list = []
    plans: list[PlanRecord] = []
    errors: list[str] = []
    h = hashlib.sha256()
    first = clock.mark()
    try:
        with _capture_cells(found, clock), contextlib.redirect_stdout(io.StringIO()):
            cli_start, raised = clock.mark(), None
            try:
                status = cli.main(argv)
            except Exception as exc:  # an escaping solver error fails the run, not the benchmark
                raised = exc
            cli_marks = (cli_start, clock.mark())
        if raised is not None:
            errors.append(f"cli raised {type(raised).__name__}: {raised}")
        elif status != 0:
            errors.append(f"cli exit status {status}")
        summary = out / "summary.txt"
        rows = {}
        for line in (summary.read_text().splitlines()[2:] if summary.is_file() else []):
            cols = line.split()
            rows[(cols[0], float(cols[1]))] = cols[-1]
        for scheme, s, res, marks in found:
            rec = PlanRecord(f"{scheme} T={s.T:g}", marks)
            if isinstance(res, Exception):
                rec.error = f"{type(res).__name__}: {res}"
            else:
                rec.error = gate(s, res)
                if rec.error is None and rows.get((scheme, s.T)) != "converged":
                    rec.error = "no converged summary.txt row"
                if rec.error is None:
                    rec.energy_J = plan_energy(res)
            plans.append(rec)
        if len(rows) != len(SWEEP_T) * len(planner.SCHEMES) or len(plans) != len(rows):
            errors.append(f"{len(rows)} summary rows for {len(plans)} planned cells")
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            h.update(path.relative_to(out).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return _finish_pass(clock, first, plans, h, [cli_marks], errors)


class Workload:
    """Inputs of one workload, built once; :meth:`run_pass` plans them once."""

    def __init__(self, name: str, root: Path, scratch: Path, seed: int):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; pick from {WORKLOADS}")
        self.name, self.root, self.scratch = name, root, scratch
        self.table2 = load_scenario(table2_path(root))
        self.params = generate_params(self.table2, seed) if name == "random-schedule" else []
        self.scenarios = [Scenario(**p) for p in self.params]

    def run_pass(self, clock: SpeedClock) -> PassResult:
        if self.name == "table2-sweep":
            return sweep_pass(self.root, self.scratch, clock)
        if self.name == "semicircle-sca":
            return semicircle_pass(self.table2, clock)
        return random_pass(self.scenarios, clock)
