"""Command-line front end: run schemes or duration sweeps on a scenario file.

Writes one directory per (scheme, T) cell containing the trajectory,
energy ledger and convergence trace as plain structured text, plus an
aligned summary table.  Identical inputs produce byte-identical outputs
(the solvers are deterministic; the seed only feeds randomized utilities).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .config import load_scenario, ConfigParseError
from .model import Scenario, ScenarioError
from .errors import SolverError
from .planner import SCHEMES, PlannerResult, SweepCell, _failed_cell, _run_scheme

__all__ = ["RunConfig", "run", "main"]


@dataclasses.dataclass(frozen=True)
class RunConfig:
    scenario_path: str
    schemes: tuple[str, ...] = SCHEMES
    T_sweep: tuple[float, ...] | None = None
    output_dir: str = "results"
    xi: float | None = None
    xi1: float | None = None
    seed: int = 0
    verbose: bool = False
    workers: int = 1

    def __post_init__(self):
        if not self.schemes:
            raise ValueError("schemes list must not be empty")
        for scheme in self.schemes:
            if scheme not in SCHEMES:
                raise ValueError(f"unknown scheme {scheme!r}; pick from {SCHEMES}")


def _fmt(v: float) -> str:
    return repr(float(v))


def _write_trajectory(path: Path, s: Scenario, result: PlannerResult) -> None:
    traj = result.plan.traj
    speeds = np.linalg.norm(np.diff(traj, axis=0), axis=1) / s.slot
    lines = ["# n x y speed"]
    for n in range(s.N + 1):
        speed = speeds[n] if n < s.N else 0.0
        lines.append(f"{n + 1} {_fmt(traj[n, 0])} {_fmt(traj[n, 1])} {_fmt(speed)}")
    path.write_text("\n".join(lines) + "\n")


def _write_ledger(path: Path, s: Scenario, result: PlannerResult) -> None:
    led = result.ledger
    cols = ([f"harvested_{k + 1}" for k in range(s.K)]
            + [f"local_{k + 1}" for k in range(s.K)]
            + [f"tx_{k + 1}" for k in range(s.K)]
            + ["uav_compute", "propulsion"])
    lines = ["# n " + " ".join(cols)]
    for n in range(s.N):
        row = [str(n + 1)]
        row += [_fmt(led.harvested[k, n]) for k in range(s.K)]
        row += [_fmt(led.local[k, n]) for k in range(s.K)]
        row += [_fmt(led.tx[k, n]) for k in range(s.K)]
        row += [_fmt(led.uav_compute[n]), _fmt(led.propulsion[n])]
        lines.append(" ".join(row))
    lines.append(f"# uav_total = {_fmt(led.uav_total)}")
    path.write_text("\n".join(lines) + "\n")


def _write_trace(path: Path, result: PlannerResult) -> None:
    lines = ["# i E_u"]
    for i, e in result.outer_trace:
        lines.append(f"{i} {_fmt(e)}")
    path.write_text("\n".join(lines) + "\n")


def _write_p2_trace(path: Path, result: PlannerResult) -> None:
    lines = ["# iter dual_value max_violation"]
    for it, g, viol in result.p2_trace:
        lines.append(f"{it} {_fmt(g)} {_fmt(viol)}")
    path.write_text("\n".join(lines) + "\n")


def _cell_dir(out: Path, cell: SweepCell) -> Path:
    return out / f"{cell.scheme}_T{cell.T:g}"


def _run_cell(s: Scenario, T: float, scheme: str, cfg: RunConfig) -> SweepCell:
    try:
        st = s.with_T(T)
        result = _run_scheme(st, scheme, cfg.xi, cfg.xi1, tol=1e-6)
        return SweepCell(T=T, scheme=scheme, result=result)
    except (SolverError, ScenarioError) as exc:
        return _failed_cell(T, scheme, exc)


def run(cfg: RunConfig) -> int:
    """Execute all requested cells, write result files, print the summary.

    Returns the process exit status: 0 iff every cell converged.
    """
    try:
        s = load_scenario(cfg.scenario_path)
    except (ConfigParseError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    T_values = sorted(cfg.T_sweep) if cfg.T_sweep else [s.T]
    jobs = [(T, scheme) for T in T_values for scheme in cfg.schemes]

    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            cells = list(pool.map(lambda j: _run_cell(s, j[0], j[1], cfg), jobs))
    else:
        cells = [_run_cell(s, T, scheme, cfg) for T, scheme in jobs]

    header = f"{'scheme':<14} {'T':>6} {'uav_total':>16} {'iterations':>11} {'status':>10}"
    summary = [header, "-" * len(header)]
    for cell in cells:
        if cell.result is not None:
            res = cell.result
            summary.append(f"{cell.scheme:<14} {cell.T:>6g} {res.uav_total:>16.6f} "
                           f"{res.iterations:>11d} {res.status:>10}")
            cell_dir = _cell_dir(out, cell)
            cell_dir.mkdir(parents=True, exist_ok=True)
            st = s.with_T(cell.T)
            _write_trajectory(cell_dir / "trajectory.txt", st, res)
            _write_ledger(cell_dir / "ledger.txt", st, res)
            _write_trace(cell_dir / "trace.txt", res)
            if cfg.verbose:
                _write_p2_trace(cell_dir / "offload_trace.txt", res)
        else:
            summary.append(f"{cell.scheme:<14} {cell.T:>6g} {'-':>16} {'-':>11} "
                           f"{cell.status:>10}")
            if cfg.verbose and cell.error:
                summary.append(f"    {cell.error}")
    table = "\n".join(summary) + "\n"
    (out / "summary.txt").write_text(table)
    print(table, end="")

    failed = [c for c in cells if not c.converged]
    if failed and cfg.verbose:
        for c in failed:
            print(f"cell {c.scheme} T={c.T:g}: {c.error or c.status}", file=sys.stderr)
    return 0 if not failed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="uavmec",
        description="Energy-minimal offloading and flight planning for a "
                    "UAV-carried wireless-powered edge server.")
    parser.add_argument("--scenario", required=True, help="scenario config file")
    parser.add_argument("--schemes", default="all",
                        help="comma list of schemes, or 'all' "
                             f"(choices: {', '.join(SCHEMES)})")
    parser.add_argument("--sweep-T", default=None,
                        help="comma list of mission durations [s]")
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--xi", type=float, default=None,
                        help="path-refinement displacement tolerance override")
    parser.add_argument("--xi1", type=float, default=None,
                        help="outer-loop energy tolerance override [J]")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized utilities")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker pool size for sweep cells")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    schemes = SCHEMES if args.schemes == "all" else tuple(
        t.strip() for t in args.schemes.split(",") if t.strip())
    sweep = None
    if args.sweep_T:
        try:
            sweep = tuple(float(t) for t in args.sweep_T.split(","))
        except ValueError:
            parser.error(f"--sweep-T must be a comma list of numbers, got {args.sweep_T!r}")
    try:
        cfg = RunConfig(scenario_path=args.scenario, schemes=schemes,
                        T_sweep=sweep, output_dir=args.out, xi=args.xi,
                        xi1=args.xi1, seed=args.seed, verbose=args.verbose,
                        workers=max(1, args.workers))
    except ValueError as exc:
        parser.error(str(exc))
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
