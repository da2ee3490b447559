"""Command-line front end: run schemes or duration sweeps on a scenario file.

Writes one directory per (scheme, T) cell containing the trajectory,
energy ledger and convergence trace as plain structured text, plus an
aligned summary table.  Each duration's cells are planned together, so
the proposed scheme starts from the straight-line baseline's solve and
the semi-circle baseline's schedule solve from its prices; ``--workers``
spreads the durations over a thread pool.  Identical inputs produce
byte-identical outputs (the solvers are deterministic and nothing is
randomized).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import importlib.util
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .config import load_scenario, ConfigParseError
from .planner import SCHEMES, PlannerResult, SweepCell, _run_duration

__all__ = ["RunConfig", "run", "main"]


@dataclasses.dataclass(frozen=True)
class RunConfig:
    scenario_path: str
    schemes: tuple[str, ...] = SCHEMES
    T_sweep: tuple[float, ...] | None = None
    output_dir: str = "results"
    verbose: bool = False
    workers: int = 1

    def __post_init__(self):
        if not self.schemes:
            raise ValueError("schemes list must not be empty")
        for scheme in self.schemes:
            if scheme not in SCHEMES:
                raise ValueError(f"unknown scheme {scheme!r}; pick from {SCHEMES}")
        if len(set(self.schemes)) < len(self.schemes):
            raise ValueError(f"a scheme is named twice in {self.schemes}")
        # A duration's cells are written under its label f"{T:g}".
        sweep = self.T_sweep or ()
        if len({f"{T:g}" for T in sweep}) < len(sweep):
            raise ValueError(f"a duration is named twice in {self.T_sweep}")


def _fmt(v: float) -> str:
    return repr(float(v))


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n")


def _write_trajectory(path: Path, result: PlannerResult) -> None:
    traj, slot = result.plan.traj, result.scenario.slot
    speeds = np.append(np.linalg.norm(np.diff(traj, axis=0), axis=1) / slot, 0.0)
    _write_lines(path, ["# n x y speed"] + [f"{n + 1} {_fmt(x)} {_fmt(y)} {_fmt(v)}"
                                           for n, ((x, y), v) in enumerate(zip(traj, speeds))])


def _write_ledger(path: Path, result: PlannerResult) -> None:
    s, led = result.scenario, result.ledger
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
    _write_lines(path, lines)


def _write_trace(path: Path, result: PlannerResult) -> None:
    _write_lines(path, ["# i E_u"] + [f"{i} {_fmt(e)}" for i, e in result.outer_trace])


def _write_p2_trace(path: Path, result: PlannerResult) -> None:
    _write_lines(path, ["# iter dual_value max_violation"] + [
        f"{it} {_fmt(g)} {_fmt(viol)}" for it, g, viol in result.p2_trace])


def _cell_dir(out: Path, cell: SweepCell) -> Path:
    return out / f"{cell.scheme}_T{cell.T:g}"


def run(cfg: RunConfig) -> int:
    """Execute all requested cells, write result files, print the summary.

    Returns the process exit status: 0 iff every cell converged, 2 when
    the scenario cannot be read or the output directory cannot be made.
    """
    out = Path(cfg.output_dir)
    try:
        s = load_scenario(cfg.scenario_path)
        out.mkdir(parents=True, exist_ok=True)
    except (ConfigParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    T_values = sorted(cfg.T_sweep) if cfg.T_sweep else [s.T]

    def plan(T):
        return _run_duration(s, T, cfg.schemes)

    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            per_T = list(pool.map(plan, T_values))
    else:
        per_T = [plan(T) for T in T_values]
    cells = [cell for row in per_T for cell in row]

    header = f"{'scheme':<14} {'T':>6} {'uav_total':>16} {'iterations':>11} {'status':>10}"
    summary = [header, "-" * len(header)]
    for cell in cells:
        if cell.result is not None:
            res = cell.result
            summary.append(f"{cell.scheme:<14} {cell.T:>6g} {res.uav_total:>16.6f} "
                           f"{res.iterations:>11d} {res.status:>10}")
            cell_dir = _cell_dir(out, cell)
            cell_dir.mkdir(parents=True, exist_ok=True)
            _write_trajectory(cell_dir / "trajectory.txt", res)
            _write_ledger(cell_dir / "ledger.txt", res)
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


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with the OpenBLAS copies bundled with numpy (64-bit
    interface) and scipy on one thread each, and restore the previous
    counts after it.  A copy whose thread-count symbols do not resolve is
    left alone.

    The planner's matrices have at most a few hundred rows, where OpenBLAS
    threads cost more in hand-offs than they save.  The library leaves
    threading to its caller; only the command line pins it.
    """
    blas = []
    for pkg, suffix in (("numpy", "64_"), ("scipy", "")):
        libs = Path(importlib.util.find_spec(pkg).origin).parents[1] / f"{pkg}.libs"
        for path in sorted(libs.glob("libscipy_openblas*.so*")):
            try:
                lib = ctypes.CDLL(str(path))
                set_threads = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
                get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            except (OSError, AttributeError):
                continue
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            blas.append((set_threads, get_threads()))
    for set_threads, _ in blas:
        set_threads(1)
    try:
        yield
    finally:
        for set_threads, n in blas:
            set_threads(n)


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
    parser.add_argument("--workers", type=int, default=1,
                        help="worker threads over sweep durations")
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
                        T_sweep=sweep, output_dir=args.out, verbose=args.verbose,
                        workers=max(1, args.workers))
    except ValueError as exc:
        parser.error(str(exc))
    with _one_blas_thread():
        return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
