"""Command-line front end: run schemes or duration sweeps on a scenario file.

Writes one directory per (scheme, T) cell containing the trajectory,
energy ledger and convergence trace as plain structured text, plus an
aligned summary table.  The cells are planned by :func:`planner.sweep_T`:
each duration's cells together, so the proposed scheme starts from the
straight-line baseline's solve, and every baseline schedule solve starts
cold.  Identical inputs produce byte-identical outputs (the solvers are
deterministic and nothing is randomized).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import sys
from pathlib import Path

import numpy as np

from .config import load_scenario, ConfigParseError
from .planner import SCHEMES, PlannerResult, sweep_T

__all__ = ["main"]


def _write_table(path: Path, header: str, rows, footer: str | None = None) -> None:
    """Write ``header``, one line per row (its 1-based index, then each
    value as ``repr(float(v))``) and ``footer`` when given."""
    lines = [header] + [" ".join([str(i)] + [repr(v) for v in row])
                        for i, row in enumerate(np.asarray(rows, dtype=float).tolist(), 1)]
    path.write_text("\n".join(lines + ([footer] if footer else [])) + "\n")


def _write_cell(cell_dir: Path, result: PlannerResult, verbose: bool) -> None:
    s, led, traj = result.scenario, result.ledger, result.plan.traj
    speeds = np.append(np.linalg.norm(np.diff(traj, axis=0), axis=1) / s.slot, 0.0)
    _write_table(cell_dir / "trajectory.txt", "# n x y speed", np.column_stack([traj, speeds]))
    cols = [f"{name}_{k + 1}" for name in ("harvested", "local", "tx") for k in range(s.K)]
    _write_table(cell_dir / "ledger.txt", "# n " + " ".join(cols + ["uav_compute", "propulsion"]),
                 np.column_stack([led.harvested.T, led.local.T, led.tx.T,
                                  led.uav_compute, led.propulsion]),
                 footer=f"# uav_total = {float(led.uav_total)!r}")
    _write_table(cell_dir / "trace.txt", "# i E_u", [[e] for _, e in result.outer_trace])
    if verbose:
        _write_table(cell_dir / "offload_trace.txt", "# iter dual_value max_violation",
                     [row[1:] for row in result.p2_trace])


def _cell_dir(out: Path, scheme: str, T: float) -> Path:
    return out / f"{scheme}_T{T:g}"


def _run(scenario_path: str, schemes: tuple[str, ...], T_sweep: tuple[float, ...] | None,
         out: Path, verbose: bool) -> int:
    """Execute all requested cells, write result files, print the summary.

    Returns the process exit status: 0 iff every cell converged, 2 when
    the scenario cannot be read or an output directory or file cannot be
    made.  A cell directory's name taken by a file is found before any
    cell is planned.
    """
    try:
        s = load_scenario(scenario_path)
        out.mkdir(parents=True, exist_ok=True)
    except (ConfigParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    T_values = T_sweep or (s.T,)
    for scheme in schemes:
        for T in T_values:
            cell_dir = _cell_dir(out, scheme, T)
            if cell_dir.exists() and not cell_dir.is_dir():
                print(f"error: cell directory {cell_dir} is taken by a file", file=sys.stderr)
                return 2
    cells = sweep_T(s, T_values, schemes)

    header = f"{'scheme':<14} {'T':>6} {'uav_total':>16} {'iterations':>11} {'status':>10}"
    summary = [header, "-" * len(header)]
    try:
        for cell in cells:
            if cell.result is not None:
                res = cell.result
                summary.append(f"{cell.scheme:<14} {cell.T:>6g} {res.uav_total:>16.6f} "
                               f"{res.iterations:>11d} {res.status:>10}")
                cell_dir = _cell_dir(out, cell.scheme, cell.T)
                cell_dir.mkdir(parents=True, exist_ok=True)
                _write_cell(cell_dir, res, verbose)
            else:
                summary.append(f"{cell.scheme:<14} {cell.T:>6g} {'-':>16} {'-':>11} "
                               f"{cell.status:>10}")
                if verbose and cell.error:
                    summary.append(f"    {cell.error}")
        table = "\n".join(summary) + "\n"
        (out / "summary.txt").write_text(table)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(table, end="")

    failed = [c for c in cells if not c.converged]
    if failed and verbose:
        for c in failed:
            print(f"cell {c.scheme} T={c.T:g}: {c.error or c.status}", file=sys.stderr)
    return 0 if not failed else 1


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with the OpenBLAS copy bundled with numpy (64-bit
    interface) on one thread, and restore the previous count after it.
    numpy is the package's only runtime dependency, so its copy is the one
    the planner calls.  A copy whose thread-count symbols do not resolve,
    or a numpy built without a bundled OpenBLAS, is left alone.

    The planner's matrices have at most a few hundred rows.  On a 2-vCPU
    host, 2 to 16 threads leave the table2 sweep within its noise but
    slow 24 generated baseline plans from 0.12 s on one thread to
    0.18-0.20 s (README "Performance").  The library leaves threading to
    its caller; only the command line pins it.
    """
    blas = []
    libs = Path(np.__file__).parents[1] / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            lib = ctypes.CDLL(str(path))
            set_threads = lib.scipy_openblas_set_num_threads64_
            get_threads = lib.scipy_openblas_get_num_threads64_
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
                        help="ignored: the cells run in order; the flag goes with the "
                             "benchmark contract change of ROADMAP item 1, since bench/ "
                             "still passes it")
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
    if not schemes:
        parser.error("schemes list must not be empty")
    for scheme in schemes:
        if scheme not in SCHEMES:
            parser.error(f"unknown scheme {scheme!r}; pick from {SCHEMES}")
    if len(set(schemes)) < len(schemes):
        parser.error(f"a scheme is named twice in {schemes}")
    # A duration's cells are written under its label f"{T:g}".
    if sweep and len({f"{T:g}" for T in sweep}) < len(sweep):
        parser.error(f"a duration is named twice in {sweep}")
    with _one_blas_thread():
        return _run(args.scenario, schemes, sweep, Path(args.out), args.verbose)


if __name__ == "__main__":
    sys.exit(main())
