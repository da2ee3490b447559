"""Benchmark of the uavmec planner: one workload per invocation.

    python3 bench/run.py --workload table2-sweep --seed 1 --seconds 45 --trace 0

Workloads (see ``workloads.py``): ``table2-sweep``, ``random-schedule`` and
``semicircle-sca``.  BLAS is pinned to one thread before numpy is imported,
and the package is imported from ``src/`` of the checkout this file sits in.

``--trace 0`` plans the workload in passes, at least two and more while the
next one would end within ``--seconds``, and reports the end-to-end
metrics ``BENCHMARK.json`` names: ``setup_s`` (median of fresh-interpreter
set-up samples), ``solve_s`` (median pass time), ``energy_J`` (propulsion
plus UAV compute energy summed over a pass's plans) and ``peak_rss_MB``.  The times are scaled to a quiet host's
speed by ``speed.SpeedClock``; the wall times go to the record.
``--trace 1`` runs one plain pass and then one pass with every layer
wrapped (``tracing.py``), and reports the per-layer metrics together with
the trace's own accounting: the traced pass time splits into the spans'
self times, the benchmark's own work outside its calls into the program,
and a rest that must lie within the tracing overhead (the time the
wrappers spend outside their spans, counter reads included).

Every plan goes through the correctness gate; the outputs of all passes of
one invocation must hash alike.  A human-readable summary (which adds
``plan_s_p50``, the median scaled plan time, and ``failed_frac``) goes to
stdout, the full record (environment, passes,
plans, spans) to ``.bench_out/<workload>-seed<seed>-trace<t>.json``, and
the last stdout line is the result object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Set-up samples are taken half before and half after the passes.
SETUP_SAMPLES = 8
MIN_PASSES = 2
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def metric_units() -> dict[str, dict[str, str]]:
    """``{"end_to_end"|"per_layer": {metric name: unit}}`` from ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def setup_sample(clock, params: list[dict]) -> tuple[float, float]:
    """(wall, scaled) seconds to import uavmec and build the workload's scenarios.

    Timed inside a fresh interpreter, between two clock marks.
    """
    mark = clock.mark()
    out = subprocess.run([sys.executable, str(Path(__file__).with_name("setup_probe.py")),
                          str(ROOT)], input=json.dumps(params), capture_output=True,
                         text=True, check=True, timeout=120)
    clock.mark()
    wall = float(out.stdout.strip().splitlines()[-1])
    return wall, wall * clock.scale(mark)


def git_commit() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = None
    return {
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": f"{platform.machine()} {platform.processor()}".strip(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "git_commit": git_commit(),
        "src_uavmec_lines": sum(len(p.read_bytes().splitlines())
                                for p in sorted((SRC / "uavmec").rglob("*.py"))),
    }


def end_to_end_metrics(setup: list[tuple[float, float]], passes: list) -> dict[str, float]:
    """End-to-end metrics of a plain run from its (wall, scaled) set-up samples and passes."""
    return {
        "setup_s": statistics.median(s for _, s in setup),
        "solve_s": statistics.median(p.scaled_s for p in passes),
        "energy_J": statistics.median(p.energy_J for p in passes),
        "peak_rss_MB": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def trace_metrics(spans: list, plain, traced) -> tuple[dict[str, float], dict]:
    """Per-layer metrics of a traced pass, and the check that its spans account for it.

    The traced pass time is the spans' self times, plus the benchmark's own
    work outside its calls into the program (gate, hashing, loop; timed in
    the pass), plus a rest: the time inside those calls that no span's self
    time covers.  The rest must lie within the tracing overhead, the time
    the wrappers spent outside the spans they record (counter reads
    included), measured in each wrapper.
    """
    import tracing

    metrics = tracing.layer_metrics(spans)
    self_sum = sum(tracing.self_times(spans))
    overhead = sum(sp.wrapper_s for sp in spans)
    rest = traced.seconds - self_sum - traced.bench_s
    metrics.update({"bench.trace.self_sum_s": self_sum,
                    "bench.trace.bench_s": traced.bench_s,
                    "bench.trace.rest_s": rest,
                    "bench.trace.overhead_s": overhead})
    check = {"traced_minus_plain_s": traced.seconds - plain.seconds,
             "spans_account_for_pass": 0.0 <= rest <= overhead}
    return metrics, check


def run(args) -> tuple[dict, dict]:
    """Run the workload; return (result line object, full record)."""
    import speed
    import tracing
    import workloads

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    # While tracing, the reference kernel would run inside layer spans.
    clock = speed.SpeedClock(reference=not args.trace)
    setup, spans = [], []
    try:
        wl = workloads.Workload(args.workload, ROOT, scratch, args.seed)
        if args.trace:
            passes = [wl.run_pass(clock)]
            with tracing.Tracer() as tracer:
                passes.append(wl.run_pass(clock))
            spans = tracer.spans
        else:
            setup = [setup_sample(clock, wl.params) for _ in range(SETUP_SAMPLES // 2)]
            passes, lap = [], 0.0
            start = time.perf_counter()
            with clock.in_layers():
                while (len(passes) < MIN_PASSES
                       or time.perf_counter() - start + lap <= args.seconds):
                    t0 = time.perf_counter()
                    passes.append(wl.run_pass(clock))
                    lap = time.perf_counter() - t0
            setup += [setup_sample(clock, wl.params)
                      for _ in range(SETUP_SAMPLES - len(setup))]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    plans = [pl for p in passes for pl in p.plans]
    if args.trace:
        metrics, check = trace_metrics(spans, *passes)
    else:
        metrics, check = end_to_end_metrics(setup, passes), {}

    attempted = len(plans)
    failed = sum(p.failed for p in passes)
    errors = [e for p in passes for e in p.errors]
    if len({p.digest for p in passes}) != 1:
        errors.append("outputs differ between passes of one invocation")
    units = metric_units()["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "metrics": metrics, "failed_frac": failed / attempted, "errors": errors,
        "plan_s_p50": statistics.median(pl.scaled_s for pl in plans),
        "trace_check": check,
        "setup_samples": [{"wall_s": w, "scaled_s": s} for w, s in setup],
        "clock_marks": clock.marks if clock.reference else [],
        "passes": [{"work_s": p.seconds, "scaled_s": p.scaled_s, "bench_s": p.bench_s,
                    "digest": p.digest, "energy_J": p.energy_J, "errors": p.errors,
                    "plans": [vars(pl) for pl in p.plans]}
                   for p in passes],
        "spans": tracing.span_records(spans),
        "result": result,
    }
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("table2-sweep", "semicircle-sca", "random-schedule"))
    parser.add_argument("--seed", type=int, default=1,
                        help="random-schedule generator seed (the fixed workloads ignore it)")
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="measuring budget; after two passes, stop before exceeding it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "uavmec" / "__init__.py").is_file():
        print(f"error: no uavmec package under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import uavmec

    if not Path(uavmec.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: uavmec imported from {uavmec.__file__}, not {SRC}", file=sys.stderr)
        return 2

    result, record = run(args)
    for name, m in result["metrics"].items():
        print(f"{args.workload:16s} {name:48s} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload:16s} {'plan_s_p50':48s} {record['plan_s_p50']:.6g} s")
    print(f"{args.workload:16s} {'failed_frac':48s} {record['failed_frac']:.6g} ratio")
    for name, value in record["trace_check"].items():
        print(f"{args.workload:16s} {name:48s} {value}")
    for p in record["passes"]:
        for pl in p["plans"]:
            if pl["error"]:
                print(f"failed plan {pl['name']}: {pl['error']}")
    for e in record["errors"]:
        print(f"error: {e}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
