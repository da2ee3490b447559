"""Tests of the benchmark's own machinery: generator, tracer, clock, gate, metric list."""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from uavmec import planner  # noqa: E402
from uavmec.config import load_scenario  # noqa: E402
from uavmec.model import Plan, Scenario  # noqa: E402


@pytest.fixture(scope="module")
def table2():
    return load_scenario(workloads.table2_path(ROOT))


@pytest.fixture(scope="module")
def small(table2):
    """The first generated scenario (K=2, N=20)."""
    return Scenario(**workloads.generate_params(table2, 5)[0])


def test_generator_seed_reproduces_identical_scenarios(table2):
    a = workloads.generate_params(table2, 11)
    b = workloads.generate_params(table2, 11)
    assert json.dumps(a) == json.dumps(b)
    c = workloads.generate_params(table2, 12)
    assert json.dumps(a) != json.dumps(c)
    assert [(p["K"], p["N"]) for p in a] == list(workloads.RANDOM_SIZES)
    assert all(np.all(Scenario(**p).R > 0) for p in a)


def _bindings():
    return {(m.__name__, k): v for m in tracing.package_modules() for k, v in vars(m).items()}


def test_tracer_restores_every_binding(small):
    before = _bindings()
    with tracing.Tracer() as tracer:
        assert planner.solve_p2 is not before[("uavmec.planner", "solve_p2")]
        planner.run_baseline(small, "straight-line")
        with pytest.raises(ValueError):
            planner.run_baseline(small, "no-such-scheme")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not any(getattr(v, "__bench_traced__", False) for v in after.values())

    names = [sp.name for sp in tracer.spans]
    assert names.count("planner.run_baseline") == 2
    assert "offload_solver.minimize" in names
    assert tracer.spans[-1].error == "ValueError"
    metrics = tracing.layer_metrics(tracer.spans)
    root_busy = sum(sp.end - sp.start for sp in tracer.spans if sp.parent is None)
    child_reads = sum(sp.inspect_s for sp in tracer.spans if sp.parent is not None)
    assert sum(tracing.self_times(tracer.spans)) == pytest.approx(root_busy - child_reads)
    assert metrics["qcqp.solve.calls"] == 0


def test_clock_marks_at_layer_calls_and_restores_bindings(small):
    before = _bindings()
    clock = speed.SpeedClock()
    with clock.in_layers(gap_s=0.0):
        first = clock.mark()
        planner.run_baseline(small, "straight-line")
        last = clock.mark()
    assert all(v is before[k] for k, v in _bindings().items())
    assert last - first > 2                  # marks were taken inside the plan
    assert 0.0 < clock.work_s(first, last) < clock.marks[last][0] - clock.marks[first][1]
    assert clock.scaled_s(first, last) > 0.0


def test_gate_fails_a_plan_with_doubled_offload(small):
    res = planner.run_baseline(small, "straight-line")
    assert workloads.gate(small, res) is None
    p = res.plan
    broken = dataclasses.replace(res, plan=Plan(traj=p.traj, l=2.0 * p.l,
                                                f_user=p.f_user, f_uav=p.f_uav))
    assert workloads.gate(small, broken) is not None


def test_benchmark_json_names_what_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    units = run.metric_units()
    plan = workloads.PlanRecord("plan", (0, 1), 1.0, 1.0)
    one = workloads.PassResult(1.0, 1.0, 0.1, [plan], "digest")
    assert set(run.end_to_end_metrics([(1.0, 1.0)], [one])) == set(units["end_to_end"])
    layer, _ = run.trace_metrics([], one, one)
    assert set(layer) == set(units["per_layer"])
