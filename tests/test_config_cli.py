import ctypes
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from uavmec.config import (
    ConfigParseError,
    parse_scenario_text,
    load_scenario,
    write_scenario,
    bundled_scenario,
)
from uavmec.cli import main
from uavmec.model import Scenario


# --- parsing -----------------------------------------------------------------

def test_bundled_reference_fields():
    s = bundled_scenario("table2")
    assert s.K == 4 and s.N == 50
    assert s.H == 10.0 and s.T == 2.0
    assert s.M == 1e3 and s.eta == 0.8
    assert s.B == 4e7 and s.sigma2 == 1e-9
    assert s.W_mass == 9.65 and s.gamma_c == 1e-28
    assert s.beta0 == pytest.approx(1e-5)
    assert s.V_max == 10.0 and s.Gamma == 1.0
    assert np.allclose(s.q0, [0.0, 0.0]) and np.allclose(s.qF, [10.0, 0.0])
    assert np.allclose(s.R, [2e6, 4e6, 6e6, 3e6])
    assert np.allclose(s.user_pos, [[0, 0], [0, 10], [10, 10], [10, 0]])
    assert s.xi == 1e-4 and s.xi1 == 1e-4


def test_db_and_dbm_suffixes(table2):
    text = _render(table2, beta0="-50 dB", P_u="30 dBm")
    s = parse_scenario_text(text)
    assert s.beta0 == pytest.approx(1e-5)
    assert s.P_u == pytest.approx(1.0)


def test_unknown_suffix_rejected(table2):
    with pytest.raises(ConfigParseError, match="unknown unit suffix"):
        parse_scenario_text(_render(table2, P_u="10 dBw"))


def test_parse_error_carries_line_number(table2):
    text = _render(table2)
    lines = text.splitlines()
    idx = next(i for i, ln in enumerate(lines) if ln.startswith("H ="))
    lines[idx] = "H = ten"
    with pytest.raises(ConfigParseError, match=rf"line {idx + 1}"):
        parse_scenario_text("\n".join(lines))


def test_unknown_field_rejected(table2):
    with pytest.raises(ConfigParseError, match="unknown field"):
        parse_scenario_text(_render(table2) + "\nwingspan = 3\n")


def test_missing_demand_names_user(table2):
    text = _render(table2, R="[2.0e6, 4.0e6, 6.0e6]")
    with pytest.raises(ConfigParseError, match="missing demand for user 4"):
        parse_scenario_text(text)


@pytest.mark.parametrize("field, value", [
    ("K", "nan"), ("K", "inf"), ("N", "inf"),
    ("user_pos", "[[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]"),
    ("R", "[[1, 2], [3, 4], [5, 6], [7, 8]]"),
])
def test_malformed_field_is_a_parse_error(table2, field, value):
    """Non-finite counts and arrays of the wrong shape end in
    ConfigParseError, not in another exception from the model."""
    with pytest.raises(ConfigParseError) as exc:
        parse_scenario_text(_render(table2, **{field: value}))
    assert "missing demand" not in str(exc.value)


@pytest.mark.parametrize("key, line, message", [
    ("T", "H = 10.0", "duplicate field 'H'"),
    ("H", "H 10.0", "expected 'key = value'"),
    ("R", "R = 2e6, 4e6, 6e6, 3e6", "R must be a bracketed array"),
    ("R", "R = [2e6, 4e6,, 6e6, 3e6]", "bad array for R"),
    ("P_u", "P_u = ten dBm", "cannot parse number 'ten'"),
    ("P_u", "P_u = 50 dB m", "cannot parse value '50 dB m'"),
    ("T", "T = 3 dB", "T takes no 'dB' suffix"),
    ("K", "K = 0 dB", "K takes no 'dB' suffix"),
    ("H", "H = 40 dBm", "H takes no 'dBm' suffix"),
])
def test_parse_error_names_its_line(table2, key, line, message):
    lines = _render(table2).splitlines()
    idx = next(i for i, ln in enumerate(lines) if ln.startswith(f"{key} ="))
    lines[idx] = line
    with pytest.raises(ConfigParseError, match=rf"^line {idx + 1}: {re.escape(message)}") as exc:
        parse_scenario_text("\n".join(lines))
    assert exc.value.line == idx + 1


def test_missing_required_field(table2):
    text = "\n".join(ln for ln in _render(table2).splitlines()
                     if not ln.startswith("B ="))
    with pytest.raises(ConfigParseError, match="missing required fields: B"):
        parse_scenario_text(text)


def test_comments_and_blank_lines(table2):
    text = "# heading\n\n" + _render(table2).replace("H = 10.0", "H = 10.0  # meters")
    s = parse_scenario_text(text)
    assert s.H == 10.0


def test_roundtrip_exact(tmp_path, ref2x6):
    path = tmp_path / "ref.cfg"
    write_scenario(ref2x6, path)
    s2 = load_scenario(path)
    for name in ref2x6.__dataclass_fields__:
        a, b = getattr(ref2x6, name), getattr(s2, name)
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b), name
        else:
            assert a == b, name


def _render(s, **overrides) -> str:
    from pathlib import Path
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "s.cfg"
        write_scenario(s, p)
        text = p.read_text()
    for key, value in overrides.items():
        lines = []
        for ln in text.splitlines():
            if ln.startswith(f"{key} ="):
                lines.append(f"{key} = {value}")
            else:
                lines.append(ln)
        text = "\n".join(lines) + "\n"
    return text


# --- CLI ---------------------------------------------------------------------

@pytest.mark.parametrize("args, message", [
    (["--schemes", ","], "schemes list must not be empty"),
    (["--schemes", "zigzag"], "unknown scheme 'zigzag'"),
    (["--schemes", "straight-line,straight-line"], "a scheme is named twice"),
    (["--sweep-T", "2,2.2,2"], "a duration is named twice in (2.0, 2.2, 2.0)"),
    (["--sweep-T", "2,2.0000001"], "a duration is named twice in (2.0, 2.0000001)"),
], ids=["empty-schemes", "unknown-scheme", "repeated-scheme", "repeated-duration",
        "same-duration-label"])
def test_cli_bad_schemes_or_durations_exit_2(tmp_path, capsys, args, message):
    """An empty, unknown or repeated scheme and two durations with one
    cell label are usage errors, reported before the scenario is read."""
    with pytest.raises(SystemExit) as exc:
        main(["--scenario", str(tmp_path / "missing.cfg"), *args,
              "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"uavmec: error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("xi1", [-1.0, 0.0, float("nan"), float("inf")])
def test_nonpositive_or_nonfinite_xi1_rejected(tmp_path, table2, xi1, capsys):
    """xi1 is set in the scenario file only, and the scenario refuses a
    tolerance the planner's halving loop could not end on."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(_render(table2, xi1=repr(xi1)))
    assert main(["--scenario", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "xi1 must be positive" in capsys.readouterr().err


def test_readme_flags_match_help(capsys):
    """README's "Flags:" paragraph names exactly the options that
    ``uavmec --help`` prints, so a removed flag cannot stay documented."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = readme.index("Flags:")
    documented = set(re.findall(r"--[a-zA-Z][\w-]*", readme[start:readme.index("\n\n", start)]))
    with pytest.raises(SystemExit):
        main(["--help"])
    printed = set(re.findall(r"--[a-zA-Z][\w-]*", capsys.readouterr().out)) - {"--help"}
    assert documented == printed


def test_readme_fields_match_scenario():
    """README's "Required fields" sentence names the Scenario fields without
    a default, in order, and then those with one as optional."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = readme.index("Required fields:") + len("Required fields:")
    required, _, optional = readme[start:readme.index(")", start)].partition("(optional")
    fields = dataclasses.fields(Scenario)
    assert re.findall(r"\w+", required) == [
        f.name for f in fields if f.default is dataclasses.MISSING]
    assert re.findall(r"`(\w+)`", optional) == [
        f.name for f in fields if f.default is not dataclasses.MISSING]


@pytest.fixture(scope="module")
def ref_cfg(tmp_path_factory, ref2x6):
    path = tmp_path_factory.mktemp("cfg") / "ref.cfg"
    write_scenario(ref2x6, path)
    return path


def test_cli_end_to_end(tmp_path, ref_cfg):
    out = tmp_path / "out"
    code = main(["--scenario", str(ref_cfg), "--schemes",
                 "straight-line,semi-circle", "--out", str(out)])
    assert code == 0
    summary = (out / "summary.txt").read_text()
    assert "straight-line" in summary and "semi-circle" in summary
    for scheme in ("straight-line", "semi-circle"):
        cell = out / f"{scheme}_T1.2"
        traj = (cell / "trajectory.txt").read_text().splitlines()
        assert traj[0] == "# n x y speed"
        assert len(traj) == 1 + 7          # header + N+1 points
        ledger = (cell / "ledger.txt").read_text().splitlines()
        assert ledger[0].startswith("# n harvested_1")
        assert len(ledger) == 1 + 6 + 1    # header + N rows + total line
        trace = (cell / "trace.txt").read_text().splitlines()
        assert trace[0] == "# i E_u"


def test_cli_byte_identical_reruns(tmp_path, ref_cfg):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["--scenario", str(ref_cfg), "--schemes", "proposed",
                     "--out", str(out)])
        assert code == 0
        outs.append(out)
    files = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
    assert files
    for rel in files:
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel


def test_cli_infeasible_cell_exit_code(tmp_path, ref2x6):
    fields = {n: getattr(ref2x6, n) for n in ref2x6.__dataclass_fields__}
    starved = Scenario(**{**fields, "P_u": 1.0})
    cfg = tmp_path / "starved.cfg"
    write_scenario(starved, cfg)
    code = main(["--scenario", str(cfg), "--schemes", "proposed",
                 "--out", str(tmp_path / "out")])
    assert code == 1


def test_cli_solver_error_fails_only_its_cell(tmp_path, ref_cfg, monkeypatch):
    from uavmec import planner
    from uavmec.trajectory_solver import ScaIterationLimitError

    def stuck(*args, **kwargs):
        raise ScaIterationLimitError("SCA iteration limit")

    monkeypatch.setattr(planner, "joint_step", stuck)
    out = tmp_path / "out"
    code = main(["--scenario", str(ref_cfg), "--schemes", "proposed,straight-line",
                 "--out", str(out)])
    assert code == 1
    rows = (out / "summary.txt").read_text().splitlines()[2:]
    assert rows[0].split()[0] == "proposed" and rows[0].split()[-1] == "failed"
    assert rows[1].split()[0] == "straight-line" and rows[1].split()[-1] == "converged"
    assert (out / "straight-line_T1.2" / "ledger.txt").exists()


def test_cli_bad_sweep_exits_2(tmp_path, ref_cfg, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--scenario", str(ref_cfg), "--sweep-T", "2,x", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "--sweep-T must be a comma list of numbers" in capsys.readouterr().err


def test_cli_bad_scenario_path(tmp_path):
    code = main(["--scenario", str(tmp_path / "missing.cfg"),
                 "--out", str(tmp_path / "out")])
    assert code == 2


def test_cli_malformed_scenario_exits_2(tmp_path, table2, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(_render(table2, K="nan"))
    assert main(["--scenario", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "K must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, field", [
    ({"q0": "[1e999, 0.0]", "qF": "[1e999, 0.0]"}, "q0"),
    ({"R": "[1e999, 4e6, 6e6, 3e6]"}, "R"),
])
def test_cli_nonfinite_array_exits_2(tmp_path, table2, capsys, overrides, field):
    """An overflowing array entry is a scenario error (exit 2), not a
    solver crash or a cell short by inf bits."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(_render(table2, **overrides))
    assert main(["--scenario", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"{field} entries must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["scenario-is-directory", "scenario-not-utf8", "out-is-file",
                                  "cell-dir-is-file"])
def test_cli_unusable_path_exits_2(tmp_path, ref_cfg, capsys, monkeypatch, case):
    """A scenario path that is a directory or not UTF-8 text, and an
    output path or a cell directory's path that is a file, are reported as
    errors with exit 2 (exit 1 means a cell did not converge) before any
    cell is planned."""
    from uavmec import planner

    calls = []
    for name in ("run_algorithm1", "run_baseline"):
        monkeypatch.setattr(planner, name, lambda *args, **kwargs: calls.append(args))
    scenario, out = ref_cfg, tmp_path / "out"
    if case == "scenario-is-directory":
        scenario = tmp_path
    elif case == "scenario-not-utf8":
        scenario = tmp_path / "binary.cfg"
        scenario.write_bytes(b"K = 2\n\xff\xfe\n")
    elif case == "out-is-file":
        out.write_text("")
    else:
        out.mkdir()
        (out / "proposed_T1.2").write_text("")
    assert main(["--scenario", str(scenario), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert calls == []


def test_cli_sweep_workers(tmp_path, ref_cfg):
    outs = {}
    for workers in ("1", "2"):
        out = outs[workers] = tmp_path / f"sweep{workers}"
        code = main(["--scenario", str(ref_cfg), "--schemes", "all",
                     "--sweep-T", "1.2,1.4", "--out", str(out), "--workers", workers])
        assert code == 0
    summary = (outs["2"] / "summary.txt").read_text()
    assert summary.index("1.2") < summary.index("1.4")
    files = sorted(p.relative_to(outs["1"]) for p in outs["1"].rglob("*") if p.is_file())
    assert len(files) == 1 + 6 * 3
    assert files == sorted(p.relative_to(outs["2"]) for p in outs["2"].rglob("*")
                           if p.is_file())
    for rel in files:
        assert (outs["1"] / rel).read_bytes() == (outs["2"] / rel).read_bytes(), rel


def test_cli_plans_each_cell_through_one_entry_point(tmp_path, ref_cfg, monkeypatch):
    """Every cell enters ``planner.run_algorithm1`` or
    ``planner.run_baseline`` (scheme first and positional) exactly once,
    looked up on the module at call time, so wrappers placed there see
    each cell."""
    from uavmec import planner

    calls = []

    def counted(fn, scheme):
        def wrapper(s, *args, **kwargs):
            calls.append((scheme(args), s.T))
            return fn(s, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(planner, "run_algorithm1",
                        counted(planner.run_algorithm1, lambda args: "proposed"))
    monkeypatch.setattr(planner, "run_baseline",
                        counted(planner.run_baseline, lambda args: args[0]))
    code = main(["--scenario", str(ref_cfg), "--schemes", "all",
                 "--sweep-T", "1.2,1.4", "--out", str(tmp_path / "out")])
    assert code == 0
    assert sorted(calls) == sorted((scheme, T) for scheme in planner.SCHEMES
                                   for T in (1.2, 1.4))


def _openblas_threads(set_to: int | None = None) -> list[int]:
    """Thread count of the OpenBLAS copy bundled with numpy, the one the
    planner calls (empty when numpy bundles none; the test references'
    scipy has a copy of its own), after setting it to ``set_to`` if given."""
    counts = []
    libs = Path(np.__file__).parents[1] / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        set_threads = lib.scipy_openblas_set_num_threads64_
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        if set_to is not None:
            set_threads(set_to)
        get = lib.scipy_openblas_get_num_threads64_
        get.argtypes, get.restype = [], ctypes.c_int
        counts.append(get())
    return counts


def test_cli_runs_on_one_blas_thread(tmp_path, ref_cfg, monkeypatch):
    """The CLI plans on one OpenBLAS thread and restores the count after.
    The test session itself runs on one (conftest.py), so the count is
    raised to two first, where the host allows it, to make the pin seen."""
    from uavmec import cli
    before = _openblas_threads()
    if not before:
        pytest.skip("numpy bundles no OpenBLAS here")
    raised = _openblas_threads(set_to=2)
    try:
        seen = []
        monkeypatch.setattr(cli, "_run", lambda *args: seen.append(_openblas_threads()) or 0)
        assert main(["--scenario", str(ref_cfg), "--out", str(tmp_path / "out")]) == 0
        assert seen == [[1] * len(before)]
        assert _openblas_threads() == raised
    finally:
        _openblas_threads(set_to=before[0])


def test_import_leaves_scipy_optimize_out():
    """numpy is the package's only runtime dependency, so importing it and
    its CLI loads no ``scipy`` module at all (``scipy.linalg`` alone is two
    thirds of the import time).  A fresh interpreter: the test references
    import scipy."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, uavmec, uavmec.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
