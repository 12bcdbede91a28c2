import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hbflow.cli
import hbflow.solver
from hbflow.cli import (
    PRESETS,
    ConfigError,
    RunManifest,
    build_manifest,
    main,
    make_parser,
    parse_config_file,
)
from hbflow.export import CSV_HEADER
from hbflow.linesearch import LineSearchConfig
from hbflow.solver import SolverConfig, continuation_solve


def write(path, text):
    path.write_text(text)
    return str(path)


def test_parse_config_file(tmp_path):
    cfg = write(tmp_path / "run.cfg", """
# pipe flow setup
p = 1.5
max-iters = 40   # dashes normalize to underscores
domain=disk
continuation = yes
g=0.25
""")
    values = parse_config_file(cfg)
    assert values == {
        "p": 1.5, "max_iters": 40, "domain": "disk",
        "continuation": True, "g": 0.25,
    }
    assert isinstance(values["max_iters"], int)


@pytest.mark.parametrize("line", [
    "zeta = 3",            # unknown key
    "p = abc",             # unparseable float
    "just a line",         # no key=value shape
    "continuation = maybe",
    "preset = exp1-thickening",  # would label the run with a preset it did not apply
])
def test_parse_config_file_rejects(tmp_path, line):
    cfg = write(tmp_path / "bad.cfg", line + "\n")
    with pytest.raises(ConfigError):
        parse_config_file(cfg)


def test_manifest_precedence(tmp_path):
    cfg = write(tmp_path / "run.cfg", "n = 10\ng = 0.5\n")
    args = make_parser().parse_args(
        ["run", "--preset", "exp2-mesh-study", "--config", cfg, "--g", "0.9"]
    )
    manifest = build_manifest(args)
    assert manifest.p == 1.5          # from the preset
    assert manifest.f == 3.0          # from the preset
    assert manifest.n == 10           # config file overrides the preset
    assert manifest.g == 0.9          # explicit flag overrides the config file
    assert manifest.preset == "exp2-mesh-study"


def test_presets_cover_the_experiments():
    assert set(PRESETS) == {
        "exp1-thinning", "exp1-thickening", "exp2-mesh-study", "exp3-continuation",
    }
    thinning = PRESETS["exp1-thinning"]
    assert thinning["domain"] == "disk"
    assert thinning["level"] == 6
    assert thinning["p"] == 1.75
    continuation = PRESETS["exp3-continuation"]
    assert continuation["p"] == 100.0
    assert continuation["continuation"] is True


def test_manifest_defaults_are_the_library_defaults():
    # the manifest keeps its own copies, so that a summary can record them
    manifest = RunManifest()
    solver = SolverConfig(p=2.0, g=0.2, gamma=1e3)
    ladder = inspect.signature(continuation_solve).parameters
    assert (manifest.epsilon, manifest.tol, manifest.max_iters) == (
        solver.epsilon, solver.tol, solver.max_iters)
    assert manifest.sigma1 == LineSearchConfig().sigma1
    assert (manifest.gamma_start, manifest.gamma_end) == (
        ladder["gamma_start"].default, ladder["gamma_end"].default)


def test_unknown_preset_is_config_error(capsys):
    assert main(["run", "--preset", "exp9"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_missing_resolution_is_config_error(capsys):
    assert main(["run", "--domain", "square", "--p", "1.5"]) == 2


@pytest.mark.parametrize("flag, value", [("--n", "1"), ("--n", "0"), ("--level", "-1")])
def test_mesh_without_interior_vertices_is_config_error(tmp_path, capsys, flag, value):
    domain = "square" if flag == "--n" else "disk"
    out = tmp_path / "out"
    assert main(["run", "--domain", domain, f"{flag}={value}", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_run_disk_level_zero(tmp_path, capsys):
    # one interior vertex, at the centre
    out = tmp_path / "out"
    assert main(["run", "--domain", "disk", "--level", "0", "--out", str(out)]) in (0, 1)
    for name in ("history.csv", "solution.vtk", "summary.json"):
        assert (out / name).exists(), name
    assert json.loads((out / "summary.json").read_text())["num_interior"] == 1


def test_missing_config_file_is_io_error(tmp_path, capsys):
    missing = str(tmp_path / "absent.cfg")
    assert main(["run", "--config", missing]) == 3
    assert "i/o error" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--p", "nan"),
    ("--f", "nan"),
    ("--gamma", "inf"),
    ("--tol", "-1"),
    ("--max-iters", "-5"),
])
def test_invalid_parameter_is_config_error(tmp_path, capsys, flag, value):
    out = tmp_path / "out"
    argv = ["run", "--domain", "square", "--n", "6", flag, value, "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err
    assert not out.exists()     # a rejected run leaves no output directory


@pytest.mark.parametrize("line", ["gamma_end = nan", "gamma_end = inf", "gamma_start = nan"])
def test_nonfinite_ladder_is_config_error(tmp_path, capsys, monkeypatch, line):
    def stage(*args, **kwargs):
        raise AssertionError("a stage ran")

    monkeypatch.setattr(hbflow.solver, "solve", stage)
    cfg = write(tmp_path / "ladder.cfg", f"continuation = true\n{line}\n")
    out = tmp_path / "out"
    argv = ["run", "--config", cfg, "--domain", "square", "--n", "6", "--max-iters", "1",
            "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: need finite gamma_start > 0")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not out.exists()


def test_unwritable_output_is_io_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(run_args(blocker / "out")) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ")
    assert err.count("\n") == 1


def test_numeric_warnings_stay_off_stderr(tmp_path):
    # pytest captures warnings in-process, so only a child process shows them
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    argv = [sys.executable, "-m", "hbflow.cli", "run", "--domain", "square", "--n", "6",
            "--f", "1e300", "--out", str(tmp_path / "out")]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("solver failure: ")
    assert proc.stderr.count("\n") == 1


def test_out_of_memory_is_config_error(tmp_path, capsys, monkeypatch):
    def exhausted(manifest):
        raise MemoryError("Unable to allocate 3.0 TiB")

    monkeypatch.setattr(hbflow.cli, "build_mesh", exhausted)
    assert main(run_args(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err == "configuration error: out of memory: Unable to allocate 3.0 TiB\n"


# valid range of each float flag, and the extremes that replace up to two of them
FLOAT_FLAGS = {
    "p": (1.01, 100.0), "g": (0.0, 1.0), "gamma": (1.0, 1e4), "epsilon": (1e-8, 1e-3),
    "f": (-5.0, 5.0), "tol": (1e-8, 1e-2), "sigma1": (1e-6, 0.24),
}
EXTREMES = ["nan", "inf", "-inf", "0", "-1", "1e300", "-1e300", "1e-300"]
# the gamma ladder's ends, which only a --config file sets; large finite
# extremes are left out because they make ladders hundreds of stages long
LADDER_KEYS = {"gamma_start": (1.0, 1e3), "gamma_end": (1.0, 1e6)}
LADDER_EXTREMES = ["nan", "inf", "-inf", "0", "-1"]


@settings(max_examples=100, deadline=None)
@given(
    domain=st.sampled_from(["square", "disk"]),
    n=st.integers(-1, 6),
    level=st.integers(-1, 2),
    max_iters=st.integers(-2, 4),
    continuation=st.booleans(),
    valid=st.fixed_dictionaries({
        name: st.floats(min_value=low, max_value=high).map(repr)
        for name, (low, high) in FLOAT_FLAGS.items()
    }),
    extreme=st.dictionaries(st.sampled_from(sorted(FLOAT_FLAGS)), st.sampled_from(EXTREMES),
                            max_size=2),
    ladder=st.fixed_dictionaries({
        name: st.one_of(st.floats(min_value=low, max_value=high).map(repr),
                        st.sampled_from(LADDER_EXTREMES))
        for name, (low, high) in LADDER_KEYS.items()
    }),
)
def test_every_run_manifest_exits_with_a_documented_code(
    domain, n, level, max_iters, continuation, valid, extreme, ladder
):
    # flags go as --flag=value, or argparse would read "-1" as an option
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write(Path(tmp) / "ladder.cfg",
                    "".join(f"{name} = {value}\n" for name, value in ladder.items()))
        argv = ["run", f"--config={cfg}", f"--domain={domain}", f"--n={n}",
                f"--level={level}", f"--max-iters={max_iters}", f"--out={tmp}/out",
                *(f"--{name}={value}" for name, value in {**valid, **extreme}.items())]
        if continuation:
            argv.append("--continuation")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    assert err.getvalue().count("\n") <= 1
    assert "Traceback" not in err.getvalue()


def run_args(out, extra=()):
    return ["run", "--domain", "square", "--n", "6", "--p", "1.5", "--g", "0.2",
            "--gamma", "50", "--out", str(out), *extra]


def test_run_end_to_end(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(run_args(out)) == 0
    assert "converged=True" in capsys.readouterr().out

    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is True
    assert summary["error"] is None
    assert summary["iterations"] >= 1
    assert summary["num_interior"] == 25
    assert summary["h"] == pytest.approx((2.0 - np.sqrt(2.0)) / 12.0, rel=1e-12)

    history = (out / "history.csv").read_text().splitlines()
    assert history[0] == CSV_HEADER
    assert len(history) == summary["iterations"] + 1
    assert (out / "solution.vtk").exists()


def test_run_outputs_are_deterministic(tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(run_args(out_a)) == 0
    assert main(run_args(out_b)) == 0
    assert (out_a / "history.csv").read_bytes() == (out_b / "history.csv").read_bytes()
    assert (out_a / "solution.vtk").read_bytes() == (out_b / "solution.vtk").read_bytes()
    sa = json.loads((out_a / "summary.json").read_text())
    sb = json.loads((out_b / "summary.json").read_text())
    sa.pop("wall_time_seconds")
    sb.pop("wall_time_seconds")
    assert sa == sb


def test_run_iteration_cap_exits_one(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(run_args(out, ["--gamma", "1000", "--max-iters", "2"]))
    assert code == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is False
    assert summary["error"] == "iteration limit reached before tolerance"
    # outputs are still written for post-mortems
    assert (out / "history.csv").exists()


def test_run_zero_load(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(run_args(out, ["--f", "0"])) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["iterations"] == 0
    assert summary["final_objective"] == 0.0
    assert (out / "history.csv").read_text() == CSV_HEADER + "\n"


def test_run_continuation_stage_files(tmp_path, capsys):
    cfg = write(tmp_path / "ladder.cfg", """
domain = square
n = 6
p = 1.5
g = 0.2
continuation = true
gamma-start = 10
gamma-end = 1000
max-iters = 400
""")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    for name in ("history_stage01_gamma_1e+01.csv",
                 "history_stage02_gamma_1e+02.csv",
                 "history_stage03_gamma_1e+03.csv"):
        assert (out / name).exists()
    summary = json.loads((out / "summary.json").read_text())
    assert [stage["gamma"] for stage in summary["stages"]] == [10.0, 100.0, 1000.0]
    assert summary["converged"] is True


def test_sweep_aggregates(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--preset", "exp2-mesh-study", "--n", "6", "--gamma", "50",
        "--max-iters", "120", "--g-list", "0.1,0.2", "--out", str(out),
    ])
    assert code == 0
    lines = (out / "aggregate.csv").read_text().splitlines()
    assert lines[0] == ("domain,resolution,p,g,gamma,f,h,iterations,"
                       "final_J,final_rel_residual,converged")
    assert len(lines) == 3
    assert lines[1].startswith("square,6,1.5,0.1,50,3,")
    assert lines[2].startswith("square,6,1.5,0.2,50,3,")
    for tag in ("g0.1", "g0.2"):
        assert (out / "runs" / tag / "summary.json").exists()
        run_summary = json.loads((out / "runs" / tag / "summary.json").read_text())
        assert run_summary["converged"] is True


@pytest.mark.parametrize("flag, value", [("--g-list", ","), ("--n-list", ""),
                                         ("--gamma-list", " , ")])
def test_sweep_empty_value_list_is_config_error(tmp_path, capsys, monkeypatch, flag, value):
    def single(*args, **kwargs):
        raise AssertionError("a point ran")

    monkeypatch.setattr(hbflow.cli, "run_single", single)
    out = tmp_path / "sweep"
    argv = ["sweep", "--domain", "square", "--n", "4", flag, value, "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"configuration error: {flag} has no values\n"
    assert not out.exists()


@pytest.mark.parametrize("domain, flag, value, message", [
    ("square", "--level-list", "1,2", "--level-list does not apply to the square domain"),
    ("disk", "--n-list", "4,6", "--n-list does not apply to the disk domain"),
    ("square", "--g-list", "0.1,0.2,0.10", "--g-list repeats 0.1"),
    ("square", "--n-list", "4,6,4", "--n-list repeats 4"),
], ids=["level-list-on-square", "n-list-on-disk", "repeated-g", "repeated-n"])
def test_sweep_list_that_names_a_run_twice_is_config_error(tmp_path, capsys, monkeypatch,
                                                          domain, flag, value, message):
    def single(*args, **kwargs):
        raise AssertionError("a point ran")

    monkeypatch.setattr(hbflow.cli, "run_single", single)
    out = tmp_path / "sweep"
    argv = ["sweep", "--domain", domain, "--n", "4", "--level", "1", flag, value,
            "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("source", ["flag-empty", "flag-blank", "config-empty"])
def test_empty_out_is_config_error(tmp_path, capsys, monkeypatch, command, source):
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    argv = [command, "--domain", "square", "--n", "4", "--max-iters", "1"]
    if command == "sweep":
        argv += ["--g-list", "0.1,0.2"]
    if source == "config-empty":
        argv += ["--config", write(tmp_path / "run.cfg", "out =\n")]
    else:
        argv += ["--out", "" if source == "flag-empty" else "  "]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: output directory must not be empty")
    assert err.count("\n") == 1
    assert list(cwd.iterdir()) == []     # nothing written into the working directory
