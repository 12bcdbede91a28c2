import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hbflow.cli
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
from hbflow.linalg import LinearSolveError, LinearSolveRangeError
from hbflow.linesearch import LineSearchError
from hbflow.solver import SolverConfig


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
    "gamma_start = 10",    # a continuation ladder runs from GAMMA_START to gamma
    "gamma_end = 1e6",
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


@pytest.mark.parametrize("argv, read, unread", [
    (["--preset", "exp1-thinning", "--domain", "square", "--n", "4"], ("n", 4), "level"),
    (["--domain", "square", "--n", "4", "--level", "3", "--p", "3"], ("n", 4), "level"),
    (["--domain", "disk", "--level", "1", "--n", "8"], ("level", 1), "n"),
], ids=["preset-level", "square-level", "disk-n"])
def test_summary_records_only_the_resolution_its_domain_reads(tmp_path, argv, read, unread):
    out = tmp_path / "out"
    assert main(["run", *argv, "--max-iters", "2", "--out", str(out)]) in (0, 1)
    summary = json.loads((out / "summary.json").read_text())
    assert summary[read[0]] == read[1]
    assert summary[unread] is None


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
    manifest = RunManifest()
    solver = SolverConfig(p=2.0, g=0.2, gamma=1e3)
    assert (manifest.epsilon, manifest.tol, manifest.max_iters, manifest.sigma1) == (
        solver.epsilon, solver.tol, solver.max_iters, solver.sigma1)


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
    # values no flag parses, and usage errors: one line each, like a bad config line
    ("--n", "4.0"),
    ("--p", "abc"),
    ("--max-iters", "1e3"),
    ("--domain", "tri"),
    ("--bogus", "1"),
    ("--f", "-1e3"),        # argparse reads -1e3 as a flag, so --f has no value
])
def test_invalid_parameter_is_config_error(tmp_path, capsys, flag, value):
    out = tmp_path / "out"
    argv = ["run", "--domain", "square", "--n", "6", flag, value, "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    err = captured.err
    assert err.startswith("configuration error: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err
    assert captured.out == ""
    assert not out.exists()     # a rejected run leaves no output directory


@pytest.mark.parametrize("key, raw, message", [
    ("n", "4.0", "n must be an integer, got '4.0'"),
    ("max-iters", "1e3", "max_iters must be an integer, got '1e3'"),
    ("p", "abc", "p must be a number, got 'abc'"),
    ("continuation", "maybe", "continuation must be a boolean, got 'maybe'"),
], ids=["n", "max-iters", "p", "continuation"])
def test_flag_and_config_line_fail_with_the_same_message(tmp_path, capsys, key, raw, message):
    out = tmp_path / "out"
    cfg = write(tmp_path / "run.cfg", f"domain = square\n{key} = {raw}\n")
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"configuration error: {cfg}:2: {message}\n"
    if key != "continuation":       # a flag without a value
        assert main(["run", "--domain", "square", f"--{key}", raw, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["solve"], "argument command: invalid choice: 'solve' (choose from 'run', 'sweep')"),
    (["run", "--n"], "argument --n: expected one argument"),
], ids=["no-command", "unknown-command", "no-value"])
def test_usage_error_is_one_line(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"configuration error: {message}\n")


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"], ["sweep", "-h"]])
def test_help_prints_usage_and_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith(f"usage: {' '.join(['hbflow', *argv[:-1]])} [-h]")
    assert err == ""


@pytest.mark.parametrize("flags, message", [
    # no weights were given: the message names J, not the gradient's weights
    pytest.param(["--p", "100", "--f", "1e4"], "J is inf at the start iterate",
                 id="objective"),
    # the Poisson start would solve for a load whose norm overflows
    pytest.param(["--p", "3", "--f", "1e200"], "||load|| is inf", id="load"),
    # stage 1's first descent solve would take a gradient whose norm overflows
    pytest.param(["--p", "100", "--f", "1e3", "--continuation"],
                 "||J'(u0)|| is inf at the start iterate", id="gradient"),
])
def test_start_overflow_is_config_error(tmp_path, capsys, flags, message):
    out = tmp_path / "out"
    argv = ["run", "--domain", "square", "--n", "6", *flags, "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    # g * gamma = 1e309 is the Huber weight below the threshold
    pytest.param(["--n", "4", "--p", "1.5", "--g", "1e306", "--gamma", "1e3"],
                 "g * gamma overflows: g=1e+306, gamma=1000.0", id="huber-weight"),
    # epsilon^(p-2) ~ 1e309 is the preconditioner weight where xi = 0
    pytest.param(["--n", "4", "--p", "1.01", "--epsilon", "1e-312"],
                 "epsilon^(p-2) overflows: epsilon=1e-312, p=1.01",
                 id="preconditioner-weight"),
    # on this mesh the same law used to end in a stalled PCG (exit 1)
    pytest.param(["--domain", "disk", "--level", "2", "--p", "1.01", "--epsilon", "1e-312"],
                 "epsilon^(p-2) overflows: epsilon=1e-312, p=1.01",
                 id="preconditioner-weight-disk"),
])
def test_law_whose_weights_overflow_is_config_error(tmp_path, capsys, flags, message):
    out = tmp_path / "out"
    assert main(["run", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not out.exists()


def test_unwritable_output_is_io_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(run_args(blocker / "out")) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ")
    assert err.count("\n") == 1


def test_linear_solve_overflow_is_config_error(tmp_path, capsys):
    # load and start gradient are finite, but the first descent solve's CG
    # overflows in its dot products; the same exit code as an overflowing load
    out = tmp_path / "out"
    argv = ["run", "--domain", "square", "--n", "6", "--p", "1.1", "--f", "1e40",
            "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "configuration error: pcg stalled at relative residual nan (target 1.0e-10)\n")
    assert not out.exists()


def test_numeric_warnings_stay_off_stderr(tmp_path):
    # pytest captures warnings in-process, so only a child process shows them;
    # the CG's dot products overflow, with a RuntimeWarning, before the run fails
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    argv = [sys.executable, "-m", "hbflow.cli", "run", "--domain", "square", "--n", "6",
            "--p", "1.1", "--f", "1e40", "--out", str(tmp_path / "out")]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == (
        "configuration error: pcg stalled at relative residual nan (target 1.0e-10)\n")


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
)
def test_every_run_manifest_exits_with_a_documented_code(
    domain, n, level, max_iters, continuation, valid, extreme
):
    flags = {**valid, **extreme}
    # flags go as --flag=value, or argparse would read "-1" as an option
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["run", f"--domain={domain}", f"--n={n}", f"--level={level}",
                f"--max-iters={max_iters}", f"--out={tmp}/out",
                *(f"--{name}={value}" for name, value in flags.items())]
        if continuation:
            argv.append("--continuation")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        written = Path(tmp) / "out" / "summary.json"
        summary = json.loads(written.read_text()) if written.exists() else None
        stage_files = [re.fullmatch(r"history_stage(\d+)_gamma_(.+)\.csv", p.name).groups()
                       for p in (Path(tmp) / "out").glob("history_stage*")]
    assert code in (0, 1, 2, 3)
    if summary is not None:
        # the gamma a run reports is the one its last stage solved at; unless
        # a line-search failure cut that stage (and the ladder) short, it is --gamma
        last = summary["stages"][-1]
        assert summary["gamma"] == last["gamma"]
        if last["converged"] or last["iterations"] == max_iters:
            assert math.isclose(last["gamma"], float(flags["gamma"]), rel_tol=1e-12)
        # a stage that accepted no step reports its start iterate's residual
        for stage in summary["stages"]:
            if stage["iterations"] == 0 and not stage["converged"]:
                assert stage["final_rel_residual"] == 1.0
        # each stage file's label reads back as the gamma that stage solved at
        if len(summary["stages"]) > 1:
            assert {int(idx): float(label) for idx, label in stage_files} == {
                idx: stage["gamma"] for idx, stage in enumerate(summary["stages"], start=1)}
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
gamma = 1000
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


def test_run_stage_file_names_read_back_as_their_gamma(tmp_path, capsys):
    # the last stage, at 1050, would share the third's 1e+03 label at one digit
    out = tmp_path / "out"
    argv = ["run", "--domain", "square", "--n", "6", "--p", "3", "--max-iters", "3",
            "--continuation", "--gamma", "1050", "--out", str(out)]
    assert main(argv) == 1
    assert sorted(p.name for p in out.glob("history_stage*")) == [
        "history_stage01_gamma_1e+01.csv", "history_stage02_gamma_1e+02.csv",
        "history_stage03_gamma_1e+03.csv", "history_stage04_gamma_1.05e+03.csv"]


def test_run_error_names_the_failure_that_ended_the_ladder(tmp_path, capsys):
    # every stage hits the iteration cap until a line-search failure ends the ladder
    out = tmp_path / "out"
    argv = ["run", "--domain", "square", "--n", "6", "--max-iters", "4", "--continuation",
            "--gamma", "1e300", "--out", str(out)]
    assert main(argv) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["stages"]) == 48
    assert summary["gamma"] == 1e48
    assert summary["error"] == "line search failed at iteration 3: step-too-small"


def test_run_that_overflows_the_cubic_model_ends_its_line_search(tmp_path, capsys):
    # epsilon = 1e300 flattens the preconditioner: the first backtrack's cubic
    # discriminant is inf - inf, and the search halves instead of trying a NaN step
    out = tmp_path / "out"
    argv = ["run", "--domain", "square", "--n", "6", "--p", "1.5", "--epsilon", "1e300",
            "--max-iters", "3", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == ""
    summary = json.loads((out / "summary.json").read_text())
    assert summary["error"] == "line search failed at iteration 1: step-too-small"


def _reject_constant(name):
    raise ValueError(f"summary.json holds {name}")


def test_summary_is_strict_json(tmp_path, capsys):
    # every entry of u is finite, but the plain sum of squares overflows
    out = tmp_path / "out"
    argv = ["run", "--domain", "square", "--n", "6", "--p", "1.1", "--f", "1e20",
            "--out", str(out)]
    assert main(argv) == 1
    summary = json.loads((out / "summary.json").read_text(), parse_constant=_reject_constant)
    assert summary["u_euclidean_norm"] == pytest.approx(1.988480054909939e193, rel=1e-12)


def test_euclidean_norm_scales_only_where_the_plain_norm_overflows(rng):
    u = rng.standard_normal(50)
    assert hbflow.cli._euclidean_norm(u).hex() == float(np.linalg.norm(u)).hex()
    assert hbflow.cli._euclidean_norm(np.array([3e300, -4e300])) == pytest.approx(5e300)


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


def test_sweep_gamma_list_ends_each_ladder_at_its_gamma(tmp_path, capsys):
    out = tmp_path / "sweep"
    argv = ["sweep", "--domain", "square", "--n", "6", "--p", "1.5", "--max-iters", "400",
            "--continuation", "--gamma-list", "1e2,1e3", "--out", str(out)]
    assert main(argv) == 0
    for tag, ladder in (("gamma100", [10.0, 100.0]), ("gamma1000", [10.0, 100.0, 1000.0])):
        summary = json.loads((out / "runs" / tag / "summary.json").read_text())
        assert [stage["gamma"] for stage in summary["stages"]] == ladder
        assert summary["gamma"] == ladder[-1]


@pytest.mark.parametrize("n_list, max_iters, code", [
    ("6", "120", 0),
    ("6", "1", 1),
    ("1,6", "120", 2),
    ("1,6", "1", 2),
], ids=["converged", "iteration-cap", "no-interior-point", "cap-and-no-interior-point"])
def test_sweep_exits_with_the_largest_point_code(tmp_path, capsys, n_list, max_iters, code):
    out = tmp_path / "sweep"
    argv = ["sweep", "--preset", "exp2-mesh-study", "--gamma", "50", "--max-iters", max_iters,
            "--n-list", n_list, "--g-list", "0.1,0.2", "--out", str(out)]
    assert main(argv) == code
    rows = (out / "aggregate.csv").read_text().splitlines()[1:]
    assert len(rows) == 2 * len(n_list.split(","))
    assert sum("failed: " in row for row in rows) == (2 if n_list == "1,6" else 0)


@pytest.mark.parametrize("point_failure, code", [
    (LinearSolveError("pcg stalled", None), 1),
    (LinearSolveRangeError("pcg stalled at relative residual nan", None), 2),
    (LineSearchError("no descent"), 1),
    (ConfigError("bad point"), 2),
    (MemoryError("Unable to allocate 3.0 TiB"), 2),
    (OSError("disk full"), 3),
], ids=["linear-solve", "linear-solve-overflow", "line-search", "config", "out-of-memory",
        "io"])
def test_sweep_point_exceptions_map_to_run_codes(tmp_path, capsys, monkeypatch,
                                                 point_failure, code):
    def single(manifest):
        raise point_failure

    monkeypatch.setattr(hbflow.cli, "run_single", single)
    out = tmp_path / "sweep"
    argv = ["sweep", "--domain", "square", "--n", "4", "--g-list", "0.1", "--out", str(out)]
    assert main(argv) == code
    assert (out / "aggregate.csv").read_text().splitlines()[1].endswith(
        f"failed: {point_failure}")


def test_sweep_quotes_a_failure_message_with_commas(tmp_path, capsys):
    out = tmp_path / "sweep"
    argv = ["sweep", "--n", "4", "--p", "1.5", "--g-list", "0.2,1e306", "--gamma", "1e3",
            "--max-iters", "2", "--out", str(out)]
    assert main(argv) == 2
    text = (out / "aggregate.csv").read_text()
    rows = list(csv.reader(io.StringIO(text)))
    assert [len(row) for row in rows] == [11, 11, 11]
    assert rows[2][-1] == "failed: g * gamma overflows: g=1e+306, gamma=1000.0"
    # the rows without such a field keep their bytes
    assert text.splitlines()[1] == ",".join(rows[1])
    assert text.startswith(",".join(rows[0]) + "\n")


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_unknown_domain_is_config_error(tmp_path, capsys, monkeypatch, command):
    def single(*args, **kwargs):
        raise AssertionError("a point ran")

    monkeypatch.setattr(hbflow.cli, "run_single", single)
    cfg = write(tmp_path / "tri.cfg", "domain = tri\n")
    out = tmp_path / "out"
    argv = [command, "--config", cfg, "--n", "4", "--out", str(out)]
    if command == "sweep":
        argv += ["--g-list", "0.1,0.2"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "configuration error: unknown domain 'tri' (square or disk)\n"
    assert not out.exists()


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
    ("square", "--n-list", "4,x", "n must be an integer, got 'x'"),
], ids=["level-list-on-square", "n-list-on-disk", "repeated-g", "repeated-n", "unparseable-n"])
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
