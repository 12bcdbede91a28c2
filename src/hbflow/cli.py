"""Command-line driver: single runs and parameter sweeps.

``hbflow run`` solves one configuration and writes a convergence CSV per
stage, a VTK file with the solution fields, and a JSON summary. ``hbflow
sweep`` runs a grid of configurations into per-point directories and
aggregates the endpoints into one CSV.

Configuration precedence, lowest to highest: built-in defaults, --preset,
--config key=value file, explicit flags. Exit codes: 0 success, 1 solver
did not converge, 2 bad configuration, out-of-range problems included (one
that runs out of memory, or whose load, start iterate or a linear solve
overflows float64), 3 I/O failure. A sweep exits with the largest code
among its points.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .assembly import expand_dirichlet
from .export import write_history_csv, write_vtk
from .linalg import LinearSolveError
from .linesearch import LineSearchError
from .mesh import Mesh, build_unit_disk_mesh, build_unit_square_mesh
from .solver import (
    GAMMA_FACTOR,
    GAMMA_START,
    SolveOutcome,
    SolverConfig,
    continuation_solve,
    wp_seminorm,
)


class ConfigError(ValueError):
    """Invalid manifest values; maps to exit code 2."""


@dataclass
class RunManifest:
    domain: str = "square"
    n: int | None = None
    level: int | None = None
    p: float = 2.0
    g: float = 0.2
    gamma: float = 1e3
    epsilon: float = SolverConfig.epsilon
    f: float = 1.0
    tol: float = SolverConfig.tol
    max_iters: int = SolverConfig.max_iters
    sigma1: float = SolverConfig.sigma1
    continuation: bool = False
    out: str = "out"
    preset: str | None = None


PRESETS: dict[str, dict] = {
    # shear-thinning pipe flow on the disk (level 6 is the first level with h <= 0.01)
    "exp1-thinning": dict(domain="disk", level=6, p=1.75, g=0.2, gamma=1e3,
                          epsilon=1e-6, f=1.0),
    # shear-thickening flow on the square
    "exp1-thickening": dict(domain="square", n=101, p=4.0, g=0.2, gamma=1e3, f=3.0),
    # mesh-independence sweep template (pair with --g-list / --n-list)
    "exp2-mesh-study": dict(domain="square", p=1.5, gamma=1e3, f=3.0, n=101),
    # strongly shear-thickening flow, needs gamma continuation
    "exp3-continuation": dict(domain="square", n=50, p=100.0, g=0.3, gamma=1e6, f=3.0,
                              continuation=True),
}

# each domain's resolution field and mesh builder
_DOMAINS = {"square": ("n", build_unit_square_mesh), "disk": ("level", build_unit_disk_mesh)}
_FIELD_NAMES = frozenset(f.name for f in dataclasses.fields(RunManifest))
_BOOLEANS = (dict.fromkeys(("1", "true", "yes", "on"), True)
             | dict.fromkeys(("0", "false", "no", "off"), False))
# each key's parser and what its values must be; keys not listed are numbers
_PARSERS = {"domain": (str, "text"), "out": (str, "text"), "n": (int, "an integer"),
            "level": (int, "an integer"), "max_iters": (int, "an integer"),
            "continuation": (lambda raw: _BOOLEANS[raw.strip().lower()], "a boolean")}


def _coerce(name: str, raw: str):
    """The value of key ``name`` from its text: the one parser of config
    lines, flags and sweep lists."""
    parse, kind = _PARSERS.get(name, (float, "a number"))
    try:
        return parse(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"{name} must be {kind}, got {raw!r}") from None


def parse_config_file(path) -> dict:
    """key=value lines; blank lines and # comments ignored; dashes in keys
    normalized to underscores. ``preset`` is not a key: a preset is applied
    before the file is read, so only --preset can name one."""
    values: dict = {}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, raw = (s.strip() for s in stripped.split("=", 1))
        key = key.replace("-", "_")
        if key not in _FIELD_NAMES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key == "preset":
            raise ConfigError(f"{path}:{lineno}: a config file cannot set a preset, "
                              "use --preset")
        try:
            values[key] = _coerce(key, raw)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return values


def build_manifest(args: argparse.Namespace) -> RunManifest:
    """Merge defaults, preset, config file, and explicit flags."""
    manifest = RunManifest()
    if args.preset is not None:
        if args.preset not in PRESETS:
            known = ", ".join(sorted(PRESETS))
            raise ConfigError(f"unknown preset {args.preset!r} (known: {known})")
        manifest = dataclasses.replace(manifest, preset=args.preset, **PRESETS[args.preset])
    if getattr(args, "config", None) is not None:
        manifest = dataclasses.replace(manifest, **parse_config_file(args.config))
    explicit = {
        name: _coerce(name, value)
        for name, value in vars(args).items()
        if name in _FIELD_NAMES and name != "preset" and value is not None
    }
    if explicit:
        manifest = dataclasses.replace(manifest, **explicit)
    if not manifest.out.strip():
        # an empty path would write every output into the current directory
        raise ConfigError(f"output directory must not be empty, got {manifest.out!r}")
    if manifest.domain not in _DOMAINS:
        raise ConfigError(f"unknown domain {manifest.domain!r} ({' or '.join(_DOMAINS)})")
    read = _DOMAINS[manifest.domain][0]     # the resolution the mesh does not read becomes None
    return dataclasses.replace(manifest, **{f: None for f, _ in _DOMAINS.values() if f != read})


def build_mesh(manifest: RunManifest) -> Mesh:
    """The manifest's mesh; ``build_manifest`` has checked its domain."""
    field, build = _DOMAINS[manifest.domain]
    resolution = getattr(manifest, field)
    if resolution is None:
        raise ConfigError(f"{manifest.domain} domain needs --{field}")
    return build(resolution)


def solver_config(manifest: RunManifest) -> SolverConfig:
    """The manifest's solver settings; SolverConfig rejects invalid values."""
    return SolverConfig(p=manifest.p, g=manifest.g, gamma=manifest.gamma,
                        epsilon=manifest.epsilon, tol=manifest.tol,
                        max_iters=manifest.max_iters, sigma1=manifest.sigma1)


def _stage_summary(gamma: float, outcome: SolveOutcome) -> dict:
    return {
        "gamma": gamma,
        "iterations": outcome.iterations,
        "converged": outcome.converged,
        "final_objective": outcome.final_objective,
        "final_rel_residual": outcome.final_rel_residual,
    }


def _gamma_label(gamma: float) -> str:
    """The shortest ``.{k}e`` form of gamma that reads back as gamma, e.g. 1e+01 or 1.05e+03."""
    return next(label for label in (f"{gamma:.{k}e}" for k in range(17))
                if float(label) == gamma)


def _euclidean_norm(u: np.ndarray) -> float:
    """||u||, rescaled by max|u| only if the plain norm overflows, so others keep their bits."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(u))
    if norm == np.inf:
        scale = float(np.max(np.abs(u)))
        norm = scale * float(np.linalg.norm(u / scale))
    return norm


def _write_outputs(outdir: Path, manifest: RunManifest, mesh: Mesh,
                   stages: list, wall_time: float, error: str | None) -> dict:
    final = stages[-1][1]
    if len(stages) == 1:
        write_history_csv(outdir / "history.csv", final.history)
    else:
        for idx, (gamma, outcome) in enumerate(stages, start=1):
            write_history_csv(
                outdir / f"history_stage{idx:02d}_gamma_{_gamma_label(gamma)}.csv",
                outcome.history,
            )
    write_vtk(
        outdir / "solution.vtk",
        mesh,
        point_data={"u": expand_dirichlet(mesh, final.u)},
        cell_data={
            "grad_norm": final.dual.xi,
            "active": final.dual.active.astype(np.int64),
            "multiplier_norm": np.linalg.norm(final.dual.w, axis=1),
        },
    )
    settings = dataclasses.asdict(manifest)
    del settings["out"]
    summary = {
        "preset": settings.pop("preset"),
        **settings,
        "gamma": stages[-1][0],     # keeps the manifest's place, holds the gamma solved last
        "h": mesh.h,
        "num_vertices": mesh.num_vertices,
        "num_triangles": mesh.num_triangles,
        "num_interior": mesh.num_interior,
        "converged": error is None,
        "iterations": sum(outcome.iterations for _, outcome in stages),
        "final_objective": final.final_objective,
        "final_rel_residual": final.final_rel_residual,
        "u_euclidean_norm": _euclidean_norm(final.u),
        "wp_seminorm": wp_seminorm(mesh, final.dual.xi, manifest.p),
        "stages": [_stage_summary(gamma, outcome) for gamma, outcome in stages],
        "error": error,
        "wall_time_seconds": wall_time,
    }
    (outdir / "summary.json").write_text(json.dumps(summary, indent=2, allow_nan=False) + "\n")
    return summary


# exit code and stderr prefix of each failure a run can raise; the first matching class wins
_FAILURES = {
    ValueError: (2, "configuration error"),     # ConfigError, MeshError, an overflow, ...
    MemoryError: (2, "configuration error: out of memory"),    # a problem too large to fit
    OSError: (3, "i/o error"),
    LinearSolveError: (1, "solver failure"),
    LineSearchError: (1, "solver failure"),
}


def _failure(exc: Exception) -> tuple[int, str]:
    return next(entry for kind, entry in _FAILURES.items() if isinstance(exc, kind))


def _make_outdir(out: str) -> Path:
    try:
        Path(out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IOError(f"cannot create output directory {out!r}: {exc}") from exc
    return Path(out)


def run_single(manifest: RunManifest) -> tuple[int, dict]:
    """Solve one manifest and write its outputs. Returns (exit_code, summary)."""
    mesh = build_mesh(manifest)
    config = solver_config(manifest)
    t0 = time.perf_counter()
    # every run is a ladder that ends at gamma, one stage long without
    # continuation; a LinearSolveError propagates: without a completed stage
    # there is nothing worth writing
    start = min(GAMMA_START, manifest.gamma) if manifest.continuation else manifest.gamma
    stages = continuation_solve(mesh, config, manifest.f, gamma_start=start,
                                gamma_end=manifest.gamma)
    wall = time.perf_counter() - t0

    converged = all(outcome.converged for _, outcome in stages)
    # a failure ends the ladder, so only the last stage can have failed outright
    error = None if converged else (
        stages[-1][1].failure_reason or "iteration limit reached before tolerance")
    # created only now, so a run the solver rejects leaves no directory behind
    outdir = _make_outdir(manifest.out)
    summary = _write_outputs(outdir, manifest, mesh, stages, wall, error)
    return (0 if converged else 1), summary


def _label(value) -> str:
    """A sweep value as it appears in its run directory's name."""
    return f"{value:g}" if isinstance(value, float) else str(value)


def _parse_list(name: str, raw: str) -> list:
    values = [_coerce(name, tok) for tok in raw.split(",") if tok.strip()]
    if not values:
        raise ConfigError(f"--{name}-list has no values")
    labels = [_label(v) for v in values]
    for i, label in enumerate(labels):
        if label in labels[:i]:
            # two points would solve the same problem into the same directory
            raise ConfigError(f"--{name}-list repeats {label}")
    return values


def run_sweep(manifest: RunManifest, args: argparse.Namespace) -> int:
    """Cartesian product of the requested value lists; one directory per point.

    Returns the largest exit code among the points, each point's being the
    one ``hbflow run`` would return for it. ``aggregate.csv`` is written
    whatever the points return, with a ``failed:`` row for each point that
    raised; a field that holds a comma, a quote or a newline is quoted.
    """
    resolution = _DOMAINS[manifest.domain][0]
    unread = {field for field, _ in _DOMAINS.values()} - {resolution}
    axes = []
    for name in ("g", "p", "gamma", "n", "level"):
        raw = getattr(args, f"{name}_list")
        if raw is None:
            continue
        if name in unread:
            raise ConfigError(f"--{name}-list does not apply to the {manifest.domain} domain")
        axes.append((name, _parse_list(name, raw)))
    base_out = _make_outdir(manifest.out)

    names = [name for name, _ in axes]
    rows = ["domain,resolution,p,g,gamma,f,h,iterations,final_J,final_rel_residual,converged"
            .split(",")]
    worst = 0
    for combo in itertools.product(*(values for _, values in axes)):
        point = dict(zip(names, combo))
        tag = "-".join(f"{k}{_label(v)}" for k, v in point.items()) or "single"
        sub = dataclasses.replace(manifest, out=str(base_out / "runs" / tag), **point)
        try:
            code, summary = run_single(sub)
        except tuple(_FAILURES) as exc:
            code, result = _failure(exc)[0], ["", "", "", "", f"failed: {exc}"]
        else:
            result = [f"{summary['h']:.10e}", summary["iterations"],
                      f"{summary['final_objective']:.10e}",
                      f"{summary['final_rel_residual']:.10e}", summary["converged"]]
        worst = max(worst, code)
        rows.append([sub.domain, getattr(sub, resolution), f"{sub.p:g}", f"{sub.g:g}",
                     f"{sub.gamma:g}", f"{sub.f:g}", *result])
    # a failure's message can hold commas, quotes or newlines: the writer quotes it
    with open(base_out / "aggregate.csv", "w", newline="") as aggregate:
        csv.writer(aggregate, lineterminator="\n").writerows(rows)
    return worst


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    # values stay text here: build_manifest parses them as config-file values
    sub.add_argument("--domain", help=" or ".join(_DOMAINS))
    sub.add_argument("--n", help="square subdivisions per side")
    sub.add_argument("--level", help="disk refinement level")
    sub.add_argument("--p", help="flow index, > 1")
    sub.add_argument("--g", help="plasticity threshold")
    sub.add_argument("--gamma", help="Huber regularization parameter")
    sub.add_argument("--epsilon", help="preconditioner shift, p < 2 only")
    sub.add_argument("--f", help="constant right-hand side")
    sub.add_argument("--tol", help="relative residual stopping tolerance")
    sub.add_argument("--max-iters", dest="max_iters")
    sub.add_argument("--sigma1", help="Armijo slope fraction")
    sub.add_argument("--continuation", action="store_const", const="true",
                     help=f"solve over the gamma ladder {GAMMA_START:g}..--gamma, "
                          f"x{GAMMA_FACTOR:g} per stage, with warm starts")
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--preset", help="named parameter bundle: " + ", ".join(sorted(PRESETS)))
    sub.add_argument("--config", help="key=value file, overridden by explicit flags")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ConfigError, one line, instead of exiting."""

    def error(self, message: str):
        raise ConfigError(message)


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hbflow",
        description="P1 finite element solver for Herschel-Bulkley pipe flow",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    run_p = commands.add_parser("run", help="solve one configuration")
    _add_common_flags(run_p)
    sweep_p = commands.add_parser("sweep", help="solve a parameter grid")
    _add_common_flags(sweep_p)
    sweep_p.add_argument("--g-list", help="comma-separated g values")
    sweep_p.add_argument("--p-list", help="comma-separated p values")
    sweep_p.add_argument("--gamma-list", help="comma-separated gamma values")
    sweep_p.add_argument("--n-list", help="comma-separated square resolutions")
    sweep_p.add_argument("--level-list", help="comma-separated disk levels")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        # numpy/scipy overflow warnings would add lines to stderr; the exit
        # code and the one message below already report such a failure
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            args = make_parser().parse_args(argv)
            manifest = build_manifest(args)
            if args.command == "run":
                code, summary = run_single(manifest)
                print(f"converged={summary['converged']} iterations={summary['iterations']} "
                      f"J={summary['final_objective']:.6g} out={manifest.out}")
                return code
            return run_sweep(manifest, args)
    except tuple(_FAILURES) as exc:
        code, prefix = _failure(exc)
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
