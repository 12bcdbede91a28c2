"""Command-line driver: single runs and parameter sweeps.

``hbflow run`` solves one configuration and writes a convergence CSV per
stage, a VTK file with the solution fields, and a JSON summary. ``hbflow
sweep`` runs a grid of configurations into per-point directories and
aggregates the endpoints into one CSV.

Configuration precedence, lowest to highest: built-in defaults, --preset,
--config key=value file, explicit flags. Exit codes: 0 success, 1 solver
did not converge, 2 bad configuration (an oversized problem included), 3 I/O
failure.
"""

from __future__ import annotations

import argparse
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
from .linesearch import LineSearchConfig, LineSearchError
from .mesh import Mesh, build_unit_disk_mesh, build_unit_square_mesh
from .solver import SolveOutcome, SolverConfig, _wp_seminorm, continuation_solve


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
    epsilon: float = 1e-6
    f: float = 1.0
    tol: float = 1e-6
    max_iters: int = 100
    sigma1: float = 1e-4
    continuation: bool = False
    gamma_start: float = 10.0
    gamma_end: float = 1e6
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
    "exp3-continuation": dict(domain="square", n=50, p=100.0, g=0.3, f=3.0,
                              continuation=True),
}

_FIELD_NAMES = frozenset(f.name for f in dataclasses.fields(RunManifest))
_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _coerce(name: str, raw: str):
    if name in ("n", "level", "max_iters"):
        return int(raw)
    if name == "continuation":
        low = raw.strip().lower()
        if low in _BOOL_TRUE:
            return True
        if low in _BOOL_FALSE:
            return False
        raise ConfigError(f"cannot parse boolean {name}={raw!r}")
    if name in ("domain", "out"):
        return raw
    return float(raw)


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
        except ConfigError:
            raise
        except ValueError as exc:
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
        name: value
        for name, value in vars(args).items()
        if name in _FIELD_NAMES and name != "preset" and value is not None
    }
    if explicit:
        manifest = dataclasses.replace(manifest, **explicit)
    if not manifest.out.strip():
        # an empty path would write every output into the current directory
        raise ConfigError(f"output directory must not be empty, got {manifest.out!r}")
    return manifest


def build_mesh(manifest: RunManifest) -> Mesh:
    if manifest.domain == "square":
        if manifest.n is None:
            raise ConfigError("square domain needs --n")
        return build_unit_square_mesh(manifest.n)
    if manifest.domain == "disk":
        if manifest.level is None:
            raise ConfigError("disk domain needs --level")
        return build_unit_disk_mesh(manifest.level)
    raise ConfigError(f"unknown domain {manifest.domain!r} (square or disk)")


def solver_config(manifest: RunManifest) -> SolverConfig:
    """The manifest's solver settings; SolverConfig rejects invalid values."""
    return SolverConfig(
        p=manifest.p, g=manifest.g, gamma=manifest.gamma, epsilon=manifest.epsilon,
        tol=manifest.tol, max_iters=manifest.max_iters,
        linesearch=LineSearchConfig(sigma1=manifest.sigma1),
    )


def _stage_summary(gamma: float, outcome: SolveOutcome) -> dict:
    return {
        "gamma": gamma,
        "iterations": outcome.iterations,
        "converged": outcome.converged,
        "final_objective": outcome.final_objective,
        "final_rel_residual": outcome.final_rel_residual,
    }


def _write_outputs(outdir: Path, manifest: RunManifest, mesh: Mesh,
                   stages: list, wall_time: float, error: str | None) -> dict:
    final = stages[-1][1]
    if len(stages) == 1:
        write_history_csv(outdir / "history.csv", final.history)
    else:
        for idx, (gamma, outcome) in enumerate(stages, start=1):
            write_history_csv(
                outdir / f"history_stage{idx:02d}_gamma_{gamma:.0e}.csv",
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
    converged = all(outcome.converged for _, outcome in stages)
    summary = {
        "preset": manifest.preset,
        "domain": manifest.domain,
        "n": manifest.n,
        "level": manifest.level,
        "p": manifest.p,
        "g": manifest.g,
        "gamma": manifest.gamma,
        "epsilon": manifest.epsilon,
        "f": manifest.f,
        "tol": manifest.tol,
        "max_iters": manifest.max_iters,
        "sigma1": manifest.sigma1,
        "continuation": manifest.continuation,
        "h": mesh.h,
        "num_vertices": mesh.num_vertices,
        "num_triangles": mesh.num_triangles,
        "num_interior": mesh.num_interior,
        "converged": converged,
        "iterations": sum(outcome.iterations for _, outcome in stages),
        "final_objective": final.final_objective,
        "final_rel_residual": final.final_rel_residual,
        "u_euclidean_norm": float(np.linalg.norm(final.u)),
        "wp_seminorm": _wp_seminorm(mesh, final.dual.xi, manifest.p),
        "stages": [_stage_summary(gamma, outcome) for gamma, outcome in stages],
        "error": error,
        "wall_time_seconds": wall_time,
    }
    (outdir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return summary


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
    error = None
    # a single run is the one-stage ladder at gamma; a LinearSolveError
    # propagates: without a completed stage there is nothing worth writing
    if manifest.continuation:
        start, end = manifest.gamma_start, manifest.gamma_end
    else:
        start = end = manifest.gamma
    stages = continuation_solve(mesh, config, manifest.f, gamma_start=start, gamma_end=end)
    wall = time.perf_counter() - t0

    bad = [outcome for _, outcome in stages if not outcome.converged]
    if bad:
        error = bad[0].failure_reason or "iteration limit reached before tolerance"
    # created only now, so a run the solver rejects leaves no directory behind
    outdir = _make_outdir(manifest.out)
    summary = _write_outputs(outdir, manifest, mesh, stages, wall, error)
    return (0 if not bad else 1), summary


def _label(value) -> str:
    """A sweep value as it appears in its run directory's name."""
    return f"{value:g}" if isinstance(value, float) else str(value)


def _parse_list(name: str, raw: str, cast) -> list:
    values = [cast(tok) for tok in raw.split(",") if tok.strip()]
    if not values:
        raise ConfigError(f"--{name}-list has no values")
    labels = [_label(v) for v in values]
    for i, label in enumerate(labels):
        if label in labels[:i]:
            # two points would solve the same problem into the same directory
            raise ConfigError(f"--{name}-list repeats {label}")
    return values


def run_sweep(manifest: RunManifest, args: argparse.Namespace) -> int:
    """Cartesian product of the requested value lists; one directory per point."""
    lists = (("g", args.g_list, float), ("p", args.p_list, float),
             ("gamma", args.gamma_list, float), ("n", args.n_list, int),
             ("level", args.level_list, int))
    unread = {"square": "level", "disk": "n"}.get(manifest.domain)
    axes = []
    for name, raw, cast in lists:
        if raw is None:
            continue
        if name == unread:
            raise ConfigError(f"--{name}-list does not apply to the {manifest.domain} domain")
        axes.append((name, _parse_list(name, raw, cast)))
    base_out = _make_outdir(manifest.out)

    names = [name for name, _ in axes]
    rows = []
    for combo in itertools.product(*(values for _, values in axes)):
        point = dict(zip(names, combo))
        tag = "-".join(f"{k}{_label(v)}" for k, v in point.items()) or "single"
        sub = dataclasses.replace(manifest, out=str(base_out / "runs" / tag), **point)
        try:
            code, summary = run_single(sub)
            rows.append((point, sub, summary, None))
        except (ValueError, LinearSolveError, LineSearchError) as exc:
            rows.append((point, sub, None, str(exc)))

    lines = ["domain,resolution,p,g,gamma,f,h,iterations,final_J,final_rel_residual,converged"]
    for point, sub, summary, failure in rows:
        resolution = sub.n if sub.domain == "square" else sub.level
        if summary is None:
            lines.append(f"{sub.domain},{resolution},{sub.p:g},{sub.g:g},{sub.gamma:g},"
                         f"{sub.f:g},,,,,failed: {failure}")
        else:
            lines.append(
                f"{sub.domain},{resolution},{sub.p:g},{sub.g:g},{sub.gamma:g},{sub.f:g},"
                f"{summary['h']:.10e},{summary['iterations']},"
                f"{summary['final_objective']:.10e},{summary['final_rel_residual']:.10e},"
                f"{summary['converged']}"
            )
    (base_out / "aggregate.csv").write_text("\n".join(lines) + "\n")
    return 0


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--domain", choices=["square", "disk"])
    sub.add_argument("--n", type=int, help="square subdivisions per side")
    sub.add_argument("--level", type=int, help="disk refinement level")
    sub.add_argument("--p", type=float, help="flow index, > 1")
    sub.add_argument("--g", type=float, help="plasticity threshold")
    sub.add_argument("--gamma", type=float, help="Huber regularization parameter")
    sub.add_argument("--epsilon", type=float, help="preconditioner shift, p < 2 only")
    sub.add_argument("--f", type=float, help="constant right-hand side")
    sub.add_argument("--tol", type=float, help="relative residual stopping tolerance")
    sub.add_argument("--max-iters", dest="max_iters", type=int)
    sub.add_argument("--sigma1", type=float, help="Armijo slope fraction")
    sub.add_argument("--continuation", action="store_const", const=True, default=None,
                     help="solve over the gamma ladder 1e1..1e6 with warm starts")
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--preset", help="named parameter bundle: " + ", ".join(sorted(PRESETS)))
    sub.add_argument("--config", help="key=value file, overridden by explicit flags")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        # numpy/scipy overflow warnings would add lines to stderr; the exit
        # code and the one message below already report such a failure
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            manifest = build_manifest(args)
            if args.command == "run":
                code, summary = run_single(manifest)
                print(f"converged={summary['converged']} iterations={summary['iterations']} "
                      f"J={summary['final_objective']:.6g} out={manifest.out}")
                return code
            return run_sweep(manifest, args)
    except ValueError as exc:           # ConfigError, MeshError, AssemblyError, bad parameters
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:          # a mesh or system too large for this machine
        print(f"configuration error: out of memory: {exc or 'allocation failed'}",
              file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (LinearSolveError, LineSearchError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
