"""Compare the iterates of the benchmark workloads between two checkouts.

    python scripts/compare_iterates.py A B [--workload NAME]

Runs each workload's solve (the names in B's ``BENCHMARK.json``, or only
NAME) from checkout A and from checkout B. Each run is a fresh Python
process that builds the mesh and solves the workload of the checkout's
``benchmarks/workloads.py`` with its ``benchmarks/child.py``, the code the
benchmark times, on ``hbflow`` from its ``src/``. It runs with one BLAS
thread as in the benchmark, bytecode writing off and a scratch working
directory, so neither checkout is written to. Every history row, every
line-search trial step, the final u and the dual field (w flattened,
active and xi; a stage that seeded the next has none) are compared as
float hex, stage by stage, with objective0, grad0_norm, converged and
failure_reason. Prints
one line per difference and, for a workload whose final J or ||u||
differs, one more with the relative drift of the two, the values the
benchmark checks against its references. Exits 0 when there is no
difference, 1 otherwise, and 2 on a usage error or a run that fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Runs one workload from the checkout named by argv[1] and prints its
# iterates as JSON, every float as float.hex().
CHILD = r"""
import dataclasses, json, sys
import numpy as np
root, name = sys.argv[1], sys.argv[2]
sys.path.insert(0, root + "/benchmarks")
import child     # puts root + "/src" first on sys.path
from workloads import WORKLOADS

spec = dataclasses.asdict(WORKLOADS[name])
stages = child._solve(child._build_mesh(spec), spec)


def h(v):
    return float(v).hex()


def row(record):
    return [v if isinstance(v, int) else h(v) for v in dataclasses.astuple(record)]


def dual(field):
    if field is None:   # a stage that seeded the next
        return None
    return {"w": [h(v) for v in field.w.ravel()], "active": field.active.tolist(),
            "xi": [h(v) for v in field.xi]}


json.dump([{"gamma": h(gamma), "objective0": h(o.objective0), "grad0_norm": h(o.grad0_norm),
            "converged": o.converged, "failure_reason": o.failure_reason,
            "J": h(o.final_objective), "u_norm": h(np.linalg.norm(o.u)),
            "history": [row(r) for r in o.history],
            "trials": [[h(a) for a in t] for t in o.linesearch_trials],
            "u": [h(v) for v in o.u], "dual": dual(o.dual)}
           for gamma, o in stages], sys.stdout)
"""

SCALARS = ("gamma", "objective0", "grad0_norm", "converged", "failure_reason")


class RunError(RuntimeError):
    pass


def run_workload(root: Path, name: str) -> list[dict]:
    """The stages of workload ``name`` solved from checkout ``root``."""
    env = {**os.environ, **THREAD_ENV, "PYTHONDONTWRITEBYTECODE": "1"}
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run([sys.executable, "-c", CHILD, str(root.resolve()), name],
                              capture_output=True, text=True, env=env, cwd=cwd)
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        raise RunError(f"{name} from {root} failed: {last}")
    return json.loads(proc.stdout)


def _sequence(label: str, a: list, b: list) -> list[str]:
    """One line per differing item of two lists of rows, 1-based."""
    lines = [f"{label} {i}: {x} != {y}"
             for i, (x, y) in enumerate(zip(a, b), start=1) if x != y]
    if len(a) != len(b):
        lines.append(f"{label}: {len(a)} and {len(b)} entries")
    return lines


def _entries(label: str, a: list, b: list) -> list[str]:
    """One line for two arrays that differ: their lengths, or the count and first index."""
    if len(a) != len(b):
        return [f"{label}: {len(a)} and {len(b)} entries"]
    differ = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
    if not differ:
        return []
    i = differ[0]
    return [f"{label}: {len(differ)} of {len(a)} entries differ, "
            f"first at index {i}: {a[i]} != {b[i]}"]


def compare_stages(name: str, a: list[dict], b: list[dict]) -> list[str]:
    """One line per difference between the stages a and b of workload ``name``."""
    lines = [] if len(a) == len(b) else [f"{name}: {len(a)} and {len(b)} stages"]
    for s, (sa, sb) in enumerate(zip(a, b), start=1):
        where = f"{name} stage {s}"
        lines += [f"{where} {key}: {sa[key]} != {sb[key]}"
                  for key in SCALARS if sa[key] != sb[key]]
        lines += _sequence(f"{where} history row", sa["history"], sb["history"])
        lines += _sequence(f"{where} trials of iteration", sa["trials"], sb["trials"])
        lines += _entries(f"{where} u", sa["u"], sb["u"])
        da, db = sa["dual"] or {}, sb["dual"] or {}     # a seeding stage's has no entries
        for key in ("w", "active", "xi"):
            lines += _entries(f"{where} dual {key}", da.get(key, []), db.get(key, []))
    if a and b and any(a[-1][key] != b[-1][key] for key in ("J", "u_norm")):
        ends = [(float.fromhex(a[-1][key]), float.fromhex(b[-1][key])) for key in ("J", "u_norm")]
        drift = [abs(y - x) / abs(x) for x, y in ends]
        lines.append(f"{name} drift: final J {drift[0]:.3e}, ||u|| {drift[1]:.3e} relative")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    parser.add_argument("--workload", help="one workload name (default: every one)")
    args = parser.parse_args(argv)
    for root in (args.a, args.b):
        if not (root / "src" / "hbflow").is_dir() or not (root / "benchmarks").is_dir():
            print(f"not a checkout with src/hbflow and benchmarks/: {root}", file=sys.stderr)
            return 2
    spec = args.b / "BENCHMARK.json"
    if args.workload:
        names = [args.workload]
    elif spec.is_file():
        names = [w["name"] for w in json.loads(spec.read_text())["workloads"]]
    else:
        print(f"no {spec} to list the workloads; name one with --workload", file=sys.stderr)
        return 2
    lines = []
    try:
        for name in names:
            lines += compare_stages(name, run_workload(args.a, name),
                                    run_workload(args.b, name))
    except RunError as exc:
        print(exc, file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
