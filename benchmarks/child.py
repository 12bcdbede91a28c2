"""One measured run of one workload, in a fresh process.

Usage: python3 benchmarks/child.py '<workload JSON>' <trace 0|1> <output dir>

Drives the workload through the library path that ``hbflow run`` uses, in
three phases: set-up (mesh build), solve, output (history CSVs and VTK).
Set-up and output last only 20-300 ms, so each is repeated and timed
several times. A speed probe runs before, between and after the phases.
Prints one JSON line: the phase and probe timings, the result to check
against the reference, and, when traced, the per-layer metrics and the
spans they came from.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.sparse as sp  # noqa: E402
import scipy.sparse.linalg as spla  # noqa: E402

from hbflow import export, mesh, solver  # noqa: E402
from hbflow.assembly import (  # noqa: E402
    build_discrete_gradient,
    expand_dirichlet,
    gradient_magnitudes,
)

from tracing import Tracer, layer_metrics  # noqa: E402

# A phase is repeated until it has run MIN_REPS times and for MIN_PHASE_S
# seconds, but at most MAX_REPS times.
MIN_REPS = 3
MIN_PHASE_S = 0.3
MAX_REPS = 25


def _laplacian(n: int) -> sp.csr_matrix:
    """Five-point Laplacian on an n x n grid."""
    t = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1])
    eye = sp.identity(n)
    return (sp.kron(t, eye) + sp.kron(eye, t)).tocsr()


class SpeedProbe:
    """Two fixed pieces of the kinds of work hbflow does, timed to gauge machine speed.

    The numeric part is sparse LU factorizations, a sparse product and
    Jacobi-preconditioned CG iterations, like the solve. The Python part is
    a loop over triangle edges and float formatting, like mesh building and
    export. Both use numpy and scipy only, so no change to hbflow moves
    them. On a shared host the speed of all of these drifts, by up to 40%,
    over seconds to minutes. The child times the probe before and after
    each phase, and scales the solve by the numeric part and set-up and
    output by the Python part: REF_S over the mean of the two timings.
    """

    # Each part's median time on the machine that recorded the references,
    # so scaled times read as seconds there.
    REF_S = 0.045

    def __init__(self):
        self.small = _laplacian(40).tocsc()
        self.large = _laplacian(100)
        self.jacobi = sp.diags(1.0 / self.large.diagonal())
        self.rhs = np.ones(self.large.shape[0])
        rng = np.random.default_rng(0)
        self.values = rng.random(4000)
        self.triangles = rng.integers(0, 1000, size=(2000, 3)).tolist()
        self()                              # the first call pays for lazy set-up in scipy

    def __call__(self) -> tuple[float, float]:
        """Seconds spent in the numeric part and in the Python part."""
        t0 = time.perf_counter()
        for _ in range(6):
            spla.splu(self.small)
        (self.small.T @ self.small).tocsr().sort_indices()
        for _ in range(2):
            spla.cg(self.large, self.rhs, rtol=1e-30, atol=0.0, maxiter=60, M=self.jacobi)
        t1 = time.perf_counter()
        for _ in range(5):                  # small inputs, repeated, keep the probe's memory low
            edges: dict[tuple[int, int], int] = {}
            for a, b, c in self.triangles:
                for e in ((a, b), (b, c), (c, a)):
                    key = (min(e), max(e))
                    edges[key] = edges.get(key, 0) + 1
            "\n".join(f"{v:.12g}" for v in self.values)
        t2 = time.perf_counter()
        return t1 - t0, t2 - t1


def _repeat(tracer: Tracer, name: str, body) -> list[float]:
    times: list[float] = []
    while len(times) < MAX_REPS and (len(times) < MIN_REPS or sum(times) < MIN_PHASE_S):
        with tracer.span(name) as record:
            body()
        times.append(record["end"] - record["start"])
    return times


def _build_mesh(spec: dict):
    if spec["domain"] == "disk":
        return mesh.build_unit_disk_mesh(spec["size"])
    return mesh.build_unit_square_mesh(spec["size"])


def _solve(m, spec: dict) -> list:
    config = solver.SolverConfig(
        p=spec["p"], g=spec["g"], gamma=spec["gamma"], epsilon=spec["epsilon"],
        max_iters=spec["max_iters"],
        linear=solver.LinearConfig(method=spec["linear_method"]),
    )
    if spec["continuation"]:
        return solver.continuation_solve(m, config, spec["f"],
                                         gamma_start=spec["gamma_start"],
                                         gamma_end=spec["gamma_end"])
    return [(spec["gamma"], solver.solve(m, config, spec["f"]))]


def _write_outputs(outdir: Path, m, stages: list) -> Path:
    """The files ``hbflow run`` writes, apart from summary.json."""
    final = stages[-1][1]
    xi = gradient_magnitudes(build_discrete_gradient(m), final.u)
    if len(stages) == 1:
        export.write_history_csv(outdir / "history.csv", final.history)
    else:
        for idx, (gamma, outcome) in enumerate(stages, start=1):
            export.write_history_csv(
                outdir / f"history_stage{idx:02d}_gamma_{gamma:.0e}.csv", outcome.history)
    vtk = outdir / "solution.vtk"
    export.write_vtk(
        vtk, m,
        point_data={"u": expand_dirichlet(m, final.u)},
        cell_data={
            "grad_norm": xi,
            "active": final.dual.active.astype(np.int64),
            "multiplier_norm": np.linalg.norm(final.dual.w, axis=1),
        },
    )
    return vtk


def _blas_versions() -> dict:
    versions = {}
    for name, module in (("numpy", np), ("scipy", scipy)):
        try:
            blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            versions[name] = f"{blas.get('name')} {blas.get('version')}"
        except (KeyError, TypeError, ValueError):
            versions[name] = "unknown"
    return versions


def run(spec: dict, trace: bool, outdir: Path) -> dict:
    probe = SpeedProbe()
    tracer = Tracer()
    if trace:
        tracer.install()
    state = {}
    try:
        # probe, set-up, probe, solve, probe, output, probe
        probes = [probe()]
        setup = _repeat(tracer, "setup", lambda: state.update(mesh=_build_mesh(spec)))
        probes.append(probe())
        with tracer.span("solve") as record:
            stages = _solve(state["mesh"], spec)
        solve_s = record["end"] - record["start"]
        probes.append(probe())
        outdir.mkdir(parents=True, exist_ok=True)
        output = _repeat(tracer, "output",
                         lambda: state.update(vtk=_write_outputs(outdir, state["mesh"], stages)))
        probes.append(probe())
    finally:
        tracer.uninstall()

    final = stages[-1][1]
    result = {
        "iterations": sum(outcome.iterations for _, outcome in stages),
        "stages": len(stages),
        "objective": final.final_objective,
        "u_norm": float(np.linalg.norm(final.u)),
        "setup_s": setup,
        "solve_s": solve_s,
        "output_s": output,
        "probe_s": probes,
        # scales the set-up, solve and output times to the reference machine
        # speed, by the Python, numeric and Python part of the probe
        "speed": [2.0 * SpeedProbe.REF_S / (before[part] + after[part])
                  for before, after, part in zip(probes, probes[1:], (1, 0, 1))],
        # ru_maxrss is in KiB on Linux
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__, "blas": _blas_versions()},
    }
    if trace:
        result["layers"] = layer_metrics(tracer, state["vtk"].stat().st_size)
        result["missing_hooks"] = tracer.missing
        result["spans"] = tracer.spans
    return result


if __name__ == "__main__":
    spec_json, trace_flag, out = sys.argv[1:4]
    print(json.dumps(run(json.loads(spec_json), trace_flag == "1", Path(out))))
