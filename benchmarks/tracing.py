"""Outside-in layer trace: spans around the public functions each module calls.

A wrap replaces a name in the namespace of the module that calls it, because
``from .x import y`` binds ``y`` at import time: ``hbflow.solver.solve_spd``
is what the descent loop calls, not ``hbflow.linalg.solve_spd``. Spans are
kept in memory (name, start, end, parent) and written out when the run ends.
A hook whose name no longer exists is skipped, and the metrics that need it
are reported as absent (None).
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from contextlib import contextmanager


def _linesearch_counts(result):
    return {"evals": result.evaluations, "accepted": int(result.status == "accepted")}


def _spd_counts(result):
    return {"cg_iters": result[1].iterations}


# (module, name in that module, span name, counts taken from the return value)
HOOKS = [
    ("hbflow.mesh", "build_unit_disk_mesh", "mesh.build", None),
    ("hbflow.mesh", "build_unit_square_mesh", "mesh.build", None),
    ("hbflow.solver", "solve", "solver.solve", None),
    ("hbflow.solver", "build_discrete_gradient", "assembly.operator_build", None),
    ("hbflow.solver", "assemble_load_vector", "assembly.operator_build", None),
    ("hbflow.solver", "assemble_weighted_stiffness", "assembly.stiffness", None),
    ("hbflow.solver", "evaluate_gradient", "huber.gradient", None),
    ("hbflow.huber", "assemble_weighted_stiffness", "huber.gradient_assembly", None),
    ("hbflow.solver", "evaluate_objective", "huber.objective", None),
    ("hbflow.solver", "backtracking_search", "linesearch", _linesearch_counts),
    ("hbflow.solver", "solve_spd", "linalg.solve", _spd_counts),
    ("hbflow.export", "write_history_csv", "export.csv", None),
    ("hbflow.export", "write_vtk", "export.vtk", None),
]


class Tracer:
    """Records nested spans; ``install`` wraps the HOOKS, ``uninstall`` undoes it."""

    def __init__(self):
        self.spans: list[dict] = []
        self.hooked: set[str] = set()    # span names with at least one live wrap
        self.missing: list[str] = []     # "module.name" hooks that do not exist
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def _wrap(self, function, name, counts):
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            with tracer.span(name) as record:
                result = function(*args, **kwargs)
                if counts is not None:
                    try:
                        record["counts"] = counts(result)
                    except (AttributeError, IndexError, TypeError):
                        pass  # return type changed: the dependent metric goes absent
                return result
        return traced

    def install(self) -> None:
        for module_name, attr, name, counts in HOOKS:
            module = importlib.import_module(module_name)
            function = getattr(module, attr, None)
            if not callable(function):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._originals.append((module, attr, function))
            setattr(module, attr, self._wrap(function, name, counts))
            self.hooked.add(name)

    def uninstall(self) -> None:
        for module, attr, function in reversed(self._originals):
            setattr(module, attr, function)
        self._originals.clear()


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


# metric -> unit. The child computes these per run; the parent reports their
# medians over the traced runs.
LAYER_METRICS = {
    "mesh.build_s": "s",
    "assembly.stiffness_s": "s",
    "assembly.stiffness_calls": "count",
    "assembly.operator_build_s": "s",
    "huber.gradient_s": "s",
    "huber.gradient_calls": "count",
    "huber.gradient_assembly_s": "s",
    "huber.objective_s": "s",
    "huber.objective_calls": "count",
    "linesearch.self_s": "s",
    "linesearch.evals_per_iter": "1",
    "linesearch.accept_ratio": "1",
    "linalg.solve_s": "s",
    "linalg.solve_calls": "count",
    "linalg.ms_per_solve": "ms",
    "linalg.cg_iters_per_solve": "count",
    "solver.self_s": "s",
    "export.vtk_s": "s",
    "export.vtk_bytes": "B",
    "export.csv_s": "s",
}


def layer_metrics(tracer: Tracer, vtk_bytes: int) -> dict[str, float | None]:
    """Per-layer metrics of one run from its spans; None marks an absent one."""
    spans = tracer.spans
    own = self_times(spans)

    def durations(name):
        return [s["end"] - s["start"] for s in spans if s["name"] == name]

    def total(name):
        return sum(durations(name)) if name in tracer.hooked else None

    def calls(name):
        return len(durations(name)) if name in tracer.hooked else None

    def self_total(name):
        if name not in tracer.hooked:
            return None
        return sum(t for s, t in zip(spans, own) if s["name"] == name)

    def counted(name, key):
        values = [s.get("counts", {}).get(key) for s in spans if s["name"] == name]
        if name not in tracer.hooked or None in values:
            return None
        return sum(values)

    def ratio(num, den, scale=1.0):
        return None if num is None or not den else scale * num / den

    def median_of(name):
        values = durations(name)
        return statistics.median(values) if name in tracer.hooked and values else None

    def csv_per_output():
        if "export.csv" not in tracer.hooked:
            return None
        per_phase = {s["id"]: 0.0 for s in spans if s["name"] == "output"}
        for s in spans:
            if s["name"] == "export.csv" and s["parent"] in per_phase:
                per_phase[s["parent"]] += s["end"] - s["start"]
        return statistics.median(per_phase.values()) if per_phase else None

    evals = counted("linesearch", "evals")
    accepted = counted("linesearch", "accepted")
    solve_s = total("linalg.solve")
    solve_calls = calls("linalg.solve")
    return {
        "mesh.build_s": median_of("mesh.build"),
        "assembly.stiffness_s": total("assembly.stiffness"),
        "assembly.stiffness_calls": calls("assembly.stiffness"),
        "assembly.operator_build_s": total("assembly.operator_build"),
        "huber.gradient_s": total("huber.gradient"),
        "huber.gradient_calls": calls("huber.gradient"),
        "huber.gradient_assembly_s": total("huber.gradient_assembly"),
        "huber.objective_s": total("huber.objective"),
        "huber.objective_calls": calls("huber.objective"),
        "linesearch.self_s": self_total("linesearch"),
        "linesearch.evals_per_iter": ratio(evals, accepted),
        "linesearch.accept_ratio": ratio(accepted, evals),
        "linalg.solve_s": solve_s,
        "linalg.solve_calls": solve_calls,
        "linalg.ms_per_solve": ratio(solve_s, solve_calls, 1e3),
        "linalg.cg_iters_per_solve": ratio(counted("linalg.solve", "cg_iters"), solve_calls),
        "solver.self_s": self_total("solver.solve"),
        "export.vtk_s": median_of("export.vtk"),
        "export.vtk_bytes": vtk_bytes if "export.vtk" in tracer.hooked else None,
        "export.csv_s": csv_per_output(),
    }
