"""Plain-file output: legacy VTK and history CSV.

All writers format numbers with repr-stable format codes so identical
inputs produce byte-identical files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .mesh import Mesh
from .solver import IterationRecord

CSV_HEADER = "it,rel_residual,J,alpha,ls_iters"

# lines formatted per write, so no file is ever held in memory as text
_ROWS_PER_WRITE = 4096


def _write_rows(fh, fmt: str, values: np.ndarray) -> None:
    """One line ``fmt.format(*row)`` per row of ``values``, in blocks."""
    rows = values.reshape(len(values), -1)
    for start in range(0, len(rows), _ROWS_PER_WRITE):
        block = rows[start:start + _ROWS_PER_WRITE].tolist()
        fh.write("".join([fmt.format(*row) for row in block]))


def write_vtk(
    path,
    mesh: Mesh,
    point_data: dict[str, np.ndarray] | None = None,
    cell_data: dict[str, np.ndarray] | None = None,
) -> None:
    """Legacy ASCII VTK unstructured grid with scalar fields.

    Integer-typed arrays are written as int scalars, everything else as
    double.
    """
    nv, nt = mesh.num_vertices, mesh.num_triangles
    sections = (("POINT", nv, point_data or {}), ("CELL", nt, cell_data or {}))
    for kind, count, fields in sections:
        for name, values in fields.items():
            if np.shape(values) != (count,):
                raise ValueError(f"{kind.lower()} field {name!r} has shape {np.shape(values)}")

    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\nhbflow solution\nASCII\n"
                 f"DATASET UNSTRUCTURED_GRID\nPOINTS {nv} double\n")
        _write_rows(fh, "{:.12g} {:.12g} 0\n", mesh.vertices)
        fh.write(f"CELLS {nt} {4 * nt}\n")
        _write_rows(fh, "3 {} {} {}\n", mesh.triangles)
        fh.write(f"CELL_TYPES {nt}\n" + "5\n" * nt)
        for kind, count, fields in sections:
            if fields:
                fh.write(f"{kind}_DATA {count}\n")
            for name, values in fields.items():
                values = np.asarray(values)
                integral = np.issubdtype(values.dtype, np.integer) or values.dtype == bool
                fh.write(f"SCALARS {name} {'int' if integral else 'double'} 1\n"
                         "LOOKUP_TABLE default\n")
                _write_rows(fh, "{:d}\n" if integral else "{:.12g}\n", values)


def write_history_csv(path, history: list[IterationRecord]) -> None:
    """Convergence table with the fixed header it,rel_residual,J,alpha,ls_iters."""
    lines = [CSV_HEADER]
    for rec in history:
        lines.append(
            f"{rec.k},{rec.rel_residual:.10e},{rec.objective:.10e},"
            f"{rec.alpha:.10e},{rec.ls_iters}"
        )
    Path(path).write_text("\n".join(lines) + "\n")
