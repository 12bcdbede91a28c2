"""Plain-file output: legacy VTK and history CSV.

All writers format numbers with repr-stable format codes so identical
inputs produce byte-identical files.

``write_vtk`` checks every field (shape, dtype, name) before it opens the
file, so a rejected field leaves no file behind. It then streams rows in
blocks of ``_ROWS_PER_WRITE``, formatting each block with one
``str.format`` call on the row format repeated once per row. That gives
the same bytes as formatting row by row (the line-list writer in
``tests/oracles.py``) in less than half the time, and only one block's
text is held in memory.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .mesh import Mesh
from .solver import IterationRecord

CSV_HEADER = "it,rel_residual,J,alpha,ls_iters"

# lines formatted per write, so no file is ever held in memory as text
_ROWS_PER_WRITE = 4096

# legacy VTK reads a field name as one token
_FIELD_NAME = re.compile(r"[!-~]+")


def _write_rows(fh, fmt: str, values: np.ndarray) -> None:
    """One line ``fmt.format(*row)`` per row of ``values``, one call per block."""
    rows = values.reshape(len(values), -1)
    for start in range(0, len(rows), _ROWS_PER_WRITE):
        block = rows[start:start + _ROWS_PER_WRITE]
        fh.write((fmt * len(block)).format(*block.ravel().tolist()))


def _checked_fields(kind: str, count: int, fields: dict | None) -> dict[str, np.ndarray]:
    """The fields as arrays; a field VTK cannot read back raises ValueError."""
    checked = {}
    for name, values in (fields or {}).items():
        values = np.asarray(values)
        where = f"{kind} field {name!r}"
        if not isinstance(name, str) or not _FIELD_NAME.fullmatch(name):
            raise ValueError(f"{where}: a name must be printable ASCII without whitespace")
        if values.dtype.kind not in "biuf":
            raise ValueError(f"{where} has dtype {values.dtype}; "
                             "only bool, integer and real floating fields are written")
        if values.shape != (count,):
            raise ValueError(f"{where} has shape {values.shape}")
        checked[name] = values
    return checked


def write_vtk(
    path,
    mesh: Mesh,
    point_data: dict[str, np.ndarray] | None = None,
    cell_data: dict[str, np.ndarray] | None = None,
) -> None:
    """Legacy ASCII VTK unstructured grid with scalar fields.

    Bool and integer arrays are written as int scalars, real floating
    arrays as double. Any other dtype, or a name that is not printable
    ASCII without whitespace, raises ValueError before the file is opened.
    """
    nv, nt = mesh.num_vertices, mesh.num_triangles
    sections = (("POINT", nv, _checked_fields("point", nv, point_data)),
                ("CELL", nt, _checked_fields("cell", nt, cell_data)))

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
                integral = values.dtype.kind in "biu"
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
