import re

import numpy as np
import pytest

from hbflow import export
from hbflow.export import CSV_HEADER, write_history_csv, write_vtk
from hbflow.mesh import build_unit_disk_mesh, build_unit_square_mesh
from hbflow.solver import IterationRecord
import oracles


def record(k, rel, obj, alpha, ls):
    return IterationRecord(
        k=k, rel_residual=rel, objective=obj, alpha=alpha, ls_iters=ls,
        dphi0=-1.0, descent_identity_error=1e-15,
    )


def test_vtk_structure_and_roundtrip(square2, tmp_path):
    path = tmp_path / "out.vtk"
    nv, nt = square2.num_vertices, square2.num_triangles
    u = np.linspace(0.0, 1.0, nv)
    active = np.arange(nt) % 2 == 0
    xi = np.linspace(-1.0, 1.0, nt)
    write_vtk(path, square2, point_data={"u": u}, cell_data={"active": active, "xi": xi})

    lines = path.read_text().splitlines()
    assert lines[0] == "# vtk DataFile Version 3.0"
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    assert lines[4] == f"POINTS {nv} double"
    points = lines[5:5 + nv]
    assert all(row.split()[2] == "0" for row in points)  # planar grid, z = 0
    cells_at = 5 + nv
    assert lines[cells_at] == f"CELLS {nt} {4 * nt}"
    assert all(row.startswith("3 ") for row in lines[cells_at + 1:cells_at + 1 + nt])
    types_at = cells_at + 1 + nt
    assert lines[types_at] == f"CELL_TYPES {nt}"
    assert lines[types_at + 1:types_at + 1 + nt] == ["5"] * nt
    assert f"POINT_DATA {nv}" in lines
    assert "SCALARS u double 1" in lines
    assert f"CELL_DATA {nt}" in lines
    assert "SCALARS active int 1" in lines  # bool fields go out as ints
    assert "SCALARS xi double 1" in lines

    at = lines.index("SCALARS u double 1") + 2
    back = np.array([float(v) for v in lines[at:at + nv]])
    assert np.allclose(back, u, rtol=1e-11, atol=1e-15)
    at = lines.index("SCALARS active int 1") + 2
    back = np.array([int(v) for v in lines[at:at + nt]])
    assert np.array_equal(back.astype(bool), active)


def test_vtk_writes_are_deterministic(square3, tmp_path):
    a, b = tmp_path / "a.vtk", tmp_path / "b.vtk"
    u = np.sin(np.arange(square3.num_vertices, dtype=float))
    write_vtk(a, square3, point_data={"u": u})
    write_vtk(b, square3, point_data={"u": u})
    assert a.read_bytes() == b.read_bytes()


def test_vtk_rejects_wrong_field_length(square2, tmp_path):
    with pytest.raises(ValueError):
        write_vtk(tmp_path / "bad.vtk", square2,
                  point_data={"u": np.zeros(square2.num_vertices + 1)})
    with pytest.raises(ValueError):
        write_vtk(tmp_path / "bad.vtk", square2,
                  cell_data={"xi": np.zeros(square2.num_triangles - 1)})


def with_specials(values, specials):
    """values with its first entries replaced by specials, dtype kept."""
    values = values.copy()
    values[:len(specials)] = specials
    return values


# built in their own dtype: a cast that overflows would warn, and tier-1
# turns RuntimeWarning into an error
F64_SPECIALS = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308,
                         2.2250738585072014e-308, 0.1, 1.0 / 3.0])
F32_SPECIALS = np.array([np.float32(np.nan), np.float32(np.inf), np.float32(-np.inf),
                         np.float32(-0.0), np.finfo(np.float32).smallest_subnormal,
                         np.finfo(np.float32).max, np.float32(0.1)], dtype=np.float32)
F16_SPECIALS = np.array([np.float16(np.nan), np.float16(np.inf), np.float16(-np.inf),
                         np.float16(-0.0), np.finfo(np.float16).smallest_subnormal,
                         np.finfo(np.float16).max, np.float16(0.1)], dtype=np.float16)
I64_EXTREMES = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, -1, 0])


@pytest.mark.parametrize("mesh", [lambda: build_unit_disk_mesh(3),
                                  lambda: build_unit_square_mesh(50)],   # 5000 rows: two blocks
                         ids=["disk3", "square50"])
def test_vtk_bytes_equal_the_joined_writer(mesh, rng, tmp_path, monkeypatch):
    m = mesh()
    nv, nt = m.num_vertices, m.num_triangles
    point_data = {
        "u": with_specials(rng.standard_normal(nv) * 1e-7, F64_SPECIALS),
        "label": with_specials(np.arange(nv) - 5, I64_EXTREMES),
        "half": with_specials(rng.random(nv).astype(np.float16), F16_SPECIALS),
    }
    cell_data = {
        "active": rng.random(nt) < 0.5,
        "count": with_specials(rng.integers(-3, 3, nt), I64_EXTREMES),
        "xi": with_specials(10.0 ** rng.uniform(-12.0, 12.0, nt), F64_SPECIALS[::-1]),
        "single": with_specials(rng.random(nt).astype(np.float32), F32_SPECIALS),
        "byte": with_specials(rng.integers(0, 256, nt).astype(np.uint8),
                              np.array([0, 255], dtype=np.uint8)),
        "unsigned": np.full(nt, np.iinfo(np.uint64).max),
    }
    want = tmp_path / "want.vtk"
    for args in ((point_data, cell_data), (None, cell_data), (point_data, None), (None, None)):
        oracles.write_vtk(want, m, *args)
        for rows_per_write in (1, 7, 4096):
            monkeypatch.setattr(export, "_ROWS_PER_WRITE", rows_per_write)
            got = tmp_path / f"got{rows_per_write}.vtk"
            write_vtk(got, m, *args)
            assert got.read_bytes() == want.read_bytes(), rows_per_write


@pytest.mark.parametrize("kind, name, dtype", [
    ("cell", "xi", complex),
    ("cell", "label", str),
    ("cell", "obj", object),
    ("cell", "when", "datetime64[s]"),
    ("point", "", float),
    ("point", "two words", float),
    ("point", "tab\tname", float),
    ("point", "\u00fc", float),
    ("point", 3, float),
], ids=["complex", "str", "object", "datetime", "empty-name", "space", "tab", "non-ascii",
        "int-name"])
def test_vtk_rejects_unreadable_fields_before_opening(square2, tmp_path, kind, name, dtype):
    path = tmp_path / "bad.vtk"
    nv, nt = square2.num_vertices, square2.num_triangles
    fields = {"point_data": {"u": np.zeros(nv)}, "cell_data": {"ok": np.zeros(nt)}}
    fields[f"{kind}_data"][name] = np.zeros(nv if kind == "point" else nt, dtype=dtype)
    with pytest.raises(ValueError, match=re.escape(f"{kind} field {name!r}")):
        write_vtk(path, square2, **fields)
    assert not path.exists()


def test_history_csv_format(tmp_path):
    path = tmp_path / "history.csv"
    write_history_csv(path, [
        record(1, 0.5, -0.25, 1.0, 0),
        record(2, 1e-7, -0.5, 0.0424, 2),
    ])
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "1,5.0000000000e-01,-2.5000000000e-01,1.0000000000e+00,0"
    assert lines[2] == "2,1.0000000000e-07,-5.0000000000e-01,4.2400000000e-02,2"


def test_history_csv_empty(tmp_path):
    path = tmp_path / "history.csv"
    write_history_csv(path, [])
    assert path.read_text() == CSV_HEADER + "\n"
