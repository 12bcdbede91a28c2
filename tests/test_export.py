import numpy as np
import pytest

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


@pytest.mark.parametrize("mesh", [lambda: build_unit_disk_mesh(3),
                                  lambda: build_unit_square_mesh(50)],   # 5000 rows: two blocks
                         ids=["disk3", "square50"])
def test_vtk_bytes_equal_the_joined_writer(mesh, rng, tmp_path):
    m = mesh()
    nv, nt = m.num_vertices, m.num_triangles
    point_data = {"u": rng.standard_normal(nv) * 1e-7, "label": np.arange(nv) - 5}
    cell_data = {
        "active": rng.random(nt) < 0.5,
        "count": rng.integers(-3, 3, nt),
        "xi": 10.0 ** rng.uniform(-12.0, 12.0, nt),
        "single": rng.random(nt).astype(np.float32),
    }
    for args in ((point_data, cell_data), (None, cell_data), (point_data, None), (None, None)):
        got, want = tmp_path / "got.vtk", tmp_path / "want.vtk"
        write_vtk(got, m, *args)
        oracles.write_vtk(want, m, *args)
        assert got.read_bytes() == want.read_bytes()


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
