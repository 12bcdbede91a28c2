import numpy as np
import pytest

from hbflow.mesh import (
    Mesh,
    MeshError,
    build_unit_disk_mesh,
    build_unit_square_mesh,
    make_mesh,
)
from oracles import shoelace_area

REF_H = (2.0 - np.sqrt(2.0)) / 2.0          # inradius of the unit right triangle
EQUILATERAL_H = 1.0 / (2.0 * np.sqrt(3.0))  # inradius of the unit equilateral triangle


def test_square_counts():
    for n in (1, 2, 5):
        m = build_unit_square_mesh(n)
        assert m.vertices.shape == ((n + 1) ** 2, 2)
        assert m.triangles.shape == (2 * n * n, 3)
        assert int(m.boundary_vertex.sum()) == 4 * n


def test_square_total_area_and_h():
    for n in (1, 3, 8):
        m = build_unit_square_mesh(n)
        assert np.isclose(m.areas.sum(), 1.0, atol=1e-14)
        assert m.h == pytest.approx(REF_H / n, rel=1e-13)


def test_areas_match_shoelace(square4):
    for tri, area in zip(square4.triangles, square4.areas):
        assert area == pytest.approx(shoelace_area(square4.vertices[tri]), rel=1e-13)


def test_orientation_is_ccw(square3, disk3):
    for m in (square3, disk3):
        v = m.vertices[m.triangles]
        det = ((v[:, 1, 0] - v[:, 0, 0]) * (v[:, 2, 1] - v[:, 0, 1])
               - (v[:, 2, 0] - v[:, 0, 0]) * (v[:, 1, 1] - v[:, 0, 1]))
        assert (det > 0).all()


def test_basis_gradients_partition_of_unity(square4):
    # the three hat functions on a triangle sum to 1, so gradients sum to 0
    sums = square4.basis_gradients.sum(axis=1)
    assert np.abs(sums).max() < 1e-13


def test_basis_gradients_reproduce_affine(square3):
    a, b, c = 0.7, -1.3, 0.25
    vals = a * square3.vertices[:, 0] + b * square3.vertices[:, 1] + c
    for tri, grads in zip(square3.triangles, square3.basis_gradients):
        gx = float(grads[:, 0] @ vals[tri])
        gy = float(grads[:, 1] @ vals[tri])
        assert (gx, gy) == pytest.approx((a, b), abs=1e-12)


def test_interior_indexing(square4):
    m = square4
    assert m.num_interior == 9
    assert m.interior_indices.size == 9
    assert not m.boundary_vertex[m.interior_indices].any()
    # dof_index inverts interior_indices and is -1 on the boundary
    assert (m.dof_index[m.interior_indices] == np.arange(9)).all()
    assert (m.dof_index[m.boundary_vertex] == -1).all()


def test_disk_level0_geometry():
    m = build_unit_disk_mesh(0)
    assert m.triangles.shape == (6, 3)
    assert m.vertices.shape == (7, 2)
    assert m.areas.sum() == pytest.approx(3.0 * np.sqrt(3.0) / 2.0, rel=1e-13)
    assert m.h == pytest.approx(EQUILATERAL_H, rel=1e-13)
    assert int(m.boundary_vertex.sum()) == 6


def test_disk_refinement_counts_and_projection():
    for level in (1, 2, 3):
        m = build_unit_disk_mesh(level)
        assert m.triangles.shape[0] == 6 * 4**level
        r = np.hypot(m.vertices[:, 0], m.vertices[:, 1])
        assert r[m.boundary_vertex] == pytest.approx(1.0, abs=1e-14)
        assert r.max() <= 1.0 + 1e-14


def test_disk_area_approaches_pi():
    areas = [build_unit_disk_mesh(lv).areas.sum() for lv in (1, 2, 3)]
    assert areas[0] < areas[1] < areas[2] < np.pi
    assert areas[2] > 3.10


def test_disk_h_decreases():
    hs = [build_unit_disk_mesh(lv).h for lv in (3, 4, 5, 6)]
    assert hs[0] > hs[1] > hs[2] > hs[3]
    # level 6 is the first level under the 0.01 mark used by the disk runs
    assert hs[2] > 0.01 > hs[3]


def test_make_mesh_rejects_bad_input():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MeshError):
        make_mesh(verts, np.array([[0, 2, 1]]))          # clockwise
    with pytest.raises(MeshError):
        make_mesh(verts, np.array([[0, 1, 1]]))          # repeated vertex
    with pytest.raises(MeshError):
        make_mesh(verts, np.array([[0, 1, 3]]))          # index out of range
    with pytest.raises(MeshError):
        make_mesh(verts[:, :1], np.array([[0, 1, 2]]))   # wrong vertex shape


def test_boundary_flags_from_edge_counts():
    # two triangles sharing one edge: every vertex touches an unshared edge
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    m = make_mesh(verts, tris)
    assert m.boundary_vertex.all()
    assert m.num_interior == 0


def test_arrays_are_read_only(square2):
    for arr in (square2.vertices, square2.triangles, square2.areas,
                square2.basis_gradients, square2.boundary_vertex):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_mesh_equality_is_identity(square2):
    assert square2 == square2
    assert square2 != build_unit_square_mesh(2)


def test_square_n1_has_no_interior():
    m = build_unit_square_mesh(1)
    assert m.num_interior == 0
    assert m.boundary_vertex.all()
