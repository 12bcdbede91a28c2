import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import Delaunay, QhullError

import hbflow.mesh
from hbflow.mesh import (
    Mesh,
    MeshError,
    _edges,
    build_unit_disk_mesh,
    build_unit_square_mesh,
    make_mesh,
)
from oracles import (
    disk_mesh,
    edge_counts,
    edge_table,
    mesh_geometry,
    shoelace_area,
    square_mesh,
)

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


@pytest.mark.parametrize("build, oracle, size", [
    *((build_unit_disk_mesh, disk_mesh, level) for level in range(5)),
    *((build_unit_square_mesh, square_mesh, n) for n in (1, 2, 5)),
])
def test_numbering_matches_brute_force(build, oracle, size):
    # the vertex order fixes every output file, so it is pinned exactly
    m = build(size)
    vertices, triangles, boundary = oracle(size)
    assert np.array_equal(m.vertices, vertices)
    assert np.array_equal(m.triangles, triangles)
    assert np.array_equal(m.boundary_vertex, boundary)
    edges, triangle_edges, counts = _edges(m.triangles)
    count = edge_counts(m.triangles.tolist())
    assert [tuple(e) for e in edges.tolist()] == list(count)
    assert counts.tolist() == list(count.values())
    sides = np.sort(m.triangles[:, [[0, 1], [1, 2], [2, 0]]], axis=2)
    assert np.array_equal(edges[triangle_edges], sides)
    # Euler characteristic of a disk-shaped triangulation
    assert m.num_vertices - len(edges) + m.num_triangles == 1


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_matches_oracle(mesh, reference):
    """Every array of ``mesh`` and its edge table, bit for bit, against the
    oracle geometry of ``reference``'s vertices and triangles."""
    assert_same_bits(mesh.vertices, reference.vertices)
    assert_same_bits(mesh.triangles, reference.triangles)
    boundary, areas, basis_gradients, h = mesh_geometry(reference.vertices, reference.triangles)
    assert_same_bits(mesh.boundary_vertex, boundary)
    assert_same_bits(mesh.areas, areas)
    assert_same_bits(mesh.basis_gradients, basis_gradients)
    assert mesh.h.hex() == h.hex()
    for got, want in zip(_edges(mesh.triangles), edge_table(reference.triangles)):
        assert_same_bits(got, want)


@pytest.mark.parametrize("build, size", [
    *((build_unit_disk_mesh, level) for level in range(7)),
    *((build_unit_square_mesh, n) for n in (1, 2, 5, 50, 101)),
])
def test_mesh_matches_the_oracle_bit_for_bit(build, size, monkeypatch):
    mesh = build(size)
    # the disk's refined vertices are numbered by the oracle's edge table
    monkeypatch.setattr(hbflow.mesh, "_edges", edge_table)
    assert_matches_oracle(mesh, build(size))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(3, 200),
       scale=st.sampled_from([1e-3, 1.0, 7.0, 1e4]))
def test_delaunay_mesh_matches_the_oracle_bit_for_bit(seed, size, scale):
    # generic coordinates, whose sides and areas round in their last bits
    vertices = scale * np.random.default_rng(seed).random((size, 2))
    try:
        triangles = Delaunay(vertices).simplices.astype(np.int64)
    except QhullError:                  # collinear or otherwise flat point sets
        assume(False)
    v = vertices[triangles]
    det = ((v[:, 1, 0] - v[:, 0, 0]) * (v[:, 2, 1] - v[:, 0, 1])
           - (v[:, 2, 0] - v[:, 0, 0]) * (v[:, 1, 1] - v[:, 0, 1]))
    triangles[det < 0] = triangles[det < 0][:, ::-1]     # counterclockwise
    assume(np.all(mesh_geometry(vertices, triangles)[1] > 0.0))
    left_out = np.setdiff1d(np.arange(size), triangles)     # Qhull may drop a point
    if left_out.size:
        with pytest.raises(MeshError, match=rf"^vertex {left_out[0]} is on no triangle$"):
            make_mesh(vertices, triangles)
        return
    mesh = make_mesh(vertices, triangles)
    assert_matches_oracle(mesh, mesh)


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
    for bad in (np.array([0, 1, 2]), np.array([[0, 1], [1, 2]])):       # wrong triangle shape
        with pytest.raises(MeshError, match=r"^triangles must have shape \(nt, 3\), got "):
            make_mesh(verts, bad)
    fan = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, 0.5], [0.5, 2.0]])
    with pytest.raises(MeshError, match=r"^edge \(0, 1\) lies on 3 triangles$"):
        make_mesh(fan, np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]]))   # non-manifold
    one_side = r"^edge \(0, 1\) has both its triangles on one side$"
    with pytest.raises(MeshError, match=one_side):
        make_mesh(verts, np.array([[0, 1, 2], [0, 1, 2]]))          # a triangle listed twice
    with pytest.raises(MeshError, match=one_side):
        make_mesh(fan[:4], np.array([[0, 1, 2], [0, 1, 3]]))        # a fold
    # a NaN or +inf vertex passes the det <= 0 test, and -inf fails it as det=nan
    star = np.array([[0, 1, 3], [1, 2, 3], [2, 0, 3]])
    for x in ("nan", "inf", "-inf"):
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [float(x), 1.0], [0.3, 0.3]])
        with pytest.raises(MeshError, match=rf"^vertex 2 is not finite: \({x}, 1\.0\)$"):
            make_mesh(corners, star)
    # a vertex that no triangle uses would be an unknown with an all-zero G column
    square = build_unit_square_mesh(4)
    with pytest.raises(MeshError, match=r"^vertex 25 is on no triangle$"):
        make_mesh(np.vstack([square.vertices, [[0.5, 0.55]]]), square.triangles)
    with pytest.raises(MeshError, match=r"^vertex 1 is on no triangle$"):
        make_mesh(fan[:4], np.array([[0, 3, 2]]))
    # int64 indices only: no truncated float, no NaN or inf, no parsed text
    for bad, shown in (([[0, 1, 2.9]], "2.9"), ([[0, 1, 2], [1, 3, 2.5]], "2.5"),
                       ([[0, 1, np.nan]], "nan"), ([[0, 1, np.inf]], "inf")):
        with pytest.raises(MeshError, match=rf"^triangle index {shown} is not an int64$"):
            make_mesh(np.vstack([verts, [[1.0, 1.0]]]), bad)
    for bad in ([["0", "1", "2"]], [[0, 1, None]]):
        with pytest.raises(MeshError, match=r"^triangle indices must be integers, got dtype "):
            make_mesh(verts, bad)
    for good in (np.array([[0, 1, 2]], dtype=np.int32), [[0.0, 1.0, 2.0]]):
        assert make_mesh(verts, good).triangles.tolist() == [[0, 1, 2]]
    # vertex coordinates are numbers, not text that numpy would parse
    for bad in ([["0", "0"], ["1", "0"], ["0", "1"]], [[0.0, 0.0], [1.0, 0.0], [0.0, "a"]],
                [[0.0, 0.0], [1.0, 0.0], [0.0, None]]):
        with pytest.raises(MeshError, match=r"^vertex coordinates must be numbers, got dtype "):
            make_mesh(bad, [[0, 1, 2]])
    # a ragged list is named as the input it is, not left to numpy's ValueError
    with pytest.raises(MeshError, match=r"^vertices must be a rectangular array, not a ragged"):
        make_mesh([[0.0, 0.0], [1.0, 0.0], [0.0]], [[0, 1, 2]])
    with pytest.raises(MeshError, match=r"^triangles must be a rectangular array, not a ragged"):
        make_mesh(verts, [[0, 1, 2], [0, 1]])
    for good in ([[0, 0], [1, 0], [0, 1]], [[False, False], [True, False], [False, True]]):
        assert make_mesh(good, [[0, 1, 2]]).areas.tolist() == [0.5]


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


def test_make_mesh_owns_copies_of_its_inputs():
    square = build_unit_square_mesh(4)
    base = square.vertices.copy()
    v, t = base[:], square.triangles.copy()     # contiguous float64 and int64, as a mesh keeps
    mesh = make_mesh(v, t)
    assert v.flags.writeable and t.flags.writeable
    assert mesh.vertices is not v and mesh.triangles is not t
    base *= 2.0         # the caller edits its array: the mesh and its geometry stay as built
    t[0] = t[1]
    assert mesh.vertices[5].tolist() == [0.0, 0.25]
    assert mesh.areas[0] == 0.03125
    assert np.array_equal(mesh.vertices, square.vertices)
    assert np.array_equal(mesh.triangles, square.triangles)
    assert np.array_equal(mesh.areas, square.areas)


def test_mesh_equality_is_identity(square2):
    assert square2 == square2
    assert square2 != build_unit_square_mesh(2)


def test_square_n1_has_no_interior():
    m = build_unit_square_mesh(1)
    assert m.num_interior == 0
    assert m.boundary_vertex.all()
