import numpy as np
import pytest
import scipy.sparse as sp

from hbflow.assembly import (
    AssemblyError,
    assemble_load_vector,
    assemble_weighted_stiffness,
    build_discrete_gradient,
    expand_dirichlet,
    gradient_magnitudes,
    weights_huber,
    weights_plaplacian,
    weights_preconditioner,
)
from hbflow.mesh import build_unit_square_mesh, make_mesh
from oracles import plane_gradient

# stiffness of the unit right triangle {(0,0),(1,0),(0,1)} with unit weight
LOCAL_STIFFNESS = np.array([
    [1.0, -0.5, -0.5],
    [-0.5, 0.5, 0.0],
    [-0.5, 0.0, 0.5],
])


def test_gradient_shape_and_affine_exactness(square3):
    g_full = build_discrete_gradient(square3, restrict=False)
    nt = square3.triangles.shape[0]
    assert g_full.shape == (2 * nt, square3.vertices.shape[0])
    vals = 2.0 * square3.vertices[:, 0] - 0.5 * square3.vertices[:, 1]
    gv = g_full @ vals
    assert np.allclose(gv[:nt], 2.0, atol=1e-13)
    assert np.allclose(gv[nt:], -0.5, atol=1e-13)


def test_restricted_gradient_columns(square3):
    g = build_discrete_gradient(square3)
    assert g.shape == (2 * square3.triangles.shape[0], square3.num_interior)


def test_gradient_matches_plane_fit(square2, rng):
    g_full = build_discrete_gradient(square2, restrict=False)
    vals = rng.standard_normal(square2.vertices.shape[0])
    gv = g_full @ vals
    nt = square2.triangles.shape[0]
    for k, tri in enumerate(square2.triangles):
        gx, gy = plane_gradient(square2.vertices[tri], vals[tri])
        assert gv[k] == pytest.approx(gx, abs=1e-12)
        assert gv[k + nt] == pytest.approx(gy, abs=1e-12)


def test_gradient_magnitudes_is_hypot(square2, rng):
    g = build_discrete_gradient(square2)
    u = rng.standard_normal(square2.num_interior)
    gu = g @ u
    nt = square2.triangles.shape[0]
    xi = gradient_magnitudes(g, u)
    assert np.allclose(xi, np.hypot(gu[:nt], gu[nt:]), atol=0.0)


def test_local_stiffness_single_triangle():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    m = make_mesh(verts, np.array([[0, 1, 2]]))
    a = assemble_weighted_stiffness(
        m, np.ones(1), gradient=build_discrete_gradient(m, restrict=False)
    )
    assert np.allclose(a.toarray(), LOCAL_STIFFNESS, atol=1e-14)


def test_five_point_stencil_value():
    # criss-cross P1 Laplacian reduces to the 5-point stencil: diagonal 4
    m = build_unit_square_mesh(2)
    a = assemble_weighted_stiffness(m, np.ones(m.triangles.shape[0]))
    assert a.shape == (1, 1)
    assert a[0, 0] == pytest.approx(4.0, rel=1e-13)


def test_stiffness_symmetry_and_psd(square4, rng):
    w = rng.uniform(0.5, 2.0, square4.triangles.shape[0])
    a = assemble_weighted_stiffness(square4, w)
    assert (a - a.T).nnz == 0
    for _ in range(5):
        x = rng.standard_normal(a.shape[0])
        assert x @ (a @ x) >= 0.0


def test_stiffness_linearity_in_weights(square3, rng):
    w1 = rng.uniform(0.1, 1.0, square3.triangles.shape[0])
    w2 = rng.uniform(0.1, 1.0, square3.triangles.shape[0])
    a1 = assemble_weighted_stiffness(square3, w1)
    a2 = assemble_weighted_stiffness(square3, w2)
    a12 = assemble_weighted_stiffness(square3, w1 + w2)
    assert abs(a12 - (a1 + a2)).max() < 1e-12


def test_stiffness_accepts_precomputed_gradient(square3):
    g = build_discrete_gradient(square3)
    w = np.ones(square3.triangles.shape[0])
    a = assemble_weighted_stiffness(square3, w, gradient=g)
    b = assemble_weighted_stiffness(square3, w)
    assert abs(a - b).max() == 0.0


def test_stiffness_rejects_bad_weights(square3):
    nt = square3.triangles.shape[0]
    with pytest.raises(AssemblyError):
        assemble_weighted_stiffness(square3, -np.ones(nt))
    with pytest.raises(AssemblyError):
        assemble_weighted_stiffness(square3, np.full(nt, np.nan))
    with pytest.raises(AssemblyError):
        assemble_weighted_stiffness(square3, np.ones(nt - 1))


def test_weights_preconditioner_values():
    xi = np.array([0.0, 1.0, 3.0])
    w = weights_preconditioner(xi, 1.75, 1e-6)
    assert w[0] == pytest.approx(31.6227766016838, rel=1e-12)  # (1e-6)^(-1/4)
    assert w[1] == pytest.approx((1.0 + 1e-6) ** -0.25, rel=1e-14)
    # p = 2 collapses to unit weights regardless of xi
    assert np.allclose(weights_preconditioner(xi, 2.0, 1e-6), 1.0, atol=0.0)
    with pytest.raises(AssemblyError):
        weights_preconditioner(xi, 2.5, 1e-6)
    with pytest.raises(AssemblyError):
        weights_preconditioner(xi, 1.5, 0.0)


def test_weights_plaplacian_values():
    xi = np.array([0.0, 1e-15, 0.5, 2.0])
    w = weights_plaplacian(xi, 1.5)
    assert w[0] == 0.0 and w[1] == 0.0  # degenerate triangles drop out
    assert w[2] == pytest.approx(0.5**-0.5, rel=1e-14)
    assert w[3] == pytest.approx(2.0**-0.5, rel=1e-14)
    w4 = weights_plaplacian(xi, 4.0)
    assert w4[3] == pytest.approx(4.0, rel=1e-14)


def test_weights_huber_branches():
    g, gamma = 0.2, 1e3
    xi = np.array([0.0, 1e-4, 2e-4, 1e-2])
    w = weights_huber(xi, g, gamma)
    assert w[0] == pytest.approx(gamma)          # inactive: slope gamma
    assert w[1] == pytest.approx(gamma)
    assert w[2] == pytest.approx(gamma)          # kink: both branches agree
    assert w[3] == pytest.approx(g / 1e-2)       # active: g / xi
    assert np.all(np.diff(w) <= 1e-12)           # monotone non-increasing in xi


def test_load_vector_lumped_quadrature(square4):
    load_full = assemble_load_vector(square4, 1.0, restrict=False)
    assert load_full.sum() == pytest.approx(1.0, rel=1e-13)  # integrates 1 over the square
    load = assemble_load_vector(square4, 1.0)
    assert load.size == square4.num_interior
    # interior vertices touch 6 triangles, so lumping gives the cell area 1/n^2
    assert np.allclose(load, 1.0 / 16.0, rtol=1e-13)


def test_load_vector_callable(square4):
    f = lambda x, y: x
    load = assemble_load_vector(square4, f, restrict=False)
    # integral of x over the unit square
    assert load.sum() == pytest.approx(0.5, rel=1e-12)


def test_expand_dirichlet_roundtrip(square4, rng):
    u = rng.standard_normal(square4.num_interior)
    full = expand_dirichlet(square4, u)
    assert full.shape == (square4.vertices.shape[0],)
    assert np.allclose(full[square4.boundary_vertex], 0.0, atol=0.0)
    assert np.allclose(full[~square4.boundary_vertex], u, atol=0.0)
