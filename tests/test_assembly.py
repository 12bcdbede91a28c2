import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from hbflow import assembly
from hbflow.assembly import (
    AssemblyError,
    assemble_load_vector,
    assemble_weighted_stiffness,
    build_discrete_gradient,
    expand_dirichlet,
    gradient_magnitudes,
)
from hbflow.huber import HuberParams, dual_field, evaluate_gradient
from hbflow.mesh import Mesh, build_unit_disk_mesh, build_unit_square_mesh
from hbflow.solver import LinearConfig, SolverConfig, continuation_solve, solve
import oracles
from oracles import plane_gradient

# stiffness of the unit right triangle {(0,0),(1,0),(0,1)} with unit weight
LOCAL_STIFFNESS = np.array([
    [1.0, -0.5, -0.5],
    [-0.5, 0.5, 0.0],
    [-0.5, 0.0, 0.5],
])


def test_gradient_shape_and_affine_exactness(square3):
    g_full = oracles.full_gradient(square3)
    nt = square3.triangles.shape[0]
    assert g_full.shape == (2 * nt, square3.vertices.shape[0])
    vals = 2.0 * square3.vertices[:, 0] - 0.5 * square3.vertices[:, 1]
    gv = g_full @ vals
    np.testing.assert_allclose(gv[:nt], 2.0, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(gv[nt:], -0.5, rtol=0.0, atol=1e-13)
    g = build_discrete_gradient(square3)
    np.testing.assert_allclose(g.toarray(), g_full[:, square3.interior_indices].toarray(),
                               rtol=0.0, atol=1e-13)


def test_restricted_gradient_columns(square3):
    g = build_discrete_gradient(square3)
    assert g.shape == (2 * square3.triangles.shape[0], square3.num_interior)


def test_gradient_matches_plane_fit(square3, rng):
    u = rng.standard_normal(square3.num_interior)
    gv = build_discrete_gradient(square3) @ u
    vals = oracles.full_values(square3, u)
    nt = square3.triangles.shape[0]
    for k, tri in enumerate(square3.triangles):
        gx, gy = plane_gradient(square3.vertices[tri], vals[tri])
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
    m = Mesh(verts, np.array([[0, 1, 2]]))
    a = assembly._StiffnessPattern(oracles.full_gradient(m)).assemble(m.areas)
    assert np.allclose(a.toarray(), LOCAL_STIFFNESS, atol=1e-14)


def test_five_point_stencil_value():
    # on cells cut along one diagonal the P1 Laplacian is the 5-point stencil: diagonal 4
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


def test_gradient_is_built_once_per_mesh(square3):
    g = build_discrete_gradient(square3)
    assert build_discrete_gradient(square3) is g
    assert build_discrete_gradient(build_unit_square_mesh(3)) is not g


def test_two_stiffness_assemblies_build_one_gradient_and_one_plan(pattern_builds):
    m = build_unit_square_mesh(3)
    w = np.ones(m.num_triangles)
    a = assemble_weighted_stiffness(m, w)
    assert _bits_equal(a, assemble_weighted_stiffness(m, w))
    # a G built per call would need a plan per call
    assert pattern_builds == [id(build_discrete_gradient(m))]


def test_evaluators_refuse_a_gradient(square3):
    # the mesh is the only way in: no call can pair it with another mesh's G
    g, load = build_discrete_gradient(square3), assemble_load_vector(square3, 1.0)
    w, u = np.ones(square3.num_triangles), np.zeros(g.shape[1])
    params, xi = HuberParams(p=1.5, g=0.2, gamma=10.0), gradient_magnitudes(g, u)
    calls = [lambda: assemble_weighted_stiffness(square3, w, gradient=g),
             lambda: assembly.apply_weighted_stiffness(square3, w, u, gradient=g),
             lambda: evaluate_gradient(square3, g, u, params, load, xi=xi),
             lambda: dual_field(g, u, params, xi=xi)]
    for call in calls:
        with pytest.raises(TypeError):
            call()


def test_stiffness_rejects_bad_weights(square3):
    nt = square3.triangles.shape[0]
    with pytest.raises(AssemblyError):
        assemble_weighted_stiffness(square3, -np.ones(nt))
    with pytest.raises(AssemblyError):
        assemble_weighted_stiffness(square3, np.full(nt, np.nan))
    with pytest.raises(AssemblyError):
        assemble_weighted_stiffness(square3, np.ones(nt - 1))


def test_load_vector_lumped_quadrature(square4):
    load_full = oracles.full_load(square4, 1.0)
    assert load_full.sum() == pytest.approx(1.0, rel=1e-13)  # integrates 1 over the square
    load = assemble_load_vector(square4, 1.0)
    np.testing.assert_allclose(load, load_full[square4.interior_indices], rtol=1e-13)
    # interior vertices touch 6 triangles, so lumping gives the cell area 1/n^2
    np.testing.assert_allclose(load, 1.0 / 16.0, rtol=1e-13)


def test_expand_dirichlet_roundtrip(square4, rng):
    u = rng.standard_normal(square4.num_interior)
    full = expand_dirichlet(square4, u)
    assert full.shape == (square4.vertices.shape[0],)
    assert np.allclose(full[square4.boundary_vertex], 0.0, atol=0.0)
    assert np.allclose(full[~square4.boundary_vertex], u, atol=0.0)


def test_expand_dirichlet_rejects_a_u_of_the_wrong_length(square4):
    match = rf"^u shape \({square4.num_interior - 1},\) does not match {square4.num_interior} "
    with pytest.raises(AssemblyError, match=match):
        expand_dirichlet(square4, np.zeros(square4.num_interior - 1))


def _bits_equal(a, b):
    return (np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.data.view(np.int64), b.data.view(np.int64)))


def _single_triangle():
    return Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]]))


def _two_triangles():
    return Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
                np.array([[0, 1, 2], [0, 2, 3]]))


def _wide(g, ncols):
    """g with ncols columns, the added ones empty."""
    return sp.csr_matrix((g.data, g.indices, g.indptr), shape=(g.shape[0], ncols))


@pytest.mark.parametrize("mesh", [
    *[pytest.param(("disk", level), id=f"disk{level}") for level in range(5)],
    *[pytest.param(("square", n), id=f"square{n}") for n in (1, 2, 3, 8)],
    pytest.param(("triangle", 0), id="triangle"),
    # n = 50,000 columns, so the entry keys i * n + j need int64; the
    # columns past the square's four corners are empty
    pytest.param(("wide", 50_000), id="wide-keys"),
])
def test_stiffness_bits_equal_the_sparse_product(mesh, rng):
    kind, size = mesh
    m = {"disk": build_unit_disk_mesh, "square": build_unit_square_mesh,
         "wide": lambda _: _two_triangles()}.get(kind, lambda _: _single_triangle())(size)
    nt = m.num_triangles
    spread = 10.0 ** rng.uniform(-8.0, 8.0, nt)
    spread[rng.random(nt) < 0.3] = 0.0
    spread[0] = 0.0
    weights = [np.ones(nt), spread, rng.uniform(0.5, 2.0, nt), np.zeros(nt)]
    full = oracles.full_gradient(m)
    if kind == "wide":
        full = _wide(full, size)
    # a plan on a G other than the mesh's, and the mesh's own G through the public call
    plan = assembly._StiffnessPattern(full)
    assemblies = [(full, lambda w: plan.assemble(w * m.areas))]
    if m.num_interior:
        assemblies.append((build_discrete_gradient(m),
                           lambda w: assemble_weighted_stiffness(m, w)))
    for g, assemble in assemblies:
        for w in weights:
            got = assemble(w)
            assert _bits_equal(got, oracles.weighted_stiffness(m, w, g))
            assert got.has_sorted_indices


@pytest.mark.parametrize("mesh, p, g, gamma", [
    pytest.param("disk3", 1.5, 0.2, 50.0, id="1.5"),
    pytest.param("disk3", 4.0, 0.2, 50.0, id="4.0"),
    # right angles give exact-zero entries, which assemble drops and apply keeps
    pytest.param("square16", 4.0, 0.2, 50.0, id="square-4.0"),
    # p = 100 at two gamma values of the continuation ladder
    pytest.param("square16", 100.0, 0.3, 1e3, id="square-100-gamma1e3"),
    pytest.param("square16", 100.0, 0.3, 1e6, id="square-100-gamma1e6"),
])
def test_gradient_bits_equal_the_sparse_product(request, rng, mesh, p, g, gamma):
    m = request.getfixturevalue(mesh)
    params = HuberParams(p=p, g=g, gamma=gamma)
    gradient, load = build_discrete_gradient(m), assemble_load_vector(m, 1.0)
    # zero on the left half, so the p-Laplacian weight has zeros there
    x = m.vertices[m.interior_indices, 0]
    middle = 0.5 * (m.vertices[:, 0].min() + m.vertices[:, 0].max())
    u = np.where(x > middle, 0.5 * rng.standard_normal(x.size), 0.0)
    xi = gradient_magnitudes(gradient, u)
    assert np.any(params.plaplacian_weight(xi) == 0.0)
    if mesh.startswith("square"):   # the Huber weight is positive: zeros from geometry
        plan = assembly._stiffness_pattern(m)
        assert np.any(plan.values(params.huber_weight(xi) * m.areas) == 0.0)
    a_u = oracles.weighted_stiffness(m, params.plaplacian_weight(xi), gradient)
    a_max = oracles.weighted_stiffness(m, params.huber_weight(xi), gradient)
    want = a_u @ u + a_max @ u - load
    got = evaluate_gradient(m, u, params, load, xi=xi)
    assert np.all(np.isfinite(want))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("mesh", ["disk3", "square16"])
def test_pattern_apply_bits_equal_the_assembled_product(request, rng, mesh):
    m = request.getfixturevalue(mesh)
    nt = m.num_triangles
    spread = 10.0 ** rng.uniform(-8.0, 8.0, nt)
    spread[rng.random(nt) < 0.3] = 0.0
    for plan in (assembly._stiffness_pattern(m),
                 assembly._StiffnessPattern(oracles.full_gradient(m))):
        u = rng.standard_normal(plan.shape[1])
        u[rng.random(u.size) < 0.2] = 0.0
        for d in (m.areas, spread * m.areas, np.zeros(nt)):
            values = plan.values(d)
            A = plan.assemble(d)
            assert values.size == plan.indices.size >= A.nnz
            assert np.array_equal(values[values != 0.0], A.data)
            want = A @ u
            assert np.array_equal(plan.apply(d, u).view(np.int64), want.view(np.int64))
        with pytest.raises(AssemblyError):
            plan.apply(m.areas, u[:-1])


def test_plan_rejects_a_wrong_d_or_u(square4):
    plan, d = assembly._stiffness_pattern(square4), square4.areas
    u = np.ones(square4.num_interior)
    for bad in (d[:-1], np.append(d, 1.0), d[:, None]):
        with pytest.raises(AssemblyError):
            plan.values(bad)
        with pytest.raises(AssemblyError):
            plan.apply(bad, u)
    for bad in (u[:-1], np.append(u, 1.0), u[:, None]):
        with pytest.raises(AssemblyError, match="^u shape "):
            plan.apply(d, bad)


def test_plan_keeps_int32_indices_and_at_most_28_bytes_per_term(square16):
    plan = assembly._stiffness_pattern(square16)
    terms = plan.term_indices.size
    assert terms < 2**31
    for name in ("indices", "indptr", "term_indices", "term_indptr"):
        assert getattr(plan, name).dtype == np.int32, name
    assert all(x.flags.c_contiguous for x in plan.term_data)   # else each call copies them
    # gradient_data is G's own values, not a copy: G holds them with or without a plan
    assert np.shares_memory(plan.gradient_data, build_discrete_gradient(square16).data)
    resident = sum(x.nbytes for x in (*vars(plan).values(), *plan.term_data)
                   if isinstance(x, np.ndarray) and x is not plan.gradient_data)
    assert resident <= 28 * terms


def test_gradient_assembles_no_matrix(square16, rng, monkeypatch):
    calls = []
    assemble = assembly._StiffnessPattern.assemble

    def counting(self, d):
        calls.append(1)
        return assemble(self, d)

    monkeypatch.setattr(assembly._StiffnessPattern, "assemble", counting)
    params = HuberParams(p=4.0, g=0.2, gamma=50.0)
    gradient, load = build_discrete_gradient(square16), assemble_load_vector(square16, 1.0)
    u = rng.standard_normal(gradient.shape[1])
    evaluate_gradient(square16, u, params, load, xi=gradient_magnitudes(gradient, u))
    assert calls == []
    assemble_weighted_stiffness(square16, np.ones(square16.num_triangles))
    assert calls == [1]     # the counter sees a real assembly


@pytest.fixture
def pattern_builds(monkeypatch):
    """ids of the gradients each new stiffness pattern is built for."""
    built = []

    class Counting(assembly._StiffnessPattern):
        def __init__(self, gradient):
            built.append(id(gradient))
            super().__init__(gradient)

    monkeypatch.setattr(assembly, "_StiffnessPattern", Counting)
    return built


# each builds its own mesh: a session fixture's may already hold its G and plan

def test_pattern_is_built_once_per_solve(pattern_builds):
    cfg = SolverConfig(p=1.5, g=0.2, gamma=1e3, max_iters=30)
    out = solve(build_unit_square_mesh(16), cfg, 1.0)
    assert out.iterations == 30      # 1 + 3 x 30 assemblies
    assert len(pattern_builds) == 1


def test_pattern_is_built_once_per_ladder(pattern_builds):
    cfg = SolverConfig(p=4.0, g=0.2, gamma=1e3, max_iters=5,
                       linear=LinearConfig(method="direct"))
    stages = continuation_solve(build_unit_square_mesh(16), cfg, 3.0,
                                gamma_start=10.0, gamma_end=1e3)
    assert len(stages) == 3
    assert len(pattern_builds) == 1


def test_pattern_lives_as_long_as_its_mesh(pattern_builds):
    m = build_unit_square_mesh(4)
    for _ in range(3):
        assemble_weighted_stiffness(m, np.ones(m.num_triangles))
    assert len(pattern_builds) == 1

    def missing():
        raise AssertionError("the memo lost what it keeps")

    G, plan = m._memo("_gradient", missing), m._memo("_stiffness_plan", missing)
    assert build_discrete_gradient(m) is G and assembly._stiffness_pattern(m) is plan
    # the mesh keeps both: the plan is not set on the scipy matrix
    assert not any(isinstance(value, assembly._StiffnessPattern) for value in vars(G).values())
    gradient, pattern = weakref.ref(G), weakref.ref(plan)
    del m, G, plan
    gc.collect()
    assert gradient() is None and pattern() is None


def test_gradient_a_plan_reads_is_read_only(square4):
    # the plan reads G's values: G edited in place would make it stale
    weights, built = np.ones(square4.num_triangles), build_discrete_gradient(square4)
    A = assemble_weighted_stiffness(square4, weights)
    with pytest.raises(ValueError, match="read-only"):
        built.data *= 2.0
    again = assemble_weighted_stiffness(square4, weights)
    assert all(np.array_equal(getattr(again, name), getattr(A, name))
               for name in ("data", "indices", "indptr"))
    for arr in (built.data, built.indices, built.indptr):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]
