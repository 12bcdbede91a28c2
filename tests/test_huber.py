import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hbflow.huber import HuberParams, dual_field, evaluate_gradient, evaluate_objective
from hbflow.assembly import build_discrete_gradient, gradient_magnitudes
from hbflow.mesh import make_mesh
from conftest import problem_arrays
import oracles


def test_params_validation():
    HuberParams(p=1.5, g=0.2, gamma=100.0)
    with pytest.raises(ValueError):
        HuberParams(p=1.0, g=0.2, gamma=100.0)
    with pytest.raises(ValueError):
        HuberParams(p=1.5, g=0.0, gamma=100.0)
    with pytest.raises(ValueError):
        HuberParams(p=1.5, g=0.2, gamma=-1.0)
    with pytest.raises(ValueError):
        HuberParams(p=1.5, g=0.2, gamma=100.0, epsilon=0.0)
    # the largest weights, g * gamma and, for p < 2, epsilon^(p-2), must be finite
    with pytest.raises(ValueError, match=r"g \* gamma overflows: g=1e\+306, gamma=1000"):
        HuberParams(p=1.5, g=1e306, gamma=1e3)
    with pytest.raises(ValueError, match=r"epsilon\^\(p-2\) overflows: epsilon=1e-312, p=1.01"):
        HuberParams(p=1.01, g=0.2, gamma=1e3, epsilon=1e-312)
    # weights near the float64 limit are accepted
    params = HuberParams(p=1.5, g=1e305, gamma=1e3, epsilon=1e-300)
    assert np.isfinite(params.huber_weight(np.zeros(1))).all()
    assert np.isfinite(params.preconditioner_weight(np.zeros(1))).all()
    # p >= 2 never uses the epsilon weight, so any epsilon > 0 goes
    HuberParams(p=2.0, g=0.2, gamma=1e3, epsilon=1e-312)
    HuberParams(p=4.0, g=0.2, gamma=1e3, epsilon=1e300)


def test_params_frozen():
    params = HuberParams(p=1.5, g=0.2, gamma=100.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.gamma = 1.0


def huber_psi(z, params):
    """psi_gamma at a single 2-vector z."""
    xi = np.array([np.hypot(*z)])
    return float(params.psi(xi)[0])


def test_psi_active_branch():
    # gamma|z| >= g: psi = g|z| - g^2/(2 gamma)
    params = HuberParams(p=1.5, g=1.0, gamma=2.0)
    assert huber_psi((1.0, 0.0), params) == 0.75
    params = HuberParams(p=1.5, g=1.0, gamma=4.0)
    assert huber_psi((0.3, 0.4), params) == 0.375  # |z| = 0.5


def test_psi_inactive_branch():
    params = HuberParams(p=1.5, g=1.0, gamma=2.0)
    assert huber_psi((0.0, 0.25), params) == pytest.approx(0.0625, rel=1e-15)
    assert huber_psi((0.0, 0.0), params) == 0.0


def test_psi_kink_continuity():
    g, gamma = 0.2, 50.0
    params = HuberParams(p=1.5, g=g, gamma=gamma)
    kink = g / gamma
    # both closed forms agree at the kink
    assert g * kink - g * g / (2 * gamma) == pytest.approx(0.5 * gamma * kink**2, rel=1e-15)
    assert huber_psi((kink, 0.0), params) == pytest.approx(g * g / (2 * gamma), rel=1e-14)
    eps = 1e-9
    below = huber_psi((kink - eps, 0.0), params)
    above = huber_psi((kink + eps, 0.0), params)
    assert abs(above - below) < 3 * g * eps


@given(
    r1=st.floats(min_value=0.0, max_value=10.0),
    r2=st.floats(min_value=0.0, max_value=10.0),
)
def test_psi_convex_and_monotone_along_rays(r1, r2):
    params = HuberParams(p=1.5, g=0.3, gamma=20.0)
    lo, hi = sorted([r1, r2])
    f_lo = huber_psi((lo, 0.0), params)
    f_hi = huber_psi((hi, 0.0), params)
    f_mid = huber_psi((0.5 * (lo + hi), 0.0), params)
    assert f_lo >= 0.0
    assert f_lo <= f_hi + 1e-15
    assert f_mid <= 0.5 * (f_lo + f_hi) + 1e-12


def test_preconditioner_weight_values():
    xi = np.array([0.0, 1.0, 3.0])
    w = HuberParams(p=1.75, g=0.2, gamma=1e3, epsilon=1e-6).preconditioner_weight(xi)
    assert w[0] == pytest.approx(31.6227766016838, rel=1e-12)  # (1e-6)^(-1/4)
    assert w[1] == pytest.approx((1.0 + 1e-6) ** -0.25, rel=1e-14)
    # p = 2 collapses to unit weights regardless of xi
    params = HuberParams(p=2.0, g=0.2, gamma=1e3, epsilon=1e-6)
    assert np.allclose(params.preconditioner_weight(xi), 1.0, atol=0.0)


def test_plaplacian_weight_values():
    xi = np.array([0.0, 1e-15, 0.5, 2.0])
    w = HuberParams(p=1.5, g=0.2, gamma=1e3).plaplacian_weight(xi)
    assert w[0] == 0.0 and w[1] == 0.0  # degenerate triangles drop out
    assert w[2] == pytest.approx(0.5**-0.5, rel=1e-14)
    assert w[3] == pytest.approx(2.0**-0.5, rel=1e-14)
    w4 = HuberParams(p=4.0, g=0.2, gamma=1e3).plaplacian_weight(xi)
    assert w4[3] == pytest.approx(4.0, rel=1e-14)


def test_huber_weight_branches():
    g, gamma = 0.2, 1e3
    xi = np.array([0.0, 1e-4, 2e-4, 1e-2])
    w = HuberParams(p=1.5, g=g, gamma=gamma).huber_weight(xi)
    assert w[0] == pytest.approx(gamma)          # inactive: slope gamma
    assert w[1] == pytest.approx(gamma)
    assert w[2] == pytest.approx(gamma)          # kink: both branches agree
    assert w[3] == pytest.approx(g / 1e-2)       # active: g / xi
    assert np.all(np.diff(w) <= 1e-12)           # monotone non-increasing in xi


@pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
def test_objective_matches_triangle_loop(square2, square3, rng, p):
    g, gamma, f = 0.2, 50.0, 1.0
    params = HuberParams(p=p, g=g, gamma=gamma)
    for mesh in (square2, square3):
        gradient, load = problem_arrays(mesh, f)
        u = 0.4 * rng.standard_normal(mesh.num_interior)
        got = evaluate_objective(mesh, u, params, load, xi=gradient_magnitudes(gradient, u))
        want = oracles.objective(mesh, u, p, g, gamma, f)
        assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("p", [1.5, 4.0])
def test_gradient_matches_central_differences(square3, rng, p):
    g, gamma, f = 0.2, 30.0, 1.0
    params = HuberParams(p=p, g=g, gamma=gamma)
    gradient, load = problem_arrays(square3, f)
    u = 0.1 + 0.3 * rng.random(square3.num_interior)
    xi = gradient_magnitudes(gradient, u)
    # differentiability guard: stay clear of the Huber kink on every triangle
    assert np.min(np.abs(gamma * xi - g)) > 1e-3 * g
    got = evaluate_gradient(square3, u, params, load, xi=xi)
    want = oracles.gradient_fd(square3, u, p, g, gamma, f)
    assert np.max(np.abs(got - want)) < 1e-6


@pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
def test_gradient_at_zero_is_minus_load(square4, p):
    params = HuberParams(p=p, g=0.2, gamma=1000.0)
    gradient, load = problem_arrays(square4)
    u = np.zeros(square4.num_interior)
    grad = evaluate_gradient(square4, u, params, load, xi=gradient_magnitudes(gradient, u))
    assert np.array_equal(grad, -load)


def test_objective_overflow_is_inf_not_nan(square2):
    params = HuberParams(p=4.0, g=0.2, gamma=1000.0)
    gradient, load = problem_arrays(square2)
    u = np.full(square2.num_interior, 1e160)
    val = evaluate_objective(square2, u, params, load, xi=gradient_magnitudes(gradient, u))
    assert np.isinf(val) and val > 0


def test_dual_field_on_a_four_triangle_star():
    # the hat of the one interior vertex, the origin, has slope (-+1, -+1) on each triangle
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    mesh = make_mesh(verts, np.array([[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1]]))
    slopes = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    gradient = build_discrete_gradient(mesh)
    params = HuberParams(p=1.5, g=1.0, gamma=10.0)

    # |grad u| = 1e-3 sqrt(2): inactive, w = gamma * grad u
    u = np.array([1e-3])
    dual = dual_field(mesh, u, params, xi=gradient_magnitudes(gradient, u))
    assert np.allclose(dual.w, 1e-2 * slopes, atol=1e-18)
    assert not dual.active.any()

    # |grad u| = sqrt(2): active, w sits on the bound |w| = g
    u = np.array([1.0])
    dual = dual_field(mesh, u, params, xi=gradient_magnitudes(gradient, u))
    assert np.allclose(dual.w, slopes / np.sqrt(2.0), atol=1e-15)
    assert dual.active.all()


def test_evaluators_require_xi(square2):
    params = HuberParams(p=1.5, g=0.2, gamma=10.0)
    gradient, load = problem_arrays(square2)
    u = np.zeros(square2.num_interior)
    calls = [lambda: evaluate_objective(square2, u, params, load),
             lambda: evaluate_gradient(square2, u, params, load),
             lambda: dual_field(square2, u, params)]
    for call in calls:
        with pytest.raises(TypeError, match="required keyword-only argument: 'xi'"):
            call()


def test_dual_field_bound_and_consistency(square3, rng):
    g, gamma = 0.2, 100.0
    params = HuberParams(p=1.5, g=g, gamma=gamma)
    gradient, _ = problem_arrays(square3)
    u = 0.5 * rng.standard_normal(square3.num_interior)
    xi = gradient_magnitudes(gradient, u)
    dual = dual_field(square3, u, params, xi=xi)
    wmag = np.hypot(dual.w[:, 0], dual.w[:, 1])
    assert np.all(wmag <= g + 1e-12)
    assert np.array_equal(dual.active, gamma * xi >= g)
    assert np.allclose(wmag[dual.active], g, rtol=1e-12)
    gvec = gradient @ u
    nt = xi.size
    inactive = ~dual.active
    assert np.allclose(dual.w[inactive, 0], gamma * gvec[:nt][inactive], atol=1e-15)
