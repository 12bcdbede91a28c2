import numpy as np
import pytest
import scipy.sparse as sp

from hbflow.assembly import assemble_weighted_stiffness, build_discrete_gradient
from hbflow.linalg import LinearSolveError, factorize_spd, solve_spd


def poisson_matrix(mesh):
    return assemble_weighted_stiffness(mesh, np.ones(mesh.triangles.shape[0]),
                                       gradient=build_discrete_gradient(mesh))


def factor_for(method, A):
    """What the solver passes for each method: a factor means a direct solve."""
    return factorize_spd(A) if method == "direct" else None


@pytest.mark.parametrize("method", ["pcg", "direct"])
def test_solve_matches_dense_reference(square4, rng, method):
    A = poisson_matrix(square4)
    b = rng.standard_normal(A.shape[0])
    x, report = solve_spd(A, b, tol=1e-12, factor=factor_for(method, A))
    want = np.linalg.solve(A.toarray(), b)
    assert np.allclose(x, want, rtol=1e-9, atol=1e-12)
    assert report.method == method
    # the report's residual is verified independently here too
    assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) <= 1e-12
    assert report.rel_residual <= 1e-12


def test_solve_zero_rhs_short_circuits(square4):
    A = poisson_matrix(square4)
    x, report = solve_spd(A, np.zeros(A.shape[0]))
    assert np.array_equal(x, np.zeros(A.shape[0]))
    assert report.iterations == 0
    assert report.rel_residual == 0.0


def test_solve_methods_agree(square16, rng):
    A = poisson_matrix(square16)
    b = rng.standard_normal(A.shape[0])
    x_it, _ = solve_spd(A, b, tol=1e-12)
    x_lu, _ = solve_spd(A, b, tol=1e-12, factor=factorize_spd(A))
    assert np.allclose(x_it, x_lu, rtol=1e-8, atol=1e-12)


def test_solve_with_prefactored_matrix_is_bit_identical(square16, rng):
    A = poisson_matrix(square16)
    factor = factorize_spd(A)
    for _ in range(2):          # one factor serves any number of solves
        b = rng.standard_normal(A.shape[0])
        x_reused, report = solve_spd(A, b, tol=1e-12, factor=factor)
        x_fresh, _ = solve_spd(A, b, tol=1e-12, factor=factorize_spd(A))
        assert np.array_equal(x_reused, x_fresh)
        assert report.rel_residual <= 1e-12


def test_solve_rejects_bad_inputs(square4):
    A = poisson_matrix(square4)
    with pytest.raises(ValueError):
        solve_spd(A, np.zeros(A.shape[0] + 1))
    indefinite = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(ValueError):
        solve_spd(indefinite, np.ones(2))
    with pytest.raises(ValueError):
        solve_spd(sp.identity(2, format="csr"), np.ones(2), factor=factorize_spd(A))


def test_solve_starved_iterations_raise_with_report(square16, rng):
    # PCG runs out of iterations: no double-precision residual reaches 1e-30
    A = poisson_matrix(square16)
    b = rng.standard_normal(A.shape[0])
    with pytest.raises(LinearSolveError) as exc:
        solve_spd(A, b, tol=1e-30)
    report = exc.value.report
    assert report.method == "pcg"
    assert report.rel_residual > 1e-30
    assert report.iterations >= 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # the overflow is the point
@pytest.mark.parametrize("method", ["pcg", "direct"])
def test_solve_nan_residual_raises(square4, method):
    # ||b|| overflows to inf, so the verified residual is NaN, not a pass
    A = poisson_matrix(square4)
    with pytest.raises(LinearSolveError) as exc:
        solve_spd(A, np.full(A.shape[0], 8e219), factor=factor_for(method, A))
    assert np.isnan(exc.value.report.rel_residual)
