import numpy as np
import pytest
import scipy.sparse as sp

import hbflow.linalg

from hbflow.assembly import assemble_weighted_stiffness
from hbflow.linalg import LinearSolveError, LinearSolveRangeError, factorize_spd, solve_spd
import oracles


def poisson_matrix(mesh):
    return assemble_weighted_stiffness(mesh, np.ones(mesh.triangles.shape[0]))


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


def assert_energy(A, x, report):
    """The report's energy is x . (A x) at the returned x, bit for bit."""
    assert np.float64(report.energy).view(np.int64) == np.float64(x @ (A @ x)).view(np.int64)


@pytest.mark.parametrize("method", ["pcg", "direct"])
def test_solve_reports_the_energy_of_its_solution(square16, rng, method):
    A = poisson_matrix(square16)
    x, report = solve_spd(A, rng.standard_normal(A.shape[0]), factor=factor_for(method, A))
    assert report.energy > 0.0
    assert_energy(A, x, report)
    x, report = solve_spd(A, np.zeros(A.shape[0]), factor=factor_for(method, A))
    assert_energy(A, x, report)
    assert report.energy == 0.0


def test_solve_reports_the_energy_after_both_warm_restarts(square16, rng, monkeypatch):
    A = poisson_matrix(square16)
    passes = []
    real = hbflow.linalg._jacobi_cg

    def counting(A, b, x, *args):
        passes.append(x.any())
        return real(A, b, x, *args)

    monkeypatch.setattr(hbflow.linalg, "_jacobi_cg", counting)
    x, report = solve_spd(A, rng.standard_normal(A.shape[0]), tol=1e-15)
    assert passes == [False, True, True]     # two warm restarts, then success
    assert_energy(A, x, report)


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


class NoSolveFactor:
    """Stands in for a factor of shape ``shape`` and fails if it is solved with."""

    def __init__(self, shape):
        self.shape = shape

    def solve(self, b):
        raise AssertionError("factor solve ran")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # the overflow is the point
@pytest.mark.parametrize("method", ["pcg", "direct"])
def test_solve_nan_residual_raises(square4, no_cg, method):
    # a NaN or inf in b, or ||b|| overflowing to inf, raises before any solve step
    A = poisson_matrix(square4)
    n = A.shape[0]
    factor = NoSolveFactor(A.shape) if method == "direct" else None
    nan, inf = np.zeros(n), np.ones(n)
    nan[1], inf[2] = np.nan, -np.inf
    for b in (np.full(n, 8e219), nan, inf):
        with pytest.raises(LinearSolveRangeError, match="not finite") as exc:
            solve_spd(A, b, factor=factor)
        report = exc.value.report
        assert (report.method, report.iterations) == (method, 0)
        assert np.isnan(report.rel_residual)
        assert np.isnan(report.energy)


def test_solve_rejects_a_tol_that_is_not_finite_and_positive(square4, no_cg):
    A = poisson_matrix(square4)
    b = np.ones(A.shape[0])
    for bad in (np.nan, 0.0, -1.0, np.inf, -np.inf):
        for factor in (None, factorize_spd(A)):
            with pytest.raises(ValueError, match="tol must be finite and > 0"):
                solve_spd(A, b, tol=bad, factor=factor)


def pcg_system(mesh, rng, weights=None):
    if weights is None:
        weights = np.ones(mesh.num_triangles)
    A = assemble_weighted_stiffness(mesh, weights)
    return A, rng.standard_normal(A.shape[0])


def assert_same_solve(A, b, tol):
    """solve_spd's PCG against scipy's cg: equal bits, steps and residual."""
    x, report = solve_spd(A, b, tol=tol)
    want, expected = oracles.scipy_jacobi_pcg(A, b, tol=tol)
    assert np.array_equal(x.view(np.int64), want.view(np.int64))
    assert report.iterations == expected.iterations
    assert report.rel_residual == expected.rel_residual
    assert report.energy == expected.energy
    assert_energy(A, x, report)
    assert report.method == expected.method == "pcg"


def test_pcg_bits_equal_scipy_cg_on_poisson(square16, rng):
    assert_same_solve(*pcg_system(square16, rng), tol=1e-10)


def test_pcg_bits_equal_scipy_cg_on_wide_weights(square16, rng):
    weights = 10.0 ** rng.uniform(-8.0, 8.0, square16.num_triangles)
    A, b = pcg_system(square16, rng, weights)
    assert_same_solve(A, b, tol=1e-10)


def test_pcg_bits_equal_scipy_cg_with_signed_zeros_in_b(disk3, rng):
    # the first residual is b itself, so it starts with -0.0 entries
    A, b = pcg_system(disk3, rng)
    b[::3] = -0.0
    b[1::3] = 0.0
    assert np.signbit(b[::3]).all()
    assert_same_solve(A, b, tol=1e-10)


def test_pcg_bits_equal_scipy_cg_across_restarts(square16, rng, monkeypatch):
    A, b = pcg_system(square16, rng)
    passes = []
    real = oracles.spla.cg

    def counting(*args, **kwargs):
        passes.append(kwargs["x0"].any())
        return real(*args, **kwargs)

    monkeypatch.setattr(oracles.spla, "cg", counting)
    assert_same_solve(A, b, tol=1e-15)
    assert passes == [False, True, True]     # two warm restarts, then success


def test_pcg_stall_reports_equal_scipy_cg(square16, rng):
    A, b = pcg_system(square16, rng)
    with pytest.raises(LinearSolveError) as ours:
        solve_spd(A, b, tol=1e-30)
    with pytest.raises(LinearSolveError) as theirs:
        oracles.scipy_jacobi_pcg(A, b, tol=1e-30)
    got, want = ours.value.report, theirs.value.report
    assert (got.method, got.iterations, got.rel_residual) == (
        want.method, want.iterations, want.rel_residual)
    assert str(ours.value) == str(theirs.value)
