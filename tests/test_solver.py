import dataclasses
import weakref

import numpy as np
import pytest

import hbflow.linalg
import hbflow.solver
from hbflow.assembly import build_discrete_gradient, expand_dirichlet, gradient_magnitudes
from hbflow.huber import HuberParams, dual_field, evaluate_gradient, evaluate_objective
from hbflow.linesearch import LineSearchResult
from hbflow.mesh import build_unit_square_mesh, make_mesh
from hbflow.solver import (
    LinearConfig,
    SolverConfig,
    _Problem,
    continuation_solve,
    solve,
    wp_seminorm,
)
from conftest import problem_arrays
import oracles


def vertex_value(mesh, u, x, y):
    full = expand_dirichlet(mesh, u)
    d2 = (mesh.vertices[:, 0] - x) ** 2 + (mesh.vertices[:, 1] - y) ** 2
    idx = int(np.argmin(d2))
    assert d2[idx] < 1e-24
    return full[idx]


def poisson_start(mesh):
    """The solver's initial iterate: the Poisson solution with load 1."""
    return solve(mesh, SolverConfig(p=1.5, g=0.2, gamma=10.0, max_iters=0), 1.0).u


def test_poisson_init_square_center(square16):
    u0 = poisson_start(square16)
    center = vertex_value(square16, u0, 0.5, 0.5)
    assert center == pytest.approx(oracles.poisson_square_center(), abs=2e-3)
    # lumped 5-point discretization keeps the discrete solution symmetric
    left = vertex_value(square16, u0, 0.25, 0.5)
    right = vertex_value(square16, u0, 0.75, 0.5)
    assert left == pytest.approx(right, rel=1e-10)


def test_poisson_init_disk_peak(disk3):
    # -lap u = 1 on the unit disk: u = (1 - r^2)/4, peak 1/4 at the center
    u0 = poisson_start(disk3)
    full = expand_dirichlet(disk3, u0)
    assert np.max(full) == pytest.approx(0.25, abs=5e-3)
    assert np.all(full[disk3.boundary_vertex] == 0.0)


def test_descent_direction_continuous_across_p2(square4, rng):
    gradient, load = problem_arrays(square4)
    problem = _Problem(square4, gradient, load, LinearConfig())
    u = 0.3 * rng.standard_normal(square4.num_interior)

    def direction(p):
        params = HuberParams(p=p, g=0.2, gamma=10.0)
        grad = evaluate_gradient(square4, gradient, u, params, load)
        return problem.descent_direction(gradient_magnitudes(gradient, u), params, grad)[0]

    w_thin = direction(1.999)   # weighted stiffness preconditioner
    w_thick = direction(2.0)    # Laplacian preconditioner
    assert np.linalg.norm(w_thin - w_thick) <= 0.02 * np.linalg.norm(w_thick)


def test_solve_zero_load_is_trivial(square4):
    cfg = SolverConfig(p=1.5, g=0.2, gamma=100.0)
    out = solve(square4, cfg, 0.0)
    assert out.converged
    assert out.iterations == 0
    assert np.array_equal(out.u, np.zeros(square4.num_interior))
    assert out.final_rel_residual == 0.0
    assert out.final_objective == 0.0
    assert not np.any(out.dual.active)


def test_solve_shear_thinning_square(square16):
    cfg = SolverConfig(p=1.5, g=0.2, gamma=100.0, max_iters=80)
    out = solve(square16, cfg, 1.0)
    assert out.converged
    assert out.iterations <= 60
    assert out.final_rel_residual <= cfg.tol
    objs = [out.objective0] + [rec.objective for rec in out.history]
    assert np.all(np.diff(objs) < 0.0)
    for i, rec in enumerate(out.history):
        assert rec.k == i + 1
        assert 0.0 < rec.alpha <= 1.0
        assert rec.ls_iters <= 5
        assert rec.dphi0 < 0.0
        assert rec.descent_identity_error < 1e-8
    assert len(out.linesearch_trials) == out.iterations
    wmag = np.hypot(out.dual.w[:, 0], out.dual.w[:, 1])
    assert np.all(wmag <= cfg.g + 1e-12)


def test_solve_warm_start_respected(square16):
    cfg = SolverConfig(p=1.5, g=0.2, gamma=100.0, max_iters=80)
    first = solve(square16, cfg, 1.0)
    short = dataclasses.replace(cfg, max_iters=3)
    resumed = solve(square16, short, 1.0, u0=first.u)
    assert resumed.objective0 == pytest.approx(first.final_objective, rel=1e-10)
    for rec in resumed.history:
        assert rec.objective <= resumed.objective0 + 1e-15


def test_solve_rejects_bad_warm_start(square4):
    cfg = SolverConfig(p=1.5, g=0.2, gamma=10.0)
    with pytest.raises(ValueError):
        solve(square4, cfg, 1.0, u0=np.zeros(square4.num_interior + 1))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_rejects_a_warm_start_that_is_not_finite(bad):
    mesh = build_unit_square_mesh(6)
    u0 = np.zeros(mesh.num_interior)
    u0[7] = bad
    with pytest.raises(ValueError, match="^u0 must be finite"):
        solve(mesh, SolverConfig(p=1.5, g=0.2, gamma=10.0), 1.0, u0=u0)


def test_config_validation():
    for bad in (2.5, True, -1, "3"):
        with pytest.raises(ValueError, match="max_iters"):
            SolverConfig(p=1.5, g=0.2, gamma=10.0, max_iters=bad)
    assert SolverConfig(p=1.5, g=0.2, gamma=10.0, max_iters=np.int64(3)).max_iters == 3
    for bad in ("gmres", "lu"):
        with pytest.raises(ValueError, match="linear method"):
            LinearConfig(method=bad)


def test_solve_iteration_cap_is_not_a_failure(square16):
    cfg = SolverConfig(p=1.5, g=0.2, gamma=1000.0, max_iters=2)
    out = solve(square16, cfg, 1.0)
    assert not out.converged
    assert out.failure_reason is None
    assert out.iterations == 2
    assert len(out.linesearch_trials) == 2


def test_continuation_single_stage_matches_plain_solve(square16):
    cfg = SolverConfig(p=1.5, g=0.2, gamma=50.0, max_iters=80)
    direct = solve(square16, cfg, 1.0)
    stages = continuation_solve(square16, cfg, 1.0, gamma_start=50.0, gamma_end=50.0)
    assert len(stages) == 1
    gamma, outcome = stages[0]
    assert gamma == 50.0
    assert np.array_equal(outcome.u, direct.u)
    assert outcome.iterations == direct.iterations


def test_continuation_ladder_warm_starts(square16):
    cfg = SolverConfig(p=1.5, g=0.2, gamma=1000.0, max_iters=60)
    stages = continuation_solve(
        square16, cfg, 1.0, gamma_start=10.0, factor=10.0, gamma_end=1000.0
    )
    assert [gamma for gamma, _ in stages] == [10.0, 100.0, 1000.0]
    assert stages[0][1].converged
    # stage 2 starts from stage 1's iterate, re-scored at the new gamma
    gradient, load = problem_arrays(square16, 1.0)
    params = HuberParams(p=1.5, g=0.2, gamma=100.0)
    expected = evaluate_objective(square16, gradient, stages[0][1].u, params, load)
    assert stages[1][1].objective0 == pytest.approx(expected, rel=1e-12)


def test_continuation_keeps_only_the_last_dual(square16):
    cfg = SolverConfig(p=1.5, g=0.2, gamma=1000.0, max_iters=10)
    stages = continuation_solve(square16, cfg, 1.0, gamma_start=10.0, gamma_end=1000.0)
    assert [outcome.dual for _, outcome in stages[:-1]] == [None, None]
    gamma, last = stages[-1]
    dual = dual_field(build_discrete_gradient(square16), last.u,
                      dataclasses.replace(cfg, gamma=gamma).huber_params())
    for name in ("w", "active", "xi"):
        assert np.array_equal(getattr(last.dual, name), getattr(dual, name)), name


def test_continuation_validates_ladder(square4):
    cfg = SolverConfig(p=1.5, g=0.2, gamma=10.0)
    with pytest.raises(ValueError):
        continuation_solve(square4, cfg, 1.0, gamma_start=0.0)
    with pytest.raises(ValueError):
        continuation_solve(square4, cfg, 1.0, factor=1.0)
    with pytest.raises(ValueError):
        continuation_solve(square4, cfg, 1.0, gamma_start=100.0, gamma_end=10.0)
    # rejected before the first stage, not after gamma overflows
    for name in ("gamma_start", "factor", "gamma_end"):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="need finite"):
                continuation_solve(square4, cfg, 1.0, **{name: bad})


@pytest.fixture
def splu_calls(monkeypatch):
    """Counts the sparse LU factorizations the solver performs."""
    calls = []
    real = hbflow.linalg.spla.splu

    def counting(A, *args, **kwargs):
        calls.append(A.shape)
        return real(A, *args, **kwargs)

    monkeypatch.setattr(hbflow.linalg.spla, "splu", counting)
    return calls


DIRECT = LinearConfig(method="direct")


@pytest.mark.parametrize("method", ["direct", "pcg"])
def test_thickening_solve_factors_the_laplacian_once(square16, splu_calls, no_cg, method):
    cfg = SolverConfig(p=4.0, g=0.2, gamma=100.0, max_iters=5,
                       linear=LinearConfig(method=method))
    out = solve(square16, cfg, 3.0)
    assert out.iterations >= 2
    assert len(splu_calls) == 1      # the Poisson start and every iteration share it


@pytest.mark.parametrize("method", ["direct", "pcg"])
def test_continuation_ladder_factors_the_laplacian_once(square16, splu_calls, no_cg, method):
    cfg = SolverConfig(p=4.0, g=0.2, gamma=1000.0, max_iters=4,
                       linear=LinearConfig(method=method))
    stages = continuation_solve(square16, cfg, 3.0, gamma_start=10.0, gamma_end=1000.0)
    assert [gamma for gamma, _ in stages] == [10.0, 100.0, 1000.0]
    assert len(splu_calls) == 1
    # a stage run on its own, with its own factor, gives the same iterates
    u = None
    for gamma, outcome in stages:
        alone = solve(square16, dataclasses.replace(cfg, gamma=gamma), 3.0, u0=u)
        assert np.array_equal(alone.u, outcome.u)
        u = outcome.u


def test_thickening_solve_is_the_same_under_either_method(square16):
    direct, pcg = (solve(square16, SolverConfig(p=4.0, g=0.2, gamma=100.0, max_iters=5,
                                                linear=LinearConfig(method=method)), 3.0)
                   for method in ("direct", "pcg"))
    assert np.array_equal(direct.u.view(np.int64), pcg.u.view(np.int64))
    assert repr(direct.history) == repr(pcg.history)        # repr keeps every bit of a float
    assert repr(direct.linesearch_trials) == repr(pcg.linesearch_trials)


def test_thinning_direct_solve_refactors_every_iteration(square16, splu_calls):
    cfg = SolverConfig(p=1.5, g=0.2, gamma=100.0, max_iters=4, linear=DIRECT)
    out = solve(square16, cfg, 1.0)
    assert out.iterations == 4
    assert len(splu_calls) == 1 + out.iterations


@pytest.mark.parametrize("method", ["direct", "pcg"])
def test_thinning_solve_drops_the_laplacian_after_the_start(square16, splu_calls,
                                                            monkeypatch, method):
    assembled = []
    real = hbflow.solver.assemble_weighted_stiffness

    def recording(*args, **kwargs):
        A = real(*args, **kwargs)
        assembled.append(weakref.ref(A))
        return A

    monkeypatch.setattr(hbflow.solver, "assemble_weighted_stiffness", recording)
    cfg = SolverConfig(p=1.5, g=0.2, gamma=100.0, max_iters=4,
                       linear=LinearConfig(method=method))
    problem = _Problem.build(square16, 1.0, cfg.linear)
    out = solve(square16, cfg, 1.0, problem=problem)
    assert out.iterations == 4
    assert len(assembled) == 1 + out.iterations      # the Laplacian, then each P_k
    assert len(splu_calls) == (1 + out.iterations if method == "direct" else 0)
    # neither the Laplacian nor its factor outlives the Poisson start
    assert "laplacian" not in vars(problem)
    assert all(ref() is None for ref in assembled)
    # p >= 2 keeps it for the directions
    solve(square16, dataclasses.replace(cfg, p=4.0, max_iters=1), 1.0, problem=problem)
    assert "laplacian" in vars(problem)


@pytest.fixture
def hypot_calls(monkeypatch):
    """Counts the per-triangle magnitude computations, np.hypot calls."""
    calls = []
    real = np.hypot

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "hypot", counting)
    return calls


@pytest.mark.parametrize("p, method", [(1.5, "pcg"), (4.0, "direct")])
def test_solve_computes_xi_once_per_point(square16, hypot_calls, p, method):
    cfg = SolverConfig(p=p, g=0.2, gamma=100.0, max_iters=4,
                       linear=LinearConfig(method=method))
    f = 1.0 if p < 2.0 else 3.0
    out = solve(square16, cfg, f)
    assert out.iterations == 4
    evaluations = sum(len(trials) for trials in out.linesearch_trials)
    # the start's xi, then one per trial; the accepted trial's serves the
    # gradient, the p < 2 preconditioner and the dual
    assert len(hypot_calls) == evaluations + 1

    # what the carried xi produced equals a recomputation from u, bit for bit
    gradient, load = problem_arrays(square16, f)
    params = cfg.huber_params()
    u0 = solve(square16, dataclasses.replace(cfg, max_iters=0), f).u
    grad0 = evaluate_gradient(square16, gradient, u0, params, load)
    assert out.grad0_norm == float(np.linalg.norm(grad0))
    assert out.objective0 == evaluate_objective(square16, gradient, u0, params, load)
    grad = evaluate_gradient(square16, gradient, out.u, params, load)
    assert out.final_rel_residual == float(np.linalg.norm(grad)) / out.grad0_norm
    dual = dual_field(gradient, out.u, params)
    for name in ("w", "active", "xi"):
        assert np.array_equal(getattr(out.dual, name), getattr(dual, name)), name


def test_failed_search_leaves_the_dual_of_the_returned_iterate(square16, monkeypatch):
    real = hbflow.solver.backtracking_search
    magnitudes = []
    real_magnitudes = hbflow.solver.gradient_magnitudes

    def recording(gradient, v):
        magnitudes.append(real_magnitudes(gradient, v))
        return magnitudes[-1]

    def failing_second(phi, phi0, dphi0, config):
        if not failing_second.searched:
            failing_second.searched = True
            return real(phi, phi0, dphi0, config)
        trials = [1.0, 0.5]
        values = [phi(a) for a in trials]
        return LineSearchResult(trials[-1], values[-1], 2, 2, "step-too-small", trials)

    failing_second.searched = False
    monkeypatch.setattr(hbflow.solver, "gradient_magnitudes", recording)
    monkeypatch.setattr(hbflow.solver, "backtracking_search", failing_second)
    out = solve(square16, SolverConfig(p=1.5, g=0.2, gamma=100.0, max_iters=5), 1.0)
    assert out.failure_reason == "line search failed at iteration 2: step-too-small"
    assert out.iterations == 1
    xi = gradient_magnitudes(build_discrete_gradient(square16), out.u)
    assert np.array_equal(out.dual.xi, xi)
    assert not np.array_equal(out.dual.xi, magnitudes[-1])     # the rejected trial's
    assert np.array_equal(out.dual.active, 0.2 <= 100.0 * xi)


def test_wp_seminorm_single_triangle():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mesh = make_mesh(verts, np.array([[0, 1, 2]]))
    gradient = build_discrete_gradient(mesh, restrict=False)
    u = np.array([0.0, 1.0, 0.0])  # grad = (1, 0), xi = 1 on area 1/2
    assert wp_seminorm(mesh, gradient, u, 2.0) == pytest.approx(np.sqrt(0.5), rel=1e-14)
    assert wp_seminorm(mesh, gradient, u, 3.0) == pytest.approx(0.5 ** (1 / 3), rel=1e-14)
    assert wp_seminorm(mesh, gradient, 2.0 * u, 3.0) == pytest.approx(
        2.0 * 0.5 ** (1 / 3), rel=1e-14
    )
