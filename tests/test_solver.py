import dataclasses
import weakref

import numpy as np
import pytest

import hbflow.linalg
import hbflow.solver
from hbflow.assembly import (
    AssemblyError,
    assemble_load_vector,
    build_discrete_gradient,
    expand_dirichlet,
    gradient_magnitudes,
)
from hbflow.huber import HuberParams, dual_field, evaluate_gradient, evaluate_objective
from hbflow.linesearch import LineSearchResult
from hbflow.mesh import build_unit_disk_mesh, build_unit_square_mesh, make_mesh
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


@pytest.fixture(scope="module")
def disk_solves():
    """c1's flow (p = 1.75, g = 0.2, f = 1) at gamma = 1e3, solved to the
    tolerance with default PCG on disk levels 3, 4 and 5."""
    solves = []
    for level in (3, 4, 5):
        mesh = build_unit_disk_mesh(level)
        out = solve(mesh, SolverConfig(p=1.75, g=0.2, gamma=1e3, max_iters=1000), 1.0)
        assert out.converged, level
        solves.append((mesh, out))
    return solves


def test_disk_solves_approach_the_exact_radial_solution(disk_solves):
    _, u_exact, j_exact = oracles.radial_solution(1.75, 0.2, 1.0, 1e3)
    assert j_exact == pytest.approx(-0.0252171, abs=5e-8)
    h, j_error, nodal_error = [], [], []
    for mesh, out in disk_solves:
        interior = mesh.vertices[mesh.interior_indices]
        h.append(mesh.h)
        # the P1 space on the inscribed polygon is a subspace: J_h >= J
        j_error.append(out.final_objective - j_exact)
        nodal_error.append(np.max(np.abs(out.u - u_exact(np.hypot(*interior.T)))))
    assert min(j_error) > 0.0
    order = np.polyfit(np.log(h), np.log(j_error), 1)[0]
    assert order >= 1.8, (order, j_error)
    assert nodal_error[0] > nodal_error[1] > nodal_error[2], nodal_error


def test_disk_plug_matches_the_exact_radius(disk_solves):
    # the exact solution yields where gamma*xi = g, that is where the stress
    # f r / 2 reaches (g/gamma)^(p-1) + g; gamma = inf gives the plug 2g/f = 0.4
    p, g, f, gamma = 1.75, 0.2, 1.0, 1e3
    r_gamma = 2.0 * ((g / gamma) ** (p - 1.0) + g) / f
    assert r_gamma == pytest.approx(0.40336, abs=5e-6)
    xi_exact = oracles.radial_solution(p, g, f, gamma)[0]
    assert xi_exact(r_gamma) == pytest.approx(g / gamma, rel=1e-9)
    band = []
    for mesh, out in disk_solves:
        corners = mesh.vertices[mesh.triangles]
        r = np.hypot(*corners.mean(axis=1).T)
        longest = np.max(np.linalg.norm(corners - np.roll(corners, 1, axis=1), axis=2))
        distance = np.abs(r - r_gamma)
        wrong = out.dual.active != (r > r_gamma)
        # a flag may differ from the exact one only within one longest edge of r_gamma
        assert not np.any(wrong & (distance > longest)), (mesh.num_triangles, longest)
        band.append(distance[wrong].max(initial=0.0))
    assert band[2] < band[1], band


def test_disk_dual_bracket_holds_the_exact_unregularized_j(disk_solves):
    # c01's flow solved at gamma = 1e3 on level 4, whose J is 6.4e-3 from the
    # exact one (docs/c01_target.md): both ends of the gamma = inf bracket
    # lie within twice that of the exact J at gamma = inf
    j_inf = oracles.radial_solution(1.75, 0.2, 1.0, np.inf)[2]
    mesh, out = disk_solves[1]
    lower, upper = oracles.dual_bracket(mesh, out.u, 1.75, 0.2, 1e3, 1.0)
    assert lower <= upper
    for bound in (lower, upper):
        assert abs(bound - j_inf) <= 2.0 * 6.4e-3 * abs(j_inf), (lower, upper, j_inf)


@pytest.mark.parametrize("p", [1.5, 4.0])
def test_projected_flux_balances_the_load_and_brackets_the_minimum(p):
    mesh, g, gamma, f = build_unit_square_mesh(8), 0.2, 1e3, 3.0
    cfg = SolverConfig(p=p, g=g, gamma=gamma, max_iters=500, linear=LinearConfig("direct"))
    out = solve(mesh, cfg, f)
    assert out.converged
    assert oracles.projected_flux(mesh, out.u, p, g, gamma, f)[1] < 1e-8
    lower, upper = oracles.dual_bracket(mesh, out.u, p, g, gamma, f)
    assert lower <= upper
    # the regularized minimum lies at most g^2 |Omega| / (2 gamma) below it, |Omega| = 1
    assert lower - g * g / (2.0 * gamma) <= out.final_objective <= upper


def test_descent_direction_continuous_across_p2(square4, rng):
    gradient, load = problem_arrays(square4)
    problem = _Problem(square4, load, LinearConfig())
    u = 0.3 * rng.standard_normal(square4.num_interior)

    def direction(p):
        params = HuberParams(p=p, g=0.2, gamma=10.0)
        xi = gradient_magnitudes(gradient, u)
        grad = evaluate_gradient(square4, u, params, load, xi=xi)
        return problem.descent_direction(xi, params, grad)[0]

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


def test_solve_without_a_step_reports_the_start_residual(square4):
    out = solve(square4, SolverConfig(p=3.0, g=0.2, gamma=100.0, max_iters=0), 1.0)
    assert not out.converged
    assert out.iterations == 0
    assert out.grad0_norm > 0.0
    # the iterate is u_0, whose residual relative to itself is 1, not 0
    assert out.final_rel_residual == 1.0
    assert out.final_objective == out.objective0


def test_solve_rejects_a_start_whose_objective_overflows():
    # the Poisson start for f = 1e4 has xi up to 2.6e3, whose 100th power overflows
    mesh = build_unit_square_mesh(6)
    with pytest.raises(ValueError, match=r"^J is inf at the start iterate$"):
        solve(mesh, SolverConfig(p=100.0, g=0.2, gamma=1e3), 1e4)


@pytest.mark.parametrize("p, f, message, solves", [
    (3.0, 1e200, r"^\|\|load\|\| is inf$", 0),
    # J is finite here, but J' has entries near 1e238 and its norm overflows
    (100.0, 1e3, r"^\|\|J'\(u0\)\|\| is inf at the start iterate$", 1),
])
def test_solve_rejects_a_start_whose_norm_overflows(monkeypatch, p, f, message, solves):
    calls = []
    real = hbflow.solver.solve_spd

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(hbflow.solver, "solve_spd", counted)
    with pytest.raises(ValueError, match=message):
        solve(build_unit_square_mesh(6), SolverConfig(p=p, g=0.2, gamma=10.0), f)
    assert len(calls) == solves       # at most the Poisson start, never a descent solve


def test_load_is_a_finite_number(square4):
    with pytest.raises(TypeError):
        assemble_load_vector(square4, lambda x, y: x)
    with pytest.raises(TypeError):
        solve(square4, SolverConfig(p=1.5, g=0.2, gamma=10.0), lambda x, y: x)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(AssemblyError, match=rf"^f must be finite, got {bad}$"):
            assemble_load_vector(square4, bad)


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
    stages = continuation_solve(square16, cfg, 1.0, gamma_start=10.0, gamma_end=1000.0)
    assert [gamma for gamma, _ in stages] == [10.0, 100.0, 1000.0]
    assert stages[0][1].converged
    # stage 2 starts from stage 1's iterate, re-scored at the new gamma
    gradient, load = problem_arrays(square16, 1.0)
    params = HuberParams(p=1.5, g=0.2, gamma=100.0)
    u = stages[0][1].u
    expected = evaluate_objective(square16, u, params, load, xi=gradient_magnitudes(gradient, u))
    assert stages[1][1].objective0 == pytest.approx(expected, rel=1e-12)


def test_continuation_keeps_only_the_last_dual(square16):
    cfg = SolverConfig(p=1.5, g=0.2, gamma=1000.0, max_iters=10)
    stages = continuation_solve(square16, cfg, 1.0, gamma_start=10.0, gamma_end=1000.0)
    assert [outcome.dual for _, outcome in stages[:-1]] == [None, None]
    gamma, last = stages[-1]
    gradient = build_discrete_gradient(square16)
    dual = dual_field(square16, last.u, dataclasses.replace(cfg, gamma=gamma).huber_params(),
                      xi=gradient_magnitudes(gradient, last.u))
    for name in ("w", "active", "xi"):
        assert np.array_equal(getattr(last.dual, name), getattr(dual, name)), name


def test_continuation_ladder_ends_at_gamma_end():
    # 5e4 is no product of the ladder: the stage after 1e4 runs at 5e4, not 1e5
    cfg = SolverConfig(p=3.0, g=0.2, gamma=5e4, max_iters=3)
    stages = continuation_solve(build_unit_square_mesh(6), cfg, 1.0,
                                gamma_start=10.0, gamma_end=5e4)
    assert [gamma for gamma, _ in stages] == [10.0, 100.0, 1e3, 1e4, 5e4]


def test_continuation_validates_ladder(square4):
    cfg = SolverConfig(p=1.5, g=0.2, gamma=10.0)
    with pytest.raises(ValueError):
        continuation_solve(square4, cfg, 1.0, gamma_start=0.0)
    with pytest.raises(ValueError):
        continuation_solve(square4, cfg, 1.0, gamma_start=100.0, gamma_end=10.0)
    # rejected before the first stage, not after gamma overflows
    for name in ("gamma_start", "gamma_end"):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="need finite"):
                continuation_solve(square4, cfg, 1.0, **{name: bad})


def test_continuation_ladder_ends_are_keyword_only(square4):
    # a positional call written for the old (gamma_start, factor, gamma_end)
    # order must fail rather than read factor as gamma_end
    cfg = SolverConfig(p=1.5, g=0.2, gamma=10.0)
    with pytest.raises(TypeError):
        continuation_solve(square4, cfg, 1.0, 10.0, 100.0)


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
    xi0 = gradient_magnitudes(gradient, u0)
    grad0 = evaluate_gradient(square16, u0, params, load, xi=xi0)
    assert out.grad0_norm == float(np.linalg.norm(grad0))
    assert out.objective0 == evaluate_objective(square16, u0, params, load, xi=xi0)
    xi = gradient_magnitudes(gradient, out.u)
    grad = evaluate_gradient(square16, out.u, params, load, xi=xi)
    assert out.final_rel_residual == float(np.linalg.norm(grad)) / out.grad0_norm
    dual = dual_field(square16, out.u, params, xi=xi)
    for name in ("w", "active", "xi"):
        assert np.array_equal(getattr(out.dual, name), getattr(dual, name)), name


def test_failed_search_leaves_the_dual_of_the_returned_iterate(square16, monkeypatch):
    real = hbflow.solver.backtracking_search
    magnitudes = []
    real_magnitudes = hbflow.solver.gradient_magnitudes

    def recording(gradient, v):
        magnitudes.append(real_magnitudes(gradient, v))
        return magnitudes[-1]

    def failing_second(phi, phi0, dphi0, sigma1):
        if not failing_second.searched:
            failing_second.searched = True
            return real(phi, phi0, dphi0, sigma1)
        trials = [1.0, 0.5]
        values = [phi(a) for a in trials]
        return LineSearchResult(trials[-1], values[-1], 2, "step-too-small", trials)

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
    gradient = oracles.full_gradient(mesh)
    u = np.array([0.0, 1.0, 0.0])  # grad = (1, 0), xi = 1 on area 1/2
    xi = gradient_magnitudes(gradient, u)
    assert wp_seminorm(mesh, xi, 2.0) == pytest.approx(np.sqrt(0.5), rel=1e-14)
    assert wp_seminorm(mesh, xi, 3.0) == pytest.approx(0.5 ** (1 / 3), rel=1e-14)
    assert wp_seminorm(mesh, gradient_magnitudes(gradient, 2.0 * u), 3.0) == pytest.approx(
        2.0 * 0.5 ** (1 / 3), rel=1e-14
    )
