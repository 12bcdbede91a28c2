"""Acceptance benchmarks: one test per numbered criterion.

Each test evaluates every clause of its criterion at the stated tolerance
and fails with a clause-by-clause report when any is missed. Iteration and
objective targets encode the reference convergence tables for these flow
configurations; where the implemented descent method does not reach a
target, the test fails honestly instead of loosening the threshold.

The heavy solves are shared through module-scoped fixtures: criteria 6 and
8 audit the iteration histories of criteria 1-4, and criterion 10 inspects
the dual field of criterion 1.
"""

import time

import numpy as np
import pytest

from hbflow.assembly import (
    assemble_load_vector,
    build_discrete_gradient,
    gradient_magnitudes,
)
from hbflow.huber import HuberParams, evaluate_gradient, evaluate_objective
from hbflow.linesearch import cubic_step, quadratic_step
from hbflow.mesh import build_unit_disk_mesh, build_unit_square_mesh
from hbflow.solver import (
    LinearConfig,
    SolverConfig,
    continuation_solve,
    solve,
    wp_seminorm,
)
import oracles

DIRECT = LinearConfig(method="direct")

C2_NS = (22, 62, 101)       # h ~ 0.013, 0.005, 0.003
C2_GS = (0.1, 0.2, 0.3)


def clause(name, ok, detail):
    return (name, bool(ok), detail)


def assert_clauses(clauses):
    lines = [
        f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}" for name, ok, detail in clauses
    ]
    assert all(ok for _, ok, _ in clauses), "\n" + "\n".join(lines)


@pytest.fixture(scope="module")
def c1_run():
    mesh = build_unit_disk_mesh(6)  # first refinement level with h <= 0.01
    cfg = SolverConfig(p=1.75, g=0.2, gamma=1e3, epsilon=1e-6, tol=1e-6,
                       max_iters=700, linear=DIRECT)
    t0 = time.perf_counter()
    out = solve(mesh, cfg, 1.0)
    return mesh, cfg, out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def c2_runs():
    t0 = time.perf_counter()
    results = {}
    for n in C2_NS:
        mesh = build_unit_square_mesh(n)
        for g in C2_GS:
            cfg = SolverConfig(p=1.5, g=g, gamma=1e3, tol=1e-6,
                               max_iters=400, linear=DIRECT)
            results[(n, g)] = solve(mesh, cfg, 3.0)
    return results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def c3_run():
    mesh = build_unit_square_mesh(101)
    cfg = SolverConfig(p=4.0, g=0.2, gamma=1e3, tol=1e-6,
                       max_iters=300, linear=DIRECT)
    return cfg, solve(mesh, cfg, 3.0)


@pytest.fixture(scope="module")
def c4_runs():
    mesh = build_unit_square_mesh(50)
    runs = {}
    for g in (0.3, 0.4):
        cfg = SolverConfig(p=100.0, g=g, gamma=1e6, tol=1e-6,
                           max_iters=300, linear=DIRECT)
        stages = continuation_solve(mesh, cfg, 3.0, gamma_start=10.0, gamma_end=1e6)
        runs[g] = (stages, solve(mesh, cfg, 3.0))
    return runs


def iter_outcomes(c1_run, c2_runs, c3_run, c4_runs):
    yield "c1 disk p=1.75", c1_run[2]
    for (n, g), out in c2_runs[0].items():
        yield f"c2 n={n} g={g}", out
    yield "c3 p=4", c3_run[1]
    for g, (stages, direct_out) in c4_runs.items():
        for gamma, out in stages:
            yield f"c4 g={g} stage gamma={gamma:g}", out
        yield f"c4 g={g} direct gamma=1e6", direct_out


def test_c01_shear_thinning_disk(c1_run):
    _, cfg, out, wall = c1_run
    target = -0.029107
    J = out.final_objective
    rel = abs(J - target) / abs(target)
    max_bt = max((rec.ls_iters for rec in out.history), default=0)
    assert_clauses([
        clause("converges to relative residual <= 1e-6",
               out.converged,
               f"converged={out.converged}, final rel residual="
               f"{out.final_rel_residual:.3e} after {out.iterations} iterations"),
        clause("final J within 3% of -0.029107",
               rel <= 0.03, f"J={J:.6f}, relative error={rel:.2%}"),
        clause("iteration count <= 20",
               out.converged and out.iterations <= 20,
               f"iterations={out.iterations} (cap {cfg.max_iters})"),
        clause("line-search backtracks per iteration <= 3",
               max_bt <= 3, f"max backtracks={max_bt}"),
        clause("runtime < 60 s", wall < 60.0, f"wall time {wall:.1f} s"),
    ])


def test_c02_mesh_independence(c2_runs):
    results, wall = c2_runs
    counts = {g: [results[(n, g)].iterations for n in C2_NS] for g in C2_GS}
    spreads = {g: max(c) - min(c) for g, c in counts.items()}
    capped = sorted(key for key, out in results.items() if not out.converged)
    finest = results[(C2_NS[-1], 0.1)]
    J = finest.final_objective
    rel = abs(J - (-0.0416)) / 0.0416
    assert_clauses([
        clause("iteration counts differ by <= 5 across meshes for each g",
               all(s <= 5 for s in spreads.values()),
               f"counts={counts}, spreads={spreads}; non-converged runs count "
               f"the 400-iteration cap (capped: {capped})"),
        clause("final J for g=0.1 on the finest mesh within 5% of -0.0416",
               rel <= 0.05, f"J={J:.6f}, relative error={rel:.2%}"),
        clause("runtime < 5 min total", wall < 300.0, f"wall time {wall:.0f} s"),
    ])


def test_c03_shear_thickening_p4(c3_run):
    cfg, out = c3_run
    target = -0.18109
    J = out.final_objective
    rel = abs(J - target) / abs(target)
    objs = [out.objective0] + [rec.objective for rec in out.history]
    drops = np.diff(objs)
    assert_clauses([
        clause("final J within 3% of -0.18109",
               rel <= 0.03, f"J={J:.6f}, relative error={rel:.2%}"),
        clause("iterations <= 16",
               out.converged and out.iterations <= 16,
               f"converged={out.converged}, iterations={out.iterations} "
               f"(cap {cfg.max_iters}), final rel residual="
               f"{out.final_rel_residual:.3e}"),
        clause("objective column is monotone decreasing",
               np.all(drops < 0.0), f"max objective change={np.max(drops):.3e}"),
    ])


def test_c04_continuation_p100(c4_runs):
    target = -0.2343
    detail = {}
    for g, (stages, direct_out) in c4_runs.items():
        final_J = stages[-1][1].final_objective
        detail[g] = {
            "direct_converged": direct_out.converged,
            "direct_final_rel": direct_out.final_rel_residual,
            "stage_iters": [out.iterations for _, out in stages],
            "stages_converged": [out.converged for _, out in stages],
            "final_J": final_J,
            "J_rel_err": abs(final_J - target) / abs(target),
        }
    best_g = min(detail, key=lambda g: detail[g]["J_rel_err"])
    best = detail[best_g]
    assert_clauses([
        clause("direct gamma=1e6 solve fails or stalls (both g)",
               all(not d["direct_converged"] for d in detail.values()),
               {g: f"converged={d['direct_converged']}, rel="
                   f"{d['direct_final_rel']:.3e}" for g, d in detail.items()}),
        clause("continuation completes: every stage converges (matching g)",
               all(best["stages_converged"]),
               f"g={best_g}: converged per stage {best['stages_converged']}, "
               f"iterations per stage {best['stage_iters']}"),
        clause("stabilized J within 5% of -0.2343 for the matching g",
               best["J_rel_err"] <= 0.05,
               {g: f"J={d['final_J']:.6f} ({d['J_rel_err']:.2%})"
                for g, d in detail.items()}),
        clause("stage 1 iteration count strictly exceeds every later stage's",
               all(best["stage_iters"][0] > it for it in best["stage_iters"][1:]),
               f"g={best_g}: iterations per stage {best['stage_iters']}"),
    ])


def test_c05_gradient_matches_finite_differences():
    mesh = build_unit_square_mesh(4)
    G = build_discrete_gradient(mesh)
    load = assemble_load_vector(mesh, 1.0)
    rng = np.random.default_rng(905)
    step = 1e-6
    worst = 0.0
    for p in (1.5, 1.75, 2.0, 4.0, 10.0):
        params = HuberParams(p=p, g=0.2, gamma=100.0)
        tested = 0
        while tested < 20:
            u = 0.4 * rng.standard_normal(mesh.num_interior)
            xi = gradient_magnitudes(G, u)
            if np.min(np.abs(params.gamma * xi - params.g)) < 1e-3 * params.g:
                continue  # resample: a triangle sits too close to the kink
            tested += 1
            grad = evaluate_gradient(mesh, u, params, load, xi=xi)
            fd = np.empty_like(grad)
            for i in range(u.size):
                up, um = u.copy(), u.copy()
                up[i] += step
                um[i] -= step
                fd[i] = (evaluate_objective(mesh, up, params, load,
                                            xi=gradient_magnitudes(G, up))
                         - evaluate_objective(mesh, um, params, load,
                                              xi=gradient_magnitudes(G, um))) / (2 * step)
            worst = max(worst, float(np.linalg.norm(fd - grad)
                                     / np.linalg.norm(grad)))
    assert_clauses([
        clause("assembled gradient matches central differences to 1e-5",
               worst < 1e-5, f"worst relative mismatch={worst:.3e} over "
               "5 p-values x 20 states"),
    ])


def test_c06_descent_identity_and_monotone_objective(c1_run, c2_runs, c3_run, c4_runs):
    # Strict decrease is checked against what double precision can represent:
    # deep in a stall the Armijo-guaranteed decrease sigma1*alpha*|phi'(0)|
    # drops below the ulp of J (measured ~1e-28 vs ~1e-18) and the recorded
    # objective ties bit-for-bit. A tie there is resolution, not a violation;
    # an increase anywhere, or a flat step whose guaranteed decrease was
    # representable, still fails.
    worst_identity = ("", 0.0)
    total = 0
    increases = 0
    worst_increase = ("", 0.0)
    flats = 0
    resolvable_flats = 0
    for label, out in iter_outcomes(c1_run, c2_runs, c3_run, c4_runs):
        prev = out.objective0
        for rec in out.history:
            total += 1
            if rec.descent_identity_error > worst_identity[1]:
                worst_identity = (f"{label} it {rec.k}", rec.descent_identity_error)
            change = rec.objective - prev
            guaranteed = 1e-4 * rec.alpha * (-rec.dphi0)
            if change > 0.0:
                increases += 1
                if change > worst_increase[1]:
                    worst_increase = (f"{label} it {rec.k}", change)
            elif change == 0.0:
                flats += 1
                if guaranteed > 8.0 * np.spacing(abs(prev)):
                    resolvable_flats += 1
            prev = rec.objective
    assert_clauses([
        clause("<J'(u_k), w_k> = -w_k^T P_k w_k to 1e-8 relative, all iterations",
               worst_identity[1] <= 1e-8,
               f"worst identity error={worst_identity[1]:.3e} ({worst_identity[0]})"),
        clause("J strictly decreases at every accepted step "
               "(to double-precision resolution)",
               increases == 0 and resolvable_flats == 0,
               f"{total} iterations audited: increases={increases} "
               f"(worst={worst_increase[1]:.3e} {worst_increase[0]}), flat "
               f"steps={flats} of which {resolvable_flats} had a "
               f"representable guaranteed decrease"),
    ])


@pytest.fixture(scope="module")
def c7_errors():
    mesh = build_unit_square_mesh(16)
    G = build_discrete_gradient(mesh)
    data = {}
    for p in (1.5, 4.0):
        cfg = SolverConfig(p=p, g=0.2, gamma=1e6, tol=1e-6,
                           max_iters=200, linear=DIRECT)
        stages = continuation_solve(mesh, cfg, 3.0, gamma_start=1e2, gamma_end=1e6)
        by_gamma = {gamma: out.u for gamma, out in stages}
        ref = stages[-1][1].u
        data[p] = [
            wp_seminorm(mesh, gradient_magnitudes(G, by_gamma[gamma] - ref), p)
            for gamma in (1e2, 1e3, 1e4)
        ]
    return data


def test_c07_gamma_convergence_rate(c7_errors):
    clauses = []
    for p, errs in c7_errors.items():
        orders = [float(np.log10(errs[i] / errs[i + 1])) for i in range(2)]
        need = 1.0 / p - 0.2
        clauses.append(clause(
            f"empirical order in gamma >= {need:.3f} for p={p}",
            min(orders) >= need,
            f"W^(1,p) errors vs gamma=1e6 reference={[f'{e:.3e}' for e in errs]}, "
            f"orders={[f'{o:.3f}' for o in orders]}",
        ))
    assert_clauses(clauses)


def test_c08_line_search_units_and_audit(c1_run, c2_runs, c3_run, c4_runs):
    unit_errs = [
        abs(quadratic_step(0.0, -1.0, 0.0) - 0.5),
        abs(quadratic_step(0.0, -1.0, 1.0) - 0.25),
        abs(quadratic_step(0.0, -1.0, 100.0) - 0.1),
        # samples of a^3 - 2a^2 - a: raw minimizer (2+sqrt(7))/3, clamped to 0.5
        abs(cubic_step(0.0, -1.0, 1.0, -2.0, 0.5, -0.875) - 0.5),
    ]
    sigma1 = 1e-4
    armijo_violation = ("", -np.inf)
    ratio_violation = ("", 0.0)
    for label, out in iter_outcomes(c1_run, c2_runs, c3_run, c4_runs):
        prev = out.objective0
        for rec in out.history:
            slack = rec.objective - (prev + sigma1 * rec.alpha * rec.dphi0)
            margin = slack / max(abs(prev), 1.0)
            if margin > armijo_violation[1]:
                armijo_violation = (f"{label} it {rec.k}", margin)
            prev = rec.objective
        for trials in out.linesearch_trials:
            for a_prev, a_next in zip(trials, trials[1:]):
                ratio = a_next / a_prev
                off = max(0.1 - ratio, ratio - 0.5)
                if off > ratio_violation[1]:
                    ratio_violation = (label, off)
    assert_clauses([
        clause("hand-computed polynomial steps reproduced to 1e-12",
               max(unit_errs) <= 1e-12, f"errors={[f'{e:.2e}' for e in unit_errs]}"),
        clause("every accepted step satisfies the Armijo condition",
               armijo_violation[1] <= 1e-12,
               f"worst normalized slack={armijo_violation[1]:.3e} "
               f"({armijo_violation[0]})"),
        clause("trial-step safeguards [0.1, 0.5] never violated",
               ratio_violation[1] <= 1e-12,
               f"worst excursion beyond the bracket={ratio_violation[1]:.3e} "
               f"({ratio_violation[0]})"),
    ])


def test_c09_oracle_equivalence():
    rng = np.random.default_rng(909)
    g, gamma, f = 0.2, 50.0, 1.0
    worst_obj = 0.0
    worst_grad = 0.0
    for n in (2, 3):
        mesh = build_unit_square_mesh(n)
        G = build_discrete_gradient(mesh)
        load = assemble_load_vector(mesh, f)
        for _ in range(50):
            u = 0.5 * rng.standard_normal(mesh.num_interior)
            xi = gradient_magnitudes(G, u)
            for p in (1.5, 2.0, 4.0):
                params = HuberParams(p=p, g=g, gamma=gamma)
                got_j = evaluate_objective(mesh, u, params, load, xi=xi)
                want_j = oracles.objective(mesh, u, p, g, gamma, f)
                worst_obj = max(worst_obj,
                                abs(got_j - want_j) / max(1.0, abs(want_j)))
                got_g = evaluate_gradient(mesh, u, params, load, xi=xi)
                want_g = oracles.gradient(mesh, u, p, g, gamma, f)
                denom = max(1.0, float(np.linalg.norm(want_g)))
                worst_grad = max(worst_grad,
                                 float(np.linalg.norm(got_g - want_g)) / denom)
    assert_clauses([
        clause("objective matches the per-triangle oracle to 1e-12",
               worst_obj <= 1e-12, f"worst mismatch={worst_obj:.3e}"),
        clause("gradient matches the per-triangle oracle to 1e-12",
               worst_grad <= 1e-12, f"worst mismatch={worst_grad:.3e}"),
    ])


def triangles_containing_origin(mesh):
    a = mesh.vertices[mesh.triangles[:, 0]]
    b = mesh.vertices[mesh.triangles[:, 1]]
    c = mesh.vertices[mesh.triangles[:, 2]]
    det = ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
           - (c[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1]))
    l1 = ((-a[:, 0]) * (c[:, 1] - a[:, 1]) - (c[:, 0] - a[:, 0]) * (-a[:, 1])) / det
    l2 = ((b[:, 0] - a[:, 0]) * (-a[:, 1]) - (-a[:, 0]) * (b[:, 1] - a[:, 1])) / det
    tol = 1e-12
    inside = (l1 >= -tol) & (l2 >= -tol) & (l1 + l2 <= 1.0 + tol)
    return np.flatnonzero(inside)


def test_c10_dual_feasibility_and_plug_region(c1_run):
    mesh, cfg, out, _ = c1_run
    wmag = np.hypot(out.dual.w[:, 0], out.dual.w[:, 1])
    origin_tris = triangles_containing_origin(mesh)
    assert origin_tris.size > 0
    assert_clauses([
        clause("max |w| <= g + 1e-10 over all triangles",
               float(np.max(wmag)) <= cfg.g + 1e-10,
               f"max |w|={np.max(wmag):.12f}, g={cfg.g}"),
        clause("the triangles containing the origin are inactive (rigid plug)",
               not np.any(out.dual.active[origin_tris]),
               f"active flags at origin={out.dual.active[origin_tris].tolist()}"),
    ])
