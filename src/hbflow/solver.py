"""Preconditioned descent driver for the regularized flow problem.

Each iteration solves one SPD system P_k w_k = -J'(u_k) for the search
direction, where the preconditioner depends on the flow index:

* shear-thinning (1 < p < 2): P_k is the stiffness matrix weighted by
  (epsilon + xi_k)^(p-2), reassembled every iteration;
* shear-thickening (p >= 2, including the Bingham case p = 2): P_k is the
  plain Laplacian stiffness matrix, the H^1_0 Riesz map.

``_Problem`` assembles every system matrix. The Laplacian depends on neither
gamma nor the iterate: for p >= 2 it is built and factored once per run or
ladder and shared with the Poisson start. For p < 2 only that start uses it,
and ``LinearConfig.method`` picks PCG or an LU factor for it and each P_k.

The step along w_k comes from the backtracking line search, iterates start
from the Poisson solution, and the loop stops when the gradient norm falls
below ``tol`` relative to its starting value. Continuation re-runs the
solver over a geometric ladder of gamma values, warm-starting each stage.

``solve`` computes the per-triangle magnitudes xi = |G v| once per point v:
the start's serve its objective and gradient, each line-search trial's
serve its objective, and the accepted trial's serve the next gradient, the
p < 2 preconditioner weight and, at the end, the dual field.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .assembly import (
    assemble_load_vector,
    assemble_weighted_stiffness,
    build_discrete_gradient,
    gradient_magnitudes,
)
from .huber import DualField, HuberParams, dual_field, evaluate_gradient, evaluate_objective
from .linalg import factorize_spd, solve_spd
from .linesearch import backtracking_search
from .mesh import Mesh

# the continuation ladder: gamma from GAMMA_START to GAMMA_END, GAMMA_FACTOR per stage
GAMMA_START = 10.0
GAMMA_FACTOR = 10.0
GAMMA_END = 1e6


@dataclass(frozen=True)
class LinearConfig:
    method: str = "pcg"           # p < 2 only: "pcg", or "direct" to factor each system

    def __post_init__(self):
        if self.method not in ("pcg", "direct"):
            raise ValueError(f"linear method must be 'pcg' or 'direct', got {self.method!r}")


@dataclass(frozen=True)
class SolverConfig:
    p: float
    g: float
    gamma: float
    epsilon: float = HuberParams.epsilon
    tol: float = 1e-6             # relative gradient-norm stopping threshold
    max_iters: int = 100
    sigma1: float = 1e-4          # Armijo slope fraction, must be < 1/4 for the cubic
    linear: LinearConfig = field(default_factory=LinearConfig)

    def __post_init__(self):
        if not 0.0 < self.sigma1 < 0.25:
            raise ValueError(f"sigma1 must be in (0, 1/4), got {self.sigma1}")
        self.huber_params()   # validates p, g, gamma and epsilon
        if not (np.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be finite and > 0, got {self.tol}")
        if (isinstance(self.max_iters, bool) or not isinstance(self.max_iters, (int, np.integer))
                or self.max_iters < 0):
            raise ValueError(f"max_iters must be an integer >= 0, got {self.max_iters!r}")

    def huber_params(self) -> HuberParams:
        return HuberParams(p=self.p, g=self.g, gamma=self.gamma, epsilon=self.epsilon)


@dataclass(frozen=True)
class IterationRecord:
    """State logged after each accepted update, numbering from 1."""

    k: int
    rel_residual: float           # ||J'(u_k)|| / ||J'(u_0)||
    objective: float              # J(u_k)
    alpha: float                  # accepted step
    ls_iters: int                 # line-search backtracks for this step
    dphi0: float                  # directional derivative at the line-search origin
    descent_identity_error: float # relative error of <J', w> = -w^T P w


@dataclass
class SolveOutcome:
    u: np.ndarray
    history: list[IterationRecord]
    converged: bool
    dual: DualField | None        # None on a continuation stage that seeded the next
    objective0: float             # J at the initial iterate
    grad0_norm: float             # ||J'(u_0)||, the residual normalizer
    linesearch_trials: list[list[float]]
    failure_reason: str | None = None

    @property
    def iterations(self) -> int:
        return len(self.history)

    @property
    def final_objective(self) -> float:
        return self.history[-1].objective if self.history else self.objective0

    @property
    def final_rel_residual(self) -> float:
        if not self.history:    # the iterate is u_0: residual 1, or 0 for a zero gradient
            return 0.0 if self.grad0_norm == 0.0 else 1.0
        return self.history[-1].rel_residual


@dataclass
class _Problem:
    """What stays fixed over a run or a continuation ladder: mesh, load,
    linear solver settings, and, for p >= 2, built on first use, the
    Laplacian and its LU factor, whatever the method. The mesh keeps its
    discrete gradient and stiffness plan itself."""

    mesh: Mesh
    load: np.ndarray
    linear: LinearConfig

    @classmethod
    def build(cls, mesh: Mesh, f: float, linear: LinearConfig) -> _Problem:
        load = assemble_load_vector(mesh, f)
        with np.errstate(over="ignore"):    # an overflow is the error raised below
            load_norm = float(np.linalg.norm(load))
        if not np.isfinite(load_norm):      # ahead of the Poisson start, which solves for it
            raise ValueError(f"||load|| is {load_norm}")
        return cls(mesh, load, linear)

    def _system(self, weights: np.ndarray, direct: bool = False):
        """Weighted stiffness, with its LU factor if ``direct`` or for the direct method."""
        A = assemble_weighted_stiffness(self.mesh, weights)
        return A, factorize_spd(A) if direct or self.linear.method == "direct" else None

    @cached_property
    def laplacian(self):
        """P_k for every p >= 2 iterate, with its LU factor, kept for the run."""
        return self._system(np.ones(self.mesh.num_triangles), direct=True)

    def poisson_start(self, p: float) -> np.ndarray:
        # for p < 2 no direction uses the Laplacian: the start builds its own and drops it
        A, factor = self.laplacian if p >= 2.0 else self._system(np.ones(self.mesh.num_triangles))
        return solve_spd(A, self.load, factor=factor)[0]

    def descent_direction(self, xi: np.ndarray, params: HuberParams, grad: np.ndarray):
        """w solving P_k w = -J'(u), and P_k, given xi = |grad u| at the iterate u.

        For p >= 2, P_k is the cached Laplacian, solved with its cached
        factor whatever the method. For p < 2 it is the stiffness weighted by
        (epsilon + xi)^(p-2), reassembled (and, for the direct method,
        factored) on every call.
        """
        if params.p >= 2.0:
            P, factor = self.laplacian
        else:
            P, factor = self._system(params.preconditioner_weight(xi))
        return solve_spd(P, -grad, factor=factor)[0], P


def solve(
    mesh: Mesh,
    config: SolverConfig,
    f: float,
    u0: np.ndarray | None = None,
    *,
    problem: _Problem | None = None,
) -> SolveOutcome:
    """Run the descent loop to the relative gradient-norm tolerance.

    Parameters
    ----------
    mesh : Mesh
    config : SolverConfig
    f : float
        Constant right-hand side (pressure drop).
    u0 : ndarray, optional
        Warm start; defaults to the Poisson solution. Continuation passes
        the previous stage's iterate here.
    problem : optional
        Internal: :func:`continuation_solve` passes the problem it prepared
        from the same mesh, ``f`` and ``config.linear``, so that every
        stage reuses one load and, for p >= 2, factored Laplacian.

    Notes
    -----
    A failed line search terminates the loop with ``converged=False`` and
    the current iterate; it does not raise. A load, or a start iterate's J
    or J', whose norm is not finite raises ``ValueError`` before any linear
    solve that would use it. The relative residual of iterate k is
    measured against ||J'(u_0)|| of THIS call, so each continuation stage
    has its own normalizer.
    """
    params = config.huber_params()
    if problem is None:
        problem = _Problem.build(mesh, f, config.linear)
    G, load = build_discrete_gradient(mesh), problem.load
    if u0 is None:
        u = problem.poisson_start(params.p)
    else:
        u = np.asarray(u0, dtype=np.float64).copy()
        if u.shape != load.shape:
            raise ValueError(f"u0 shape {u.shape} does not match {load.shape}")
        if not np.isfinite(u).all():
            raise ValueError("u0 must be finite at every interior vertex")

    xi = gradient_magnitudes(G, u)      # |grad u| at the current iterate, kept with it
    objective0 = evaluate_objective(mesh, u, params, load, xi=xi)
    if not np.isfinite(objective0):     # ahead of the gradient, whose weights overflow with J
        raise ValueError(f"J is {objective0} at the start iterate")
    grad = evaluate_gradient(mesh, u, params, load, xi=xi)
    with np.errstate(over="ignore"):    # an overflow is the error raised below
        grad0_norm = float(np.linalg.norm(grad))
    if not np.isfinite(grad0_norm):     # ahead of the first descent solve
        raise ValueError(f"||J'(u0)|| is {grad0_norm} at the start iterate")
    history: list[IterationRecord] = []
    all_trials: list[list[float]] = []

    if grad0_norm == 0.0:
        return SolveOutcome(u, history, True, dual_field(mesh, u, params, xi=xi),
                            objective0, 0.0, all_trials)

    converged = False
    failure = None
    j_curr = objective0
    for k in range(1, config.max_iters + 1):
        w, P = problem.descent_direction(xi, params, grad)
        dphi0 = float(grad @ w)
        quad = float(w @ (P @ w))
        identity_err = abs(dphi0 + quad) / max(abs(dphi0), np.finfo(float).tiny)

        trial = []      # the latest trial point and its xi; an accepted search ends on it

        def phi(a):
            trial.clear()               # a rejected trial's xi is dropped first
            v = u + a * w
            trial.extend((v, gradient_magnitudes(G, v)))
            return evaluate_objective(mesh, v, params, load, xi=trial[1])

        result = backtracking_search(phi, j_curr, dphi0, config.sigma1)
        all_trials.append(result.trials)
        if result.status != "accepted":
            failure = f"line search failed at iteration {k}: {result.status}"
            break

        u, xi = trial                   # u + result.alpha * w, bit for bit
        j_curr = result.phi
        grad = evaluate_gradient(mesh, u, params, load, xi=xi)
        rel = float(np.linalg.norm(grad)) / grad0_norm
        history.append(IterationRecord(k, rel, j_curr, result.alpha,
                                       result.backtracks, dphi0, identity_err))
        if rel <= config.tol:
            converged = True
            break

    return SolveOutcome(u, history, converged, dual_field(mesh, u, params, xi=xi),
                        objective0, grad0_norm, all_trials, failure)


def continuation_solve(
    mesh: Mesh,
    config: SolverConfig,
    f: float,
    *,
    gamma_start: float = GAMMA_START,
    gamma_end: float = GAMMA_END,
) -> list[tuple[float, SolveOutcome]]:
    """Warm-started solves over a geometric gamma ladder.

    Stage one starts from the Poisson iterate at ``gamma_start``; each later
    stage multiplies gamma by ``GAMMA_FACTOR``, clamped to ``gamma_end``, and
    starts from the previous stage's solution. The ladder stops after the
    stage within 1e-12 of ``gamma_end``, so no stage passes it. A stage that
    merely exhausts max_iters still seeds the next stage with its best
    iterate; only a stage that died outright (line-search failure) aborts the
    ladder, returning the partial history. The gradient, load, Laplacian and
    its factor do not depend on gamma and are built once for the whole
    ladder. Only the last stage keeps its dual field; a stage that seeds the
    next has ``dual=None``.
    """
    if not (np.isfinite([gamma_start, gamma_end]).all() and 0.0 < gamma_start <= gamma_end):
        raise ValueError(f"need finite gamma_start > 0 and gamma_end >= gamma_start, "
                         f"got {gamma_start}, {gamma_end}")
    problem = _Problem.build(mesh, f, config.linear)
    stages: list[tuple[float, SolveOutcome]] = []
    gamma = gamma_start
    u = None
    while True:
        stage_cfg = dataclasses.replace(config, gamma=gamma)
        outcome = solve(mesh, stage_cfg, f, u0=u, problem=problem)
        stages.append((gamma, outcome))
        if outcome.failure_reason is not None:
            break
        if gamma >= gamma_end * (1.0 - 1e-12):
            break
        outcome.dual = None
        u = outcome.u
        gamma = min(gamma * GAMMA_FACTOR, gamma_end)
    return stages


def wp_seminorm(mesh: Mesh, xi: np.ndarray, p: float) -> float:
    """Discrete W^{1,p} seminorm (sum of area * xi^p)^(1/p), from the
    per-triangle magnitudes xi = |grad u| (``gradient_magnitudes(G, u)``)."""
    return float(np.sum(mesh.areas * xi**p) ** (1.0 / p))
