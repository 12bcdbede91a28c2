"""Preconditioned descent driver for the regularized flow problem.

Each iteration solves one SPD system P_k w_k = -J'(u_k) for the search
direction, where the preconditioner depends on the flow index:

* shear-thinning (1 < p < 2): P_k is the stiffness matrix weighted by
  (epsilon + xi_k)^(p-2), reassembled every iteration;
* shear-thickening (p >= 2, including the Bingham case p = 2): P_k is the
  plain Laplacian stiffness matrix, the H^1_0 Riesz map.

``_Problem`` assembles every system matrix and factors it for the direct
method only. The Laplacian depends on neither gamma nor the iterate: for
p >= 2 it is built once per run or ladder and shared with the Poisson start;
for p < 2 only that start uses it.

The step along w_k comes from the backtracking line search, iterates start
from the Poisson solution, and the loop stops when the gradient norm falls
below ``tol`` relative to its starting value. Continuation re-runs the
solver over a geometric ladder of gamma values, warm-starting each stage.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .assembly import (
    assemble_load_vector,
    assemble_weighted_stiffness,
    build_discrete_gradient,
    gradient_magnitudes,
)
from .huber import DualField, HuberParams, dual_field, evaluate_gradient, evaluate_objective
from .linalg import factorize_spd, solve_spd
from .linesearch import LineSearchConfig, backtracking_search
from .mesh import Mesh


@dataclass(frozen=True)
class LinearConfig:
    method: str = "pcg"           # "pcg", or "direct": _Problem factors every system

    def __post_init__(self):
        if self.method not in ("pcg", "direct"):
            raise ValueError(f"linear method must be 'pcg' or 'direct', got {self.method!r}")


@dataclass(frozen=True)
class SolverConfig:
    p: float
    g: float
    gamma: float
    epsilon: float = 1e-6
    tol: float = 1e-6             # relative gradient-norm stopping threshold
    max_iters: int = 100
    linesearch: LineSearchConfig = field(default_factory=LineSearchConfig)
    linear: LinearConfig = field(default_factory=LinearConfig)

    def __post_init__(self):
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
    dual: DualField
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
        return self.history[-1].rel_residual if self.history else 0.0


@dataclass
class _Problem:
    """What stays fixed over a run or a continuation ladder: mesh, discrete
    gradient, load, linear solver settings, and, for p >= 2, built on first
    use, the Laplacian and its LU factor (direct method only)."""

    mesh: Mesh
    gradient: sp.csr_matrix
    load: np.ndarray
    linear: LinearConfig

    @classmethod
    def build(cls, mesh: Mesh, f, linear: LinearConfig) -> _Problem:
        return cls(mesh, build_discrete_gradient(mesh), assemble_load_vector(mesh, f), linear)

    def _system(self, weights: np.ndarray):
        """Weighted stiffness, with its LU factor for the direct method only."""
        A = assemble_weighted_stiffness(self.mesh, weights, gradient=self.gradient)
        return A, factorize_spd(A) if self.linear.method == "direct" else None

    def _laplacian(self):
        return self._system(np.ones(self.mesh.num_triangles))

    laplacian = cached_property(_laplacian)    # for p >= 2, kept for the run

    def poisson_start(self, p: float) -> np.ndarray:
        # for p < 2 no direction uses the Laplacian: it is dropped after
        A, factor = self.laplacian if p >= 2.0 else self._laplacian()
        return solve_spd(A, self.load, factor=factor)[0]

    def descent_direction(self, u: np.ndarray, params: HuberParams, grad: np.ndarray):
        """w solving P_k w = -J'(u), and P_k.

        For p >= 2, P_k is the cached Laplacian, solved with its cached
        factor. For p < 2 it is the stiffness weighted by
        (epsilon + xi)^(p-2) at u, reassembled (and, for the direct method,
        factored) on every call.
        """
        if params.p >= 2.0:
            P, factor = self.laplacian
        else:
            P, factor = self._system(
                params.preconditioner_weight(gradient_magnitudes(self.gradient, u)))
        return solve_spd(P, -grad, factor=factor)[0], P


def solve(
    mesh: Mesh,
    config: SolverConfig,
    f: float | Callable[[np.ndarray, np.ndarray], np.ndarray],
    u0: np.ndarray | None = None,
    *,
    problem: _Problem | None = None,
) -> SolveOutcome:
    """Run the descent loop to the relative gradient-norm tolerance.

    Parameters
    ----------
    mesh : Mesh
    config : SolverConfig
    f : constant or callable
        Right-hand side (pressure drop).
    u0 : ndarray, optional
        Warm start; defaults to the Poisson solution. Continuation passes
        the previous stage's iterate here.
    problem : optional
        Internal: :func:`continuation_solve` passes the problem it prepared
        from the same mesh, ``f`` and ``config.linear``, so that every
        stage reuses one gradient, load, Laplacian and factor.

    Notes
    -----
    A failed line search terminates the loop with ``converged=False`` and
    the current iterate; it does not raise. The relative residual of
    iterate k is measured against ||J'(u_0)|| of THIS call, so each
    continuation stage has its own normalizer.
    """
    params = config.huber_params()
    if problem is None:
        problem = _Problem.build(mesh, f, config.linear)
    G, load = problem.gradient, problem.load
    if u0 is None:
        u = problem.poisson_start(params.p)
    else:
        u = np.asarray(u0, dtype=np.float64).copy()
        if u.shape != load.shape:
            raise ValueError(f"u0 shape {u.shape} does not match {load.shape}")

    grad = evaluate_gradient(mesh, G, u, params, load)
    grad0_norm = float(np.linalg.norm(grad))
    objective0 = evaluate_objective(mesh, G, u, params, load)
    history: list[IterationRecord] = []
    all_trials: list[list[float]] = []

    if grad0_norm == 0.0:
        return SolveOutcome(u, history, True, dual_field(G, u, params),
                            objective0, 0.0, all_trials)

    converged = False
    failure = None
    j_curr = objective0
    for k in range(1, config.max_iters + 1):
        w, P = problem.descent_direction(u, params, grad)
        dphi0 = float(grad @ w)
        quad = float(w @ (P @ w))
        identity_err = abs(dphi0 + quad) / max(abs(dphi0), np.finfo(float).tiny)

        result = backtracking_search(
            lambda a: evaluate_objective(mesh, G, u + a * w, params, load),
            j_curr, dphi0, config.linesearch,
        )
        all_trials.append(result.trials)
        if result.status != "accepted":
            failure = f"line search failed at iteration {k}: {result.status}"
            break

        u = u + result.alpha * w
        j_curr = result.phi
        grad = evaluate_gradient(mesh, G, u, params, load)
        rel = float(np.linalg.norm(grad)) / grad0_norm
        history.append(IterationRecord(k, rel, j_curr, result.alpha,
                                       result.backtracks, dphi0, identity_err))
        if rel <= config.tol:
            converged = True
            break

    return SolveOutcome(u, history, converged, dual_field(G, u, params),
                        objective0, grad0_norm, all_trials, failure)


def continuation_solve(
    mesh: Mesh,
    config: SolverConfig,
    f: float | Callable[[np.ndarray, np.ndarray], np.ndarray],
    gamma_start: float = 10.0,
    factor: float = 10.0,
    gamma_end: float = 1e6,
) -> list[tuple[float, SolveOutcome]]:
    """Warm-started solves over a geometric gamma ladder.

    Stage one starts from the Poisson iterate at ``gamma_start``; each later
    stage multiplies gamma by ``factor`` and starts from the previous
    stage's solution. Stops after the stage with gamma >= ``gamma_end`` (the
    ladder includes gamma_end when it is hit exactly). A stage that merely
    exhausts max_iters still seeds the next stage with its best iterate; only
    a stage that died outright (line-search failure) aborts the ladder,
    returning the partial history. The gradient, load, Laplacian and its
    factor do not depend on gamma and are built once for the whole ladder.
    """
    if not (np.isfinite([gamma_start, factor, gamma_end]).all() and gamma_start > 0.0
            and factor > 1.0 and gamma_end >= gamma_start):
        raise ValueError(f"need finite gamma_start > 0, factor > 1 and gamma_end >= "
                         f"gamma_start, got {gamma_start}, {factor}, {gamma_end}")
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
        u = outcome.u
        gamma *= factor
    return stages


def wp_seminorm(mesh: Mesh, gradient: sp.spmatrix, u: np.ndarray, p: float) -> float:
    """Discrete W^{1,p} seminorm (sum of area * xi^p)^(1/p)."""
    return _wp_seminorm(mesh, gradient_magnitudes(gradient, u), p)


def _wp_seminorm(mesh: Mesh, xi: np.ndarray, p: float) -> float:
    """The W^{1,p} seminorm from the per-triangle magnitudes xi = |grad u|."""
    return float(np.sum(mesh.areas * xi**p) ** (1.0 / p))
