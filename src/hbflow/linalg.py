"""Sparse SPD solves: Jacobi-preconditioned CG or a sparse LU factor.

A factor means a direct solve: :func:`solve_spd` solves with the factor it is
given, and without one runs conjugate gradients with a Jacobi (diagonal)
preconditioner at a tight relative tolerance (Saad, *Iterative Methods for
Sparse Linear Systems*, 2003, Alg. 9.1). The solver's ``_Problem`` decides
which systems get a factor and builds each with :func:`factorize_spd`.
Every solve verifies its own residual with an independent matvec before
returning.

The CG loop, :func:`_jacobi_cg`, is this module's own: it takes the steps of
scipy 1.17.1's ``scipy.sparse.linalg.cg`` with a diagonal preconditioner in
the same order, one floating-point operation for another, so its iterates
are scipy's bit for bit. It uses no fused multiply-add (BLAS ``axpy``),
because that rounds once where scipy rounds twice.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


@dataclass(frozen=True)
class SpdSolveReport:
    method: str
    iterations: int
    rel_residual: float
    wall_time: float


class LinearSolveError(RuntimeError):
    """Linear solve failed to reach tolerance; carries the report."""

    def __init__(self, message: str, report: SpdSolveReport):
        super().__init__(message)
        self.report = report


def factorize_spd(A: sp.spmatrix) -> spla.SuperLU:
    """Sparse LU factor of the SPD matrix A, for repeated direct solves."""
    return spla.splu(A.tocsc())


def _jacobi_cg(A, b: np.ndarray, x: np.ndarray, atol: float, maxiter: int,
               inv_diag: np.ndarray) -> int:
    """Jacobi-preconditioned CG on A x = b from x, updating x in place.

    Stops before the first step whose residual recurrence r has
    ||r|| < ``atol``, or after ``maxiter`` steps, and returns the number of
    completed steps. Every operation is the one scipy's ``cg`` performs with
    ``M = diags(inv_diag)``, in the same order: its preconditioner adds the
    product into zeros, so ``z += 0.0`` turns -0.0 into +0.0 as it does.
    """
    r = b - A @ x if x.any() else b.copy()
    z = np.empty_like(r)
    scratch = np.empty_like(r)
    p = None
    rho_prev = 0.0
    for step in range(maxiter):
        if math.sqrt(r.dot(r)) < atol:      # the value of np.linalg.norm(r)
            return step
        np.multiply(inv_diag, r, out=z)
        z += 0.0
        rho = np.dot(r, z)
        if p is None:
            p = z.copy()
        else:
            p *= rho / rho_prev
            p += z
        q = A @ p
        alpha = rho / np.dot(p, q)
        np.multiply(alpha, p, out=scratch)
        x += scratch
        np.multiply(alpha, q, out=scratch)
        r -= scratch
        rho_prev = rho
    return maxiter


def solve_spd(
    A: sp.spmatrix,
    b: np.ndarray,
    tol: float = 1e-10,
    factor: spla.SuperLU | None = None,
) -> tuple[np.ndarray, SpdSolveReport]:
    """Solve A x = b for symmetric positive definite sparse A.

    Parameters
    ----------
    A : sparse matrix, shape (n, n)
    b : ndarray, shape (n,)
    tol : float
        Relative residual target ||Ax - b|| / ||b||, finite and > 0.
    factor : SuperLU, optional
        ``factorize_spd(A)`` to solve with. Without one the solve is
        Jacobi-preconditioned CG (:func:`_jacobi_cg`, bit for bit scipy's
        ``cg``), capped at 10 n steps per pass; a pass whose verified
        residual misses ``tol`` is followed by up to two warm restarts from
        its iterate, which absorb recurrence drift near the tolerance.

    Returns
    -------
    (x, SpdSolveReport)
        The report's method is "direct" or "pcg"; its residual is recomputed
        from A @ x, not taken from the iteration recurrence, and its
        iteration count sums the CG steps of every pass.

    Raises
    ------
    ValueError
        On mismatched shapes, a factor of another shape, a non-positive
        diagonal (PCG only), or a ``tol`` that is not finite and > 0.
    LinearSolveError
        If ``||b||`` is not finite, before any solve step (the report then has
        0 iterations and a NaN residual), or if the verified residual still
        exceeds ``tol`` or is NaN.
    """
    n = A.shape[0]
    if A.shape[0] != A.shape[1] or b.shape != (n,):
        raise ValueError(f"shape mismatch: A {A.shape}, b {b.shape}")
    if factor is not None and factor.shape != A.shape:
        raise ValueError(f"a factor of shape {factor.shape} does not fit A {A.shape}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    method = "pcg" if factor is None else "direct"
    t0 = time.perf_counter()
    bnorm = float(np.linalg.norm(b))
    if not math.isfinite(bnorm):        # NaN or inf in b, or ||b|| overflows
        raise LinearSolveError(f"right-hand side norm is {bnorm}, not finite",
                               SpdSolveReport(method, 0, math.nan, time.perf_counter() - t0))
    if bnorm == 0.0:
        return np.zeros(n), SpdSolveReport(method, 0, 0.0, time.perf_counter() - t0)

    def verified(x):
        return float(np.linalg.norm(A @ x - b)) / bnorm

    if factor is not None:
        x = factor.solve(b)
        iterations = 0
        rel = verified(x)
    else:
        diag = A.diagonal()
        if np.any(diag <= 0.0):
            raise ValueError("matrix has a non-positive diagonal entry, not SPD")
        inv_diag = 1.0 / diag
        x = np.zeros(n)
        iterations = 0
        for _ in range(3):
            iterations += _jacobi_cg(A, b, x, tol * bnorm, 10 * n, inv_diag)
            rel = verified(x)
            if rel <= tol:
                break

    report = SpdSolveReport(method, iterations, rel, time.perf_counter() - t0)
    if not rel <= tol:          # also catches a NaN residual
        raise LinearSolveError(
            f"{method} stalled at relative residual {rel:.3e} (target {tol:.1e})",
            report,
        )
    return x, report
