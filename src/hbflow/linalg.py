"""Sparse SPD solves: Jacobi-preconditioned CG or a sparse LU factor.

A factor means a direct solve: :func:`solve_spd` solves with the factor it is
given, and without one runs conjugate gradients with a Jacobi (diagonal)
preconditioner at a tight relative tolerance. The solver's ``_Problem``
decides which systems get a factor and builds each with :func:`factorize_spd`.
Every solve verifies its own residual with an independent matvec before
returning.
"""

from __future__ import annotations

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
        Relative residual target ||Ax - b|| / ||b||.
    factor : SuperLU, optional
        ``factorize_spd(A)`` to solve with; without one the solve is
        Jacobi-preconditioned CG, capped at 10 n iterations per restart.

    Returns
    -------
    (x, SpdSolveReport)
        The report's method is "direct" or "pcg"; its residual is recomputed
        from A @ x, not taken from the iteration recurrence.

    Raises
    ------
    LinearSolveError
        If the verified residual still exceeds ``tol`` or is NaN.
    """
    n = A.shape[0]
    if A.shape[0] != A.shape[1] or b.shape != (n,):
        raise ValueError(f"shape mismatch: A {A.shape}, b {b.shape}")
    if factor is not None and factor.shape != A.shape:
        raise ValueError(f"a factor of shape {factor.shape} does not fit A {A.shape}")
    method = "pcg" if factor is None else "direct"
    t0 = time.perf_counter()
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(n), SpdSolveReport(method, 0, 0.0, time.perf_counter() - t0)

    if factor is not None:
        x = factor.solve(b)
        iterations = 0
    else:
        diag = A.diagonal()
        if np.any(diag <= 0.0):
            raise ValueError("matrix has a non-positive diagonal entry, not SPD")
        M = sp.diags(1.0 / diag)
        count = 0

        def tick(_):
            nonlocal count
            count += 1

        x = np.zeros(n)
        # a couple of warm restarts absorb recurrence drift near tolerance
        for _ in range(3):
            x, info = spla.cg(A, b, x0=x, rtol=tol, atol=0.0, maxiter=10 * n,
                              M=M, callback=tick)
            if float(np.linalg.norm(A @ x - b)) / bnorm <= tol:
                break
        iterations = count

    rel = float(np.linalg.norm(A @ x - b)) / bnorm
    report = SpdSolveReport(method, iterations, rel, time.perf_counter() - t0)
    if not rel <= tol:          # also catches a NaN residual
        raise LinearSolveError(
            f"{method} stalled at relative residual {rel:.3e} (target {tol:.1e})",
            report,
        )
    return x, report
