"""Huber-regularized objective, its gradient, and the dual multiplier field.

The nonsmooth plasticity term g * |z| is replaced by the C1 Huber function

    psi_gamma(z) = g|z| - g^2/(2 gamma)   where gamma |z| >= g
                 = (gamma/2) |z|^2        otherwise

and the regularized objective over interior coefficients u is

    J(u) = (1/p) sum_T area * xi^p + sum_T area * psi_gamma(xi) - load . u

with xi the per-triangle gradient magnitude. Its gradient is assembled from
the two weighted stiffness matrices (p-Laplacian weight and Huber weight);
a direct per-triangle accumulation of the same sum lives only in the test
suite as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import (
    assemble_weighted_stiffness,
    gradient_magnitudes,
    weights_huber,
    weights_plaplacian,
)
from .mesh import Mesh


@dataclass(frozen=True)
class HuberParams:
    """Parameter bundle: flow index p, plasticity threshold g, Huber gamma.

    epsilon only enters the shear-thinning preconditioner, but it travels
    with the rest because every solver component needs the same bundle.
    """

    p: float
    g: float
    gamma: float
    epsilon: float = 1e-6

    def __post_init__(self):
        for name in ("p", "g", "gamma", "epsilon"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.p <= 1.0:
            raise ValueError(f"p must be > 1, got {self.p}")
        if self.g <= 0.0:
            raise ValueError(f"g must be > 0, got {self.g}")
        if self.gamma <= 0.0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")


def huber_psi(z, params: HuberParams) -> float:
    """psi_gamma at a single 2-vector z."""
    r = float(np.hypot(*np.asarray(z, dtype=np.float64)))
    return float(_psi_of_magnitude(np.array([r]), params.g, params.gamma)[0])


def _psi_of_magnitude(xi: np.ndarray, g: float, gamma: float) -> np.ndarray:
    # np.where evaluates both branches; the quadratic one may overflow for
    # huge xi even though only the linear branch is selected there
    with np.errstate(over="ignore"):
        return np.where(
            gamma * xi >= g, g * xi - g * g / (2.0 * gamma), 0.5 * gamma * xi * xi
        )


def evaluate_objective(
    mesh: Mesh,
    gradient: sp.spmatrix,
    u: np.ndarray,
    params: HuberParams,
    load: np.ndarray,
) -> float:
    """Regularized objective at interior coefficients u.

    May legitimately overflow to +inf for extreme trial states at large p;
    callers treat that as a rejected step, not an error.
    """
    xi = gradient_magnitudes(gradient, u)
    with np.errstate(over="ignore"):
        p_term = np.sum(mesh.areas * xi**params.p) / params.p
    psi_term = np.sum(mesh.areas * _psi_of_magnitude(xi, params.g, params.gamma))
    return float(p_term + psi_term - load @ u)


def evaluate_gradient(
    mesh: Mesh,
    gradient: sp.spmatrix,
    u: np.ndarray,
    params: HuberParams,
    load: np.ndarray,
) -> np.ndarray:
    """Gradient of the objective: A_u u + A_max u - load.

    A_u carries the p-Laplacian weight xi^(p-2) and A_max the Huber weight
    g*gamma/max(g, gamma*xi), both evaluated at the current u.
    """
    xi = gradient_magnitudes(gradient, u)
    a_u = assemble_weighted_stiffness(
        mesh, weights_plaplacian(xi, params.p), gradient=gradient
    )
    a_max = assemble_weighted_stiffness(
        mesh, weights_huber(xi, params.g, params.gamma), gradient=gradient
    )
    return a_u @ u + a_max @ u - load


@dataclass(frozen=True)
class DualField:
    """Per-triangle multiplier w and active flags.

    w approximates the dual variable of the plasticity term; |w| <= g
    everywhere, with equality exactly on the active (flowing) triangles.
    """

    w: np.ndarray        # (nt, 2)
    active: np.ndarray   # (nt,) bool, gamma*xi >= g


def dual_field(gradient: sp.spmatrix, u: np.ndarray, params: HuberParams) -> DualField:
    """Multiplier w = g*gamma*grad(u)/max(g, gamma*|grad u|) and active set."""
    gvec = gradient @ u
    nt = gvec.shape[0] // 2
    gx, gy = gvec[:nt], gvec[nt:]
    xi = np.hypot(gx, gy)
    denom = np.maximum(params.g, params.gamma * xi)
    scale = params.g * params.gamma / denom
    w = np.column_stack([scale * gx, scale * gy])
    return DualField(w=w, active=params.gamma * xi >= params.g)
