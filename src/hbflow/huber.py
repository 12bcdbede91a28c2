"""Huber-regularized objective, its gradient, and the dual multiplier field.

The nonsmooth plasticity term g * |z| is replaced by the C1 Huber function

    psi_gamma(z) = g|z| - g^2/(2 gamma)   where gamma |z| >= g
                 = (gamma/2) |z|^2        otherwise

and the regularized objective over interior coefficients u is

    J(u) = (1/p) sum_T area * xi^p + sum_T area * psi_gamma(xi) - load . u

with xi = |G u| the per-triangle gradient magnitude, which the callers of
the objective, its gradient and the dual field compute and pass in. The
gradient applies the two weighted stiffness operators (p-Laplacian weight
and Huber weight) to u through the stiffness scatter plan, without
building either matrix, and has the bits of the assembled matrices'
products; a direct per-triangle accumulation of the same sum lives only
in the test suite as an oracle.

:class:`HuberParams` holds the whole pointwise constitutive law as methods
of xi: psi_gamma, the two flux weights, and the shear-thinning
preconditioner weight (epsilon + xi)^(p-2). No other module evaluates them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import apply_weighted_stiffness
# bound here only for the benchmark's huber.gradient_assembly hook (ROADMAP item 1)
from .assembly import assemble_weighted_stiffness  # noqa: F401
from .mesh import Mesh


@dataclass(frozen=True)
class HuberParams:
    """Parameter bundle: flow index p, plasticity threshold g, Huber gamma.

    epsilon only enters the shear-thinning preconditioner, but it travels
    with the rest because every solver component needs the same bundle.
    The parameters are checked once, here, so the pointwise methods below
    take any nonnegative xi array and check nothing.
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
        for name in ("g", "gamma", "epsilon"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        with np.errstate(over="ignore"):    # the largest weight of each law, at xi = 0
            if not np.isfinite(self.g * self.gamma):
                raise ValueError(f"g * gamma overflows: g={self.g}, gamma={self.gamma}")
            if self.p < 2.0 and not np.isfinite(np.power(self.epsilon, self.p - 2.0)):
                raise ValueError(f"epsilon^(p-2) overflows: epsilon={self.epsilon}, p={self.p}")

    def psi(self, xi: np.ndarray) -> np.ndarray:
        """Huber function psi_gamma of the gradient magnitude xi."""
        g, gamma = self.g, self.gamma
        # np.where evaluates both branches; the quadratic one may overflow for
        # huge xi even though only the linear branch is selected there
        with np.errstate(over="ignore"):
            return np.where(
                gamma * xi >= g, g * xi - g * g / (2.0 * gamma), 0.5 * gamma * xi * xi
            )

    def plaplacian_weight(self, xi: np.ndarray) -> np.ndarray:
        """p-Laplacian weight xi^(p-2) with the singular limit clamped to zero.

        For p < 2 the weight blows up as xi -> 0; the continuum term
        xi^(p-2) * grad u it multiplies still vanishes there, so triangles
        with xi <= 1e-14 get weight zero, which reproduces that limit.
        """
        out = np.zeros_like(xi)
        mask = xi > 1e-14
        out[mask] = xi[mask] ** (self.p - 2.0)
        return out

    def huber_weight(self, xi: np.ndarray) -> np.ndarray:
        """Huber multiplier weight g*gamma / max(g, gamma*xi).

        Equals gamma below the threshold xi = g/gamma and decays like g/xi
        beyond it, so weight * xi never exceeds g.
        """
        return self.g * self.gamma / np.maximum(self.g, self.gamma * xi)

    def preconditioner_weight(self, xi: np.ndarray) -> np.ndarray:
        """Shear-thinning preconditioner weight (epsilon + xi)^(p-2).

        Meant for 1 < p <= 2: the epsilon shift keeps it finite at xi = 0,
        and at p = 2 it is identically one.
        """
        return (self.epsilon + xi) ** (self.p - 2.0)


def evaluate_objective(
    mesh: Mesh,
    u: np.ndarray,
    params: HuberParams,
    load: np.ndarray,
    *,
    xi: np.ndarray,
) -> float:
    """Regularized objective at interior coefficients u.

    ``xi`` is ``gradient_magnitudes(G, u)``, the per-triangle |grad u|.
    May legitimately overflow to +inf for extreme trial states at large p;
    callers treat that as a rejected step, not an error.
    """
    with np.errstate(over="ignore"):
        p_term = np.sum(mesh.areas * xi**params.p) / params.p
    psi_term = np.sum(mesh.areas * params.psi(xi))
    return float(p_term + psi_term - load @ u)


def evaluate_gradient(
    mesh: Mesh,
    gradient: sp.spmatrix,
    u: np.ndarray,
    params: HuberParams,
    load: np.ndarray,
    *,
    xi: np.ndarray,
) -> np.ndarray:
    """Gradient of the objective: A_u u + A_max u - load.

    ``xi`` is ``gradient_magnitudes(gradient, u)``, the per-triangle
    |grad u|. A_u carries the p-Laplacian weight xi^(p-2) and A_max the
    Huber weight g*gamma/max(g, gamma*xi). Each product comes from
    :func:`~hbflow.assembly.apply_weighted_stiffness`, which builds no
    matrix and gives the assembled product's bits.
    """
    a_u_u = apply_weighted_stiffness(mesh, params.plaplacian_weight(xi), u, gradient=gradient)
    a_max_u = apply_weighted_stiffness(mesh, params.huber_weight(xi), u, gradient=gradient)
    return a_u_u + a_max_u - load


@dataclass(frozen=True)
class DualField:
    """Per-triangle multiplier w, active flags and |grad u|.

    w approximates the dual variable of the plasticity term; |w| <= g
    everywhere, with equality exactly on the active (flowing) triangles.
    """

    w: np.ndarray        # (nt, 2)
    active: np.ndarray   # (nt,) bool, gamma*xi >= g
    xi: np.ndarray       # (nt,) |grad u| at the u the field was computed from


def dual_field(gradient: sp.spmatrix, u: np.ndarray, params: HuberParams, *,
               xi: np.ndarray) -> DualField:
    """Multiplier w = g*gamma*grad(u)/max(g, gamma*xi), active set and xi.

    ``xi`` is ``gradient_magnitudes(gradient, u)``, the per-triangle |grad u|.
    """
    gx, gy = (gradient @ u).reshape(2, -1)
    scale = params.huber_weight(xi)
    w = np.column_stack([scale * gx, scale * gy])
    return DualField(w=w, active=params.gamma * xi >= params.g, xi=xi)
