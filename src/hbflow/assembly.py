"""Discrete gradient, weighted stiffness matrices, and load vectors.

The discrete gradient G maps interior vertex coefficients to the constant
per-triangle gradient of the P1 interpolant: rows 0..nt-1 hold the first
component, rows nt..2nt-1 the second. Dirichlet conditions are baked in by
indexing columns over interior vertices only, so boundary values are
identically zero everywhere downstream.

All stiffness matrices here share one structure, differing only in a
positive per-triangle weight w:

    A[i, j] = sum over triangles of w * area * (grad phi_i, grad phi_j)

which is assembled as G^T diag(w * area, w * area) G.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh


class AssemblyError(ValueError):
    """Inconsistent shapes or invalid weights passed to an assembly routine."""


def build_discrete_gradient(mesh: Mesh, *, restrict: bool = True) -> sp.csr_matrix:
    """Sparse matrix taking vertex coefficients to per-triangle gradients.

    Parameters
    ----------
    mesh : Mesh
    restrict : bool
        With the default True, columns run over interior vertices only
        (homogeneous Dirichlet data baked in). With False, columns run over
        all vertices; this variant exists for whole-space identities such
        as zero row sums of the unweighted stiffness matrix.

    Returns
    -------
    csr_matrix, shape (2 nt, n)
        n is the interior vertex count (or nv when ``restrict=False``).
    """
    nt = mesh.num_triangles
    if restrict:
        cols_of_vertex = mesh.dof_index
        ncols = mesh.num_interior
        if ncols == 0:
            raise AssemblyError("mesh has no interior vertices")
    else:
        cols_of_vertex = np.arange(mesh.num_vertices)
        ncols = mesh.num_vertices

    tri_cols = cols_of_vertex[mesh.triangles]          # (nt, 3), -1 for dropped
    keep = tri_cols >= 0
    t_idx, local = np.nonzero(keep)
    cols = tri_cols[t_idx, local]
    gx = mesh.basis_gradients[t_idx, local, 0]
    gy = mesh.basis_gradients[t_idx, local, 1]

    rows = np.concatenate([t_idx, t_idx + nt])
    cols2 = np.concatenate([cols, cols])
    vals = np.concatenate([gx, gy])
    G = sp.coo_matrix((vals, (rows, cols2)), shape=(2 * nt, ncols)).tocsr()
    G.sort_indices()
    return G


def gradient_magnitudes(gradient: sp.spmatrix, u: np.ndarray) -> np.ndarray:
    """Per-triangle |grad u^h|: xi_k = |(Gu)_k, (Gu)_{k+nt}|."""
    g = gradient @ u
    nt = g.shape[0] // 2
    return np.hypot(g[:nt], g[nt:])


def weights_preconditioner(xi: np.ndarray, p: float, epsilon: float) -> np.ndarray:
    """Regularized singular weight (epsilon + xi)^(p-2), for 1 < p <= 2.

    This is the preconditioner weight for the shear-thinning branch; the
    epsilon shift keeps it finite at xi = 0. At p = 2 the weight is
    identically one.
    """
    if not 1.0 < p <= 2.0:
        raise AssemblyError(f"preconditioner weight needs 1 < p <= 2, got p={p}")
    if epsilon <= 0.0:
        raise AssemblyError(f"epsilon must be positive, got {epsilon}")
    xi = np.asarray(xi, dtype=np.float64)
    if np.any(xi < 0.0):
        raise AssemblyError("xi must be nonnegative")
    return (epsilon + xi) ** (p - 2.0)


def weights_plaplacian(
    xi: np.ndarray, p: float, zero_threshold: float = 1e-14
) -> np.ndarray:
    """p-Laplacian weight xi^(p-2) with the singular limit clamped to zero.

    For p < 2 the weight blows up as xi -> 0; the continuum term
    xi^(p-2) * grad u it multiplies still vanishes there, so triangles with
    xi <= zero_threshold get weight zero, which reproduces that limit.
    """
    if p <= 1.0:
        raise AssemblyError(f"p must be > 1, got {p}")
    xi = np.asarray(xi, dtype=np.float64)
    if np.any(xi < 0.0):
        raise AssemblyError("xi must be nonnegative")
    out = np.zeros_like(xi)
    mask = xi > zero_threshold
    out[mask] = xi[mask] ** (p - 2.0)
    return out


def weights_huber(xi: np.ndarray, g: float, gamma: float) -> np.ndarray:
    """Huber multiplier weight g*gamma / max(g, gamma*xi).

    Equals gamma below the threshold xi = g/gamma and decays like g/xi
    beyond it, so weight * xi never exceeds g.
    """
    if g <= 0.0 or gamma <= 0.0:
        raise AssemblyError(f"g and gamma must be positive, got g={g}, gamma={gamma}")
    xi = np.asarray(xi, dtype=np.float64)
    if np.any(xi < 0.0):
        raise AssemblyError("xi must be nonnegative")
    return g * gamma / np.maximum(g, gamma * xi)


def assemble_weighted_stiffness(
    mesh: Mesh,
    weights: np.ndarray,
    *,
    gradient: sp.spmatrix | None = None,
    restrict: bool = True,
) -> sp.csr_matrix:
    """Stiffness matrix with one nonnegative weight per triangle.

    Parameters
    ----------
    mesh : Mesh
    weights : ndarray, shape (nt,)
        Per-triangle weights, finite and >= 0.
    gradient : sparse matrix, optional
        Matching discrete gradient; rebuilt from the mesh when omitted.
        Passing a cached one avoids repeated construction in solver loops.
    restrict : bool
        Forwarded to :func:`build_discrete_gradient` when the gradient is
        rebuilt here.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (mesh.num_triangles,):
        raise AssemblyError(
            f"weights shape {weights.shape} does not match {mesh.num_triangles} triangles"
        )
    if not np.all(np.isfinite(weights)) or np.any(weights < 0.0):
        raise AssemblyError("weights must be finite and nonnegative")
    if gradient is None:
        gradient = build_discrete_gradient(mesh, restrict=restrict)
    wm = weights * mesh.areas
    D = sp.diags(np.concatenate([wm, wm]))
    A = (gradient.T @ (D @ gradient)).tocsr()
    A.eliminate_zeros()
    A.sort_indices()
    return A


def assemble_load_vector(
    mesh: Mesh,
    f: float | Callable[[np.ndarray, np.ndarray], np.ndarray],
    *,
    restrict: bool = True,
) -> np.ndarray:
    """Load vector via the vertex quadrature (1/3) * area * sum of values.

    The quadrature is exact for P1 integrands. ``f`` is a constant or a
    vectorized callable of the coordinate arrays (x, y).
    """
    if callable(f):
        fv = np.asarray(f(mesh.vertices[:, 0], mesh.vertices[:, 1]), dtype=np.float64)
        if fv.shape != (mesh.num_vertices,):
            raise AssemblyError(f"f returned shape {fv.shape}, expected ({mesh.num_vertices},)")
    else:
        fv = np.full(mesh.num_vertices, float(f))
    if not np.all(np.isfinite(fv)):
        raise AssemblyError("f must be finite at every vertex")
    lumped = np.zeros(mesh.num_vertices)
    third = mesh.areas / 3.0
    for k in range(3):
        np.add.at(lumped, mesh.triangles[:, k], third)
    load = lumped * fv
    if restrict:
        return load[mesh.interior_indices]
    return load


def expand_dirichlet(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    """Interior coefficients -> all-vertex field with zeros on the boundary."""
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (mesh.num_interior,):
        raise AssemblyError(f"u shape {u.shape} does not match {mesh.num_interior} interior dofs")
    full = np.zeros(mesh.num_vertices)
    full[mesh.interior_indices] = u
    return full
