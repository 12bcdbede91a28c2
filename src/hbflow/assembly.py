"""Discrete gradient, weighted stiffness matrices, and load vectors.

The discrete gradient G maps interior vertex coefficients to the constant
per-triangle gradient of the P1 interpolant: rows 0..nt-1 hold the first
component, rows nt..2nt-1 the second. Dirichlet conditions are baked in by
indexing columns over interior vertices only, so boundary values are
identically zero everywhere downstream.

All stiffness matrices here share one structure, differing only in a
nonnegative per-triangle weight w, which the caller supplies (the weights
of the constitutive law are methods of ``huber.HuberParams``):

    A[i, j] = sum over triangles of w * area * (grad phi_i, grad phi_j)

which is G^T D G, D = diag(w * area, w * area). G is built once per mesh,
with read-only arrays, and the plan these entries come from is built on
the first stiffness call; the mesh's memo keeps both, so both live as long
as the mesh. The evaluators take the mesh alone, so none can meet another
mesh's G. The plan holds the G
values of each entry's terms as a constant sparse term matrix, so the
entries are two runs of scipy's CSR matrix-vector kernel, on the x terms and then the y terms,
into one zeroed array. The kernel starts each row from the array's value
and adds each term as one product, so every entry is summed in the order
and rounding of scipy's ``G.T @ (D @ G)``, bit for bit. The plan gives the
entries three ways: ``values`` in CSR order with exact zeros kept,
``assemble`` as the CSR matrix with those zeros dropped, and ``apply`` as
the product A u, which builds no matrix and equals ``assemble(...) @ u``
bit for bit (:func:`apply_weighted_stiffness`, the objective's gradient).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .mesh import Mesh


class AssemblyError(ValueError):
    """Inconsistent shapes or invalid weights passed to an assembly routine."""


def build_discrete_gradient(mesh: Mesh) -> sp.csr_matrix:
    """Sparse matrix taking interior vertex coefficients to per-triangle gradients.

    Columns run over interior vertices only, so homogeneous Dirichlet data
    is baked in. G is built on the first call for a mesh and kept in its
    memo: every later call returns the same matrix.

    Returns
    -------
    csr_matrix, shape (2 nt, num_interior)
        With read-only ``data``, ``indices`` and ``indptr``.
    """
    if not isinstance(mesh, Mesh):
        raise TypeError(f"expected a Mesh, got {type(mesh).__name__}")
    return mesh._memo("_gradient", lambda: _discrete_gradient(mesh))


def _discrete_gradient(mesh: Mesh) -> sp.csr_matrix:
    nt = mesh.num_triangles
    ncols = mesh.num_interior
    if ncols == 0:
        raise AssemblyError("mesh has no interior vertices")

    tri_cols = mesh.dof_index[mesh.triangles]          # (nt, 3), -1 for dropped
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
    for arr in (G.data, G.indices, G.indptr):     # as every Mesh array: the plan reads G
        arr.setflags(write=False)
    return G


def gradient_magnitudes(gradient: sp.spmatrix, u: np.ndarray) -> np.ndarray:
    """Per-triangle |grad u^h|: xi_k = |(Gu)_k, (Gu)_{k+nt}|."""
    g = gradient @ u
    nt = g.shape[0] // 2
    return np.hypot(g[:nt], g[nt:])


def assemble_weighted_stiffness(mesh: Mesh, weights: np.ndarray) -> sp.csr_matrix:
    """Stiffness matrix with one nonnegative weight per triangle.

    Parameters
    ----------
    mesh : Mesh
    weights : ndarray, shape (nt,)
        Per-triangle weights, finite and >= 0.
    """
    return _stiffness_pattern(mesh).assemble(_scaled_weights(mesh, weights))


def apply_weighted_stiffness(mesh: Mesh, weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """A u for the stiffness matrix A with these weights, without building A.

    Takes the arguments of :func:`assemble_weighted_stiffness` plus u of
    shape (n,), and returns ``assemble_weighted_stiffness(...) @ u`` bit for
    bit for finite u.
    """
    return _stiffness_pattern(mesh).apply(_scaled_weights(mesh, weights), u)


def _scaled_weights(mesh: Mesh, weights: np.ndarray) -> np.ndarray:
    """The checked weights times the triangle areas: the plan's d."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (mesh.num_triangles,):
        raise AssemblyError(
            f"weights shape {weights.shape} does not match {mesh.num_triangles} triangles"
        )
    if not np.all(np.isfinite(weights)) or np.any(weights < 0.0):
        raise AssemblyError("weights must be finite and nonnegative")
    return weights * mesh.areas


class _StiffnessPattern:
    """Term matrix S of G^T D G for one discrete gradient G.

    Entry (i, j) sums G[k, i] * (d[k] * G[k, j]) from zero over the rows k
    of G ascending, as scipy's product does. Row r of S holds the terms of
    the r-th entry in CSR order, triangles ascending. A term's data is
    G[k, i], ``term_data[0]`` for the x row k and ``term_data[1]`` for the
    y row; its column, ``term_indices``, is the slot of G[k, j] in G's x
    data, which the y data repeats. ``lengths`` counts each triangle's slots.
    G is a CSR matrix, such as :func:`build_discrete_gradient`'s, whose rows
    t and t + nt hold the same at most 3 columns; the plan reads its values
    as ``gradient_data``, so G must not change while the plan lives.
    """

    def __init__(self, gradient: sp.csr_matrix):
        n, nt = gradient.shape[1], gradient.shape[0] // 2
        indptr, indices, self.nx = gradient.indptr, gradient.indices, int(gradient.indptr[nt])
        self.lengths = np.diff(indptr[:nt + 1])

        # every term, triangles ascending: the x slots a, b of G[k, i], G[k, j]
        valid = np.arange(3) < self.lengths[:, None]
        valid = valid[:, :, None] & valid[:, None, :]                   # (nt, 3, 3)
        t, ab = np.divmod(np.flatnonzero(valid).astype(np.int32), 9)
        a, b = np.divmod(ab, 3)
        a += indptr[t]
        b += indptr[t]
        del valid, t, ab
        keys = indices[a].astype(np.int32 if n * n < 2**31 else np.int64) * n + indices[b]
        order = np.argsort(keys, kind="stable")    # triangles stay ascending per entry
        self.term_indices = b[order]
        del b
        a = a[order]
        keys = keys[order]
        del order
        first = np.flatnonzero(np.r_[keys.size > 0, keys[1:] != keys[:-1]]).astype(np.int32)
        self.term_indptr = np.append(first, np.int32(keys.size))
        keys = keys[first]
        self.shape = (n, n)
        self.indices = (keys % n).astype(np.int32)
        self.indptr = np.searchsorted(keys, np.arange(n + 1) * n).astype(np.int32)
        self.gradient_data = gradient.data.reshape(2, -1)       # G's x and y values
        self.term_data = tuple(half[a] for half in self.gradient_data)

    def values(self, d: np.ndarray) -> np.ndarray:
        """Entries of G^T diag(d, d) G in this plan's CSR order, exact zeros kept.

        Each is 0 + x terms + y terms: S times d[k] * G[k, j], half by half.
        """
        nt = self.lengths.size
        # the kernel reads its index and vector arguments unchecked
        if np.shape(d) != (nt,):
            raise AssemblyError(f"d shape {np.shape(d)} does not match {nt} triangles")
        dg = self.gradient_data * np.repeat(d, self.lengths)    # d[k] * G[k, j]
        out = np.zeros(self.indices.size)
        for terms, g in zip(self.term_data, dg):
            _sparsetools.csr_matvec(out.size, self.nx, self.term_indptr, self.term_indices,
                                    terms, g, out)
        return out

    def assemble(self, d: np.ndarray) -> sp.csr_matrix:
        """G^T diag(d, d) G for this plan's G, with d of shape (nt,)."""
        A = sp.csr_matrix((self.values(d), self.indices.copy(), self.indptr.copy()),
                          shape=self.shape)
        A.eliminate_zeros()
        return A

    def apply(self, d: np.ndarray, u: np.ndarray) -> np.ndarray:
        """``assemble(d) @ u`` without building the matrix.

        It runs scipy's own CSR kernel on the entries of :meth:`values`.
        Each row sum starts from +0.0, and under round-to-nearest such a sum
        never becomes -0.0, so for finite u an exact-zero entry, which
        ``assemble`` drops, adds nothing: the result has the product's bits.
        """
        n = self.shape[0]
        u = np.ascontiguousarray(u, dtype=np.float64)
        if u.shape != (n,):     # the kernel reads u unchecked
            raise AssemblyError(f"u shape {u.shape} does not match {n} columns")
        out = np.zeros(n)
        _sparsetools.csr_matvec(n, n, self.indptr, self.indices, self.values(d), u, out)
        return out


def _stiffness_pattern(mesh: Mesh) -> _StiffnessPattern:
    # built on the first stiffness call, after G, and kept as long as the mesh
    return mesh._memo("_stiffness_plan",
                      lambda: _StiffnessPattern(build_discrete_gradient(mesh)))


def assemble_load_vector(mesh: Mesh, f: float) -> np.ndarray:
    """Interior load vector of the constant pressure drop f: f times the area
    lumped at each interior vertex by the vertex quadrature (1/3) * area *
    sum of values, which is exact for P1 integrands."""
    f = float(f)
    if not np.isfinite(f):
        raise AssemblyError(f"f must be finite, got {f}")
    lumped = np.zeros(mesh.num_vertices)
    third = mesh.areas / 3.0
    for k in range(3):
        np.add.at(lumped, mesh.triangles[:, k], third)
    return f * lumped[mesh.interior_indices]


def expand_dirichlet(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    """Interior coefficients -> all-vertex field with zeros on the boundary."""
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (mesh.num_interior,):
        raise AssemblyError(f"u shape {u.shape} does not match {mesh.num_interior} interior dofs")
    full = np.zeros(mesh.num_vertices)
    full[mesh.interior_indices] = u
    return full
