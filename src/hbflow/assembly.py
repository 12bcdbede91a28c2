"""Discrete gradient, weighted stiffness matrices, and load vectors.

The discrete gradient G maps interior vertex coefficients to the constant
per-triangle gradient of the P1 interpolant: rows 0..nt-1 hold the first
component, rows nt..2nt-1 the second. Dirichlet conditions are baked in by
indexing columns over interior vertices only, so boundary values are
identically zero everywhere downstream. G stores no zero: a basis gradient
component that is exactly zero, as at every right angle, is left out.

All stiffness matrices here share one structure, differing only in a
nonnegative per-triangle weight w, which the caller supplies (the weights
of the constitutive law are methods of ``huber.HuberParams``):

    A[i, j] = sum over triangles of w * area * (grad phi_i, grad phi_j)

which is G^T D G, D = diag(w * area, w * area). G is built once per mesh,
with read-only arrays, and the plan these entries come from is built on
the first stiffness call; the mesh's memo keeps both, so both live as long
as the mesh. The evaluators take the mesh alone, so none can meet another
mesh's G. The plan holds the G values of each entry's terms as two constant
sparse term matrices, of the x rows and of the y rows of G, so the entries
are two runs of scipy's CSR matrix-vector kernel, on the x terms and then
the y terms, into one zeroed array. The kernel starts each row from the
array's value and adds each term as one product, so every entry is summed
in the order and rounding of scipy's ``G.T @ (D @ G)``, bit for bit.

Leaving zeros out changes no bit. Under round-to-nearest a sum that starts
at +0.0 never becomes -0.0, so a product +-0.0 of finite factors leaves it
unchanged: a term with a factor that G does not store, an entry with no
term, and a zero of G in ``G @ v`` add nothing. Every result here, and every
``G @ v`` for finite v, has the bits it would have with G's zeros stored
(``tests/oracles.py`` keeps that G and its plan). The plan gives the
entries three ways: ``values`` in CSR order, ``assemble`` as the CSR matrix
with its exact zeros dropped, and ``apply`` as the product A u, which
builds no matrix and equals ``assemble(...) @ u`` bit for bit
(:func:`apply_weighted_stiffness`, the objective's gradient).
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
    is baked in. No zero is stored: a basis gradient component that is
    exactly zero is left out, so rows t and t + nt may hold different
    columns. G is built on the first call for a mesh and kept in its memo:
    every later call returns the same matrix.

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
    G.eliminate_zeros()
    for arr in (G.data, G.indices, G.indptr):     # as every Mesh array: the plan reads G
        arr.setflags(write=False)
    return G


def gradient_magnitudes(gradient: sp.spmatrix, u: np.ndarray) -> np.ndarray:
    """Per-triangle |grad u^h|: xi_k = |(Gu)_k, (Gu)_{k+nt}|.

    For finite u it has the bits it would have with G's zeros stored.
    """
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
    """Term matrices of G^T D G for one discrete gradient G.

    Entry (i, j) sums G[k, i] * (d[k] * G[k, j]) from zero over the rows k
    of G ascending, as scipy's product does, but only over the rows that
    store both values: a term left out would add an exact zero. ``terms``
    holds two term matrices as CSR (indptr, indices, data) triples, of the
    x rows k < nt and of the y rows. Row r of each holds the terms of the
    r-th entry, triangles ascending: a term's data is G[k, i], and its
    column is the slot of G[k, j] in G's ``data``. An entry with no term is
    not in the pattern. G is a CSR matrix, such as
    :func:`build_discrete_gradient`'s, whose rows t and t + nt together
    hold at most 3 columns, none twice. The plan keeps G and reads its
    values, so G must not change while the plan lives.
    """

    def __init__(self, gradient: sp.csr_matrix):
        n, nt = gradient.shape[1], gradient.shape[0] // 2
        indptr, indices, nnz = gradient.indptr, gradient.indices, gradient.nnz
        nx = int(indptr[nt])
        self.gradient = gradient

        # each triangle's columns, the union of its two rows: the sum of the x
        # rows holding slot + 1 and the y rows holding (slot + 1) * (nnz + 1)
        slot = np.arange(1, nnz + 1, dtype=np.int64)
        union = (sp.csr_matrix((slot[:nx], indices[:nx], indptr[:nt + 1]), shape=(nt, n))
                 + sp.csr_matrix((slot[nx:] * (nnz + 1), indices[nx:], indptr[nt:] - nx),
                                 shape=(nt, n)))
        del slot
        # as (nt, 3) arrays, padded, at position 3 t + a: the columns, and each
        # half's slots, -1 where that half stores no value
        k = np.arange(3)
        at = union.indptr[:-1, None] + k
        at[k >= np.diff(union.indptr)[:, None]] = union.nnz
        cols = np.append(union.indices, 0)[at].ravel()
        halves = [(half - 1).astype(np.int32).ravel()
                  for half in np.divmod(np.append(union.data, 0)[at], nnz + 1)[::-1]]
        del union, at

        # every pair of a triangle's columns a, b that has a term, triangles
        # ascending, as 9 t + 3 a + b; bit 0 of its kind is set if both its
        # values are stored in the x half, bit 1 if in the y half
        kinds = np.zeros((nt, 3, 3), dtype=np.int8)
        for bit, half in enumerate(halves):
            flags = (half >= 0).reshape(nt, 3)
            kinds |= (flags[:, :, None] & flags[:, None, :]).view(np.int8) << bit
        pair = np.flatnonzero(kinds).astype(np.int32)
        kind = kinds.ravel()[pair]
        del kinds, flags
        # int32 index arrays are gathered by indexing, which converts them in
        # chunks, and not by np.take, which makes a full intp copy of them
        i, j = _pair_positions(pair)
        keys = cols[i].astype(np.int32 if n * n < 2**31 else np.int64, copy=False)
        del i
        keys *= n
        keys += cols[j]
        del j, cols
        order = np.argsort(keys, kind="stable")    # triangles stay ascending per entry
        keys = keys[order]
        pair = pair[order]
        kind = kind[order]
        del order
        first = np.flatnonzero(np.r_[keys.size > 0, keys[1:] != keys[:-1]]).astype(np.int32)
        keys = keys[first]
        self.shape = (n, n)
        self.indices = (keys % n).astype(np.int32)
        self.indptr = np.searchsorted(keys, np.arange(n + 1) * n).astype(np.int32)
        del keys

        # Each half's pairs and their count per entry; then, half by half, the
        # bigger y half first, its term data G[k, i] and then the slots of
        # G[k, j]. Each array is freed once read, to keep the build's peak low.
        counted = []
        for bit in range(2):
            term = (kind & (1 << bit)).astype(bool)
            counts = np.add.reduceat(term.view(np.int8), first, dtype=np.int32)
            counted.append((np.r_[0, np.cumsum(counts)].astype(np.int32), pair[term]))
        del pair, kind, first, term, counts
        terms = [None, None]
        for bit in (1, 0):
            term_indptr, pair = counted.pop()
            i, j = _pair_positions(pair)
            del pair
            i = halves[bit][i]
            data = gradient.data[i]
            del i
            terms[bit] = (term_indptr, halves[bit][j], data)
            del j
        self.terms = tuple(terms)

    def values(self, d: np.ndarray) -> np.ndarray:
        """Entries of G^T diag(d, d) G in this plan's CSR order.

        Each is 0 + x terms + y terms: each term matrix times d[k] * G[k, j].
        A term left out has a factor G does not store, so it would add an
        exact zero, which leaves a sum that starts at +0.0 unchanged: each
        entry has the bits of scipy's product on G with its zeros stored.
        """
        G = self.gradient
        nt = G.shape[0] // 2
        d = np.ascontiguousarray(d, dtype=np.float64)
        # the kernels read their index and vector arguments unchecked
        if d.shape != (nt,):
            raise AssemblyError(f"d shape {d.shape} does not match {nt} triangles")
        dg = G.data.copy()       # d[k] * G[k, j]: each row's stored values scaled in place
        for rows in (G.indptr[:nt + 1], G.indptr[nt:]):     # the x rows, then the y rows
            _sparsetools.csr_scale_rows(nt, G.shape[1], rows, G.indices, dg, d)
        out = np.zeros(self.indices.size)
        for indptr, indices, data in self.terms:
            _sparsetools.csr_matvec(out.size, dg.size, indptr, indices, data, dg, out)
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


def _pair_positions(pair: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions 3 t + a and 3 t + b of pairs 9 t + 3 a + b, as two new
    arrays and no other: 3 t + b = pair - 3 (i - t) is formed in place."""
    i = pair // 3
    j = i // 3
    j -= i
    j *= 3
    j += pair
    return i, j


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
