"""Brute-force reference implementations used to cross-check the package.

Everything here is written against the mathematical definitions with no
shared code paths: meshes vertex by vertex with edges counted in a dict,
areas via the shoelace formula, per-triangle gradients via an explicit plane
fit through the three vertex values, the objective as a plain Python loop
over triangles, and gradients by central differences of that loop. Slow on
purpose; only ever run on tiny meshes. The discrete gradient and the load
over all vertices, boundary included, are built here triangle by triangle,
for whole-space identities the package's interior-only operators cannot
show. The exact radially symmetric solution on the unit disk comes from a
scalar equation per radius and 1-D quadrature, and a bracket around the
unregularized discrete minimum from Fenchel duality and one Laplacian
solve.

Some oracles keep an earlier implementation instead, for bit-for-bit and
byte-for-byte comparison: the mesh edge table through ``np.unique`` and the
mesh geometry from per-corner point arrays, the weighted stiffness as
scipy's sparse product G^T D G, the discrete gradient with its exact zeros
stored and the stiffness plan that sums its zero terms, the VTK writer that
joins the whole file in memory, the Jacobi-PCG solve through scipy's
``cg``, and the line search's two model steps with the three helpers they
were split into.
"""

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import _sparsetools

from hbflow.linalg import LinearSolveError, SpdSolveReport
from hbflow.linesearch import LineSearchError


def shoelace_area(pts):
    (x0, y0), (x1, y1), (x2, y2) = pts
    return 0.5 * abs((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))


def plane_gradient(pts, values):
    """Gradient of the affine interpolant through three points."""
    a = np.column_stack([pts, np.ones(3)])
    coef = np.linalg.solve(a, values)
    return coef[0], coef[1]


def psi(norm_z, g, gamma):
    if gamma * norm_z >= g:
        return g * norm_z - g * g / (2.0 * gamma)
    return 0.5 * gamma * norm_z * norm_z


def full_values(mesh, u):
    """Scatter interior coefficients onto all vertices, zero on the boundary."""
    vals = np.zeros(mesh.vertices.shape[0])
    vals[~mesh.boundary_vertex] = u
    return vals


def objective(mesh, u, p, g, gamma, f):
    vals = full_values(mesh, u)
    total = 0.0
    for tri in range(mesh.triangles.shape[0]):
        idx = mesh.triangles[tri]
        pts = mesh.vertices[idx]
        area = shoelace_area(pts)
        gx, gy = plane_gradient(pts, vals[idx])
        xi = np.hypot(gx, gy)
        total += area * (xi**p / p + psi(xi, g, gamma))
        total -= area * f * vals[idx].sum() / 3.0
    return total


def gradient(mesh, u, p, g, gamma, f):
    """Analytic objective gradient accumulated triangle by triangle."""
    vals = full_values(mesh, u)
    out = np.zeros(mesh.vertices.shape[0])
    for tri in range(mesh.triangles.shape[0]):
        idx = mesh.triangles[tri]
        pts = mesh.vertices[idx]
        area = shoelace_area(pts)
        gx, gy = plane_gradient(pts, vals[idx])
        xi = np.hypot(gx, gy)
        w = 0.0 if xi <= 1e-14 else xi ** (p - 2.0)
        w += g * gamma / max(g, gamma * xi)
        for k in range(3):
            basis = np.zeros(3)
            basis[k] = 1.0
            bx, by = plane_gradient(pts, basis)
            out[idx[k]] += area * w * (gx * bx + gy * by)
            out[idx[k]] -= area * f / 3.0
    return out[~mesh.boundary_vertex]


def full_gradient(mesh):
    """(2 nt, nv) gradient over all vertices: row t holds the x derivatives of
    triangle t's three basis functions, row t + nt the y derivatives, each
    from a plane fit, columns ascending and exact zeros stored."""
    nt = mesh.triangles.shape[0]
    cols, gx, gy = [], [], []
    for idx in mesh.triangles:
        pts = mesh.vertices[idx]
        for k in np.argsort(idx):
            bx, by = plane_gradient(pts, np.eye(3)[k])
            cols.append(idx[k])
            gx.append(bx)
            gy.append(by)
    return sp.csr_matrix((np.array(gx + gy), np.array(cols + cols), np.arange(0, 6 * nt + 1, 3)),
                         shape=(2 * nt, mesh.vertices.shape[0]))


def full_load(mesh, f):
    """Load over all vertices: each triangle adds area/3 times f at each of its
    vertices. ``f`` is a constant."""
    out = np.zeros(mesh.vertices.shape[0])
    for idx in mesh.triangles:
        area = shoelace_area(mesh.vertices[idx])
        for v in idx:
            out[v] += area / 3.0 * f
    return out


def radial_solution(p, g, f, gamma):
    """Exact minimizer of the regularized problem on the unit disk, f > 0.

    The shear stress is f r / 2, so xi = |u'(r)| solves
    xi^(p-1) + min(g, gamma xi) = f r / 2 (gamma = inf: the unregularized
    law, xi = max(f r/2 - g, 0)^(1/(p-1))). Returns (xi, u, J): xi and u as
    vectorized functions of r in [0, 1], with u(r) the integral of xi from r
    to 1, and J = 2 pi int_0^1 [(xi^p/p + psi(xi)) r - f xi r^2/2] dr, the
    load term integrated by parts. The integrals are 10-point Gauss-Legendre
    rules on a grid of 2000 cells that breaks where the law turns active.
    """
    xi_kink = 0.0 if np.isinf(gamma) else g / gamma
    t_kink = xi_kink ** (p - 1.0) + g           # the shear stress where it turns active

    def xi(r):
        t = 0.5 * f * np.asarray(r, dtype=float)
        active = t >= t_kink
        out = np.where(active, t - g, 0.0) ** (1.0 / (p - 1.0))
        if np.isinf(gamma) or active.all():
            return out
        # inactive: xi^(p-1) + gamma xi = t has its root in [0, t / gamma]
        lo, hi = np.zeros_like(t), t / gamma
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            low = mid ** (p - 1.0) + gamma * mid < t
            lo, hi = np.where(low, mid, lo), np.where(low, hi, mid)
        return np.where(active, out, 0.5 * (lo + hi))

    def cells(extra=()):
        return np.unique(np.r_[np.linspace(0.0, 1.0, 2001), min(2.0 * t_kink / f, 1.0), extra])

    def integrals(breaks, fn):
        """The integral of fn over each cell between consecutive breaks."""
        nodes, weights = np.polynomial.legendre.leggauss(10)
        mid, half = 0.5 * (breaks[1:] + breaks[:-1]), 0.5 * np.diff(breaks)
        return half * (fn(mid[:, None] + half[:, None] * nodes) @ weights)

    def u(r):
        r = np.asarray(r, dtype=float)
        breaks = cells(r.ravel())
        tail = np.r_[np.cumsum(integrals(breaks, xi)[::-1])[::-1], 0.0]
        return tail[np.searchsorted(breaks, r)]

    def density(r):
        x = xi(r)
        if np.isinf(gamma):
            huber = g * x
        else:
            huber = np.where(gamma * x >= g, g * x - g * g / (2.0 * gamma), 0.5 * gamma * x * x)
        return (x**p / p + huber) * r - 0.5 * f * x * r * r

    return xi, u, 2.0 * np.pi * float(np.sum(integrals(cells(), density)))


def _interior_operators(mesh, f):
    """The interior columns of ``full_gradient``, the shoelace areas and the
    interior load."""
    interior = ~mesh.boundary_vertex
    areas = np.array([shoelace_area(mesh.vertices[idx]) for idx in mesh.triangles])
    return full_gradient(mesh)[:, interior].tocsr(), areas, full_load(mesh, f)[interior]


def projected_flux(mesh, u, p, g, gamma, f):
    """The regularized flux at u, made to balance the load by one Laplacian solve.

    With z = G u, xi = |z| per triangle and the law's weight
    c = xi^(p-2) (zero where xi <= 1e-14) + g gamma / max(g, gamma xi), the
    gradient of J_gamma is J'(u) = G^T(area c z) - load. Solving K v = J'(u)
    with the Laplacian K = G^T(area G) and setting sigma = c z - G v gives
    G^T(area sigma) = load up to rounding. Returns (sigma, residual): sigma
    stacked like G u, shape (2 nt,), and ||G^T(area sigma) - load|| / ||load||.
    """
    G, areas, load = _interior_operators(mesh, f)
    z = G @ u
    nt = areas.size
    xi = np.hypot(z[:nt], z[nt:])
    c = np.zeros(nt)
    c[xi > 1e-14] = xi[xi > 1e-14] ** (p - 2.0)
    c += g * gamma / np.maximum(g, gamma * xi)
    a, c = np.concatenate([areas, areas]), np.concatenate([c, c])
    laplacian = (G.T @ sp.diags(a) @ G).tocsc()
    v = spla.spsolve(laplacian, G.T @ (a * c * z) - load)
    sigma = c * z - G @ v
    return sigma, float(np.linalg.norm(G.T @ (a * sigma) - load) / np.linalg.norm(load))


def dual_bracket(mesh, u, p, g, gamma, f):
    """(lower, upper) around the minimum of the unregularized discrete
    objective J_inf(u) = sum area (xi^p/p + g xi) - load . u.

    Every flux sigma with G^T(area sigma) = load gives, by Fenchel-Young for
    phi(z) = |z|^p/p + g|z|, whose conjugate is (|s| - g)_+^p'/p' with
    p' = p/(p-1), the lower bound -sum area (|sigma| - g)_+^p'/p' <= min J_inf.
    sigma is ``projected_flux`` at u, and the upper bound is J_inf(u).
    """
    G, areas, load = _interior_operators(mesh, f)
    z, nt = G @ u, areas.size
    xi = np.hypot(z[:nt], z[nt:])
    sigma = projected_flux(mesh, u, p, g, gamma, f)[0]
    q = p / (p - 1.0)
    excess = np.maximum(np.hypot(sigma[:nt], sigma[nt:]) - g, 0.0)
    lower = -float(np.sum(areas * excess**q)) / q
    upper = float(np.sum(areas * (xi**p / p + g * xi)) - load @ u)
    return lower, upper


def gradient_fd(mesh, u, p, g, gamma, f, step=1e-7):
    out = np.empty_like(u)
    for i in range(u.size):
        up = u.copy()
        um = u.copy()
        up[i] += step
        um[i] -= step
        out[i] = (objective(mesh, up, p, g, gamma, f)
                  - objective(mesh, um, p, g, gamma, f)) / (2.0 * step)
    return out


def poisson_square_center(terms=60):
    """u(1/2, 1/2) for -lap u = 1 on the unit square, classical double series."""
    total = 0.0
    for m in range(1, 2 * terms, 2):
        for n in range(1, 2 * terms, 2):
            num = np.sin(m * np.pi / 2.0) * np.sin(n * np.pi / 2.0)
            total += 16.0 / (np.pi**4) * num / (m * n * (m * m + n * n))
    return total


def edge_counts(triangles):
    """Triangles per undirected edge, keyed (low, high), in first-met order."""
    count = {}
    for a, b, c in triangles:
        for e in ((a, b), (b, c), (c, a)):
            key = (min(e), max(e))
            count[key] = count.get(key, 0) + 1
    return count


def boundary_flags(num_vertices, triangles):
    """True for every vertex on an edge that only one triangle has."""
    flags = np.zeros(num_vertices, dtype=bool)
    for (a, b), n in edge_counts(triangles).items():
        if n == 1:
            flags[a] = flags[b] = True
    return flags


def disk_mesh(level):
    """Hexagonal fan refined ``level`` times; new vertices are numbered as
    midpoints are first met, and boundary midpoints go onto the unit circle."""
    angles = np.arange(6) * (np.pi / 3.0)
    verts = [(0.0, 0.0)] + [(np.cos(t), np.sin(t)) for t in angles]
    tris = [(0, 1 + i, 1 + (i + 1) % 6) for i in range(6)]
    for _ in range(level):
        count = edge_counts(tris)
        midpoint = {}

        def mid(a, b):
            key = (min(a, b), max(a, b))
            if key not in midpoint:
                x = 0.5 * (np.asarray(verts[a]) + np.asarray(verts[b]))
                if count[key] == 1:
                    x = x / np.linalg.norm(x)
                midpoint[key] = len(verts)
                verts.append((x[0], x[1]))
            return midpoint[key]

        children = []
        for a, b, c in tris:
            mab, mbc, mca = mid(a, b), mid(b, c), mid(c, a)
            children += [(a, mab, mca), (mab, b, mbc), (mca, mbc, c), (mab, mbc, mca)]
        tris = children
    return np.array(verts), np.array(tris), boundary_flags(len(verts), tris)


def square_mesh(n):
    """n x n cells, row by row from y = 0; each split along its v00-v11 diagonal."""
    xs = np.linspace(0.0, 1.0, n + 1)
    verts = [(x, y) for y in xs for x in xs]
    tris = []
    for j in range(n):
        for i in range(n):
            v00 = j * (n + 1) + i
            v10, v01, v11 = v00 + 1, v00 + n + 1, v00 + n + 2
            tris += [(v00, v10, v11), (v00, v11, v01)]
    return np.array(verts), np.array(tris), boundary_flags(len(verts), tris)


def edge_table(triangles):
    """The mesh edge table as ``np.unique`` with a second argsort built it:
    edges (low, high) by first appearance, each triangle's edge numbers,
    triangles per edge."""
    sides = np.sort(triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    keys = sides[:, 0] * (triangles.max(initial=0) + 1) + sides[:, 1]
    # return_index makes np.unique sort stably, so ``first`` is each key's first side
    _, first, inverse, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = np.arange(order.size)
    return sides[first[order]], number[inverse].reshape(-1, 3), counts[order]


def mesh_geometry(vertices, triangles):
    """Boundary flags, areas, basis gradients and h as ``Mesh`` computes
    them from (nt, 2) corner arrays, for valid float64/int64 input."""
    edges, _, counts = edge_table(triangles)
    boundary_vertex = np.zeros(len(vertices), dtype=bool)
    boundary_vertex[edges[counts == 1]] = True

    p0 = vertices[triangles[:, 0]]
    p1 = vertices[triangles[:, 1]]
    p2 = vertices[triangles[:, 2]]
    # twice the signed area; positive iff counterclockwise
    det = (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1]) - (p2[:, 0] - p0[:, 0]) * (
        p1[:, 1] - p0[:, 1]
    )
    areas = 0.5 * det

    # grad of hat_i is perpendicular to the opposite edge, scaled by 1/(2A)
    g0 = np.column_stack([p1[:, 1] - p2[:, 1], p2[:, 0] - p1[:, 0]]) / det[:, None]
    g1 = np.column_stack([p2[:, 1] - p0[:, 1], p0[:, 0] - p2[:, 0]]) / det[:, None]
    g2 = np.column_stack([p0[:, 1] - p1[:, 1], p1[:, 0] - p0[:, 0]]) / det[:, None]
    basis_gradients = np.stack([g0, g1, g2], axis=1)

    semi = 0.5 * (
        np.linalg.norm(p1 - p0, axis=1)
        + np.linalg.norm(p2 - p1, axis=1)
        + np.linalg.norm(p0 - p2, axis=1)
    )
    h = float(np.max(areas / semi)) if len(areas) else 0.0
    return boundary_vertex, areas, basis_gradients, h


def write_vtk(path, mesh, point_data=None, cell_data=None):
    """Legacy VTK file built as one list of lines and joined at the end."""
    lines = [
        "# vtk DataFile Version 3.0",
        "hbflow solution",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {mesh.num_vertices} double",
    ]
    for x, y in mesh.vertices:
        lines.append(f"{x:.12g} {y:.12g} 0")
    lines.append(f"CELLS {mesh.num_triangles} {4 * mesh.num_triangles}")
    for a, b, c in mesh.triangles:
        lines.append(f"3 {a} {b} {c}")
    lines.append(f"CELL_TYPES {mesh.num_triangles}")
    lines.extend(["5"] * mesh.num_triangles)
    for header, count, fields in (("POINT_DATA", mesh.num_vertices, point_data),
                                  ("CELL_DATA", mesh.num_triangles, cell_data)):
        if not fields:
            continue
        lines.append(f"{header} {count}")
        for name, values in fields.items():
            values = np.asarray(values)
            if np.issubdtype(values.dtype, np.integer) or values.dtype == bool:
                lines += [f"SCALARS {name} int 1", "LOOKUP_TABLE default"]
                lines.extend(str(int(v)) for v in values)
            else:
                lines += [f"SCALARS {name} double 1", "LOOKUP_TABLE default"]
                lines.extend(f"{v:.12g}" for v in values)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def weighted_stiffness(mesh, weights, gradient):
    """G^T diag(w * area, w * area) G as scipy's sparse product, zeros dropped."""
    wm = weights * mesh.areas
    D = sp.diags(np.concatenate([wm, wm]))
    A = (gradient.T @ (D @ gradient)).tocsr()
    A.eliminate_zeros()
    A.sort_indices()
    return A


def discrete_gradient(mesh):
    """The interior discrete gradient G with its exact zeros stored: rows t
    and t + nt hold the same columns, every interior vertex of triangle t."""
    nt = mesh.num_triangles
    tri_cols = mesh.dof_index[mesh.triangles]
    t_idx, local = np.nonzero(tri_cols >= 0)
    cols = tri_cols[t_idx, local]
    gx = mesh.basis_gradients[t_idx, local, 0]
    gy = mesh.basis_gradients[t_idx, local, 1]
    G = sp.coo_matrix((np.concatenate([gx, gy]),
                       (np.concatenate([t_idx, t_idx + nt]), np.concatenate([cols, cols]))),
                      shape=(2 * nt, mesh.num_interior)).tocsr()
    G.sort_indices()
    return G


class StiffnessPattern:
    """The stiffness plan that sums every term of G^T D G, exact zeros too:
    one term matrix whose row r holds the x and the y values G[k, i] of
    entry r's terms, triangles ascending, and whose columns are the x slots
    of G[k, j]. For a G whose rows t and t + nt hold the same at most 3
    columns, such as ``discrete_gradient``'s and ``full_gradient``'s."""

    def __init__(self, gradient):
        n, nt = gradient.shape[1], gradient.shape[0] // 2
        indptr, indices, self.nx = gradient.indptr, gradient.indices, int(gradient.indptr[nt])
        self.lengths = np.diff(indptr[:nt + 1])
        valid = np.arange(3) < self.lengths[:, None]
        valid = valid[:, :, None] & valid[:, None, :]
        t, ab = np.divmod(np.flatnonzero(valid), 9)
        a, b = np.divmod(ab, 3)
        a += indptr[t]
        b += indptr[t]
        keys = indices[a].astype(np.int64) * n + indices[b]
        order = np.argsort(keys, kind="stable")
        self.term_indices = b[order].astype(np.int32)
        a, keys = a[order], keys[order]
        first = np.flatnonzero(np.r_[keys.size > 0, keys[1:] != keys[:-1]])
        self.term_indptr = np.append(first, keys.size).astype(np.int32)
        keys = keys[first]
        self.shape = (n, n)
        self.indices = (keys % n).astype(np.int32)
        self.indptr = np.searchsorted(keys, np.arange(n + 1) * n).astype(np.int32)
        self.gradient_data = gradient.data.reshape(2, -1)
        self.term_data = tuple(half[a] for half in self.gradient_data)

    def values(self, d):
        """Every entry, exact zeros kept: 0 + x terms + y terms."""
        dg = self.gradient_data * np.repeat(d, self.lengths)
        out = np.zeros(self.indices.size)
        for terms, g in zip(self.term_data, dg):
            _sparsetools.csr_matvec(out.size, self.nx, self.term_indptr, self.term_indices,
                                    terms, g, out)
        return out

    def assemble(self, d):
        A = sp.csr_matrix((self.values(d), self.indices.copy(), self.indptr.copy()),
                          shape=self.shape)
        A.eliminate_zeros()
        return A

    def apply(self, d, u):
        """scipy's CSR kernel on every entry, exact zeros too."""
        out = np.zeros(self.shape[0])
        _sparsetools.csr_matvec(out.size, out.size, self.indptr, self.indices, self.values(d),
                                np.ascontiguousarray(u, dtype=np.float64), out)
        return out


def scipy_jacobi_pcg(A, b, tol=1e-10):
    """``solve_spd(A, b, tol)`` without a factor, as it was written on scipy's ``cg``."""
    n = A.shape[0]
    method = "pcg"
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(n), SpdSolveReport(method, 0, 0.0, 0.0)

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

    Ax = A @ x
    rel = float(np.linalg.norm(Ax - b)) / bnorm
    report = SpdSolveReport(method, iterations, rel, float(x @ Ax))
    if not rel <= tol:          # also catches a NaN residual
        raise LinearSolveError(
            f"{method} stalled at relative residual {rel:.3e} (target {tol:.1e})",
            report,
        )
    return x, report


def _quadratic_minimizer(phi0: float, dphi0: float, phi1: float) -> float:
    """Unclamped minimizer of the quadratic through (0, phi0), slope dphi0, (1, phi1)."""
    if np.isinf(phi1):
        return 0.0  # infinitely steep model, clamp will raise this to the floor
    denom = phi1 - phi0 - dphi0
    if denom <= 0.0:
        raise LineSearchError(
            "quadratic model has no interior minimum; Armijo cannot have failed here"
        )
    return -dphi0 / (2.0 * denom)


def quadratic_step(phi0: float, dphi0: float, phi1: float) -> float:
    """First-backtrack step from the quadratic model, clamped to [0.1, 0.5].

    Requires a descent slope dphi0 < 0 and a rejected unit step, i.e.
    phi1 > phi0 + sigma1 * dphi0 for some sigma1 < 1.
    """
    if dphi0 >= 0.0:
        raise LineSearchError(f"not a descent direction: dphi0={dphi0}")
    raw = _quadratic_minimizer(phi0, dphi0, phi1)
    return float(min(max(raw, 0.1), 0.5))


def _cubic_coefficients(
    phi0: float,
    dphi0: float,
    alpha_p: float,
    phi_p: float,
    alpha_2p: float,
    phi_2p: float,
) -> tuple[float, float]:
    """Leading coefficients (c, d) of c a^3 + d a^2 + dphi0 a + phi0
    interpolating the two most recent trials."""
    if alpha_p == alpha_2p:
        raise LineSearchError("cubic model needs distinct trial points")
    r_p = phi_p - phi0 - dphi0 * alpha_p
    r_2p = phi_2p - phi0 - dphi0 * alpha_2p
    s = 1.0 / (alpha_p - alpha_2p)
    c = s * (r_p / alpha_p**2 - r_2p / alpha_2p**2)
    d = s * (-alpha_2p * r_p / alpha_p**2 + alpha_p * r_2p / alpha_2p**2)
    return float(c), float(d)


def _cubic_minimizer(c: float, d: float, dphi0: float) -> float | None:
    """Local minimizer of the cubic, or None when degenerate.

    Degenerate means |c| below 1e-14 (the cubic collapsed to a quadratic),
    a negative discriminant, or non-finite coefficients from overflow in
    the sampled phi values. With sigma1 < 1/4 the discriminant is
    nonnegative for consistent inputs, so these cases are roundoff or
    overflow artifacts and the caller falls back to halving.
    """
    if not (np.isfinite(c) and np.isfinite(d)):
        return None
    if abs(c) < 1e-14:
        return None
    disc = d * d - 3.0 * c * dphi0
    if not disc >= 0.0:     # a NaN from inf - inf is an overflow artifact too
        return None
    raw = (-d + math.sqrt(disc)) / (3.0 * c)
    return None if math.isnan(raw) else raw     # and so is inf / inf


def cubic_step(
    phi0: float,
    dphi0: float,
    alpha_p: float,
    phi_p: float,
    alpha_2p: float,
    phi_2p: float,
) -> float:
    """Later-backtrack step from the cubic model, clamped to
    [0.1 * alpha_p, 0.5 * alpha_p]; falls back to 0.5 * alpha_p when the
    model is degenerate."""
    if dphi0 >= 0.0:
        raise LineSearchError(f"not a descent direction: dphi0={dphi0}")
    c, d = _cubic_coefficients(phi0, dphi0, alpha_p, phi_p, alpha_2p, phi_2p)
    raw = _cubic_minimizer(c, d, dphi0)
    if raw is None:
        return 0.5 * alpha_p
    return float(min(max(raw, 0.1 * alpha_p), 0.5 * alpha_p))
