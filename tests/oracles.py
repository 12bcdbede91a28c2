"""Brute-force reference implementations used to cross-check the package.

Everything here is written against the mathematical definitions with no
shared code paths: meshes vertex by vertex with edges counted in a dict,
areas via the shoelace formula, per-triangle gradients via an explicit plane
fit through the three vertex values, the objective as a plain Python loop
over triangles, and gradients by central differences of that loop. Slow on
purpose; only ever run on tiny meshes.

Three oracles keep an earlier implementation instead, for bit-for-bit and
byte-for-byte comparison: the weighted stiffness as scipy's sparse product
G^T D G, the VTK writer that joins the whole file in memory, and the
Jacobi-PCG solve through scipy's ``cg``.
"""

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hbflow.linalg import LinearSolveError, SpdSolveReport


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


def scipy_jacobi_pcg(A, b, tol=1e-10):
    """``solve_spd(A, b, tol)`` without a factor, as it was written on scipy's ``cg``."""
    n = A.shape[0]
    method = "pcg"
    t0 = time.perf_counter()
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(n), SpdSolveReport(method, 0, 0.0, time.perf_counter() - t0)

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
