"""Triangulations of the unit square and the unit disk for P1 finite elements.

Everything downstream sees meshes only through the :class:`Mesh` container:
vertex coordinates, counterclockwise triangle connectivity, boundary flags,
and per-triangle geometry (areas and P1 basis gradients). Mesh resolution is
measured by ``h``, the largest inscribed-circle radius over all triangles,
which for a triangle equals area divided by semiperimeter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


class MeshError(ValueError):
    """Invalid construction arguments or a broken triangulation."""


@dataclass(eq=False)
class Mesh:
    """Planar conforming triangulation with P1 metadata.

    Instances are immutable after construction (all arrays are marked
    read-only), so a mesh can be shared freely between solver runs.

    Attributes
    ----------
    vertices : ndarray, shape (nv, 2)
        Vertex coordinates.
    triangles : ndarray, shape (nt, 3)
        Vertex indices per triangle, counterclockwise.
    boundary_vertex : ndarray of bool, shape (nv,)
        True for vertices on the domain boundary (where Dirichlet data
        lives).
    areas : ndarray, shape (nt,)
        Triangle areas, all positive.
    basis_gradients : ndarray, shape (nt, 3, 2)
        Gradient of the P1 hat function of each local vertex, constant per
        triangle.
    h : float
        Largest inscribed-circle radius over the mesh.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_vertex: np.ndarray
    areas: np.ndarray
    basis_gradients: np.ndarray
    h: float

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    @cached_property
    def interior_indices(self) -> np.ndarray:
        """Indices of non-boundary vertices, in ascending order."""
        idx = np.flatnonzero(~self.boundary_vertex)
        idx.setflags(write=False)
        return idx

    @cached_property
    def dof_index(self) -> np.ndarray:
        """Vertex index -> unknown index, -1 for boundary vertices."""
        dof = np.full(self.num_vertices, -1, dtype=np.int64)
        dof[self.interior_indices] = np.arange(self.interior_indices.size)
        dof.setflags(write=False)
        return dof

    @property
    def num_interior(self) -> int:
        return int(self.interior_indices.size)


def _boundary_edges(triangles: np.ndarray) -> set[tuple[int, int]]:
    """Edges that belong to exactly one triangle."""
    count: dict[tuple[int, int], int] = {}
    for a, b, c in triangles:
        for e in ((a, b), (b, c), (c, a)):
            key = (min(e), max(e))
            count[key] = count.get(key, 0) + 1
    return {e for e, n in count.items() if n == 1}


def make_mesh(vertices: np.ndarray, triangles: np.ndarray) -> Mesh:
    """Assemble a :class:`Mesh` from raw arrays.

    Boundary vertices are detected topologically: a vertex is a boundary
    vertex when it lies on an edge shared by exactly one triangle.

    Raises
    ------
    MeshError
        If any triangle has non-positive area (wrong orientation or
        degenerate geometry) or the arrays have inconsistent shapes.
    """
    vertices = np.ascontiguousarray(vertices, dtype=np.float64)
    triangles = np.ascontiguousarray(triangles, dtype=np.int64)
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise MeshError(f"vertices must have shape (nv, 2), got {vertices.shape}")
    if triangles.ndim != 2 or triangles.shape[1] != 3:
        raise MeshError(f"triangles must have shape (nt, 3), got {triangles.shape}")
    if triangles.size and (triangles.min() < 0 or triangles.max() >= len(vertices)):
        raise MeshError("triangle index out of range")

    p0 = vertices[triangles[:, 0]]
    p1 = vertices[triangles[:, 1]]
    p2 = vertices[triangles[:, 2]]
    # twice the signed area; positive iff counterclockwise
    det = (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1]) - (p2[:, 0] - p0[:, 0]) * (
        p1[:, 1] - p0[:, 1]
    )
    if np.any(det <= 0.0):
        bad = int(np.argmin(det))
        raise MeshError(f"triangle {bad} has non-positive area (det={det[bad]:g})")
    areas = 0.5 * det

    # grad of hat_i is perpendicular to the opposite edge, scaled by 1/(2A)
    g0 = np.column_stack([p1[:, 1] - p2[:, 1], p2[:, 0] - p1[:, 0]]) / det[:, None]
    g1 = np.column_stack([p2[:, 1] - p0[:, 1], p0[:, 0] - p2[:, 0]]) / det[:, None]
    g2 = np.column_stack([p0[:, 1] - p1[:, 1], p1[:, 0] - p0[:, 0]]) / det[:, None]
    basis_gradients = np.stack([g0, g1, g2], axis=1)

    boundary_vertex = np.zeros(len(vertices), dtype=bool)
    for a, b in _boundary_edges(triangles):
        boundary_vertex[a] = True
        boundary_vertex[b] = True

    semi = 0.5 * (
        np.linalg.norm(p1 - p0, axis=1)
        + np.linalg.norm(p2 - p1, axis=1)
        + np.linalg.norm(p0 - p2, axis=1)
    )
    h = float(np.max(areas / semi)) if len(areas) else 0.0

    for arr in (vertices, triangles, boundary_vertex, areas, basis_gradients):
        arr.setflags(write=False)
    return Mesh(vertices, triangles, boundary_vertex, areas, basis_gradients, h)


def build_unit_square_mesh(n: int) -> Mesh:
    """Criss-cross triangulation of the unit square with n x n cells.

    Each of the n^2 grid cells is split along the same diagonal into two
    right triangles, giving 2 n^2 triangles and (n+1)^2 vertices. The mesh
    parameter is h = (2 - sqrt(2)) / (2 n), so refining n -> 2n halves h
    exactly.

    Parameters
    ----------
    n : int
        Number of cells per side, at least 1.
    """
    if n < 1:
        raise MeshError(f"n must be >= 1, got {n}")
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    tris = np.empty((2 * n * n, 3), dtype=np.int64)
    k = 0
    for j in range(n):
        for i in range(n):
            v00 = j * (n + 1) + i
            v10 = v00 + 1
            v01 = v00 + (n + 1)
            v11 = v01 + 1
            tris[k] = (v00, v10, v11)
            tris[k + 1] = (v00, v11, v01)
            k += 2
    return make_mesh(vertices, tris)


def _refine(vertices: np.ndarray, triangles: np.ndarray, project_boundary: bool):
    """One uniform refinement: each triangle into four via edge midpoints.

    Midpoints of boundary edges (edges on exactly one triangle) are pushed
    onto the unit circle when ``project_boundary`` is set.
    """
    boundary = _boundary_edges(triangles)
    verts = list(map(tuple, vertices))
    midpoint: dict[tuple[int, int], int] = {}

    def mid(a: int, b: int) -> int:
        key = (min(a, b), max(a, b))
        idx = midpoint.get(key)
        if idx is None:
            x = 0.5 * (np.asarray(verts[a]) + np.asarray(verts[b]))
            if project_boundary and key in boundary:
                x = x / np.linalg.norm(x)
            idx = len(verts)
            verts.append((float(x[0]), float(x[1])))
            midpoint[key] = idx
        return idx

    out = np.empty((4 * len(triangles), 3), dtype=np.int64)
    k = 0
    for a, b, c in triangles:
        mab, mbc, mca = mid(a, b), mid(b, c), mid(c, a)
        out[k] = (a, mab, mca)
        out[k + 1] = (mab, b, mbc)
        out[k + 2] = (mca, mbc, c)
        out[k + 3] = (mab, mbc, mca)
        k += 4
    return np.asarray(verts, dtype=np.float64), out


def build_unit_disk_mesh(level: int) -> Mesh:
    """Hexagonal-fan triangulation of the unit disk, uniformly refined.

    Level 0 is a fan of six equilateral triangles around the origin with rim
    vertices on the unit circle. Each refinement splits every triangle into
    four and projects new boundary-edge midpoints onto |x| = 1, so the mesh
    stays inscribed in the disk. Level ``level`` has 6 * 4**level triangles.

    Parameters
    ----------
    level : int
        Number of refinements, at least 0.
    """
    if level < 0:
        raise MeshError(f"level must be >= 0, got {level}")
    angles = np.arange(6) * (np.pi / 3.0)
    vertices = np.vstack([[0.0, 0.0], np.column_stack([np.cos(angles), np.sin(angles)])])
    triangles = np.array([[0, 1 + i, 1 + (i + 1) % 6] for i in range(6)], dtype=np.int64)
    for _ in range(level):
        vertices, triangles = _refine(vertices, triangles, project_boundary=True)
    return make_mesh(vertices, triangles)
