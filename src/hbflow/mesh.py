"""Triangulations of the unit square and the unit disk for P1 finite elements.

Everything downstream sees meshes only through the :class:`Mesh` container:
vertex coordinates, counterclockwise triangle connectivity, boundary flags,
and per-triangle geometry (areas and P1 basis gradients). Mesh resolution is
measured by ``h``, the largest inscribed-circle radius over all triangles,
which for a triangle equals area divided by semiperimeter. Boundary flags and
disk refinement both read edges and their triangle counts from ``_edges``.
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


def _edges(triangles: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge table: the unique undirected edges (low, high), numbered as first
    met along each triangle's sides ab, bc, ca (this order numbers refined
    vertices); each triangle's three edge numbers; triangles per edge.
    """
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

    # the edge table is freed before the geometry arrays exist, so the two
    # never share one peak and leave fewer holes in the allocator's heap
    edges, _, counts = _edges(triangles)
    boundary_vertex = np.zeros(len(vertices), dtype=bool)
    boundary_vertex[edges[counts == 1]] = True
    del edges, _, counts

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
    """Triangulation of the unit square with n x n cells, all cut the same way.

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

    # cell (i, j) has lower-left vertex v00 and is split along v00-v11
    v00 = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    v11 = v00 + (n + 2)
    tris = np.column_stack([v00, v00 + 1, v11, v00, v11, v00 + (n + 1)]).reshape(-1, 3)
    return make_mesh(vertices, tris)


def _refine(vertices: np.ndarray, triangles: np.ndarray):
    """One uniform refinement: each triangle into four via edge midpoints.

    Midpoints are appended in edge order; those of boundary edges (edges on
    exactly one triangle) are pushed onto the unit circle.
    """
    edges, triangle_edges, counts = _edges(triangles)
    mid = 0.5 * (vertices[edges[:, 0]] + vertices[edges[:, 1]])
    on_rim = counts == 1
    rim = mid[on_rim]
    # the row-wise dot rounds like np.linalg.norm of each row; the
    # axis=1 norm, hypot and einsum differ from it in the last bit
    mid[on_rim] = rim / np.sqrt(rim[:, None, :] @ rim[:, :, None])[:, 0]

    a, b, c = triangles.T
    mab, mbc, mca = (len(vertices) + triangle_edges).T
    children = np.stack(
        [a, mab, mca, mab, b, mbc, mca, mbc, c, mab, mbc, mca], axis=1
    ).reshape(-1, 3)
    return np.vstack([vertices, mid]), children


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
    rim = np.arange(1, 7)
    triangles = np.column_stack([np.zeros(6, dtype=np.int64), rim, rim % 6 + 1])
    for _ in range(level):
        vertices, triangles = _refine(vertices, triangles)
    return make_mesh(vertices, triangles)
