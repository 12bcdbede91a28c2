"""Triangulations of the unit square and the unit disk for P1 finite elements.

Everything downstream sees meshes only through the :class:`Mesh` container:
vertex coordinates, counterclockwise triangle connectivity, boundary flags,
and per-triangle geometry (areas and P1 basis gradients). ``Mesh(vertices,
triangles)`` is its one constructor, which checks the inputs and computes
the rest, and a mesh is frozen after it. What the solver builds once per
mesh (G, the stiffness plan, the p >= 2 Laplacian and its factor) is kept in
the mesh's private memo, so it lives as long as the mesh and no module sets
attributes on a mesh. Mesh resolution is measured by ``h``, the largest
inscribed-circle radius over all triangles, which for a triangle equals area
divided by semiperimeter. Boundary flags and disk refinement both read edges
and their triangle counts from ``_edges``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class MeshError(ValueError):
    """Invalid construction arguments or a broken triangulation."""


# A stiffness plan (``hbflow.assembly``) indexes the 9 terms of each triangle
# with int32, so 9 nt < 2**31: a bigger mesh would get a silently wrong plan.
MAX_TRIANGLES = (2**31 - 1) // 9


@dataclass(frozen=True, eq=False)
class Mesh:
    """Planar conforming triangulation with P1 metadata.

    ``Mesh(vertices, triangles)`` is the one way to make a mesh. It checks
    its inputs, copies them, and computes the rest from them: boundary
    vertices are detected topologically, as the vertices of edges shared by
    exactly one triangle. A mesh never changes after that: it is frozen, so
    assigning a field raises ``dataclasses.FrozenInstanceError``, and all its
    arrays are read-only. It owns copies of its inputs, so the caller's
    arrays stay writable and editing them changes no mesh.
    ``dataclasses.replace`` builds a new mesh from the new inputs. A mesh can
    be shared freely between solver runs, which share what its private memo
    keeps for its life: the discrete gradient G, the stiffness plan
    (``hbflow.assembly``), and, for p >= 2, the Laplacian and its LU factor
    (``hbflow.solver``).

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

    Raises
    ------
    MeshError
        If either input is ragged, a vertex coordinate is not a finite
        number, a triangle index is not an integer, there are more than
        ``MAX_TRIANGLES`` triangles, a vertex is on no triangle, any
        triangle has non-positive area (wrong orientation or degenerate
        geometry), an edge lies on more than two triangles or has two on one
        side (a fold or a repeated triangle), or the arrays have
        inconsistent shapes.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_vertex: np.ndarray = field(init=False)
    areas: np.ndarray = field(init=False)
    basis_gradients: np.ndarray = field(init=False)
    h: float = field(init=False)

    def __post_init__(self):
        coords = _rectangular(self.vertices, "vertices")
        indices = _rectangular(self.triangles, "triangles")
        if coords.dtype.kind not in "biuf":
            raise MeshError(f"vertex coordinates must be numbers, got dtype {coords.dtype}")
        vertices = np.array(coords, dtype=np.float64, order="C", copy=True)   # the mesh's own
        if indices.dtype.kind not in "biuf":
            raise MeshError(f"triangle indices must be integers, got dtype {indices.dtype}")
        with np.errstate(invalid="ignore"):     # NaN, inf and huge values fail the test below
            triangles = np.array(indices, dtype=np.int64, order="C", copy=True)
        changed = triangles != indices
        if np.any(changed):
            raise MeshError(f"triangle index {indices.flat[np.argmax(changed)]} is not an int64")
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise MeshError(f"vertices must have shape (nv, 2), got {vertices.shape}")
        if not np.isfinite(vertices).all():
            bad = int(np.argmin(np.isfinite(vertices).all(axis=1)))
            raise MeshError(f"vertex {bad} is not finite: {tuple(vertices[bad].tolist())}")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise MeshError(f"triangles must have shape (nt, 3), got {triangles.shape}")
        if len(triangles) > MAX_TRIANGLES:
            raise MeshError(f"a mesh has at most {MAX_TRIANGLES} triangles, "
                            f"got {len(triangles)}")
        if triangles.size and (triangles.min() < 0 or triangles.max() >= len(vertices)):
            raise MeshError("triangle index out of range")

        # the edge table is freed before the geometry arrays exist, so the two
        # never share one peak and leave fewer holes in the allocator's heap
        edges, side_edge, counts = _edges(triangles)
        if np.any(counts > 2):
            bad = int(np.argmax(counts))
            raise MeshError(f"edge {tuple(edges[bad].tolist())} lies on {counts[bad]} triangles")
        # triangles on the two sides of an edge run it both ways: their sides start at its two ends
        starts = np.bincount(side_edge.ravel(), weights=triangles.ravel(), minlength=len(counts))
        one_side = (counts == 2) & (starts != edges[:, 0] + edges[:, 1])
        if np.any(one_side):
            bad = int(np.argmax(one_side))
            raise MeshError(f"edge {tuple(edges[bad].tolist())} has both its triangles on one side")
        used = np.zeros(len(vertices), dtype=bool)
        used[edges] = True
        if not used.all():      # it would be an unknown that no triangle couples to any other
            raise MeshError(f"vertex {int(np.argmin(used))} is on no triangle")
        boundary_vertex = np.zeros(len(vertices), dtype=bool)
        boundary_vertex[edges[counts == 1]] = True
        del edges, side_edge, counts, starts, one_side, used

        x0, x1, x2 = vertices[:, 0][triangles.T]
        y0, y1, y2 = vertices[:, 1][triangles.T]
        # twice the signed area; positive iff counterclockwise
        det = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
        if np.any(det <= 0.0):
            bad = int(np.argmin(det))
            raise MeshError(f"triangle {bad} has non-positive area (det={det[bad]:g})")
        areas = 0.5 * det

        # grad of hat_i is perpendicular to the opposite edge, scaled by 1/(2A)
        basis_gradients = np.stack(
            [y1 - y2, x2 - x1, y2 - y0, x0 - x2, y0 - y1, x1 - x0], axis=1
        ).reshape(-1, 3, 2) / det[:, None, None]

        # each side's length rounds as np.linalg.norm(axis=1) of its (dx, dy) row
        semi = 0.5 * (
            np.sqrt((x1 - x0) * (x1 - x0) + (y1 - y0) * (y1 - y0))
            + np.sqrt((x2 - x1) * (x2 - x1) + (y2 - y1) * (y2 - y1))
            + np.sqrt((x0 - x2) * (x0 - x2) + (y0 - y2) * (y0 - y2))
        )
        h = float(np.max(areas / semi)) if len(areas) else 0.0

        for arr in (vertices, triangles, boundary_vertex, areas, basis_gradients):
            arr.setflags(write=False)
        self.__dict__.update(vertices=vertices, triangles=triangles,
                             boundary_vertex=boundary_vertex, areas=areas,
                             basis_gradients=basis_gradients, h=h)

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

    def _memo(self, name: str, build):
        """``build()`` on the first call for ``name``, and that same value on
        every later call: it is kept in the instance ``__dict__``, as a
        ``cached_property`` value is, and lives as long as the mesh."""
        kept = self.__dict__
        if name not in kept:
            kept[name] = build()
        return kept[name]


def _edges(triangles: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge table: the unique undirected edges (low, high), numbered as first
    met along each triangle's sides ab, bc, ca (this order numbers refined
    vertices); each triangle's three edge numbers; triangles per edge.

    One stable argsort of the side keys groups equal sides with the earliest
    side first, so each group's first side is the edge's first appearance.
    """
    ends = triangles[:, [1, 2, 0]]
    low = np.minimum(triangles, ends).ravel()
    high = np.maximum(triangles, ends).ravel()
    keys = low * (triangles.max(initial=0) + 1) + high
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    start = np.ones(keys.size, dtype=bool)      # sorted position that opens an edge
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=start[1:])
    heads = order[start]                        # each edge's first side, in key order
    first = np.zeros(keys.size, dtype=bool)
    first[heads] = True
    number = np.cumsum(first)[heads] - 1        # edge numbers, in key order
    sizes = np.diff(np.flatnonzero(start), append=keys.size)
    side_edge = np.empty_like(order)
    side_edge[order] = np.repeat(number, sizes)
    counts = np.empty_like(sizes)
    counts[number] = sizes
    return np.column_stack([low[first], high[first]]), side_edge.reshape(-1, 3), counts


def _rectangular(values, name: str) -> np.ndarray:
    try:
        return np.asarray(values)
    except ValueError:      # numpy's inhomogeneous-shape error
        raise MeshError(f"{name} must be a rectangular array, not a ragged list") from None


def _size(value, name: str, least: int, most: int) -> int:
    """``value`` as an int, if it is an integer (not a bool) in [least, most]."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise MeshError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise MeshError(f"{name} must be >= {least}, got {value}")
    if value > most:
        raise MeshError(f"{name} must be <= {most}, got {value}: "
                        f"a mesh has at most {MAX_TRIANGLES} triangles")
    return int(value)


def build_unit_square_mesh(n: int) -> Mesh:
    """Triangulation of the unit square with n x n cells, all cut the same way.

    Each of the n^2 grid cells is split along the same diagonal into two
    right triangles, giving 2 n^2 triangles and (n+1)^2 vertices. The mesh
    parameter is h = (2 - sqrt(2)) / (2 n), so refining n -> 2n halves h
    exactly.

    Parameters
    ----------
    n : int
        Number of cells per side, at least 1, and at most the largest n
        whose 2 n^2 triangles fit ``MAX_TRIANGLES`` (10922). A size that is
        not an integer (a bool, a float, text) or out of range raises
        :class:`MeshError`.
    """
    n = _size(n, "n", 1, math.isqrt(MAX_TRIANGLES // 2))
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    # cell (i, j) has lower-left vertex v00 and is split along v00-v11
    v00 = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    v11 = v00 + (n + 2)
    tris = np.column_stack([v00, v00 + 1, v11, v00, v11, v00 + (n + 1)]).reshape(-1, 3)
    return Mesh(vertices, tris)


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
        Number of refinements, at least 0, and at most the largest level
        whose 6 * 4**level triangles fit ``MAX_TRIANGLES`` (12). A size that
        is not an integer (a bool, a float, text) or out of range raises
        :class:`MeshError`.
    """
    # 6 * 4**level <= MAX_TRIANGLES, solved for level without a power of 4
    level = _size(level, "level", 0, ((MAX_TRIANGLES // 6).bit_length() - 1) // 2)
    angles = np.arange(6) * (np.pi / 3.0)
    vertices = np.vstack([[0.0, 0.0], np.column_stack([np.cos(angles), np.sin(angles)])])
    rim = np.arange(1, 7)
    triangles = np.column_stack([np.zeros(6, dtype=np.int64), rim, rim % 6 + 1])
    for _ in range(level):
        vertices, triangles = _refine(vertices, triangles)
    return Mesh(vertices, triangles)
