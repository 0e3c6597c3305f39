"""Structured tetrahedral meshes of boxes, with unique edge enumeration.

Every axis-aligned cell of a structured grid is split into the six
tetrahedra that share the cell's main body diagonal (Kuhn subdivision).
All cells use the same diagonal, so the faces of neighbouring cells are
triangulated identically and the mesh is conforming.  Vertex numbering
is z-major lexicographic and edge numbering is lexicographic in
(low, high) vertex pairs, which makes regeneration bit-identical.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import InvalidParameter

__all__ = [
    "Mesh",
    "TET_EDGES",
    "FACE_EDGES",
    "generate_unit_cube_mesh",
    "generate_channel_mesh",
    "tag_boundary",
    "tet_volumes",
]


#: Local edges (a, b) of a tetrahedron, ordered to match the six quadratic
#: bubbles 4*lam_a*lam_b of the hierarchical basis.
TET_EDGES = ((0, 1), (1, 2), (2, 3), (0, 2), (0, 3), (1, 3))

#: Local edges of a boundary triangle (same convention as TET_EDGES).
FACE_EDGES = ((0, 1), (1, 2), (0, 2))

_FACE_LOCAL = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))

#: The six tetrahedra of a cell's Kuhn split as corner steps (dx, dy, dz)
#: from its lowest corner: each climbs to the opposite corner one axis at
#: a time, its vertices ordered for positive volume.
_KUHN_TETS = np.array([
    [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)],
    [(0, 0, 0), (1, 0, 0), (1, 1, 1), (1, 0, 1)],
    [(0, 0, 0), (0, 1, 0), (1, 1, 1), (1, 1, 0)],
    [(0, 0, 0), (0, 1, 0), (0, 1, 1), (1, 1, 1)],
    [(0, 0, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1)],
    [(0, 0, 0), (0, 0, 1), (1, 1, 1), (0, 1, 1)],
])


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Mesh:
    """Immutable tetrahedral mesh with globally deduplicated edges.

    Attributes
    ----------
    vertices : (nv, 3) float array
    tets : (nt, 4) int array
        Vertex indices, positively oriented.
    edges : (ne, 2) int array
        Unique edges, each row sorted ascending, rows lexicographically
        sorted.
    tet_edges : (nt, 6) int array
        Global edge index of each local edge, in ``TET_EDGES`` order.
    boundary_faces : (nb, 3) int array
        Boundary triangles, each row sorted ascending, rows
        lexicographically sorted.
    dirichlet_vertices, dirichlet_edges : bool arrays or None
        Which vertices and edges carry Dirichlet data, filled in by
        :func:`tag_boundary`.
    """

    vertices: np.ndarray
    tets: np.ndarray
    edges: np.ndarray
    tet_edges: np.ndarray
    boundary_faces: np.ndarray
    dirichlet_vertices: np.ndarray | None = None
    dirichlet_edges: np.ndarray | None = None

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def n_tets(self) -> int:
        return self.tets.shape[0]


def _structured_box(nx, ny, nz, lx, ly, lz) -> Mesh:
    nvx, nvy, nvz = nx + 1, ny + 1, nz + 1
    gx, gy, gz = np.meshgrid(
        np.linspace(0.0, lx, nvx),
        np.linspace(0.0, ly, nvy),
        np.linspace(0.0, lz, nvz),
        indexing="ij",
    )
    # vertex id = i + nvx*(j + nvy*k): x fastest, z slowest
    vertices = np.stack(
        [gx.ravel(order="F"), gy.ravel(order="F"), gz.ravel(order="F")], axis=1
    )

    ci, cj, ck = np.meshgrid(
        np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"
    )
    base = (ci + nvx * (cj + nvy * ck)).ravel(order="F")

    offsets = _KUHN_TETS @ np.array([1, nvx, nvx * nvy])
    tets = (base[:, None, None] + offsets).reshape(-1, 4)

    # unique edges, lexicographically ordered
    nv = vertices.shape[0]
    pairs = np.sort(tets[:, np.array(TET_EDGES)].reshape(-1, 2), axis=1)
    keys = pairs[:, 0].astype(np.int64) * nv + pairs[:, 1]
    unique_keys = np.unique(keys)
    edges = np.stack(divmod(unique_keys, nv), axis=1).astype(np.int64)
    tet_edges = np.searchsorted(unique_keys, keys).reshape(-1, 6)

    boundary_faces = _boundary_faces(tets, nv)

    mesh = Mesh(
        vertices=_read_only(vertices),
        tets=_read_only(tets.astype(np.int64)),
        edges=_read_only(edges),
        tet_edges=_read_only(tet_edges.astype(np.int64)),
        boundary_faces=_read_only(boundary_faces),
    )
    if np.min(tet_volumes(mesh)) <= 0.0:
        raise InvalidParameter("generator produced a non-positive tet volume")
    return mesh


def _boundary_faces(tets, nv) -> np.ndarray:
    faces = np.sort(tets[:, np.array(_FACE_LOCAL)].reshape(-1, 3), axis=1)
    keys = (faces[:, 0].astype(np.int64) * nv + faces[:, 1]) * nv + faces[:, 2]
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    if np.any(counts > 2):
        raise InvalidParameter("a face is shared by more than two tets")
    return faces[first[counts == 1]]


def generate_unit_cube_mesh(n: int) -> Mesh:
    """Mesh the unit cube with ``n`` subdivisions per axis.

    Produces ``(n+1)**3`` vertices and ``6*n**3`` positively oriented
    tetrahedra.

    Raises
    ------
    InvalidParameter
        If ``n < 1``.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidParameter(f"subdivision count must be a positive integer, got {n!r}")
    return _structured_box(n, n, n, 1.0, 1.0, 1.0)


def generate_channel_mesh(nx: int, ny: int, nz: int, lx: float, ly: float, lz: float) -> Mesh:
    """Mesh the box channel [0,lx] x [0,ly] x [0,lz].

    The inflow facet sits at x=0 and the outflow facet at x=lx; the
    subdivision scheme is the same Kuhn split as for the unit cube,
    scaled anisotropically.
    """
    for name, v in (("nx", nx), ("ny", ny), ("nz", nz)):
        if not isinstance(v, (int, np.integer)) or v < 1:
            raise InvalidParameter(f"{name} must be a positive integer, got {v!r}")
    for name, v in (("lx", lx), ("ly", ly), ("lz", lz)):
        if not v > 0.0:
            raise InvalidParameter(f"{name} must be positive, got {v!r}")
    return _structured_box(nx, ny, nz, float(lx), float(ly), float(lz))


def tet_volumes(mesh: Mesh) -> np.ndarray:
    """Signed volume of every tetrahedron."""
    x = mesh.vertices[mesh.tets]
    t = x[:, 1:] - x[:, :1]
    return np.linalg.det(t) / 6.0


def tag_boundary(mesh: Mesh, dirichlet: Callable[[np.ndarray], np.ndarray]) -> Mesh:
    """Return a copy of ``mesh`` with its Dirichlet vertices and edges marked.

    ``dirichlet`` maps the ``(n, 3)`` vertex array to a boolean ``(n,)``
    array; another shape raises :class:`InvalidParameter`.  A boundary
    face is Dirichlet iff all three of its vertices are; a vertex is
    Dirichlet iff it lies on a Dirichlet face, and an edge iff some
    Dirichlet face contains both its endpoints.
    """
    on = np.asarray(dirichlet(mesh.vertices), dtype=bool)
    if on.shape != (mesh.n_vertices,):
        raise InvalidParameter(f"predicate of shape {on.shape} for {mesh.n_vertices} vertices")
    faces = mesh.boundary_faces[on[mesh.boundary_faces].all(axis=1)]
    vertices = np.zeros(mesh.n_vertices, dtype=bool)
    vertices[faces] = True

    # a face's rows ascend, so its edges are (low, high) pairs
    nv = mesh.n_vertices
    edge_keys = mesh.edges[:, 0].astype(np.int64) * nv + mesh.edges[:, 1]
    fe = faces[:, np.array(FACE_EDGES)].reshape(-1, 2)
    edges = np.zeros(mesh.n_edges, dtype=bool)
    edges[np.searchsorted(edge_keys, fe[:, 0].astype(np.int64) * nv + fe[:, 1])] = True

    return replace(
        mesh,
        dirichlet_vertices=_read_only(vertices),
        dirichlet_edges=_read_only(edges),
    )
