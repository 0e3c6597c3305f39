"""Assembly of the four model problems with the hierarchical basis.

Velocity/displacement fields are discretized with the ten scalar basis
functions per tetrahedron (four hats, six edge bubbles), three
components per node.  Pressure uses the linear hats on all vertices.
Dirichlet degrees of freedom are eliminated: the boundary data is
interpolated hierarchically (vertex values plus bubble corrections),
its stiffness contribution is moved to the right-hand side, and the
corresponding rows and columns are removed from the system.

Each assembled system is one monolithic CSR operator, stored once,
plus the :class:`BlockLayout` that splits its unknowns into linear
velocity nodes, quadratic velocity nodes and pressure; the saddle
kinds add the divergence coupling and, for mixed elasticity, the
pressure mass block.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable

import numpy as np
import scipy.io
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import basis as basis_mod
from .errors import DegenerateElement, InvalidParameter, MissingTags
from .mesh import FACE_EDGES, BoundaryTag, Mesh
from .sparse_core import BlockLayout

__all__ = [
    "ProblemKind",
    "ProblemSpec",
    "BlockSystem",
    "element_matrices",
    "assemble",
    "manufactured_solution_residual",
    "export_matrix_market",
]

VectorField = Callable[[np.ndarray], np.ndarray]

_CHUNK = 8192


class ProblemKind(Enum):
    VECTOR_LAPLACE = "vector_laplace"
    ELASTICITY_DISPLACEMENT = "elasticity_displacement"
    ELASTICITY_MIXED = "elasticity_mixed"
    STOKES = "stokes"


_SADDLE_KINDS = (ProblemKind.ELASTICITY_MIXED, ProblemKind.STOKES)


def _zero_field(x: np.ndarray) -> np.ndarray:
    return np.zeros(3)


@dataclass(frozen=True)
class ProblemSpec:
    """Problem kind, material parameters, and boundary data.

    ``mu`` is the shear modulus (viscosity for Stokes); ``lam`` is the
    Lame constant, unused for the vector Laplacian and Stokes.
    ``g_dirichlet`` and ``g_neumann`` map a coordinate to a 3-vector
    (prescribed value, respectively traction); ``None`` means zero.
    """

    kind: ProblemKind
    mu: float = 1.0
    lam: float = 1.0
    g_dirichlet: VectorField | None = None
    g_neumann: VectorField | None = None

    def __post_init__(self):
        if not self.mu > 0.0:
            raise InvalidParameter(f"mu must be positive, got {self.mu}")
        if self.kind in (
            ProblemKind.ELASTICITY_DISPLACEMENT,
            ProblemKind.ELASTICITY_MIXED,
        ):
            if not self.lam > 0.0:
                raise InvalidParameter(f"lam must be positive, got {self.lam}")

    @property
    def is_saddle(self) -> bool:
        return self.kind in _SADDLE_KINDS

    @property
    def has_pressure_mass(self) -> bool:
        return self.kind is ProblemKind.ELASTICITY_MIXED

    def dirichlet_value(self, x: np.ndarray) -> np.ndarray:
        g = self.g_dirichlet or _zero_field
        return np.asarray(g(x), dtype=float)


# ---------------------------------------------------------------------------
# element kernels


def _element_geometry(coords: np.ndarray):
    """Jacobian determinant (6V) and hat gradients of a batch of tets."""
    t = coords[:, 1:] - coords[:, :1]
    det = np.linalg.det(t)
    extent = np.max(np.abs(t), axis=(1, 2))
    if np.any(det <= 1e-14 * extent**3):
        raise DegenerateElement("tetrahedron with non-positive volume")
    tinv = np.linalg.inv(t)
    grad = np.empty((coords.shape[0], 4, 3))
    grad[:, 1:] = np.transpose(tinv, (0, 2, 1))
    grad[:, 0] = -grad[:, 1:].sum(axis=1)
    return det, grad


def _stiffness_parts(coords: np.ndarray):
    """Per-element integrals feeding every bilinear form.

    Returns ``m1[e,i,j] = int grad(phi_i) . grad(phi_j)``,
    ``e_cd[c,d,e,i,j] = int d_c(phi_i) d_d(phi_j)``,
    ``bvec[c,e,i,j] = -int lam_i d_c(phi_j)`` (pressure hat i) and
    ``pmass[e,i,j] = int lam_i lam_j``.
    """
    rule = basis_mod.reference_basis()
    det, grad = _element_geometry(coords)
    vol = det / 6.0
    m = coords.shape[0]

    m1 = np.zeros((m, 10, 10))
    ecd = np.zeros((3, 3, m, 10, 10))
    bvec = np.zeros((3, m, 4, 10))
    pmass = np.zeros((m, 4, 4))

    for q, w in zip(rule.points, rule.weights):
        g = basis_mod.shape_gradients(q, grad)  # (m, 10, 3)
        wv = w * vol
        m1 += wv[:, None, None] * np.einsum("eic,ejc->eij", g, g)
        for c in range(3):
            for d in range(3):
                ecd[c, d] += wv[:, None, None] * np.einsum(
                    "ei,ej->eij", g[:, :, c], g[:, :, d]
                )
            bvec[c] -= wv[:, None, None] * (q[:4][None, :, None] * g[:, None, :, c])
        pmass += wv[:, None, None] * np.outer(q[:4], q[:4])[None]
    return vol, m1, ecd, bvec, pmass


def _a_block_coefficient(spec: ProblemSpec, c: int, d: int, m1, ecd):
    """Element coefficient of the a-form coupling component c to d.

    Entry (i, j) multiplies trial dof (node j, component c) against test
    dof (node i, component d); ``None`` flags an identically zero block.
    """
    if spec.kind is ProblemKind.VECTOR_LAPLACE:
        return m1 if c == d else None
    coef = spec.mu * ecd[c, d]
    if c == d:
        coef = coef + spec.mu * m1
    if spec.kind is ProblemKind.ELASTICITY_DISPLACEMENT:
        coef = coef + spec.lam * ecd[d, c]
    return coef


def element_matrices(coords, spec: ProblemSpec):
    """Local matrices of one tetrahedron.

    Returns ``(a, b, c)`` where ``a`` is the 30x30 stiffness block (dof
    order: node-major, components interleaved), ``b`` the 4x30
    divergence coupling for saddle problems (else ``None``) and ``c``
    the 4x4 pressure block (identically zero for Stokes, ``None`` for
    the elliptic kinds).
    """
    coords = np.asarray(coords, dtype=float).reshape(1, 4, 3)
    _, m1, ecd, bvec, pmass = _stiffness_parts(coords)

    a = np.zeros((30, 30))
    for c in range(3):
        for d in range(3):
            coef = _a_block_coefficient(spec, c, d, m1, ecd)
            if coef is not None:
                a[d::3, c::3] = coef[0]
    if not spec.is_saddle:
        return a, None, None
    b = np.zeros((4, 30))
    for c in range(3):
        b[:, c::3] = bvec[c][0]
    cmat = pmass[0] / spec.lam if spec.has_pressure_mass else np.zeros((4, 4))
    return a, b, cmat


# ---------------------------------------------------------------------------
# global assembly


@dataclass(eq=False)
class BlockSystem:
    """Assembled system: one monolithic CSR operator and its partitions.

    ``operator`` is the SPD velocity matrix ``A`` for the elliptic
    kinds and the symmetric indefinite ``[[A, B^T], [B, -C]]`` for the
    saddle kinds (``C`` is zero for Stokes), over the free unknowns in
    ``layout`` order: linear-node components, quadratic-node
    components, then pressure.  ``right_hand_side`` holds the matching
    loads after homogenization.  ``vertex_block``/``edge_block`` send a
    vertex (edge) to its free node index within its partition, with -1
    for eliminated Dirichlet entities.  ``pressure_adjacency`` is the
    vertex connectivity used to coarsen pressure (``None`` for the
    elliptic kinds).
    """

    spec: ProblemSpec
    layout: BlockLayout
    operator: sp.csr_matrix
    right_hand_side: np.ndarray
    vertex_block: np.ndarray
    edge_block: np.ndarray
    dirichlet_lift: np.ndarray
    pressure_adjacency: sp.csr_matrix | None = None

    def monolithic(self) -> sp.csr_matrix:
        return self.operator

    def rhs(self) -> np.ndarray:
        return self.right_hand_side


def _hierarchical_lift(mesh: Mesh, spec: ProblemSpec):
    """Interpolate g_D hierarchically on Dirichlet vertices and edges.

    Vertex coefficients are point values; an edge coefficient is the
    midpoint value minus the endpoint average, so the lift reproduces
    the vertex interpolant plus its quadratic correction.
    """
    n_nodes = mesh.n_vertices + mesh.n_edges
    lift = np.zeros((n_nodes, 3))
    dir_v = np.flatnonzero(mesh.vertex_tags == BoundaryTag.DIRICHLET)
    for v in dir_v:
        lift[v] = spec.dirichlet_value(mesh.vertices[v])
    dir_e = np.flatnonzero(mesh.edge_tags == BoundaryTag.DIRICHLET)
    for e in dir_e:
        a, b = mesh.edges[e]
        mid = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
        lift[mesh.n_vertices + e] = spec.dirichlet_value(mid) - 0.5 * (
            lift[a] + lift[b]
        )
    return lift


def _neumann_load(mesh: Mesh, spec: ProblemSpec, n_nodes: int) -> np.ndarray:
    """Surface load int_{Gamma_N} g_N . v over non-Dirichlet boundary faces."""
    load = np.zeros(3 * n_nodes)
    if spec.g_neumann is None:
        return load
    pts, wts = basis_mod.triangle_quadrature_degree4()
    nv = mesh.n_vertices
    edge_keys = mesh.edges[:, 0].astype(np.int64) * nv + mesh.edges[:, 1]
    for face, is_dir in zip(mesh.boundary_faces, mesh.dirichlet_faces):
        if is_dir:
            continue
        xa, xb, xc = mesh.vertices[face]
        area = 0.5 * np.linalg.norm(np.cross(xb - xa, xc - xa))
        fe = np.sort(face[np.array(FACE_EDGES)], axis=1)
        eids = np.searchsorted(edge_keys, fe[:, 0].astype(np.int64) * nv + fe[:, 1])
        nodes = np.concatenate([face, nv + eids])
        for q, w in zip(pts, wts):
            x = q[0] * xa + q[1] * xb + q[2] * xc
            g = np.asarray(spec.g_neumann(x), dtype=float)
            phi = basis_mod.face_shape_values(q)
            for local, node in enumerate(nodes):
                load[3 * node : 3 * node + 3] += (w * area * phi[local]) * g
    return load


def assemble(mesh: Mesh, spec: ProblemSpec):
    """Assemble a :class:`BlockSystem`.

    Requires a tagged mesh.  Dirichlet rows and columns are removed from
    the system (free unknowns are renumbered contiguously, linear nodes
    first) and the lifted boundary data is moved to the right-hand side.
    """
    if not mesh.tagged:
        raise MissingTags("mesh has no boundary tags; call tag_boundary first")

    nv, ne = mesh.n_vertices, mesh.n_edges
    n_nodes = nv + ne

    free_v = np.flatnonzero(mesh.vertex_tags != BoundaryTag.DIRICHLET)
    free_e = np.flatnonzero(mesh.edge_tags != BoundaryTag.DIRICHLET)
    n_l, n_q = len(free_v), len(free_e)

    vertex_block = np.full(nv, -1, dtype=np.int64)
    vertex_block[free_v] = np.arange(n_l)
    edge_block = np.full(ne, -1, dtype=np.int64)
    edge_block[free_e] = np.arange(n_q)

    elem_nodes = np.hstack([mesh.tets, nv + mesh.tet_edges])

    n_full = 3 * n_nodes
    a_full = sp.csr_matrix((n_full, n_full))
    b_rows, b_cols, b_data = [], [], []
    c_rows, c_cols, c_data = [], [], []

    for start in range(0, mesh.n_tets, _CHUNK):
        sel = slice(start, min(start + _CHUNK, mesh.n_tets))
        nodes = elem_nodes[sel]
        coords = mesh.vertices[mesh.tets[sel]]
        _, m1, ecd, bvec, pmass = _stiffness_parts(coords)

        rows_node = np.repeat(nodes, 10, axis=1)  # (m, 100) node i varying slow
        cols_node = np.tile(nodes, (1, 10))  # node j varying fast
        a_rows, a_cols, a_data = [], [], []
        for c in range(3):
            for d in range(3):
                coef = _a_block_coefficient(spec, c, d, m1, ecd)
                if coef is None:
                    continue
                a_rows.append((3 * rows_node + d).ravel())
                a_cols.append((3 * cols_node + c).ravel())
                a_data.append(coef.reshape(len(coords), -1).ravel())
        a_full = a_full + sp.coo_matrix(
            (np.concatenate(a_data), (np.concatenate(a_rows), np.concatenate(a_cols))),
            shape=(n_full, n_full),
        ).tocsr()

        if spec.is_saddle:
            p_rows = np.repeat(mesh.tets[sel], 10, axis=1)  # (m, 40)
            v_cols = np.tile(nodes, (1, 4))
            for c in range(3):
                b_rows.append(p_rows.ravel())
                b_cols.append((3 * v_cols + c).ravel())
                b_data.append(bvec[c].reshape(len(coords), -1).ravel())
            if spec.has_pressure_mass:
                c_rows.append(np.repeat(mesh.tets[sel], 4, axis=1).ravel())
                c_cols.append(np.tile(mesh.tets[sel], (1, 4)).ravel())
                c_data.append((pmass / spec.lam).reshape(len(coords), -1).ravel())

    a_full.sum_duplicates()
    a_full.sort_indices()

    lift = _hierarchical_lift(mesh, spec)
    lift_flat = lift.ravel()

    f_full = _neumann_load(mesh, spec, n_nodes) - a_full @ lift_flat

    # free velocity dof, linear partition first
    free_nodes = np.concatenate([free_v, nv + free_e])
    free_dofs = (3 * free_nodes[:, None] + np.arange(3)).ravel()

    a = a_full[free_dofs][:, free_dofs].tocsr()
    a.sort_indices()
    f = f_full[free_dofs]

    operator, rhs, adj = a, f, None
    if spec.is_saddle:
        b_full = sp.coo_matrix(
            (np.concatenate(b_data), (np.concatenate(b_rows), np.concatenate(b_cols))),
            shape=(nv, n_full),
        ).tocsr()
        b_full.sum_duplicates()
        g = -(b_full @ lift_flat)
        b = b_full[:, free_dofs].tocsr()
        b.sort_indices()

        minus_c = None  # Stokes has no pressure block
        if spec.has_pressure_mass:
            c_ij = (np.concatenate(c_rows), np.concatenate(c_cols))
            minus_c = -sp.coo_matrix(
                (np.concatenate(c_data), c_ij), shape=(nv, nv)
            ).tocsr()

        operator = sp.bmat([[a, b.T], [b, minus_c]], format="csr")
        operator.sort_indices()
        rhs = np.concatenate([f, g])

        # conventional linear-FE vertex connectivity, used to coarsen pressure
        ones = np.ones(len(mesh.edges))
        adj = sp.coo_matrix(
            (
                np.concatenate([ones, ones, np.ones(nv)]),
                (
                    np.concatenate([mesh.edges[:, 0], mesh.edges[:, 1], np.arange(nv)]),
                    np.concatenate([mesh.edges[:, 1], mesh.edges[:, 0], np.arange(nv)]),
                ),
            ),
            shape=(nv, nv),
        ).tocsr()
        adj.data[:] = 1.0

    return BlockSystem(
        spec=spec,
        layout=BlockLayout(
            n_linear=n_l,
            n_quadratic=n_q,
            n_pressure=nv if spec.is_saddle else 0,
            block_size=3,
        ),
        operator=operator,
        right_hand_side=rhs,
        vertex_block=vertex_block,
        edge_block=edge_block,
        dirichlet_lift=lift,
        pressure_adjacency=adj,
    )


def manufactured_solution_residual(
    mesh: Mesh,
    spec: ProblemSpec,
    exact_u: VectorField,
    exact_p: Callable[[np.ndarray], float] | None = None,
) -> float:
    """Max-norm DOF error of a direct solve against an exact solution.

    The exact velocity is imposed as Dirichlet data on the tagged
    Dirichlet boundary (``spec.g_neumann`` must supply the matching
    traction on any Neumann part).  The discrete solution is compared
    with the hierarchical interpolant of ``exact_u``; for saddle
    problems with ``exact_p`` given, the pressure error at vertices is
    included in the max.
    """
    solve_spec = replace(spec, g_dirichlet=exact_u)
    system = assemble(mesh, solve_spec)
    x = spla.spsolve(system.monolithic().tocsc(), system.rhs())

    err = 0.0
    n_l = system.layout.n_linear
    for v in np.flatnonzero(system.vertex_block >= 0):
        blk = system.vertex_block[v]
        err = max(err, np.abs(x[3 * blk : 3 * blk + 3] - exact_u(mesh.vertices[v])).max())
    for e in np.flatnonzero(system.edge_block >= 0):
        blk = n_l + system.edge_block[e]
        a, b = mesh.edges[e]
        mid = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
        coeff = np.asarray(exact_u(mid), dtype=float) - 0.5 * (
            np.asarray(exact_u(mesh.vertices[a]), dtype=float)
            + np.asarray(exact_u(mesh.vertices[b]), dtype=float)
        )
        err = max(err, np.abs(x[3 * blk : 3 * blk + 3] - coeff).max())
    if spec.is_saddle and exact_p is not None:
        p = x[system.layout.velocity_dof :]
        for v in range(mesh.n_vertices):
            err = max(err, abs(p[v] - exact_p(mesh.vertices[v])))
    return err


def export_matrix_market(system: BlockSystem, prefix: str) -> tuple[str, str]:
    """Write the monolithic matrix plus a sidecar naming the partitions.

    Produces ``<prefix>.mtx`` and ``<prefix>.header.txt``; the header
    records the block partition sizes that define the monolithic dof
    numbering.
    """
    mtx_path = f"{prefix}.mtx"
    header_path = f"{prefix}.header.txt"
    scipy.io.mmwrite(mtx_path, system.monolithic())
    lay = system.layout
    with open(header_path, "w") as fh:
        fh.write("monolithic dof order: linear nodes, quadratic nodes, pressure\n")
        fh.write(f"linear_nodes {lay.n_linear}\n")
        fh.write(f"quadratic_nodes {lay.n_quadratic}\n")
        fh.write(f"components_per_node {lay.block_size}\n")
        fh.write(f"pressure_dof {lay.n_pressure}\n")
    return mtx_path, header_path
