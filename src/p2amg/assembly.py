"""Assembly of the four model problems with the hierarchical basis.

Velocity/displacement fields are discretized with the ten scalar basis
functions per tetrahedron (four hats, six edge bubbles), three
components per node.  Pressure uses the linear hats on all vertices.
Dirichlet degrees of freedom are eliminated: the boundary data is
interpolated hierarchically (vertex values plus bubble corrections, one
call of the data for all vertices and one for all edge midpoints),
its stiffness contribution is moved to the right-hand side, and the
corresponding rows and columns are removed from the system.

Each assembled system is one monolithic CSR operator, stored once,
plus the :class:`BlockLayout` that splits its unknowns into linear
velocity nodes, quadratic velocity nodes and pressure; the saddle
kinds add the divergence coupling and, for mixed elasticity, the
pressure mass block.

The element kernel computes only the integrals a kind uses: the
gradient products for the vector Laplacian, the nine component-pair
blocks for the other kinds, the divergence and pressure mass terms
only where they enter.
It has no quadrature loop: the products of the reference gradients are
integrated once, and each element contracts them with its inverse
Jacobian (the reference-tensor form of Kirby and Logg, ACM TOMS 2006).

Elements are processed in chunks of ``_CHUNK`` tets, whose coefficient
blocks are scattered one at a time.  One scatter map, built from the
node incidences of the tets (velocity against velocity, pressure
against velocity and back, pressure against pressure for mixed
elasticity), gives every node pair its place in the stored CSR operator
``[[A, B^T], [B, -C]]``, or in a lift block that holds the couplings of
A and B to Dirichlet unknowns and only forms the right-hand side.  Each
chunk reduces its tets' node pairs to the distinct ones, sums every
component block over them with one ``bincount`` and adds the sums in
place; the sums of B also go, mirrored, to B^T.  Nothing is stacked
afterwards.  On the one CSR, A then keeps only the entries that couple
(``sparse_core.coupling_mask``): an entry at or below ``COUPLING_TOL *
sqrt(a_ii a_jj)`` is rounding residue of a coupling that is zero.  B
and C keep their structural (element) pattern, and an entry of B that
does not couple (``sparse_core.divergence_mask``) is stored as an exact
zero.  The dropped entries are moved out of the arrays in place, so the
operator is never copied.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np
import scipy.sparse as sp

from . import basis as basis_mod
from .errors import DegenerateElement, InvalidParameter, MissingTags
from .mesh import Mesh
from .sparse_core import BlockLayout, coupling_mask, divergence_mask, row_blocks

__all__ = [
    "ProblemKind",
    "ProblemSpec",
    "BlockSystem",
    "assemble",
]

VectorField = Callable[[np.ndarray], np.ndarray]

_CHUNK = 1024


class ProblemKind(Enum):
    VECTOR_LAPLACE = "vector_laplace"
    ELASTICITY_DISPLACEMENT = "elasticity_displacement"
    ELASTICITY_MIXED = "elasticity_mixed"
    STOKES = "stokes"


_SADDLE_KINDS = (ProblemKind.ELASTICITY_MIXED, ProblemKind.STOKES)


@dataclass(frozen=True)
class ProblemSpec:
    """Problem kind, material parameters, and boundary data.

    ``mu`` is the shear modulus (viscosity for Stokes); ``lam`` is the
    Lame constant, unused for the vector Laplacian and Stokes.
    ``g_dirichlet`` maps a ``(k, 3)`` array of points on the Dirichlet
    boundary to the ``(k, 3)`` prescribed vectors there; ``None`` means
    zero.  The rest of the boundary is traction-free: no surface load
    enters the right-hand side.
    """

    kind: ProblemKind
    mu: float = 1.0
    lam: float = 1.0
    g_dirichlet: VectorField | None = None

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


# ---------------------------------------------------------------------------
# element kernels


def _element_geometry(coords: np.ndarray):
    """Jacobian determinant (6V) and inverse Jacobian of a batch of tets."""
    t = coords[:, 1:] - coords[:, :1]
    det = np.linalg.det(t)
    extent = np.max(np.abs(t), axis=(1, 2))
    if np.any(det <= 1e-14 * extent**3):
        raise DegenerateElement("tetrahedron with non-positive volume")
    return det, np.linalg.inv(t)


def _reference_tensors():
    """Quadrature of the basis products on the reference tetrahedron.

    With ``g_q[i, a]`` the derivative of basis function ``i`` along the
    reference coordinate ``lambda_{a+1}`` at point ``q``, returns
    ``stiffness[(a, b), (i, j)] = sum_q w_q g_q[i, a] g_q[j, b]``,
    ``divergence[a, (i, j)] = -sum_q w_q lambda_i g_q[j, a]`` (pressure
    hat ``i``) and ``mass[i, j] = sum_q w_q lambda_i lambda_j``.
    """
    rule = basis_mod.tet_quadrature_degree4()
    hat_gradients = np.vstack([-np.ones(3), np.eye(3)])[None]
    g = np.stack([basis_mod.shape_gradients(q, hat_gradients)[0] for q in rule.points])
    hats = rule.points
    stiffness = np.einsum("q,qia,qjb->abij", rule.weights, g, g).reshape(9, 100)
    divergence = -np.einsum("q,qi,qja->aij", rule.weights, hats, g).reshape(3, 40)
    mass = np.einsum("q,qi,qj->ij", rule.weights, hats, hats)
    return stiffness, divergence, mass


_STIFFNESS, _DIVERGENCE, _MASS = _reference_tensors()


def _element_parts(coords: np.ndarray, kind: ProblemKind):
    """Per-element integrals of the forms that ``kind`` uses.

    Returns ``m1[e,i,j] = int grad(phi_i) . grad(phi_j)``; for every kind
    but the vector Laplacian ``ecd[c, d][e,i,j] = int d_c(phi_i)
    d_d(phi_j)``, keyed by the component pair; for the saddle kinds
    ``bvec[c,e,i,j] = -int lam_i d_c(phi_j)`` (pressure hat i); and for
    mixed elasticity ``pmass[e,i,j] = int lam_i lam_j``.  Parts a kind
    does not use are ``None``.  Each part contracts the reference
    tensors with the element's inverse Jacobian: one matrix product for
    all gradient parts and one for the three divergence components.
    """
    det, tinv = _element_geometry(coords)
    vol = det / 6.0
    m = coords.shape[0]
    # k[e, a, c]: derivative of lambda_{a+1} along x_c
    k = np.transpose(tinv, (0, 2, 1))
    kv = k * vol[:, None, None]

    # the reference products weigh sum_c kv[e,a,c] k[e,b,c] in the gradient
    # product and kv[e,a,c] k[e,b,d] in the component pair (c, d)
    ecd = bvec = pmass = None
    if kind is ProblemKind.VECTOR_LAPLACE:
        m1 = (np.matmul(kv, tinv).reshape(m, 9) @ _STIFFNESS).reshape(m, 10, 10)
    else:
        weights = np.einsum("eac,ebd->ecdab", kv, k).reshape(9 * m, 9)
        parts = (weights @ _STIFFNESS).reshape(m, 9, 10, 10)
        ecd = {(c, d): parts[:, 3 * c + d] for c in range(3) for d in range(3)}
        m1 = ecd[0, 0] + ecd[1, 1] + ecd[2, 2]
    if kind in _SADDLE_KINDS:
        bvec = (kv.transpose(2, 0, 1).reshape(-1, 3) @ _DIVERGENCE).reshape(3, m, 4, 10)
    if kind is ProblemKind.ELASTICITY_MIXED:
        pmass = vol[:, None, None] * _MASS
    return m1, ecd, bvec, pmass


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
    loads after homogenization.  ``pressure_adjacency`` is the vertex
    connectivity used to coarsen pressure (``None`` for the elliptic
    kinds).  ``coupled`` is set by :func:`assemble` only, whose operator
    stores no velocity entry that does not couple.
    """

    layout: BlockLayout
    operator: sp.csr_matrix
    right_hand_side: np.ndarray
    pressure_adjacency: sp.csr_matrix | None = None
    coupled: bool = field(default=False, init=False)

    def monolithic(self) -> sp.csr_matrix:
        return self.operator

    def rhs(self) -> np.ndarray:
        return self.right_hand_side


def _boundary_data(g: VectorField, points: np.ndarray) -> np.ndarray:
    values = np.asarray(g(points), dtype=float)
    if values.shape != points.shape:
        raise InvalidParameter(f"g_dirichlet of shape {values.shape} for points {points.shape}")
    return values


def _hierarchical_lift(mesh: Mesh, spec: ProblemSpec):
    """Interpolate g_D hierarchically on Dirichlet vertices and edges.

    Vertex coefficients are point values; an edge coefficient is the
    midpoint value minus the endpoint average, so the lift reproduces
    the vertex interpolant plus its quadratic correction.  The endpoints
    of a Dirichlet edge are Dirichlet vertices.
    """
    nv = mesh.n_vertices
    lift = np.zeros((nv + mesh.n_edges, 3))
    dir_v = np.flatnonzero(mesh.dirichlet_vertices)
    if spec.g_dirichlet is None or dir_v.size == 0:
        return lift
    lift[dir_v] = _boundary_data(spec.g_dirichlet, mesh.vertices[dir_v])
    dir_e = np.flatnonzero(mesh.dirichlet_edges)
    a, b = mesh.edges[dir_e].T
    mid = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
    lift[nv + dir_e] = _boundary_data(spec.g_dirichlet, mid) - 0.5 * (lift[a] + lift[b])
    return lift


class _ScatterMap:
    """Dof-level CSR pattern of a node pattern, and positions in it.

    Row node ``i`` carries ``row_sizes[i]`` dofs and column node ``j``
    carries ``col_sizes[j]`` (3 for a velocity node, 1 for a pressure
    node), numbered node by node.  Two adjacent nodes couple every
    component pair; with ``diagonal`` only equal components couple.
    Row ``(i, d)`` lists the columns of the nodes adjacent to ``i`` in
    ascending order.
    """

    def __init__(self, nodes: sp.csr_matrix, row_sizes, col_sizes, diagonal: bool):
        nodes.sort_indices()
        ptr = nodes.indptr.astype(np.int64)
        j = nodes.indices
        self.n_cols = nodes.shape[1]
        self.diagonal = diagonal
        node_rows = np.repeat(np.arange(nodes.shape[0]), np.diff(ptr))
        self.keys = node_rows * self.n_cols + j
        # each node entry's first column within its dof rows
        widths = np.ones(len(j), np.int64) if diagonal else col_sizes[j].astype(np.int64)
        ends = np.zeros(len(j) + 1, dtype=np.int64)
        np.cumsum(widths, out=ends[1:])
        self.length = ends[ptr[1:]] - ends[ptr[:-1]]
        row_lengths = np.repeat(self.length, row_sizes)
        self.nnz = int(row_lengths.sum())
        self.shape = (len(row_lengths), int(col_sizes.sum()))
        idx = np.int32 if self.nnz < np.iinfo(np.int32).max else np.int64
        self.col_offset = (ends[:-1] - ends[ptr[node_rows]]).astype(idx)
        del node_rows
        self.length = self.length.astype(idx)
        self.indptr = np.zeros(self.shape[0] + 1, dtype=idx)
        np.cumsum(row_lengths, out=self.indptr[1:])
        first_row = np.cumsum(row_sizes) - row_sizes  # dof row (i, 0) of each node i
        self.start = self.indptr[first_row]
        # the column indices of every node row's component-0 dof row, node
        # row after node row, and with ``diagonal`` those of components 1
        # and 2 after them; entry k of dof row r is table[k + source[r]]
        first_col = (np.cumsum(col_sizes) - col_sizes).astype(idx)
        table = np.repeat((first_col[j] - ends[:-1]).astype(idx), widths)
        table += np.arange(ends[-1], dtype=idx)
        del widths
        source = np.repeat(ends[ptr[:-1]], row_sizes) - self.indptr[:-1]
        if diagonal:
            table = np.add.outer(np.arange(3, dtype=idx), table).ravel()
            source += (np.arange(self.shape[0]) - np.repeat(first_row, row_sizes)) * ends[-1]
        del ends
        self.indices = np.empty(self.nnz, dtype=idx)
        for lo, hi in row_blocks(self.indptr):
            seg = slice(self.indptr[lo], self.indptr[hi])
            at = np.arange(seg.start, seg.stop) + np.repeat(source[lo:hi], row_lengths[lo:hi])
            self.indices[seg] = table[at]

    def offsets(self, i, entry):
        """Position of row ``(i, 0)`` at node entry ``entry``, column
        component 0, and the step from one row component to the next."""
        return self.start[i] + self.col_offset[entry], self.length[i]

    def position(self, offsets, d, c):
        """Position of row component ``d``, column component ``c``."""
        base, step = offsets
        pos = base + d * step
        return pos if self.diagonal else pos + c

    def entries(self, i, j):
        """Node-pattern entries of the node pairs ``(i, j)``, all in the pattern."""
        return np.searchsorted(self.keys, i * self.n_cols + j)

    def matrix(self, data: np.ndarray) -> sp.csr_matrix:
        return sp.csr_matrix((data, self.indices, self.indptr), shape=self.shape)


def _drop_entries(data, indices, indptr, keep) -> None:
    """Remove the entries of CSR arrays where ``keep`` is false.

    Works in place: the kept entries move forward a block of rows at a
    time and ``data`` and ``indices`` are then shrunk, so the arrays are
    never copied.  No view of them may be alive.
    """
    old = new = 0
    for lo, hi in row_blocks(indptr):  # reads indptr[-1] before it is rewritten
        ends = indptr[lo + 1 : hi + 1] - old
        seg = slice(old, old + int(ends[-1]))
        kept = np.zeros(int(ends[-1]) + 1, dtype=np.int64)
        np.cumsum(keep[seg], out=kept[1:])
        count = int(kept[-1])
        data[new : new + count] = data[seg][keep[seg]]
        indices[new : new + count] = indices[seg][keep[seg]]
        indptr[lo + 1 : hi + 1] = new + kept[ends]
        old, new = seg.stop, new + count
    data.resize(new, refcheck=False)
    indices.resize(new, refcheck=False)


def assemble(mesh: Mesh, spec: ProblemSpec):
    """Assemble a :class:`BlockSystem`.

    Requires a tagged mesh.  Dirichlet rows and columns are removed from
    the system (free unknowns are renumbered contiguously, linear nodes
    first) and the lifted boundary data is moved to the right-hand side.
    """
    if mesh.dirichlet_vertices is None:
        raise MissingTags("mesh has no boundary tags; call tag_boundary first")

    nv, ne = mesh.n_vertices, mesh.n_edges
    n_nodes = nv + ne

    free_v = np.flatnonzero(~mesh.dirichlet_vertices)
    free_e = np.flatnonzero(~mesh.dirichlet_edges)
    n_l, n_q = len(free_v), len(free_e)

    # one node numbering for the stored operator and its lift block: the
    # free velocity nodes in layout order, the pressure nodes (vertices) of
    # a saddle kind, then the Dirichlet velocity nodes in ascending order
    free_nodes = np.concatenate([free_v, nv + free_e])
    n_free = len(free_nodes)
    dir_nodes = np.setdiff1d(np.arange(n_nodes), free_nodes)
    n_stored = n_free + (nv if spec.is_saddle else 0)
    n_all = n_stored + len(dir_nodes)
    renumber = np.empty(n_nodes, dtype=np.int64)
    renumber[free_nodes] = np.arange(n_free)
    renumber[dir_nodes] = n_stored + np.arange(len(dir_nodes))
    tet_nodes = renumber[np.hstack([mesh.tets, nv + mesh.tet_edges])]
    tet_pressure = n_free + mesh.tets.astype(np.int64)

    def incidence(nodes):
        return sp.csr_matrix(
            (
                np.ones(nodes.size, dtype=bool),
                nodes.ravel(),
                np.arange(0, nodes.size + 1, nodes.shape[1]),
            ),
            shape=(mesh.n_tets, n_all),
        )

    # node pattern of the stored rows from the tet incidences: velocity
    # against velocity (A and its lift), pressure against velocity (B and
    # its lift), velocity against pressure (B^T) and, for mixed
    # elasticity, pressure against pressure (C)
    velocity = incidence(tet_nodes)
    velocity_rows = velocity[:, :n_stored].T.tocsr()
    pattern = velocity_rows @ velocity
    adj = None
    if spec.is_saddle:
        pressure = incidence(tet_pressure)
        pressure_rows = pressure[:, :n_stored].T.tocsr()
        pattern = pattern + pressure_rows @ velocity + velocity_rows @ pressure
        if spec.has_pressure_mass:
            pattern = pattern + pressure_rows @ pressure
        # the linear-FE vertex connectivity, used to coarsen pressure: two
        # vertices are adjacent when they share a tet
        adj = (pressure_rows[n_free:] @ pressure[:, n_free:n_stored]).astype(float)
        adj.sort_indices()
        del pressure, pressure_rows
    del velocity, velocity_rows
    sizes = np.repeat(np.int8([3, 1]), [n_free, n_stored - n_free])
    diagonal = spec.kind is ProblemKind.VECTOR_LAPLACE
    stored = _ScatterMap(pattern[:, :n_stored], sizes, sizes, diagonal)
    lift = _ScatterMap(pattern[:, n_stored:], sizes, np.full(len(dir_nodes), 3, np.int8), diagonal)
    del pattern
    stored_data = np.zeros(stored.nnz)
    lift_data = np.zeros(lift.nnz)

    def add(row_nodes, col_nodes, blocks, mirror=False):
        """Add a chunk's element blocks at the node pairs (row, column).

        The chunk's node pairs, element-major with the column varying
        fastest, are reduced to the distinct ones; each block ``(d, c,
        coef)`` (row component d, column component c) is summed over the
        pairs' occurrences and added into the stored operator or the lift
        block.  With ``mirror`` each sum is also added at the transposed
        position of the stored operator.
        """
        keys = row_nodes[:, :, None] * n_all + col_nodes[:, None, :]
        pairs, occurrence = np.unique(keys.ravel(), return_inverse=True)
        del keys
        i, j = np.divmod(pairs, n_all)
        stored_row = i < n_stored
        targets = [
            (stored, stored_data, stored_row & (j < n_stored), i, j, False),
            (lift, lift_data, stored_row & (j >= n_stored), i, j - n_stored, False),
        ]
        if mirror:
            targets.append((stored, stored_data, j < n_stored, j, i, True))
        located = []
        for scatter, values, keep, rows, cols, swap in targets:
            keep = np.flatnonzero(keep)
            rows = rows[keep]
            offsets = scatter.offsets(rows, scatter.entries(rows, cols[keep]))
            located.append((scatter, values, keep, offsets, swap))
        for d, c, coef in blocks:
            sums = np.bincount(occurrence, weights=coef.ravel(), minlength=len(pairs))
            for scatter, values, keep, offsets, swap in located:
                pos = scatter.position(offsets, *((c, d) if swap else (d, c)))
                values[pos] += sums[keep]

    blocks = [(c, d) for c in range(3) for d in range(3) if not diagonal or c == d]
    for start in range(0, mesh.n_tets, _CHUNK):
        sel = slice(start, min(start + _CHUNK, mesh.n_tets))
        m1, ecd, bvec, pmass = _element_parts(mesh.vertices[mesh.tets[sel]], spec.kind)
        # one coefficient block at a time
        add(
            tet_nodes[sel],
            tet_nodes[sel],
            ((d, c, _a_block_coefficient(spec, c, d, m1, ecd)) for c, d in blocks),
        )
        del m1, ecd
        if spec.is_saddle:
            add(
                tet_pressure[sel],
                tet_nodes[sel],
                ((0, c, bvec[c]) for c in range(3)),
                mirror=True,
            )
        if spec.has_pressure_mass:
            add(tet_pressure[sel], tet_pressure[sel], [(0, 0, -pmass / spec.lam)])
        del bvec, pmass

    shape, indices, indptr = stored.shape, stored.indices, stored.indptr
    del stored

    # the lift block carries the couplings to the Dirichlet unknowns, of A
    # and of B alike, and only forms the right-hand side
    lift_values = _hierarchical_lift(mesh, spec)[dir_nodes].ravel()
    rhs = -(lift.matrix(lift_data) @ lift_values)
    del lift, lift_data

    # A stores only the entries that couple; B, B^T and C keep their
    # structural pattern, and an entry of B that does not couple is stored
    # as an exact zero
    operator = sp.csr_matrix((stored_data, indices, indptr), shape=shape)
    vd = 3 * n_free
    if spec.is_saddle:
        # B and B^T: the velocity columns of the pressure rows and the
        # pressure columns of the velocity rows
        divergence = indices >= vd
        divergence[indptr[vd] :] ^= True
        b_values = stored_data[divergence]
        b_values[~divergence_mask(b_values)] = 0.0
        stored_data[divergence] = b_values
        del b_values
    keep = coupling_mask(operator)
    if spec.is_saddle:
        keep[indptr[vd] :] = True
        keep |= divergence
        del divergence
    del operator
    _drop_entries(stored_data, indices, indptr, keep)
    del keep
    operator = sp.csr_matrix((stored_data, indices, indptr), shape=shape)

    system = BlockSystem(
        layout=BlockLayout(
            n_linear=n_l,
            n_quadratic=n_q,
            n_pressure=nv if spec.is_saddle else 0,
            block_size=3,
        ),
        operator=operator,
        right_hand_side=rhs,
        pressure_adjacency=adj,
    )
    system.coupled = True
    return system
