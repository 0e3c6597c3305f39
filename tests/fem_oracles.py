"""Discretisation oracles that only the tests use.

``element_matrices`` assembles the local matrices of one tetrahedron
from the library's element kernel, ``triplet_assembly`` assembles a
whole system through global triplets, ``manufactured_solution_residual``
checks a direct solve against an exact solution, ``shape_values``
evaluates the ten scalar basis functions,
``triangle_quadrature_degree4`` is a quadrature rule on triangles,
``free_node_index`` numbers the free nodes of a tagged mesh in layout
order, ``node_pattern_product`` forms a layout's node pattern as the
product ``D^T S D`` with the dof-to-node incidence
``dof_node_incidence``, ``reference_node_graph`` builds a node
graph through COO triplets, and ``edge_pressure_adjacency`` builds the
pressure graph of a saddle system from the mesh's edge list.
"""
from dataclasses import replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from p2amg import assembly
from p2amg.assembly import ProblemSpec, _a_block_coefficient, _element_parts, assemble
from p2amg.basis import N_SCALAR_BASIS
from p2amg.mesh import TET_EDGES
from p2amg.sparse_core import coupling_mask, divergence_mask


def element_matrices(coords, spec: ProblemSpec):
    """Local matrices of one tetrahedron.

    Returns ``(a, b, c)`` where ``a`` is the 30x30 stiffness block (dof
    order: node-major, components interleaved), ``b`` the 4x30
    divergence coupling for saddle problems (else ``None``) and ``c``
    the 4x4 pressure block (identically zero for Stokes, ``None`` for
    the elliptic kinds).
    """
    coords = np.asarray(coords, dtype=float).reshape(1, 4, 3)
    m1, ecd, bvec, pmass = _element_parts(coords, spec.kind)

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


def triplet_assembly(mesh, spec: ProblemSpec):
    """Operator and right-hand side of ``assemble`` through global triplets.

    Every element entry becomes one (row, column, value) triplet over all
    velocity dofs, Dirichlet ones included, and one COO-to-CSR
    conversion per block sums them.  The free rows and columns are then
    sliced out: A keeps the entries that couple, B its element pattern
    with the entries that do not couple stored as exact zeros, and the
    blocks are stacked a block row at a time.
    """
    nv = mesh.n_vertices
    n_full = 3 * (nv + mesh.n_edges)
    dofs = 3 * np.hstack([mesh.tets, nv + mesh.tet_edges])[:, :, None] + np.arange(3)
    m1, ecd, bvec, pmass = _element_parts(mesh.vertices[mesh.tets], spec.kind)

    rows, cols, vals = [], [], []
    for c in range(3):
        for d in range(3):
            coef = _a_block_coefficient(spec, c, d, m1, ecd)
            if coef is not None:
                rows.append(np.broadcast_to(dofs[:, :, None, d], coef.shape).ravel())
                cols.append(np.broadcast_to(dofs[:, None, :, c], coef.shape).ravel())
                vals.append(coef.ravel())
    k_full = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_full, n_full),
    ).tocsr()

    free_v = np.flatnonzero(~mesh.dirichlet_vertices)
    free_e = np.flatnonzero(~mesh.dirichlet_edges)
    free_nodes = np.concatenate([free_v, nv + free_e])
    free = (3 * free_nodes[:, None] + np.arange(3)).ravel()
    lift = assembly._hierarchical_lift(mesh, spec).ravel()
    rhs = -(k_full[free] @ lift)
    op = k_full[free][:, free].tocsr()
    op.data[~coupling_mask(op)] = 0.0
    op.eliminate_zeros()
    if not spec.is_saddle:
        return op, rhs

    shape = bvec[0].shape
    b_rows = np.broadcast_to(mesh.tets[:, :, None], shape).ravel()
    b_cols = [np.broadcast_to(dofs[:, None, :, c], shape).ravel() for c in range(3)]
    b_full = sp.coo_matrix(
        (bvec.ravel(), (np.tile(b_rows, 3), np.concatenate(b_cols))), shape=(nv, n_full)
    ).tocsr()
    b = b_full[:, free].tocsr()
    b.sort_indices()
    b.data[~divergence_mask(b.data)] = 0.0
    minus_c = sp.csr_matrix((nv, nv))
    if spec.has_pressure_mass:
        minus_c = -sp.coo_matrix(
            (
                (pmass / spec.lam).ravel(),
                (np.repeat(mesh.tets, 4, axis=1).ravel(), np.tile(mesh.tets, (1, 4)).ravel()),
            ),
            shape=(nv, nv),
        ).tocsr()
    op = sp.vstack(
        [sp.hstack([op, b.T.tocsr()], format="csr"), sp.hstack([b, minus_c], format="csr")],
        format="csr",
    )
    op.sort_indices()
    return op, np.concatenate([rhs, -(b_full @ lift)])


def free_node_index(mesh) -> np.ndarray:
    """Free velocity node of every vertex, then of every edge, of a
    tagged mesh, numbered in ``assemble``'s layout order (free vertices,
    then free edges); -1 for a Dirichlet vertex or edge."""
    free = ~np.concatenate([mesh.dirichlet_vertices, mesh.dirichlet_edges])
    index = np.full(free.size, -1, dtype=np.int64)
    index[free] = np.arange(np.count_nonzero(free))
    return index


def manufactured_solution_residual(mesh, spec: ProblemSpec, exact_u, exact_p=None) -> float:
    """Max-norm DOF error of a direct solve against an exact solution.

    The exact velocity is imposed as Dirichlet data on the tagged
    Dirichlet boundary; ``exact_u`` (with ``exact_p``) must be
    traction-free on any other part of the boundary.  Both map an
    ``(n, 3)`` array of points to their values, ``(n, 3)`` and ``(n,)``.
    The discrete solution is compared with the hierarchical interpolant
    of ``exact_u``; for saddle problems with ``exact_p`` given, the
    pressure error at vertices is included in the max.
    """
    solve_spec = replace(spec, g_dirichlet=exact_u)
    system = assemble(mesh, solve_spec)
    x = spla.spsolve(system.monolithic().tocsc(), system.rhs())

    # the interpolant's vertex values and edge corrections, of which the
    # free nodes come in layout order
    u_v = exact_u(mesh.vertices)
    a, b = mesh.edges.T
    u_e = exact_u(0.5 * (mesh.vertices[a] + mesh.vertices[b])) - 0.5 * (u_v[a] + u_v[b])
    free = free_node_index(mesh) >= 0
    vd = system.layout.velocity_dof
    err = np.abs(x[:vd].reshape(-1, 3) - np.vstack([u_v, u_e])[free]).max()
    if spec.is_saddle and exact_p is not None:
        err = max(err, np.abs(x[vd:] - exact_p(mesh.vertices)).max())
    return err


def shape_values(bary: np.ndarray) -> np.ndarray:
    """Evaluate all ten scalar basis functions.

    ``bary`` is (..., 4) barycentric coordinates; the result appends a
    last axis of length 10 in hat-then-bubble order.
    """
    bary = np.asarray(bary, dtype=float)
    out = np.empty(bary.shape[:-1] + (N_SCALAR_BASIS,))
    out[..., :4] = bary
    for m, (i, j) in enumerate(TET_EDGES):
        out[..., 4 + m] = 4.0 * bary[..., i] * bary[..., j]
    return out


def triangle_quadrature_degree4() -> tuple[np.ndarray, np.ndarray]:
    """Symmetric 6-point triangle rule, exact for degree 4.

    Returns barycentric points (6, 3) and weights summing to one.
    """
    a1, w1 = 0.445948490915965, 0.223381589678011
    a2, w2 = 0.091576213509771, 0.109951743655322
    points = []
    weights = []
    for a, w in ((a1, w1), (a2, w2)):
        for i in range(3):
            p = [a] * 3
            p[i] = 1.0 - 2.0 * a
            points.append(tuple(p))
            weights.append(w)
    return np.array(points), np.array(weights)


def dof_node_incidence(layout) -> sp.csr_matrix:
    """Dof-to-node incidence ``D`` of a ``BlockLayout``, boolean
    ``total_dof x n_nodes``."""
    node = layout.node_of_dof()
    return sp.csr_matrix(
        (np.ones(node.size, dtype=bool), node, np.arange(node.size + 1)),
        shape=(layout.total_dof, layout.n_nodes),
    )


def node_pattern_product(layout, op, keep=None) -> sp.csr_matrix:
    """``D^T S D``, ``S`` the stored entries of ``op`` where ``keep``
    holds (all when None) and ``D = dof_node_incidence(layout)``, with
    sorted indices: the product form of ``BlockLayout.node_pattern``."""
    data = np.ones(op.nnz, dtype=bool) if keep is None else keep
    pattern = sp.csr_matrix((data, op.indices, op.indptr), shape=op.shape)
    d = dof_node_incidence(layout)
    nodes = (d.T @ pattern @ d).tocsr()
    nodes.sort_indices()
    return nodes


def reference_node_graph(matrix) -> sp.csr_matrix:
    """Node adjacency of a square node-level matrix through COO triplets:
    ``(i, j)`` for every stored off-diagonal entry and its mirror, summed
    and converted to boolean CSR with sorted indices."""
    n = matrix.shape[0]
    coo = matrix.tocoo()
    off = coo.row != coo.col
    i, j = coo.row[off], coo.col[off]
    graph = sp.coo_matrix(
        (np.ones(2 * len(i), dtype=bool), (np.concatenate([i, j]), np.concatenate([j, i]))),
        shape=(n, n),
    ).tocsr()
    graph.sort_indices()
    return graph


def edge_pressure_adjacency(mesh) -> sp.csr_matrix:
    """Vertex connectivity of a mesh from its edge list: ``(i, j)`` for
    every edge, both ways, and ``(i, i)`` for every vertex, summed
    through COO triplets with every stored value then set to 1."""
    nv = mesh.n_vertices
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
    return adj
