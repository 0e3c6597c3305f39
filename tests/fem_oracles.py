"""Discretisation oracles that only the tests use.

``element_matrices`` assembles the local matrices of one tetrahedron
from the library's element kernel, ``manufactured_solution_residual``
checks a direct solve against an exact solution, and ``shape_values``
evaluates the ten scalar basis functions.
"""
from dataclasses import replace

import numpy as np
import scipy.sparse.linalg as spla

from p2amg.assembly import ProblemSpec, _a_block_coefficient, _element_parts, assemble
from p2amg.basis import N_SCALAR_BASIS
from p2amg.mesh import TET_EDGES


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


def manufactured_solution_residual(mesh, spec: ProblemSpec, exact_u, exact_p=None) -> float:
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
