import hashlib
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.special import roots_jacobi, roots_legendre

from p2amg import assembly
from p2amg.assembly import (
    ProblemKind,
    ProblemSpec,
    assemble,
)
from p2amg.basis import shape_gradients, tet_quadrature_degree4
from p2amg.bench_cli import build_case
from p2amg.coarsening import build_hierarchy
from p2amg.errors import DegenerateElement, InvalidParameter, MissingTags
from p2amg.mesh import generate_unit_cube_mesh, tag_boundary

from conftest import everywhere, lid_displacement, z_faces
from fem_oracles import (
    edge_pressure_adjacency,
    element_matrices,
    free_node_index,
    manufactured_solution_residual,
    triangle_quadrature_degree4,
    triplet_assembly,
)

REF_TET = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


# ---------------------------------------------------------------------------
# independent quadrature oracle: conical-product Gauss rule on the unit tet
# (x = u, y = v(1-u), z = w(1-v)(1-u)) and hat gradients from the affine
# system [coords; 1] lam = [x; 1], a construction disjoint from the library


def conical_tet_rule(order=4):
    xu, wu = roots_jacobi(order, 2.0, 0.0)
    xv, wv = roots_jacobi(order, 1.0, 0.0)
    xw, ww = roots_legendre(order)
    xu, xv, xw = (xu + 1.0) / 2.0, (xv + 1.0) / 2.0, (xw + 1.0) / 2.0
    wu, wv, ww = wu / 8.0, wv / 4.0, ww / 2.0
    pts, wts = [], []
    for a, pa in zip(xu, wu):
        for b, pb in zip(xv, wv):
            for c, pc in zip(xw, ww):
                x = a
                y = b * (1.0 - a)
                z = c * (1.0 - b) * (1.0 - a)
                pts.append((x, y, z))
                wts.append(pa * pb * pc)
    return np.array(pts), np.array(wts)


def oracle_basis(coords):
    """Basis values/gradients via the explicit 4x4 affine inverse."""
    m = np.vstack([coords.T, np.ones(4)])
    minv = np.linalg.inv(m)

    def lam(x):
        return minv @ np.append(x, 1.0)

    grad_lam = minv[:, :3]  # row i = grad lam_i
    edges = ((0, 1), (1, 2), (2, 3), (0, 2), (0, 3), (1, 3))

    def values(x):
        lv = lam(x)
        out = np.empty(10)
        out[:4] = lv
        for k, (i, j) in enumerate(edges):
            out[4 + k] = 4.0 * lv[i] * lv[j]
        return out

    def gradients(x):
        lv = lam(x)
        out = np.empty((10, 3))
        out[:4] = grad_lam
        for k, (i, j) in enumerate(edges):
            out[4 + k] = 4.0 * (lv[i] * grad_lam[j] + lv[j] * grad_lam[i])
        return out

    return values, gradients


def oracle_scalar_stiffness(coords):
    pts, wts = conical_tet_rule()
    _, gradients = oracle_basis(coords)
    vol = abs(np.linalg.det(coords[1:] - coords[0])) / 6.0
    k = np.zeros((10, 10))
    for (x, y, z), w in zip(pts, wts):
        p = coords[0] + np.array(
            [x, y, z]
        ) @ (coords[1:] - coords[0])
        g = gradients(p)
        k += 6.0 * vol * w * (g @ g.T)
    return k


def oracle_element_forms(coords, spec):
    """a, B and C of one tet from the strain form, point by point.

    ``a(u, v) = 2 mu eps(u):eps(v)`` (plus ``lam div u div v`` for
    displacement elasticity), ``b(u, q) = -q div u`` and ``c(p, q) = p q
    / lam`` (mixed elasticity only).  Rows are test dofs, columns trial
    dofs, node-major with interleaved components.
    """
    pts, wts = conical_tet_rule()
    values, gradients = oracle_basis(coords)
    vol = abs(np.linalg.det(coords[1:] - coords[0])) / 6.0
    lam_div = spec.lam if spec.kind is ProblemKind.ELASTICITY_DISPLACEMENT else 0.0
    a = np.zeros((30, 30))
    b = np.zeros((4, 30))
    c = np.zeros((4, 4))
    for (x, y, z), w in zip(pts, wts):
        p = coords[0] + np.array([x, y, z]) @ (coords[1:] - coords[0])
        phi, grad = values(p), gradients(p)
        weight = 6.0 * vol * w
        # grad(phi_j e_c)[a, b] = delta_ac d_b phi_j
        grad_u = np.zeros((30, 3, 3))
        for j in range(10):
            for comp in range(3):
                grad_u[3 * j + comp, comp] = grad[j]
        strain = 0.5 * (grad_u + grad_u.transpose(0, 2, 1))
        div = np.trace(grad_u, axis1=1, axis2=2)
        a += weight * (
            2.0 * spec.mu * np.einsum("kab,lab->kl", strain, strain)
            + lam_div * np.outer(div, div)
        )
        b -= weight * np.outer(phi[:4], div)
        c += weight * np.outer(phi[:4], phi[:4])
    return a, b, c / spec.lam


def quadrature_parts(coords, kind):
    """The parts of ``assembly._element_parts``, accumulated over the
    11-point degree-4 rule point by point."""
    rule = tet_quadrature_degree4()
    t = coords[:, 1:] - coords[:, :1]
    vol = np.linalg.det(t) / 6.0
    grad = np.empty((coords.shape[0], 4, 3))
    grad[:, 1:] = np.transpose(np.linalg.inv(t), (0, 2, 1))
    grad[:, 0] = -grad[:, 1:].sum(axis=1)
    m = coords.shape[0]
    m1 = np.zeros((m, 10, 10))
    ecd = bvec = pmass = None
    if kind is not ProblemKind.VECTOR_LAPLACE:
        ecd = {(c, d): np.zeros((m, 10, 10)) for c in range(3) for d in range(3)}
    if kind in (ProblemKind.ELASTICITY_MIXED, ProblemKind.STOKES):
        bvec = np.zeros((3, m, 4, 10))
    if kind is ProblemKind.ELASTICITY_MIXED:
        pmass = np.zeros((m, 4, 4))
    for q, w in zip(rule.points, rule.weights):
        g = shape_gradients(q, grad)  # (m, 10, 3)
        wv = (w * vol)[:, None, None]
        m1 += wv * np.einsum("eic,ejc->eij", g, g)
        if ecd is not None:
            for (c, d), part in ecd.items():
                part += wv * (g[:, :, c, None] * g[:, None, :, d])
        if bvec is not None:
            for c in range(3):
                bvec[c] -= wv * (q[:4][None, :, None] * g[:, None, :, c])
        if pmass is not None:
            pmass += wv * np.outer(q[:4], q[:4])[None]
    return m1, ecd, bvec, pmass


KERNEL_TETS = {
    "reference": REF_TET,
    # x += 3 y + 2 z: faces far from orthogonal
    "sheared": REF_TET @ np.array([[1.0, 0.0, 0.0], [3.0, 1.0, 0.0], [2.0, 0.0, 1.0]]),
    # nearly flat and anisotropic, off the origin
    "distorted": np.array(
        [[0.3, -0.2, 1.0], [2.1, 0.1, 0.9], [0.4, 0.05, 1.02], [1.0, 0.6, 1.05]]
    ),
}


@pytest.mark.parametrize("kind", list(ProblemKind))
def test_element_parts_match_quadrature_loop(kind):
    # the reference-tensor kernel against the quadrature it replaces
    for name, coords in KERNEL_TETS.items():
        coords = coords[None]
        got = assembly._element_parts(coords, kind)
        want = quadrature_parts(coords, kind)
        for part, x, y in zip(("m1", "ecd", "bvec", "pmass"), got, want):
            if y is None:
                assert x is None, (name, part)
                continue
            if isinstance(y, dict):
                assert x.keys() == y.keys()
                x, y = np.stack([x[k] for k in y]), np.stack(list(y.values()))
            assert np.abs(x - y).max() <= 1e-14 * np.abs(y).max(), (name, part)


def test_p1_laplace_rows_sum_to_zero():
    a, _, _ = element_matrices(REF_TET, ProblemSpec(kind=ProblemKind.VECTOR_LAPLACE))
    scalar = a[0::3, 0::3][:4, :4]
    assert np.allclose(scalar.sum(axis=1), 0.0, atol=1e-14)


def test_element_stiffness_matches_quadrature_oracle():
    spec = ProblemSpec(kind=ProblemKind.VECTOR_LAPLACE)
    for coords in (
        REF_TET,
        np.array([[0.1, 0.0, 0.0], [1.3, 0.2, -0.1], [0.0, 0.8, 0.3], [0.2, 0.1, 1.4]]),
    ):
        a, _, _ = element_matrices(coords, spec)
        oracle = oracle_scalar_stiffness(coords)
        for c in range(3):
            comp = a[c::3, c::3]
            assert np.abs(comp - oracle).max() <= 1e-12 * np.abs(oracle).max()


@pytest.mark.parametrize(
    "kind",
    [
        ProblemKind.ELASTICITY_DISPLACEMENT,
        ProblemKind.ELASTICITY_MIXED,
        ProblemKind.STOKES,
    ],
)
def test_element_forms_match_quadrature_oracle(kind):
    spec = ProblemSpec(kind=kind, mu=2.0, lam=3.0)
    for coords in (
        REF_TET,
        np.array([[0.1, 0.0, 0.0], [1.3, 0.2, -0.1], [0.0, 0.8, 0.3], [0.2, 0.1, 1.4]]),
    ):
        a, b, c = element_matrices(coords, spec)
        oracle_a, oracle_b, oracle_c = oracle_element_forms(coords, spec)
        assert np.abs(a - oracle_a).max() <= 1e-13 * np.abs(oracle_a).max()
        if not spec.is_saddle:
            assert b is None and c is None
            continue
        assert np.abs(b - oracle_b).max() <= 1e-13 * np.abs(oracle_b).max()
        if spec.has_pressure_mass:
            assert np.abs(c - oracle_c).max() <= 1e-13 * np.abs(oracle_c).max()
        else:
            assert not np.any(c)


def test_element_matrices_symmetric_all_kinds():
    coords = np.array(
        [[0.0, 0.0, 0.0], [1.1, 0.0, 0.1], [0.2, 0.9, 0.0], [0.1, 0.3, 1.2]]
    )
    for kind in ProblemKind:
        spec = ProblemSpec(kind=kind, mu=2.0, lam=3.0)
        a, b, c = element_matrices(coords, spec)
        assert np.abs(a - a.T).max() <= 1e-12 * np.abs(a).max()
        if spec.is_saddle:
            assert b.shape == (4, 30)
            assert c.shape == (4, 4)


def test_b_matrix_kills_constant_velocity():
    coords = REF_TET
    spec = ProblemSpec(kind=ProblemKind.STOKES, mu=1.0)
    _, b, _ = element_matrices(coords, spec)
    # constant field in the hierarchical basis: vertex dofs only
    v = np.zeros(30)
    const = np.array([0.3, -1.2, 0.7])
    for node in range(4):
        v[3 * node : 3 * node + 3] = const
    assert np.abs(b @ v).max() <= 1e-14


def test_degenerate_element_raises():
    flat = REF_TET.copy()
    flat[3] = [0.5, 0.5, 0.0]  # coplanar
    with pytest.raises(DegenerateElement):
        element_matrices(flat, ProblemSpec(kind=ProblemKind.VECTOR_LAPLACE))
    inverted = REF_TET[[0, 2, 1, 3]]
    with pytest.raises(DegenerateElement):
        element_matrices(inverted, ProblemSpec(kind=ProblemKind.VECTOR_LAPLACE))


def test_problem_spec_validation():
    with pytest.raises(InvalidParameter):
        ProblemSpec(kind=ProblemKind.VECTOR_LAPLACE, mu=0.0)
    with pytest.raises(InvalidParameter):
        ProblemSpec(kind=ProblemKind.ELASTICITY_MIXED, mu=1.0, lam=-1.0)


def test_lift_calls_boundary_data_once_per_node_kind(cube2):
    # one call on the Dirichlet vertices, one on the Dirichlet edge midpoints
    points = []

    def data(x):
        points.append(x.copy())
        return lid_displacement(x)

    assemble(cube2, ProblemSpec(kind=ProblemKind.STOKES, g_dirichlet=data))
    assert len(points) == 2
    assert np.array_equal(points[0], cube2.vertices[cube2.dirichlet_vertices])
    a, b = cube2.edges[cube2.dirichlet_edges].T
    assert np.array_equal(points[1], 0.5 * (cube2.vertices[a] + cube2.vertices[b]))


@pytest.mark.parametrize(
    "data",
    [lambda x: np.zeros(3), lambda x: np.zeros(len(x)), lambda x: np.zeros((len(x), 2))],
    ids=["one-vector", "scalars", "two-components"],
)
def test_boundary_data_of_wrong_shape_raises(cube2, data):
    with pytest.raises(InvalidParameter):
        assemble(cube2, ProblemSpec(kind=ProblemKind.VECTOR_LAPLACE, g_dirichlet=data))


def test_assemble_requires_tags():
    with pytest.raises(MissingTags):
        assemble(generate_unit_cube_mesh(1), ProblemSpec(kind=ProblemKind.VECTOR_LAPLACE))


def test_assembled_laplacian_spd(laplace2):
    a = laplace2.monolithic()
    assert np.abs(a - a.T).max() <= 1e-12 * np.abs(a).max()
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = rng.standard_normal(a.shape[0])
        assert x @ (a @ x) > 0.0


def test_free_dof_count(cube2, laplace2):
    free_v = int((~cube2.dirichlet_vertices).sum())
    free_e = int((~cube2.dirichlet_edges).sum())
    assert laplace2.monolithic().shape[0] == 3 * (free_v + free_e)
    assert laplace2.layout.n_linear == free_v
    assert laplace2.layout.n_quadratic == free_e


def test_stokes_c_block_zero(stokes1):
    k = stokes1.monolithic()
    vd = stokes1.layout.velocity_dof
    assert k[vd:, vd:].nnz == 0
    assert np.abs((k - k.T)).max() <= 1e-12 * np.abs(k).max()


def test_mixed_system_symmetric_at_scale(mixed2):
    # entries span ~1e14 in magnitude; symmetry is relative to the largest
    k = mixed2.monolithic()
    assert np.abs((k - k.T)).max() <= 1e-12 * np.abs(k).max()
    vd = mixed2.layout.velocity_dof
    c = (-k[vd:, vd:]).toarray()
    rng = np.random.default_rng(3)
    for _ in range(5):
        q = rng.standard_normal(c.shape[0])
        assert q @ (c @ q) > 0.0


def test_c_block_scales_inverse_lambda(cube2):
    s1 = assemble(
        cube2,
        ProblemSpec(kind=ProblemKind.ELASTICITY_MIXED, mu=1.0, lam=2.0),
    )
    s2 = assemble(
        cube2,
        ProblemSpec(kind=ProblemKind.ELASTICITY_MIXED, mu=1.0, lam=4.0),
    )
    k1, k2 = s1.monolithic(), s2.monolithic()
    vd = s1.layout.velocity_dof
    c1, c2 = -k1[vd:, vd:], -k2[vd:, vd:]
    assert np.allclose(c1.toarray(), 2.0 * c2.toarray(), rtol=1e-14)


def test_vector_laplace_stores_no_cross_component_entries(laplace2):
    # the vector Laplacian couples equal components only; an entry
    # between different components is padding, not assembly
    coo = laplace2.monolithic().tocoo()
    assert np.array_equal(coo.row % 3, coo.col % 3)


@pytest.mark.parametrize("name", ["stokes2", "mixed2"])
def test_saddle_operator_stored_once(name, request):
    # stokes2, not stokes1: the one-cube Stokes system is singular, so no
    # hierarchy of it can be factored
    system = request.getfixturevalue(name)
    k = system.monolithic()
    assert system.monolithic() is k
    assert build_hierarchy(system).levels[0].operator is k


@pytest.mark.parametrize("name", ["stokes2", "mixed2"])
def test_stored_pattern_rule(name, request, cube2):
    # A drops every sum at or below COUPLING_TOL * sqrt(a_ii a_jj), so it
    # stores no zero; B keeps the element pattern, stored zeros included:
    # each pressure vertex against the three components of every free
    # velocity node of its tets
    system = request.getfixturevalue(name)
    k = system.monolithic()
    vd = system.layout.velocity_dof
    assert np.all(k[:vd, :vd].data != 0.0)
    nv = cube2.n_vertices
    node_block = free_node_index(cube2)
    expected = set()
    for tet, edges in zip(cube2.tets, cube2.tet_edges):
        for node in node_block[np.concatenate([tet, nv + edges])]:
            if node >= 0:
                expected.update((p, 3 * node + c) for p in tet for c in range(3))
    b = k[vd:, :vd].tocoo()
    bt = k[:vd, vd:].tocoo()
    assert set(zip(b.row.tolist(), b.col.tolist())) == expected
    assert set(zip(bt.col.tolist(), bt.row.tolist())) == expected


def dense_assembly_oracle(mesh, spec):
    """Operator and rhs from a dense loop over ``element_matrices``."""
    nv = mesh.n_vertices
    n_full = 3 * (nv + mesh.n_edges)
    k = np.zeros((n_full, n_full))
    bm = np.zeros((nv, n_full))
    cm = np.zeros((nv, nv))
    for tet, edges in zip(mesh.tets, mesh.tet_edges):
        nodes = np.concatenate([tet, nv + edges])
        dofs = (3 * nodes[:, None] + np.arange(3)).ravel()
        a, b, c = element_matrices(mesh.vertices[tet], spec)
        k[np.ix_(dofs, dofs)] += a
        if spec.is_saddle:
            bm[np.ix_(tet, dofs)] += b
            cm[np.ix_(tet, tet)] += c
    # hierarchical lift: vertex values, edge midpoint minus endpoint mean
    u = np.zeros((nv + mesh.n_edges, 3))
    dir_v, dir_e = mesh.dirichlet_vertices, mesh.dirichlet_edges
    for v in np.flatnonzero(dir_v):
        u[v] = spec.g_dirichlet(mesh.vertices[v : v + 1])[0]
    for e in np.flatnonzero(dir_e):
        x0, x1 = mesh.vertices[mesh.edges[e]]
        g0, g1, gm = spec.g_dirichlet(np.array([x0, x1, 0.5 * (x0 + x1)]))
        u[nv + e] = gm - 0.5 * (g0 + g1)
    u = u.ravel()
    free_nodes = np.concatenate([np.flatnonzero(~dir_v), nv + np.flatnonzero(~dir_e)])
    free = (3 * free_nodes[:, None] + np.arange(3)).ravel()
    op = k[np.ix_(free, free)]
    rhs = -(k @ u)[free]
    if spec.is_saddle:
        b = bm[:, free]
        op = np.block([[op, b.T], [b, -cm]])
        rhs = np.concatenate([rhs, -(bm @ u)])
    return op, rhs


@pytest.mark.parametrize("kind", list(ProblemKind))
def test_assembly_matches_dense_element_loop(kind, cube2):
    spec = ProblemSpec(kind=kind, mu=2.0, lam=3.0, g_dirichlet=lid_displacement)
    system = assemble(cube2, spec)
    oracle_op, oracle_rhs = dense_assembly_oracle(cube2, spec)
    op = system.monolithic().toarray()
    assert op.shape == oracle_op.shape
    assert np.abs(op - oracle_op).max() <= 1e-13 * np.abs(oracle_op).max()
    assert np.abs(system.rhs() - oracle_rhs).max() <= 1e-13 * np.abs(oracle_rhs).max()


@pytest.mark.parametrize("kind", list(ProblemKind))
def test_assembly_across_chunks_matches_one_chunk(kind, cube2, monkeypatch):
    spec = ProblemSpec(kind=kind, mu=2.0, lam=3.0, g_dirichlet=lid_displacement)
    one = assemble(cube2, spec)
    monkeypatch.setattr(assembly, "_CHUNK", 7)  # 48 tets: seven chunks
    many = assemble(cube2, spec)
    op_one, op_many = one.monolithic().toarray(), many.monolithic().toarray()
    assert np.abs(op_many - op_one).max() <= 1e-13 * np.abs(op_one).max()
    assert np.abs(many.rhs() - one.rhs()).max() <= 1e-13 * np.abs(one.rhs()).max()


@pytest.mark.parametrize("kind", [ProblemKind.STOKES, ProblemKind.ELASTICITY_MIXED])
def test_saddle_assembly_matches_triplet_path(kind, cube2):
    # the one stored pattern against global triplets summed through COO:
    # the same stored entries, B's exact zeros included
    spec = ProblemSpec(kind=kind, mu=2.0, lam=3.0, g_dirichlet=lid_displacement)
    system = assemble(cube2, spec)
    oracle, oracle_rhs = triplet_assembly(cube2, spec)
    op = system.monolithic()
    assert np.count_nonzero(oracle.data == 0.0) > 0
    assert np.array_equal(op.indptr, oracle.indptr)
    assert np.array_equal(op.indices, oracle.indices)
    assert np.abs(op.data - oracle.data).max() <= 1e-14 * np.abs(oracle.data).max()
    assert np.abs(system.rhs() - oracle_rhs).max() <= 1e-14 * np.abs(oracle_rhs).max()


@pytest.mark.parametrize("problem", ["elasticity_mixed", "stokes"])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_pressure_adjacency_matches_edge_list(problem, n):
    # the vertex graph from the tet incidence equals the one summed from
    # the mesh's edge list, arrays and dtypes to the bit
    mesh, spec = build_case(problem, n)
    got = assemble(mesh, spec).pressure_adjacency
    ref = edge_pressure_adjacency(mesh)
    assert got.shape == ref.shape
    for name in ("indptr", "indices", "data"):
        x, y = getattr(got, name), getattr(ref, name)
        assert x.dtype == y.dtype, name
        assert x.tobytes() == y.tobytes(), name


#: SHA-256 of the stored bytes of each assembled operator's CSR arrays
#: (float64 data, int32 indices and row pointer) and of its right-hand
#: side, for the benchmark cases at n = 4: assembly is pinned to the bit
ASSEMBLY_DIGESTS = {
    "vector_laplace": {
        "data": "739f2c32e6d4aae6860f864c337800311ccd47f08bb22be8484397d0d6838b31",
        "indices": "63cd5b0b2420d8e9a467d2875bc8ff40057bb281ffe1c3d9c534c1fd0fa0d18a",
        "indptr": "3c1baaa8207f6abfdfca537c56471fd1512cdc8b0ce5af7a0a6fe3d36619daff",
        "rhs": "24266aa53a159804a15cad9f2f066b3b96ff8f456d42d5d87ee578cf29786bd5",
    },
    "elasticity_displacement": {
        "data": "31b9337b4eb97d1c3f8d2262a6f059a262635e470e899ad1a4c26d4a267ca2ef",
        "indices": "a8d35eb6b5bcaee2577a1076d63376e4b7a2e3ace627231698b7fc377cb4cf59",
        "indptr": "00067ea0ebd7086e6c37b165707b54a1464c9a40054dd0d3d1ef4ea34d72bb18",
        "rhs": "9f38efa4604224c765729092e826792aa36258090072601bd608fc180b53a865",
    },
    "elasticity_mixed": {
        "data": "e8250fc355b6a609fde162403a064f8c2dd43847084afaeba5f0f0552001a71f",
        "indices": "1000467e18af1688ad9687cc1d1d1eb87cab9e01c100528e21fa1263157024b8",
        "indptr": "88f9f3f5e5385fd39034a5b8e2046f1d9c16e5f2a3e7494c20845a732fe78d8c",
        "rhs": "6ccd600628b66ea5ffd4251a9e46b3529d8646dd8c483943f1a6c688dcf422b0",
    },
    "stokes": {
        "data": "b135e1de6e15d2b6877f0ae3447dce84c76ab19bce80a7975ae845ec4dccef5a",
        "indices": "25a0736e65f881c64c4d10cb02fda93faaaff7904775615283d63a7427516ecc",
        "indptr": "98a70287cff6a4f306de330c37fd96ac5a35042434d3d1dfafc11030913fd5dc",
        "rhs": "94987e00aed07a8ef83e3750d29e1d3d35856aee49b530779891300a1921bc84",
    },
}


@pytest.mark.parametrize("problem", sorted(ASSEMBLY_DIGESTS))
def test_assembled_system_is_pinned(problem):
    system = assemble(*build_case(problem, 4))
    op = system.monolithic()
    arrays = {"data": op.data, "indices": op.indices, "indptr": op.indptr, "rhs": system.rhs()}
    digests = {key: hashlib.sha256(a.tobytes()).hexdigest() for key, a in arrays.items()}
    assert digests == ASSEMBLY_DIGESTS[problem]


def test_assembly_memory_is_bounded():
    # the traced peak of assemble stays within 3x the bytes of the operator
    # it stores; Stokes n = 8 stores 17.1 MiB
    mesh, spec = build_case("stokes", 8, mu=0.5)
    tracemalloc.start()
    try:
        system = assemble(mesh, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    k = system.monolithic()
    assert peak <= 3 * (k.data.nbytes + k.indices.nbytes + k.indptr.nbytes)


def test_hierarchical_split_matches_p1_assembly(cube2, laplace2):
    """Independent P1-only assembly must equal the K_ll partition."""
    free = np.flatnonzero(~cube2.dirichlet_vertices)
    index = {v: i for i, v in enumerate(free)}
    n = len(free)
    k_oracle = np.zeros((n, n))
    for tet in cube2.tets:
        x = cube2.vertices[tet]
        t = x[1:] - x[0]
        vol = np.linalg.det(t) / 6.0
        grads = np.zeros((4, 3))
        grads[1:] = np.linalg.inv(t).T
        grads[0] = -grads[1:].sum(axis=0)
        local = vol * grads @ grads.T
        for i, vi in enumerate(tet):
            for j, vj in enumerate(tet):
                if vi in index and vj in index:
                    k_oracle[index[vi], index[vj]] += local[i, j]
    k_ll = laplace2.monolithic()[: 3 * n, : 3 * n]
    scalar = k_ll[0::3, 0::3].toarray()
    assert np.abs(scalar - k_oracle).max() <= 1e-13 * np.abs(k_oracle).max()


def test_manufactured_laplace_quadratic():
    mesh = tag_boundary(generate_unit_cube_mesh(2), everywhere)
    spec = ProblemSpec(kind=ProblemKind.VECTOR_LAPLACE)
    err = manufactured_solution_residual(
        mesh,
        spec,
        lambda x: x**2 - np.roll(x, -1, axis=1) ** 2,
    )
    assert err <= 1e-8


def test_manufactured_elasticity_linear():
    mesh = tag_boundary(generate_unit_cube_mesh(2), everywhere)
    spec = ProblemSpec(kind=ProblemKind.ELASTICITY_DISPLACEMENT, mu=2.0, lam=3.0)
    gradient = np.array([[0.2, 0.0, 0.5], [0.0, 0.1, 0.0], [1.0, 0.0, -0.3]])
    err = manufactured_solution_residual(mesh, spec, lambda x: x @ gradient.T)
    assert err <= 1e-10


def test_manufactured_stokes_linear():
    # u linear divergence-free, p constant; the outflow face x=1 has no
    # Dirichlet condition, and with p0 = 2 mu its traction
    # (2 mu eps(u) - p0 I) n = (2 mu - p0, 0, 0) vanishes
    mu = 0.5
    p0 = 2.0 * mu

    def exact_u(x):
        return x * np.array([1.0, 1.0, -2.0])

    def dirichlet(v):
        # everything except the interior of the outflow face x = 1
        tol = 1e-12
        on_wall = np.any((v[:, 1:] < tol) | (v[:, 1:] > 1 - tol), axis=1)
        return (v[:, 0] < 1.0 - tol) | on_wall

    mesh = tag_boundary(generate_unit_cube_mesh(2), dirichlet)
    spec = ProblemSpec(kind=ProblemKind.STOKES, mu=mu)
    err = manufactured_solution_residual(mesh, spec, exact_u, exact_p=lambda x: p0)
    assert err <= 1e-8


def test_divergence_rows_on_translation_lift(cube1):
    """b(lift of a rigid translation, q) vanishes; checked against the
    independent quadrature oracle and the divergence theorem."""
    spec = ProblemSpec(
        kind=ProblemKind.STOKES,
        mu=1.0,
        g_dirichlet=lambda x: np.broadcast_to([1.0, 0.0, 0.0], x.shape),
    )
    mesh = tag_boundary(generate_unit_cube_mesh(1), everywhere)
    system = assemble(mesh, spec)
    # n=1, all-Dirichlet: the lift spans every vertex, so it interpolates
    # the constant field exactly and the assembled g = -B u_lift is the
    # elementwise quadrature of q div(const) = 0
    g_l = system.rhs()[system.layout.velocity_dof :]
    assert np.abs(g_l).max() <= 1e-14

    # divergence theorem per hat: surface flux equals volume gradient term
    tri_pts, tri_wts = triangle_quadrature_degree4()
    const = np.array([1.0, 0.0, 0.0])
    center = mesh.vertices.mean(axis=0)
    for vertex in range(mesh.n_vertices):
        flux = 0.0
        for tri in mesh.boundary_faces:
            a, b, c = mesh.vertices[tri]
            normal = np.cross(b - a, c - a) / 2.0  # area-weighted
            # the cube is convex: outward is away from its center
            normal *= np.sign(normal @ ((a + b + c) / 3.0 - center))
            if vertex not in tri:
                continue
            local = list(tri).index(vertex)
            hat_integral = np.sum(tri_wts * tri_pts[:, local])
            flux += hat_integral * (normal @ const)
        volume = 0.0
        pts, wts = conical_tet_rule()
        for tet in mesh.tets:
            if vertex not in tet:
                continue
            coords = mesh.vertices[tet]
            m = np.vstack([coords.T, np.ones(4)])
            grad = np.linalg.inv(m)[:, :3]
            vol = abs(np.linalg.det(coords[1:] - coords[0])) / 6.0
            local = list(tet).index(vertex)
            volume += vol * grad[local] @ const
        assert abs(flux - volume) <= 1e-13
