import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.special import roots_jacobi, roots_legendre

from p2amg.assembly import (
    ProblemKind,
    ProblemSpec,
    assemble,
    element_matrices,
    export_matrix_market,
    manufactured_solution_residual,
)
from p2amg.basis import triangle_quadrature_degree4
from p2amg.coarsening import build_hierarchy
from p2amg.errors import DegenerateElement, InvalidParameter, MissingTags
from p2amg.mesh import BoundaryTag, generate_unit_cube_mesh, tag_boundary

from conftest import lid_displacement, z_faces

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
    free_v = int((cube2.vertex_tags != BoundaryTag.DIRICHLET).sum())
    free_e = int((cube2.edge_tags != BoundaryTag.DIRICHLET).sum())
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


def test_hierarchical_split_matches_p1_assembly(cube2, laplace2):
    """Independent P1-only assembly must equal the K_ll partition."""
    free = np.flatnonzero(cube2.vertex_tags != BoundaryTag.DIRICHLET)
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
    mesh = tag_boundary(generate_unit_cube_mesh(2), lambda v: True)
    spec = ProblemSpec(kind=ProblemKind.VECTOR_LAPLACE)
    err = manufactured_solution_residual(
        mesh,
        spec,
        lambda x: np.array([x[0] ** 2 - x[1] ** 2, x[1] ** 2 - x[2] ** 2, x[2] ** 2 - x[0] ** 2]),
    )
    assert err <= 1e-8


def test_manufactured_elasticity_linear():
    mesh = tag_boundary(generate_unit_cube_mesh(2), lambda v: True)
    spec = ProblemSpec(kind=ProblemKind.ELASTICITY_DISPLACEMENT, mu=2.0, lam=3.0)
    err = manufactured_solution_residual(
        mesh,
        spec,
        lambda x: np.array([0.2 * x[0] + 0.5 * x[2], 0.1 * x[1], -0.3 * x[2] + x[0]]),
    )
    assert err <= 1e-10


def test_manufactured_stokes_linear():
    # u linear divergence-free, p constant; the outflow face x=1 stays
    # Neumann with the matching traction (2 mu eps(u) - p I) n
    mu, p0 = 0.5, 0.7

    def exact_u(x):
        return np.array([x[0], x[1], -2.0 * x[2]])

    eps = np.diag([1.0, 1.0, -2.0])
    normal = np.array([1.0, 0.0, 0.0])
    traction = (2.0 * mu * eps - p0 * np.eye(3)) @ normal

    def dirichlet(v):
        # everything except the interior of the outflow face x = 1
        tol = 1e-12
        on_wall = (
            v[1] < tol or v[1] > 1 - tol or v[2] < tol or v[2] > 1 - tol
        )
        return v[0] < 1.0 - tol or on_wall

    mesh = tag_boundary(generate_unit_cube_mesh(2), dirichlet)
    spec = ProblemSpec(
        kind=ProblemKind.STOKES,
        mu=mu,
        g_neumann=lambda x: traction,
    )
    err = manufactured_solution_residual(mesh, spec, exact_u, exact_p=lambda x: p0)
    assert err <= 1e-8


def test_divergence_rows_on_translation_lift(cube1):
    """b(lift of a rigid translation, q) vanishes; checked against the
    independent quadrature oracle and the divergence theorem."""
    spec = ProblemSpec(
        kind=ProblemKind.STOKES,
        mu=1.0,
        g_dirichlet=lambda x: np.array([1.0, 0.0, 0.0]),
    )
    mesh = tag_boundary(generate_unit_cube_mesh(1), lambda v: True)
    system = assemble(mesh, spec)
    # n=1, all-Dirichlet: the lift spans every vertex, so it interpolates
    # the constant field exactly and the assembled g = -B u_lift is the
    # elementwise quadrature of q div(const) = 0
    g_l = system.rhs()[system.layout.velocity_dof :]
    assert np.abs(g_l).max() <= 1e-14

    # divergence theorem per hat: surface flux equals volume gradient term
    tri_pts, tri_wts = triangle_quadrature_degree4()
    const = np.array([1.0, 0.0, 0.0])
    for vertex in range(mesh.n_vertices):
        flux = 0.0
        for tri in mesh.boundary_faces:
            a, b, c = mesh.vertices[tri]
            normal = np.cross(b - a, c - a) / 2.0  # area-weighted outward
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


def test_export_matrix_market(tmp_path, laplace2):
    prefix = str(tmp_path / "system")
    mtx, header = export_matrix_market(laplace2, prefix)
    again = scipy.io.mmread(mtx)
    assert np.abs(again - laplace2.monolithic()).max() <= 0.0
    text = open(header).read()
    assert f"linear_nodes {laplace2.layout.n_linear}" in text
    assert f"quadratic_nodes {laplace2.layout.n_quadratic}" in text


def test_neumann_load_enters_rhs(cube2):
    spec = ProblemSpec(
        kind=ProblemKind.VECTOR_LAPLACE,
        g_dirichlet=lid_displacement,
        g_neumann=lambda x: np.array([1.0, 0.0, 0.0]),
    )
    loaded = assemble(cube2, spec)
    base = assemble(cube2, ProblemSpec(kind=ProblemKind.VECTOR_LAPLACE, g_dirichlet=lid_displacement))
    diff = loaded.rhs() - base.rhs()
    # per Neumann triangle of area A: every free hat gets A/3 and every
    # free face bubble gets int 4*z_a*z_b = A/3 of the unit traction
    nv = cube2.n_vertices
    edge_index = {tuple(e): i for i, e in enumerate(map(tuple, cube2.edges))}
    oracle = 0.0
    for tri, is_dir in zip(cube2.boundary_faces, cube2.dirichlet_faces):
        if is_dir:
            continue
        a, b, c = cube2.vertices[tri]
        area = 0.5 * np.linalg.norm(np.cross(b - a, c - a))
        for v in tri:
            if cube2.vertex_tags[v] != BoundaryTag.DIRICHLET:
                oracle += area / 3.0
        for i, j in ((0, 1), (1, 2), (0, 2)):
            e = edge_index[tuple(sorted((tri[i], tri[j])))]
            if cube2.edge_tags[e] != BoundaryTag.DIRICHLET:
                oracle += area / 3.0
    assert abs(diff.sum() - oracle) <= 1e-12
