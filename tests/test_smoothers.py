import numpy as np
import pytest
import scipy.sparse as sp

from p2amg.errors import (
    InvalidParameter,
    MalformedSystem,
    SingularBlock,
    SingularPatch,
)
from p2amg.smoothers import (
    BraessSarazinSmoother,
    GaussSeidelSmoother,
    JacobiSmoother,
    SegregatedGSSmoother,
    SmootherConfig,
    SmootherKind,
    VankaSmoother,
    build_schur_preconditioner,
    make_smoother,
    parse_smoother,
)
from p2amg.sparse_core import BlockLayout, as_operator


def scalar_layout(n_vel, n_pressure=0):
    return BlockLayout(n_linear=n_vel, n_quadratic=0, n_pressure=n_pressure, block_size=1)


def gauss_seidel(matrix):
    """Symmetric GS on a plain matrix: forward pre-, backward post-sweeps."""
    op, layout, _ = as_operator(matrix)
    return GaussSeidelSmoother(op, layout)


def saddle_parts(a, b, c):
    """Assemble the monolithic [[A, B^T], [B, -C]] and its layout."""
    k = np.block([[a, b.T], [b, -c]])
    layout = scalar_layout(a.shape[0], b.shape[0])
    return sp.csr_matrix(k), layout


# ---------------------------------------------------------------------------
# smoother strings


@pytest.mark.parametrize(
    "name,kind,pre,post,omega",
    [
        ("JA-1-1-0.5", SmootherKind.JACOBI, 1, 1, 0.5),
        ("JA-2-2-0.5", SmootherKind.JACOBI, 2, 2, 0.5),
        ("GS-1-1", SmootherKind.GAUSS_SEIDEL, 1, 1, 1.0),
        ("GS-2-2", SmootherKind.GAUSS_SEIDEL, 2, 2, 1.0),
        ("sGS-2-2", SmootherKind.SEGREGATED_GS, 2, 2, 0.125),
        ("Braess-Sarazin-1-1", SmootherKind.BRAESS_SARAZIN, 1, 1, 1.0),
        ("Vanka", SmootherKind.VANKA, 1, 1, 1.0),
        ("Vanka-2-2", SmootherKind.VANKA, 2, 2, 1.0),
    ],
)
def test_parse_smoother(name, kind, pre, post, omega):
    cfg = parse_smoother(name)
    assert cfg.kind is kind
    assert (cfg.m_pre, cfg.m_post) == (pre, post)
    assert cfg.omega == omega


def test_parse_smoother_roundtrip():
    for name in ("JA-1-1-0.5", "GS-2-2", "sGS-2-2", "Braess-Sarazin-1-1"):
        assert parse_smoother(name).name == name


def test_parse_smoother_rejects_garbage():
    with pytest.raises(InvalidParameter):
        parse_smoother("SOR-1-1")


def test_smoother_config_validation():
    with pytest.raises(InvalidParameter):
        SmootherConfig(kind=SmootherKind.JACOBI, omega=0.0)
    with pytest.raises(InvalidParameter):
        SmootherConfig(kind=SmootherKind.JACOBI, m_pre=-1)
    for direction in ("sideways", "backward"):
        with pytest.raises(InvalidParameter):
            SmootherConfig(kind=SmootherKind.GAUSS_SEIDEL, gs_direction=direction)


# ---------------------------------------------------------------------------
# Jacobi


def test_jacobi_diagonal_system_one_sweep():
    a = sp.diags([2.0, 4.0, 8.0]).tocsr()
    b = np.array([2.0, 4.0, 8.0])
    x = JacobiSmoother(a, omega=1.0).presmooth(np.zeros(3), b, 1)
    assert np.allclose(x, 1.0)


def test_jacobi_hand_values():
    a = sp.csr_matrix(np.array([[2.0, 0.0], [0.0, 4.0]]))
    x = JacobiSmoother(a, omega=0.5).presmooth(np.zeros(2), np.array([2.0, 4.0]), 1)
    assert np.allclose(x, [0.5, 0.5])


def test_jacobi_fixed_point():
    rng = np.random.default_rng(1)
    q = rng.standard_normal((12, 12))
    a = sp.csr_matrix(q @ q.T + 12 * np.eye(12))
    x_star = rng.standard_normal(12)
    b = a @ x_star
    x = JacobiSmoother(a, omega=0.7).presmooth(x_star.copy(), b, 1)
    assert np.linalg.norm(x - x_star) <= 1e-13 * np.linalg.norm(x_star)


def test_cycle_jacobi_is_pointwise_on_node_blocks():
    # JA in the cycle scales by diag(A) even where the 3x3 node blocks
    # have off-diagonal entries; block Jacobi would differ here
    rng = np.random.default_rng(3)
    q = rng.standard_normal((12, 12))
    a = sp.csr_matrix(q @ q.T + 12 * np.eye(12))
    lay = BlockLayout(n_linear=4, n_quadratic=0, block_size=3)
    x, b = rng.standard_normal(12), rng.standard_normal(12)
    cfg = SmootherConfig(kind=SmootherKind.JACOBI, omega=0.5)
    expected = x + 0.5 * (b - a @ x) / a.diagonal()
    got = make_smoother(a, lay, cfg).presmooth(x.copy(), b, 1)
    assert np.allclose(got, expected, rtol=1e-14, atol=1e-14)
    direct = JacobiSmoother(a, omega=0.5).presmooth(x.copy(), b, 1)
    assert np.allclose(direct, expected, rtol=1e-14, atol=1e-14)


def test_jacobi_singular_block():
    a = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(SingularBlock):
        JacobiSmoother(a).presmooth(np.zeros(2), np.ones(2), 1)


def test_jacobi_reduces_a_norm(laplace2):
    # guaranteed whenever omega * lam_max(D^-1 A) < 2; at omega = 1 the
    # top mode (lam_max ~ 3.0) is amplified, so the safe range is tested
    a = laplace2.monolithic()
    rng = np.random.default_rng(42)
    for omega in (0.25, 0.5):
        sm = JacobiSmoother(a, omega)
        for _ in range(20):
            e = rng.standard_normal(a.shape[0])
            before = e @ (a @ e)
            x = -e.copy()
            sm.presmooth(x, np.zeros(a.shape[0]), 1)
            assert x @ (a @ x) < before


# ---------------------------------------------------------------------------
# Gauss-Seidel


def test_gs_lower_triangular_exact_forward():
    a = sp.csr_matrix(np.array([[2.0, 0.0, 0.0], [1.0, 3.0, 0.0], [4.0, 5.0, 6.0]]))
    x_star = np.array([1.0, -2.0, 0.5])
    x = gauss_seidel(a).presmooth(np.zeros(3), a @ x_star, 1)
    assert np.allclose(x, x_star, atol=1e-14)


def test_gs_upper_triangular_exact_backward():
    a = sp.csr_matrix(np.array([[2.0, 1.0], [0.0, 3.0]]))
    x_star = np.array([0.3, -1.0])
    x = gauss_seidel(a).postsmooth(np.zeros(2), a @ x_star, 1)
    assert np.allclose(x, x_star, atol=1e-14)


def test_gs_hand_values():
    a = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
    x = gauss_seidel(a).presmooth(np.zeros(2), np.array([3.0, 4.0]), 1)
    assert np.allclose(x, [1.5, 5.0 / 6.0], rtol=1e-15)


def test_gs_fixed_point():
    rng = np.random.default_rng(3)
    q = rng.standard_normal((10, 10))
    a = sp.csr_matrix(q @ q.T + 10 * np.eye(10))
    x_star = rng.standard_normal(10)
    sm = gauss_seidel(a)
    for smooth in (sm.presmooth, sm.postsmooth):
        x = smooth(x_star.copy(), a @ x_star, 1)
        assert np.linalg.norm(x - x_star) <= 1e-13 * np.linalg.norm(x_star)


def test_gs_block_sweep_matches_reference(laplace2):
    """Triangular-solve implementation equals an explicit block sweep."""
    a = laplace2.monolithic()
    lay = laplace2.layout
    rng = np.random.default_rng(4)
    b = rng.standard_normal(a.shape[0])
    x0 = rng.standard_normal(a.shape[0])

    sm = GaussSeidelSmoother(a, lay)
    fast = sm.presmooth(x0.copy(), b, 1)

    dense = a.toarray()
    ref = x0.copy()
    for node in range(lay.n_velocity_nodes):
        s = slice(3 * node, 3 * node + 3)
        r = b[s] - dense[s] @ ref
        ref[s] += np.linalg.solve(dense[s, s], r)
    assert np.allclose(fast, ref, atol=1e-11 * np.abs(ref).max())


def test_gs_reduces_a_norm(laplace2):
    a = laplace2.monolithic()
    sm = GaussSeidelSmoother(a, laplace2.layout)
    rng = np.random.default_rng(43)
    for _ in range(20):
        e = rng.standard_normal(a.shape[0])
        before = e @ (a @ e)
        x = -e.copy()
        sm.presmooth(x, np.zeros(a.shape[0]), 1)
        assert x @ (a @ x) < before


# ---------------------------------------------------------------------------
# Vanka


def test_vanka_patches_match_pattern_oracle(stokes1):
    patches = VankaSmoother(stokes1.monolithic(), stokes1.layout).patches
    assert len(patches) == stokes1.layout.n_pressure
    vd = stokes1.layout.velocity_dof
    b = stokes1.monolithic()[vd:, :vd]
    for patch in patches:
        row = b.getrow(patch.pressure_index)
        nodes = np.unique(row.indices[row.data != 0.0] // 3)
        assert np.array_equal(nodes, patch.velocity_nodes)


def test_vanka_empty_patch_raises():
    a = np.eye(2)
    b = np.array([[1.0, 1.0], [0.0, 0.0]])  # second pressure row zeroed
    c = np.zeros((2, 2))
    k, lay = saddle_parts(a, b, c)
    with pytest.raises(MalformedSystem):
        VankaSmoother(k, lay)


def test_vanka_requires_saddle(laplace2):
    with pytest.raises(MalformedSystem):
        VankaSmoother(laplace2.monolithic(), laplace2.layout)


def test_vanka_single_patch_is_exact_solve():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 4))
    a = a @ a.T + 4 * np.eye(4)
    b = rng.standard_normal((1, 4))
    c = np.array([[0.5]])
    k, lay = saddle_parts(a, b, c)
    x_star = rng.standard_normal(5)
    x = VankaSmoother(k, lay, omega=1.0).presmooth(np.zeros(5), k @ x_star, 1)
    assert np.allclose(x, x_star, atol=1e-12)


def test_vanka_per_patch_residual_annihilation(stokes2):
    k = stokes2.monolithic()
    lay = stokes2.layout
    sm = VankaSmoother(k, lay, omega=1.0)
    rng = np.random.default_rng(6)
    b = rng.standard_normal(k.shape[0])
    b_norm = np.linalg.norm(b)
    x = np.zeros(k.shape[0])
    # replicate one multiplicative sweep, checking each local residual
    # right after its patch update
    from p2amg.sparse_core import coarse_solve

    r = b - k @ x
    for dofs, factor in zip(sm._dofs, sm._factors):
        delta = coarse_solve(factor, r[dofs])
        x[dofs] += delta
        r -= sm.op_csc[:, dofs] @ delta
        assert np.abs(r[dofs]).max() <= 1e-12 * b_norm


def test_vanka_two_disjoint_patches_match_dense_oracle():
    a = np.diag([2.0, 3.0, 4.0, 5.0])
    b = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 2.0]])
    c = np.zeros((2, 2))
    k, lay = saddle_parts(a, b, c)
    rng = np.random.default_rng(7)
    rhs = rng.standard_normal(6)

    x = VankaSmoother(k, lay, omega=1.0).presmooth(np.zeros(6), rhs, 1)

    # oracle: sequential exact local solves with explicit residual update
    kd = k.toarray()
    ref = np.zeros(6)
    for dofs in (np.array([0, 1, 4]), np.array([2, 3, 5])):
        r = rhs - kd @ ref
        ref[dofs] += np.linalg.solve(kd[np.ix_(dofs, dofs)], r[dofs])
    assert np.allclose(x, ref, atol=1e-13)


def test_vanka_fixed_point(stokes1):
    k = stokes1.monolithic()
    rng = np.random.default_rng(8)
    x_star = rng.standard_normal(k.shape[0])
    sm = VankaSmoother(k, stokes1.layout, omega=1.0)
    x = sm.presmooth(x_star.copy(), k @ x_star, 1)
    assert np.linalg.norm(x - x_star) <= 1e-13 * np.linalg.norm(x_star)


def test_vanka_singular_patch():
    # two velocity rows of the local saddle system coincide
    a = np.zeros((2, 2))
    b = np.array([[1.0, 1.0]])
    c = np.zeros((1, 1))
    k, lay = saddle_parts(a, b, c)
    with pytest.raises(SingularPatch):
        VankaSmoother(sp.csr_matrix(k), lay)


@pytest.fixture(scope="module")
def channel_vanka():
    """Stokes channel at n = 2: 45 patches, some waves hold two."""
    from p2amg.assembly import assemble
    from p2amg.bench_cli import build_case

    mesh, spec = build_case("stokes", 2, mu=0.5)
    system = assemble(mesh, spec)
    k = system.monolithic()
    return k, system.layout, VankaSmoother(k, system.layout, omega=1.0)


def vanka_wave_members(sm):
    """Patch indices of each wave, recovered from its factor objects."""
    index = {id(f): p for p, f in enumerate(sm._factors)}
    return [[index[id(f)] for f in wave.factors] for wave in sm._waves]


def test_vanka_waves_are_uncoupled_and_ordered(channel_vanka):
    k, _, sm = channel_vanka
    kd = k.toarray()
    dofs = sm._dofs
    members = vanka_wave_members(sm)
    assert sorted(p for wave in members for p in wave) == list(range(len(dofs)))
    assert max(len(wave) for wave in members) >= 2
    wave_of = {p: w for w, wave in enumerate(members) for p in wave}
    for w, wave in enumerate(members):
        assert np.array_equal(sm._waves[w].dofs, np.concatenate([dofs[p] for p in wave]))
        for p in wave:
            for q in wave:
                if p != q:
                    assert np.intersect1d(dofs[p], dofs[q]).size == 0
                    assert not kd[np.ix_(dofs[p], dofs[q])].any()
    for p in range(len(dofs)):
        for q in range(p):
            coupled = (kd[np.ix_(dofs[p], dofs[q])].any()
                       or kd[np.ix_(dofs[q], dofs[p])].any()
                       or np.intersect1d(dofs[p], dofs[q]).size > 0)
            if coupled:
                assert wave_of[q] < wave_of[p]


@pytest.mark.parametrize("omega", [1.0, 0.7])
def test_vanka_wave_sweep_matches_sequential_oracle(channel_vanka, omega):
    k, lay, _ = channel_vanka
    sm = VankaSmoother(k, lay, omega=omega)
    rng = np.random.default_rng(16)
    b = rng.standard_normal(k.shape[0])
    x0 = rng.standard_normal(k.shape[0])
    x = sm.presmooth(x0.copy(), b, 1)

    kd = k.toarray()
    ref = x0.copy()
    for dofs in sm._dofs:
        r = b - kd @ ref
        ref[dofs] += omega * np.linalg.solve(kd[np.ix_(dofs, dofs)], r[dofs])
    assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)


def test_coarse_solve_matches_lu_solve_bitwise(channel_vanka):
    import scipy.linalg

    from p2amg.sparse_core import coarse_solve

    _, _, sm = channel_vanka
    rng = np.random.default_rng(17)
    for factor in sm._factors:
        rhs = rng.standard_normal(factor.n)
        ref = factor.scaling * scipy.linalg.lu_solve(
            (factor.lu, factor.piv), factor.scaling * rhs, check_finite=False
        )
        assert np.array_equal(coarse_solve(factor, rhs), ref)


# ---------------------------------------------------------------------------
# Braess-Sarazin


def bs_oracle(k, lay, x, rhs, ahat, schur):
    """Dense application of the Richardson step with the block factor
    [[Ahat, B^T], [B, B Ahat^{-1} B^T - Shat]]."""
    kd = k.toarray()
    vd = lay.velocity_dof
    bmat = kd[vd:, :vd]
    khat = np.block(
        [
            [np.diag(ahat), bmat.T],
            [bmat, bmat @ np.diag(1.0 / ahat) @ bmat.T - schur],
        ]
    )
    return x + np.linalg.solve(khat, rhs - kd @ x)


def test_braess_sarazin_decoupled():
    a = np.diag([2.0, 4.0])
    b = np.zeros((1, 2))
    c = np.array([[3.0]])
    k, lay = saddle_parts(a, b, c)
    rng = np.random.default_rng(9)
    rhs = rng.standard_normal(3)
    x = BraessSarazinSmoother(k, lay).presmooth(np.zeros(3), rhs, 1)
    # with B = 0 the Schur matrix is C and q solves Shat q = -r_p, which
    # is the exact pressure update for the (2,2) block -C
    assert np.allclose(x[:2], rhs[:2] / np.array([4.0, 8.0]))
    assert np.allclose(x[2], -rhs[2] / 3.0)
    # exact for the decoupled pressure block: K x has pressure row -C x_p
    assert np.allclose((k @ x)[2], rhs[2])


def test_braess_sarazin_matches_dense_oracle():
    a = np.array([[4.0, 1.0], [1.0, 3.0]])
    b = np.array([[1.0, 2.0]])
    c = np.array([[5.0]])
    k, lay = saddle_parts(a, b, c)
    rng = np.random.default_rng(10)
    rhs = rng.standard_normal(3)
    x0 = rng.standard_normal(3)

    x = BraessSarazinSmoother(k, lay).presmooth(x0.copy(), rhs, 1)

    ahat = 2.0 * np.diag(a)
    schur = c + b @ np.diag(1.0 / ahat) @ b.T
    ref = bs_oracle(k, lay, x0, rhs, ahat, schur)
    assert np.allclose(x, ref, atol=1e-11 * np.abs(ref).max())


def test_braess_sarazin_exact_pieces_reproduce_direct_solve(mixed2, cube1):
    """With Ahat = A and the exact Schur complement, one sweep solves."""
    from p2amg.assembly import ProblemKind, ProblemSpec, assemble

    spec = ProblemSpec(
        kind=ProblemKind.ELASTICITY_MIXED, mu=2.0, lam=5.0,
        g_dirichlet=lambda v: np.array([0.0, 0.0, v[2]]),
    )
    system = assemble(cube1, spec)
    k = system.monolithic()
    lay = system.layout
    assert k.shape[0] <= 100
    vd = lay.velocity_dof
    kd = k.toarray()
    a = kd[:vd, :vd]
    bmat = kd[vd:, :vd]
    c = -kd[vd:, vd:]
    a_inv = np.linalg.inv(a)
    schur_exact = c + bmat @ a_inv @ bmat.T
    schur_inv = np.linalg.inv(schur_exact)

    sm = BraessSarazinSmoother(
        k,
        lay,
        ahat_solve=lambda r: a_inv @ r,
        schur_solve=lambda r: schur_inv @ r,
    )
    rng = np.random.default_rng(11)
    x_star = rng.standard_normal(k.shape[0])
    rhs = k @ x_star
    x = sm.presmooth(np.zeros(k.shape[0]), rhs, 1)
    assert np.linalg.norm(x - x_star) <= 1e-11 * np.linalg.norm(x_star)


def test_braess_sarazin_fixed_point(mixed2):
    k = mixed2.monolithic()
    rng = np.random.default_rng(12)
    x_star = rng.standard_normal(k.shape[0])
    x = BraessSarazinSmoother(k, mixed2.layout).presmooth(x_star.copy(), k @ x_star, 1)
    assert np.linalg.norm(x - x_star) <= 1e-13 * np.linalg.norm(x_star)


def test_schur_preconditioner_kinds(mixed2):
    k = mixed2.monolithic()
    lay = mixed2.layout
    ahat = 2.0 * k.diagonal()[: lay.velocity_dof]
    dense = build_schur_preconditioner(k, lay, ahat, coarse_size_cap=10_000)
    assert dense.kind == "dense"
    amg = build_schur_preconditioner(k, lay, ahat, coarse_size_cap=20)
    assert amg.kind == "amg"
    rng = np.random.default_rng(13)
    r = rng.standard_normal(lay.n_pressure)
    exact = dense.solve(r)
    approx = amg.solve(r)
    # one inner V-cycle is a crude but convergent approximation
    s = dense.matrix
    assert np.linalg.norm(s @ approx - r) < np.linalg.norm(r)
    assert np.linalg.norm(s @ exact - r) <= 1e-8 * np.linalg.norm(r)


# ---------------------------------------------------------------------------
# segregated Gauss-Seidel


def test_segregated_gs_decoupled():
    a = np.diag([2.0, 4.0])
    b = np.zeros((1, 2))
    c = np.zeros((1, 1))
    k, lay = saddle_parts(a, b, c)
    rhs = np.array([2.0, 4.0, 3.0])
    x = SegregatedGSSmoother(k, lay, omega=0.125).presmooth(np.zeros(3), rhs, 1)
    # velocity: one damped Jacobi application; pressure: -omega r_p
    assert np.allclose(x[:2], 0.5 * rhs[:2] / np.array([2.0, 4.0]))
    assert np.allclose(x[2], -0.125 * 3.0)


def test_segregated_gs_matches_dense_oracle():
    a = np.array([[4.0, 1.0], [1.0, 3.0]])
    b = np.array([[1.0, 2.0]])
    c = np.array([[0.5]])
    k, lay = saddle_parts(a, b, c)
    rng = np.random.default_rng(14)
    rhs = rng.standard_normal(3)
    x0 = rng.standard_normal(3)
    omega = 0.125

    sm = SegregatedGSSmoother(k, lay, omega)
    x = sm.presmooth(x0.copy(), rhs, 1)
    sigma = sm.pressure_scaling
    # dense application of [[M_A, 0], [B, -omega^-1 Sigma]]^-1
    ma = 2.0 * np.diag(np.diag(a))  # inverse of 0.5 * D^-1
    khat = np.block(
        [
            [ma, np.zeros((2, 1))],
            [b, -np.diag(sigma) / omega],
        ]
    )
    ref = x0 + np.linalg.solve(khat, rhs - k.toarray() @ x0)
    assert np.allclose(x, ref, atol=1e-11 * np.abs(ref).max())


def test_segregated_gs_fixed_point(mixed2):
    k = mixed2.monolithic()
    rng = np.random.default_rng(15)
    x_star = rng.standard_normal(k.shape[0])
    x = SegregatedGSSmoother(k, mixed2.layout).presmooth(x_star.copy(), k @ x_star, 1)
    assert np.linalg.norm(x - x_star) <= 1e-13 * np.linalg.norm(x_star)


def test_segregated_gs_validation(mixed2):
    with pytest.raises(InvalidParameter):
        SegregatedGSSmoother(mixed2.monolithic(), mixed2.layout, omega=-1.0)
    with pytest.raises(MalformedSystem):
        op, layout, _ = as_operator(sp.identity(4, format="csr"))
        SegregatedGSSmoother(op, layout)
