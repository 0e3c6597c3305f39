import numpy as np
import pytest
import scipy.sparse as sp

from p2amg.coarsening import build_hierarchy
from p2amg.errors import (
    DivergenceDetected,
    IndefiniteBreakdown,
    InvalidParameter,
    StagnationDetected,
)
from p2amg.krylov import KrylovConfig, gmres, pcg
from p2amg.multigrid import CycleConfig, Preconditioner
from p2amg.smoothers import SmootherConfig, SmootherKind


def identity(r):
    """The unpreconditioned solve: ``M = I``."""
    return r


def test_config_validation():
    with pytest.raises(InvalidParameter):
        KrylovConfig(method="sor")
    with pytest.raises(InvalidParameter):
        KrylovConfig(tol=0.0)
    with pytest.raises(InvalidParameter):
        KrylovConfig(maxit=0)


def test_pcg_identity_one_iteration():
    a = sp.identity(12, format="csr")
    b = np.arange(12.0)
    x, report = pcg(a, b, identity, KrylovConfig(tol=1e-12))
    assert report.iterations == 1
    assert report.converged
    assert np.allclose(x, b)


def test_pcg_three_distinct_eigenvalues():
    a = sp.diags([1.0, 2.0, 3.0]).tocsr()
    b = np.ones(3)
    x, report = pcg(a, b, identity, KrylovConfig(tol=1e-12))
    assert report.iterations <= 3
    assert np.allclose(x, [1.0, 0.5, 1.0 / 3.0])


@pytest.mark.parametrize("k", [5, 20, 50])
def test_pcg_finite_termination(k):
    a = sp.diags(np.arange(1.0, k + 1)).tocsr()
    rng = np.random.default_rng(k)
    b = rng.standard_normal(k)
    x, report = pcg(a, b, identity, KrylovConfig(tol=1e-10, maxit=4 * k))
    assert report.iterations <= k
    assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b) * 10


def test_pcg_zero_rhs():
    a = sp.identity(5, format="csr")
    x, report = pcg(a, np.zeros(5), identity, KrylovConfig())
    assert report.iterations == 0
    assert np.all(x == 0.0)


def test_pcg_rejects_indefinite_matrix():
    a = sp.diags([1.0, -1.0]).tocsr()
    with pytest.raises(IndefiniteBreakdown):
        pcg(a, np.ones(2), identity, KrylovConfig())


def test_pcg_rejects_asymmetric_matrix():
    a = sp.csr_matrix(np.array([[2.0, 1.0], [0.0, 2.0]]))
    with pytest.raises(IndefiniteBreakdown):
        pcg(a, np.ones(2), identity, KrylovConfig())


def test_pcg_rejects_declared_nonsymmetric_preconditioner(laplace2):
    hier = build_hierarchy(laplace2, coarse_size_cap=60)
    pre = Preconditioner(
        hier,
        CycleConfig(
            smoother=SmootherConfig(kind=SmootherKind.GAUSS_SEIDEL, m_pre=2, m_post=1)
        ),
    )
    assert not pre.symmetric
    with pytest.raises(IndefiniteBreakdown):
        pcg(laplace2.monolithic(), laplace2.rhs(), pre, KrylovConfig(tol=1e-11))


def test_pcg_with_multigrid_preconditioner(laplace2):
    hier = build_hierarchy(laplace2, coarse_size_cap=60)
    pre = Preconditioner(
        hier,
        CycleConfig(
            smoother=SmootherConfig(kind=SmootherKind.GAUSS_SEIDEL, m_pre=2, m_post=2)
        ),
    )
    a = laplace2.monolithic()
    b = laplace2.rhs()
    x, report = pcg(a, b, pre, KrylovConfig(tol=1e-11))
    assert report.converged
    assert np.linalg.norm(b - a @ x) <= 1e-11 * np.linalg.norm(b)
    assert set(vars(report)) == {"iterations", "residuals", "converged"}


def test_gmres_identity_one_iteration():
    k = sp.identity(9, format="csr")
    b = np.arange(9.0)
    x, report = gmres(k, b, identity, KrylovConfig(method="gmres", tol=1e-12))
    assert report.iterations == 1
    assert np.allclose(x, b)


def test_gmres_rotation_2x2():
    k = sp.csr_matrix(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    b = np.array([1.0, 0.0])
    oracle = np.linalg.solve(k.toarray(), b)
    x, report = gmres(k, b, identity, KrylovConfig(method="gmres", tol=1e-12))
    assert report.iterations <= 2
    assert report.converged
    assert np.allclose(x, oracle, atol=1e-12)


def test_gmres_monotone_residuals():
    rng = np.random.default_rng(17)
    k = sp.csr_matrix(rng.standard_normal((40, 40)) + 40 * np.eye(40))
    b = rng.standard_normal(40)
    _, report = gmres(k, b, identity, KrylovConfig(method="gmres", tol=1e-10))
    assert report.converged
    hist = report.residuals
    assert all(b <= a * (1 + 1e-12) for a, b in zip(hist, hist[1:]))


def test_gmres_true_residual_reported(mixed2):
    hier = build_hierarchy(mixed2, coarse_size_cap=100)
    pre = Preconditioner(
        hier,
        CycleConfig(
            smoother=SmootherConfig(kind=SmootherKind.BRAESS_SARAZIN, m_pre=1, m_post=1)
        ),
    )
    k = mixed2.monolithic()
    b = mixed2.rhs()
    x, report = gmres(k, b, pre, KrylovConfig(method="gmres", tol=1e-9))
    assert report.converged
    recomputed = np.linalg.norm(b - k @ x) / np.linalg.norm(b)
    assert abs(report.final_residual - recomputed) <= 1e-8 * max(recomputed, 1e-12)


def test_gmres_restarted():
    rng = np.random.default_rng(19)
    k = sp.csr_matrix(rng.standard_normal((30, 30)) + 30 * np.eye(30))
    b = rng.standard_normal(30)
    x, report = gmres(k, b, identity, KrylovConfig(method="gmres", tol=1e-10))
    assert report.converged
    assert np.linalg.norm(k @ x - b) <= 1e-9 * np.linalg.norm(b)


def test_gmres_memory_follows_iterations_not_maxit():
    import tracemalloc

    # a 1D convection-diffusion operator: unpreconditioned GMRES needs
    # more iterations than the basis holds at first, so it grows
    n = 400
    k = sp.diags(
        [-1.3 * np.ones(n - 1), 2.2 * np.ones(n), -0.7 * np.ones(n - 1)], [-1, 0, 1]
    ).tocsr()
    b = np.random.default_rng(23).standard_normal(n)
    _, bounded = gmres(k, b, identity, KrylovConfig(method="gmres", tol=1e-10, maxit=500))
    tracemalloc.start()
    try:
        _, report = gmres(k, b, identity, KrylovConfig(method="gmres", tol=1e-10, maxit=10**5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bounded.converged and bounded.iterations > 64
    assert report.iterations == bounded.iterations
    assert report.residuals == bounded.residuals
    assert peak < 50 * 2**20


def gmres_full_basis(a, b, maxit):
    """Unpreconditioned GMRES by the arithmetic of ``krylov.gmres``, with
    the basis, Hessenberg matrix and rotations allocated for ``maxit``
    up front; runs all ``maxit`` steps."""
    n = a.shape[0]
    b_norm = np.linalg.norm(b)
    r0 = b - a @ np.zeros(n)
    beta = np.linalg.norm(r0)
    v = np.zeros((maxit + 1, n))
    h = np.zeros((maxit + 1, maxit))
    cs, sn, g = np.zeros(maxit), np.zeros(maxit), np.zeros(maxit + 1)
    g[0] = beta
    v[0] = r0 / beta
    residuals = [1.0]
    for k in range(maxit):
        w = a @ v[k]
        basis = v[: k + 1]
        for _ in range(2):
            coef = basis @ w
            w -= basis.T @ coef
            h[: k + 1, k] += coef
        h[k + 1, k] = np.linalg.norm(w)
        v[k + 1] = w / h[k + 1, k]
        for i in range(k):
            t = cs[i] * h[i, k] + sn[i] * h[i + 1, k]
            h[i + 1, k] = -sn[i] * h[i, k] + cs[i] * h[i + 1, k]
            h[i, k] = t
        denom = np.hypot(h[k, k], h[k + 1, k])
        cs[k] = h[k, k] / denom
        sn[k] = h[k + 1, k] / denom
        h[k, k] = denom
        h[k + 1, k] = 0.0
        g[k + 1] = -sn[k] * g[k]
        g[k] = cs[k] * g[k]
        residuals.append(float(abs(g[k + 1]) / b_norm))
    x = v[:maxit].T @ np.linalg.solve(h[:maxit, :maxit], g[:maxit])
    residuals[-1] = float(np.linalg.norm(b - a @ x) / b_norm)
    return x, residuals


def test_gmres_basis_grows_in_place():
    """Past several growth steps of the basis, GMRES computes bitwise what
    a basis allocated up front gives, and its traced peak stays within
    the rows it uses plus a few: no old basis is alive beside the new."""
    import tracemalloc

    # the 1-D Laplacian: unpreconditioned GMRES runs all 70 steps, which
    # grow the basis from its first 32 steps four times
    n, maxit = 4000, 70
    k = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]).tocsr()
    b = np.random.default_rng(29).standard_normal(n)
    x_ref, residuals_ref = gmres_full_basis(k, b, maxit)
    config = KrylovConfig(method="gmres", tol=1e-14, maxit=maxit)
    tracemalloc.start()
    try:
        x, report = gmres(k, b, identity, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.iterations == maxit and not report.converged
    assert np.array_equal(x, x_ref)
    assert [r.hex() for r in report.residuals] == [r.hex() for r in residuals_ref]
    # the used basis rows, a slack of 4 rows and 16 vectors of work space
    # (the Hessenberg matrix takes under 3 of them)
    assert peak < (maxit + 1 + 4) * n * 8 + 16 * n * 8


def laplacian_1d(n):
    return sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]).tocsr()


def test_gmres_under_a_profiler_matches_unprofiled_run():
    """Past the basis's first 32 rows, GMRES runs under ``cProfile`` (and so
    under tracers, coverage tools and debuggers) and gives the same bits."""
    import cProfile

    n, maxit = 400, 70
    k = laplacian_1d(n)
    b = np.random.default_rng(31).standard_normal(n)
    config = KrylovConfig(method="gmres", tol=1e-14, maxit=maxit)
    x_ref, ref = gmres(k, b, identity, config)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        x, report = gmres(k, b, identity, config)
    finally:
        profiler.disable()
    assert report.iterations == ref.iterations > 32
    assert [v.hex() for v in x] == [v.hex() for v in x_ref]
    assert [r.hex() for r in report.residuals] == [r.hex() for r in ref.residuals]


@pytest.mark.parametrize("solve", [pcg, gmres])
def test_krylov_raises_on_a_non_finite_residual(solve):
    """A NaN preconditioner stops the solve at its first iteration instead
    of running all ``maxit`` of them."""
    calls = []

    def nan_precond(r):
        calls.append(1)
        return np.full_like(r, np.nan)

    k = laplacian_1d(200)
    b = np.ones(200)
    method = "cg" if solve is pcg else "gmres"
    with pytest.raises(DivergenceDetected, match="residual nan"):
        solve(k, b, nan_precond, KrylovConfig(method=method, maxit=500))
    assert len(calls) == 1


def test_gmres_stagnation_detected():
    # cyclic shift: GMRES makes no progress until the full dimension
    n = 80
    perm = np.roll(np.eye(n), 1, axis=0)
    k = sp.csr_matrix(perm)
    b = np.zeros(n)
    b[0] = 1.0
    with pytest.raises(StagnationDetected):
        gmres(k, b, identity, KrylovConfig(method="gmres", tol=1e-12, maxit=79))


def test_gmres_zero_rhs():
    k = sp.identity(4, format="csr")
    x, report = gmres(k, np.zeros(4), identity, KrylovConfig(method="gmres"))
    assert report.iterations == 0
    assert np.all(x == 0.0)
