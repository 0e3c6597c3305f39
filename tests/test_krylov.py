import numpy as np
import pytest
import scipy.sparse as sp

from p2amg.coarsening import build_hierarchy
from p2amg.errors import IndefiniteBreakdown, InvalidParameter, StagnationDetected
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
