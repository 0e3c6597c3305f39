import numpy as np
import pytest
import scipy.sparse as sp

from p2amg.coarsening import build_hierarchy
from p2amg.errors import DivergenceDetected, InvalidParameter
from p2amg.multigrid import (
    CycleConfig,
    Preconditioner,
    amg_cycle,
    build_level_smoothers,
    solve_amg,
)
from p2amg.smoothers import SmootherConfig, SmootherKind, parse_smoother


def gs_config(m_pre=1, m_post=1, nu=1, cycles=1):
    return CycleConfig(
        smoother=SmootherConfig(kind=SmootherKind.GAUSS_SEIDEL, m_pre=m_pre, m_post=m_post),
        nu=nu,
        cycles_per_application=cycles,
    )


def test_cycle_config_validation():
    with pytest.raises(InvalidParameter):
        gs_config(nu=3)
    with pytest.raises(InvalidParameter):
        gs_config(cycles=0)
    assert gs_config(nu=2).cycle_name == "W"
    assert gs_config(cycles=2).cycle_name == "2xV"


def test_single_level_cycle_is_direct_solve():
    rng = np.random.default_rng(1)
    q = rng.standard_normal((30, 30))
    a = sp.csr_matrix(q @ q.T + 30 * np.eye(30))
    hier = build_hierarchy(a, coarse_size_cap=100)
    assert hier.n_levels == 1
    b = rng.standard_normal(30)
    for nu in (1, 2):
        cfg = gs_config(nu=nu)
        x, _ = amg_cycle(hier, 0, np.zeros(30), b, cfg, build_level_smoothers(hier, cfg))
        assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_two_level_coarse_correction_exact_on_range(laplace2):
    hier = build_hierarchy(laplace2, coarse_size_cap=60)
    assert hier.n_levels == 2
    a = hier.levels[0].operator
    p = hier.levels[0].prolongation
    rng = np.random.default_rng(2)
    x_star = rng.standard_normal(a.shape[0])
    b = a @ x_star
    # initial error inside range(P): the Galerkin coarse solve removes it
    err0 = p @ rng.standard_normal(p.shape[1])
    cfg = CycleConfig(
        smoother=SmootherConfig(kind=SmootherKind.GAUSS_SEIDEL, m_pre=0, m_post=0)
    )
    x, _ = amg_cycle(hier, 0, x_star - err0, b, cfg, build_level_smoothers(hier, cfg))
    assert np.abs(x - x_star).max() <= 1e-10 * np.abs(x_star).max()


def test_cycle_error_decreases(laplace2):
    hier = build_hierarchy(laplace2, coarse_size_cap=60)
    a = hier.levels[0].operator
    cfg = gs_config(1, 1)
    smoothers = build_level_smoothers(hier, cfg)
    rng = np.random.default_rng(3)
    x_star = rng.standard_normal(a.shape[0])
    b = a @ x_star
    for _ in range(10):
        x = x_star + rng.standard_normal(a.shape[0])
        prev = (x - x_star) @ (a @ (x - x_star))
        for _ in range(5):
            x, _ = amg_cycle(hier, 0, x, b, cfg, smoothers)
            err = (x - x_star) @ (a @ (x - x_star))
            assert err < prev
            prev = err


def test_solve_zero_rhs(laplace2):
    hier = build_hierarchy(laplace2, coarse_size_cap=60)
    x, report = solve_amg(hier, np.zeros(hier.levels[0].n_dof), gs_config(), tol=1e-11)
    assert np.all(x == 0.0)
    assert report.iterations == 0
    assert report.residuals == [1.0]
    assert report.converged


def test_solve_identity_single_level():
    a = sp.identity(40, format="csr")
    hier = build_hierarchy(a, coarse_size_cap=100)
    b = np.arange(40.0)
    x, report = solve_amg(hier, b, gs_config(), tol=1e-11)
    assert report.iterations == 1
    assert report.converged
    assert np.allclose(x, b)


def test_solve_validation(laplace2):
    hier = build_hierarchy(laplace2, coarse_size_cap=60)
    b = np.ones(hier.levels[0].n_dof)
    with pytest.raises(InvalidParameter):
        solve_amg(hier, b, gs_config(), tol=2.0)
    with pytest.raises(InvalidParameter):
        solve_amg(hier, b, gs_config(), tol=1e-11, maxit=0)
    zero_sweeps = CycleConfig(
        smoother=SmootherConfig(kind=SmootherKind.GAUSS_SEIDEL, m_pre=0, m_post=0)
    )
    with pytest.raises(InvalidParameter):
        solve_amg(hier, b, zero_sweeps, tol=1e-11)


def test_divergence_detected(laplace2):
    hier = build_hierarchy(laplace2, coarse_size_cap=60)
    bad = CycleConfig(
        smoother=SmootherConfig(kind=SmootherKind.JACOBI, m_pre=1, m_post=1, omega=2.5)
    )
    b = np.ones(hier.levels[0].n_dof)
    with pytest.raises(DivergenceDetected):
        solve_amg(hier, b, bad, tol=1e-11, maxit=200)


def test_report_history_shape(laplace2):
    hier = build_hierarchy(laplace2, coarse_size_cap=60)
    b = laplace2.rhs()
    x, report = solve_amg(hier, b, gs_config(2, 2), tol=1e-11)
    assert report.converged
    assert report.residuals[0] == 1.0
    assert len(report.residuals) == report.iterations + 1
    a = hier.levels[0].operator
    assert np.linalg.norm(b - a @ x) <= 1e-11 * np.linalg.norm(b)
    assert set(vars(report)) == {"iterations", "residuals", "converged"}


@pytest.mark.parametrize("m,nu", [(2, 1), (1, 2)])
def test_solve_matches_direct_iteration(laplace2, m, nu):
    """The correction-form solve (each cycle from zero on the current
    residual) reproduces the iteration x = cycle(x, b) of the stand-alone
    cycle, which smooths forward after the coarse correction, up to rounding:
    relative residuals agree to 1e-8, or to 1e-14 (about 50 ulp of the
    rounding in b - A x) where they near the tolerance."""
    hier = build_hierarchy(laplace2, coarse_size_cap=60)
    cfg = gs_config(m, m, nu=nu)
    smoothers = build_level_smoothers(hier, cfg)
    a = hier.levels[0].operator
    b = laplace2.rhs()
    _, report = solve_amg(hier, b, cfg, tol=1e-11, smoothers=smoothers)
    x = np.zeros_like(b)
    history = [1.0]
    while history[-1] > 1e-11:
        x, _ = amg_cycle(hier, 0, x, b, cfg, smoothers, forward=True)
        history.append(np.linalg.norm(b - a @ x) / np.linalg.norm(b))
    assert report.iterations == len(history) - 1
    assert np.allclose(report.residuals, history, rtol=1e-8, atol=1e-14)


def test_solve_forms_the_full_residual_once_per_solve(laplace4, monkeypatch):
    """With GS-2-2 each cycle hands back the residual its last forward
    sweep carries; ``b - A x`` on the L0 operator is formed only to
    confirm convergence."""
    hier = build_hierarchy(laplace4, coarse_size_cap=100)
    assert hier.n_levels >= 3
    cfg = gs_config(2, 2)
    smoothers = build_level_smoothers(hier, cfg)
    a = hier.levels[0].operator
    products = []
    matmul = sp.csr_matrix.__matmul__
    monkeypatch.setattr(
        sp.csr_matrix, "__matmul__",
        lambda self, other: (self is a and products.append(1)) or matmul(self, other),
    )
    b = laplace4.rhs()
    x, report = solve_amg(hier, b, cfg, tol=1e-11, smoothers=smoothers)
    monkeypatch.undo()
    assert report.converged and report.iterations >= 5
    assert len(products) == 1
    assert report.final_residual == np.linalg.norm(b - a @ x) / np.linalg.norm(b)


class UnderstatedResidual:
    """A level's smoother whose post-smoothing hands back a thousandth of
    the residual it carries."""

    def __init__(self, inner):
        self.inner = inner

    def presmooth(self, x, b, sweeps):
        post = x.any()  # the cycle pre-smooths from zero
        r = self.inner.presmooth(x, b, sweeps)
        return 1e-3 * r if post else r

    def postsmooth(self, x, b, sweeps):
        return self.inner.postsmooth(x, b, sweeps)


def test_understated_carried_residual_does_not_stop_the_solve(laplace4):
    """A carried residual that meets the tolerance is checked against
    ``b - A x``; the solve goes on from that one until it meets the
    tolerance itself, and reports it."""
    hier = build_hierarchy(laplace4, coarse_size_cap=100)
    cfg = gs_config(1, 1)
    smoothers = build_level_smoothers(hier, cfg)
    a = hier.levels[0].operator
    b = laplace4.rhs()
    tol = 1e-3
    _, plain = solve_amg(hier, b, cfg, tol=tol, smoothers=smoothers)
    smoothers[0] = UnderstatedResidual(smoothers[0])
    x, report = solve_amg(hier, b, cfg, tol=tol, smoothers=smoothers)
    true_rel = np.linalg.norm(b - a @ x) / np.linalg.norm(b)
    assert report.converged and report.iterations == plain.iterations >= 3
    assert all(rel > tol for rel in report.residuals[:-1])
    assert report.final_residual == true_rel <= tol


def dense_two_grid(hier, b, m, post_transposed):
    """One two-grid cycle from zero, in dense algebra: ``m`` block GS
    sweeps ``x += T^{-1} (b - A x)``, an exact Galerkin coarse
    correction, then ``m`` sweeps with ``T`` or with ``T^T``."""
    lv = hier.levels[0]
    a, p = lv.operator.toarray(), lv.prolongation.toarray()
    node = lv.layout.node_of_dof()
    t = np.where(node[None, :] <= node[:, None], a, 0.0)
    post = t.T if post_transposed else t
    x = np.zeros_like(b)
    for _ in range(m):
        x += np.linalg.solve(t, b - a @ x)
    x += p @ np.linalg.solve(p.T @ a @ p, p.T @ (b - a @ x))
    for _ in range(m):
        x += np.linalg.solve(post, b - a @ x)
    return x


@pytest.mark.parametrize("m", [1, 2])
def test_two_grid_cycles_match_dense_oracles(laplace2, m):
    """The stand-alone cycle smooths forward/forward, the preconditioner
    forward/transposed."""
    hier = build_hierarchy(laplace2, coarse_size_cap=60)
    assert hier.n_levels == 2
    b = laplace2.rhs()
    cfg = gs_config(m, m)
    x, _ = solve_amg(hier, b, cfg, tol=1e-11, maxit=1)
    z = Preconditioner(hier, cfg)(b)
    forward = dense_two_grid(hier, b, m, post_transposed=False)
    symmetric = dense_two_grid(hier, b, m, post_transposed=True)
    scale = np.abs(forward).max()
    assert np.abs(x - forward).max() <= 1e-10 * scale
    assert np.abs(z - symmetric).max() <= 1e-10 * scale
    assert np.abs(forward - symmetric).max() > 1e-3 * scale


@pytest.mark.parametrize(
    "name,smoother",
    [("laplace2", "JA-1-1-0.5"), ("stokes2", "sGS-2-2"), ("stokes2", "Braess-Sarazin-1-1")],
)
def test_standalone_cycle_is_the_preconditioner_cycle(name, smoother, request):
    """Smoothers without a post-sweep of their own run one cycle for both
    callers, bitwise."""
    system = request.getfixturevalue(name)
    hier = build_hierarchy(system, coarse_size_cap=60)
    assert hier.n_levels >= 2
    cfg = CycleConfig(smoother=parse_smoother(smoother))
    x, _ = solve_amg(hier, system.rhs(), cfg, tol=1e-11, maxit=1)
    assert np.array_equal(x, Preconditioner(hier, cfg)(system.rhs()))


def test_preconditioner_single_level_exact():
    rng = np.random.default_rng(5)
    q = rng.standard_normal((25, 25))
    a = sp.csr_matrix(q @ q.T + 25 * np.eye(25))
    hier = build_hierarchy(a, coarse_size_cap=100)
    pre = Preconditioner(hier, gs_config())
    r = rng.standard_normal(25)
    assert np.linalg.norm(a @ pre(r) - r) <= 1e-10 * np.linalg.norm(r)


def test_preconditioner_linear_and_deterministic(laplace2):
    hier = build_hierarchy(laplace2, coarse_size_cap=60)
    pre = Preconditioner(hier, gs_config(2, 2))
    rng = np.random.default_rng(6)
    r = rng.standard_normal(hier.levels[0].n_dof)
    s = rng.standard_normal(hier.levels[0].n_dof)
    z1 = pre(r)
    assert np.array_equal(z1, pre(r))  # bitwise repeatable
    alpha, beta = 2.5, -1.25
    combined = pre(alpha * r + beta * s)
    assert np.allclose(
        combined, alpha * pre(r) + beta * pre(s), rtol=1e-12, atol=1e-12 * np.abs(combined).max()
    )
    assert np.all(pre(np.zeros_like(r)) == 0.0)


def test_preconditioner_symmetry_flags(laplace2):
    hier = build_hierarchy(laplace2, coarse_size_cap=60)
    assert Preconditioner(hier, gs_config(2, 2)).symmetric
    assert Preconditioner(hier, gs_config(1, 1, nu=2)).symmetric
    assert not Preconditioner(hier, gs_config(2, 1)).symmetric
    jac = CycleConfig(
        smoother=SmootherConfig(kind=SmootherKind.JACOBI, m_pre=1, m_post=1, omega=0.5)
    )
    assert Preconditioner(hier, jac).symmetric


def test_two_grid_self_adjoint_in_a_inner_product(laplace2):
    """Forward-pre/backward-post GS makes the error propagator M satisfy
    <M e, f>_A = <e, M f>_A."""
    hier = build_hierarchy(laplace2, coarse_size_cap=60)
    cfg = gs_config(1, 1)
    smoothers = build_level_smoothers(hier, cfg)
    a = hier.levels[0].operator
    n = a.shape[0]

    def propagate(e):
        # solve A u = 0 from x0 = e: the result is M e
        return amg_cycle(hier, 0, e.copy(), np.zeros(n), cfg, smoothers)[0]

    rng = np.random.default_rng(8)
    for _ in range(5):
        e, f = rng.standard_normal(n), rng.standard_normal(n)
        lhs = propagate(e) @ (a @ f)
        rhs = e @ (a @ propagate(f))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))


def test_preconditioner_self_adjoint(laplace2):
    hier = build_hierarchy(laplace2, coarse_size_cap=60)
    pre = Preconditioner(hier, gs_config(1, 1))
    rng = np.random.default_rng(7)
    n = hier.levels[0].n_dof
    for _ in range(5):
        r, s = rng.standard_normal(n), rng.standard_normal(n)
        lhs = pre(r) @ s
        rhs = r @ pre(s)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))


def test_w_cycle_not_slower_than_v(laplace2, laplace4):
    # pointwise comparison on the n=2 suite (per the stated invariant);
    # on deeper hierarchies the cycles perform almost identically
    hier2 = build_hierarchy(laplace2, coarse_size_cap=60)
    b2 = laplace2.rhs()
    _, rv = solve_amg(hier2, b2, gs_config(1, 1, nu=1), tol=1e-11, maxit=60)
    _, rw = solve_amg(hier2, b2, gs_config(1, 1, nu=2), tol=1e-11, maxit=60)
    k = min(len(rv.residuals), len(rw.residuals))
    assert all(w <= v * (1 + 1e-12) for v, w in zip(rv.residuals[:k], rw.residuals[:k]))

    hier4 = build_hierarchy(laplace4, coarse_size_cap=100)
    assert hier4.n_levels >= 3
    b4 = laplace4.rhs()
    _, rv4 = solve_amg(hier4, b4, gs_config(2, 2, nu=1), tol=1e-11, maxit=200)
    _, rw4 = solve_amg(hier4, b4, gs_config(2, 2, nu=2), tol=1e-11, maxit=200)
    assert rv4.converged and rw4.converged
    assert abs(rw4.iterations - rv4.iterations) <= max(2, 0.1 * rv4.iterations)


def test_level_bounds(laplace2):
    hier = build_hierarchy(laplace2, coarse_size_cap=60)
    cfg = gs_config()
    smoothers = build_level_smoothers(hier, cfg)
    with pytest.raises(InvalidParameter):
        amg_cycle(hier, 5, np.zeros(3), np.zeros(3), cfg, smoothers)
