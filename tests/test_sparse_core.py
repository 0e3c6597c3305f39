import numpy as np
import pytest
import scipy.sparse as sp

from p2amg.errors import ShapeError, SingularCoarseMatrix
from p2amg.sparse_core import (
    BlockLayout,
    coarse_factor,
    coarse_solve,
    triple_product,
)


def test_block_layout():
    lay = BlockLayout(n_linear=4, n_quadratic=6, n_pressure=5, block_size=3)
    assert lay.n_velocity_nodes == 10
    assert lay.velocity_dof == 30
    assert lay.total_dof == 35
    assert lay.is_saddle
    assert not BlockLayout(n_linear=4, n_quadratic=0).is_saddle


def test_triple_product_identity_bitwise():
    a = sp.random(20, 20, density=0.3, random_state=1, format="csr")
    a.sort_indices()
    p = sp.identity(20, format="csr")
    out = triple_product(p, a)
    diff = (out - a).tocoo()
    assert diff.nnz == 0 or np.all(diff.data == 0.0)


def test_triple_product_ones_column():
    a = sp.csr_matrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
    p = sp.csr_matrix(np.ones((2, 1)))
    out = triple_product(p, a)
    assert out.shape == (1, 1)
    assert out[0, 0] == 10.0


def test_triple_product_preserves_definiteness():
    rng = np.random.default_rng(12)
    q = rng.standard_normal((30, 30))
    a = sp.csr_matrix(q @ q.T + 30 * np.eye(30))
    p = sp.csr_matrix(rng.standard_normal((30, 12)))
    coarse = triple_product(p, a, symmetric=True)
    for _ in range(10):
        x = rng.standard_normal(12)
        assert x @ (coarse @ x) > 0.0


def test_triple_product_against_dense_oracle():
    rng = np.random.default_rng(21)
    a = sp.random(60, 60, density=0.2, random_state=4, format="csr")
    p = sp.random(60, 18, density=0.3, random_state=5, format="csr")
    oracle = p.toarray().T @ a.toarray() @ p.toarray()
    out = triple_product(p, a).toarray()
    scale = np.abs(oracle).max()
    assert np.abs(out - oracle).max() <= 1e-12 * max(scale, 1.0)


def test_triple_product_shape_error():
    with pytest.raises(ShapeError):
        triple_product(sp.identity(3, format="csr"), sp.identity(4, format="csr"))


def test_coarse_identity():
    f = coarse_factor(sp.identity(5, format="csr"))
    b = np.arange(5.0)
    assert np.allclose(coarse_solve(f, b), b)


def test_coarse_diagonal():
    f = coarse_factor(sp.diags(np.arange(1.0, 6.0)).tocsr())
    x = coarse_solve(f, np.ones(5))
    assert np.allclose(x, 1.0 / np.arange(1.0, 6.0), rtol=1e-15)


def test_coarse_random_spd_residual():
    rng = np.random.default_rng(17)
    q = rng.standard_normal((50, 50))
    a = q @ q.T + 50 * np.eye(50)
    f = coarse_factor(a)
    b = rng.standard_normal(50)
    x = coarse_solve(f, b)
    assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_coarse_indefinite_saddle(mixed2):
    k = mixed2.monolithic()
    rng = np.random.default_rng(2)
    x_star = rng.standard_normal(k.shape[0])
    b = k @ x_star
    f = coarse_factor(k)
    x = coarse_solve(f, b)
    assert np.linalg.norm(k @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_coarse_factor_reconstruction():
    rng = np.random.default_rng(23)
    a = rng.standard_normal((20, 20)) + 20 * np.eye(20)
    f = coarse_factor(a)
    scaled = f.scaling[:, None] * a * f.scaling[None, :]
    lower = np.tril(f.lu, -1) + np.eye(20)
    upper = np.triu(f.lu)
    recon = lower @ upper
    permuted = scaled.copy()
    for i, p in enumerate(f.piv):
        permuted[[i, p]] = permuted[[p, i]]
    assert np.abs(recon - permuted).max() <= 1e-10 * np.abs(scaled).max()


def test_coarse_pivot_test_uses_matrix_not_factor_scale():
    # Wilkinson's matrix grows U's last column to 2**29 under partial
    # pivoting; the near-singular 2x2 block has a 1e-10 pivot, which is
    # far above 1e-14 of the matrix's largest entry (1) but below 1e-14
    # of the factor's largest entry
    n = 30
    wilkinson = np.eye(n) - np.tril(np.ones((n, n)), -1)
    wilkinson[:, -1] = 1.0
    near = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-10]])
    f = coarse_factor(sp.block_diag([wilkinson, near]).tocsr())
    assert np.abs(f.lu).max() >= 2.0**29


def test_coarse_factor_in_place_buffer():
    rng = np.random.default_rng(24)
    a = rng.standard_normal((6, 6)) + 6 * np.eye(6)
    buffer = np.zeros(40)
    out = buffer[4:].reshape(6, 6, order="F")
    f = coarse_factor(a, out=out)
    assert f.lu is out
    assert np.array_equal(f.lu, coarse_factor(a).lu)
    assert not buffer[:4].any()
    with pytest.raises(ShapeError):
        coarse_factor(a, out=np.empty((6, 6)))  # C-ordered: no in-place LU


def test_coarse_singular():
    a = np.zeros((3, 3))
    a[0, 0] = 1.0
    with pytest.raises(SingularCoarseMatrix):
        coarse_factor(a)
    with pytest.raises(SingularCoarseMatrix):
        coarse_factor(np.ones((4, 4)))  # rank one
