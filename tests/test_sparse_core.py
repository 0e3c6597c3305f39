import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from p2amg import assemble, build_hierarchy
from p2amg.bench_cli import build_case
from p2amg.errors import InvalidParameter, ShapeError, SingularCoarseMatrix
from p2amg.sparse_core import (
    MAX_DENSE_COARSE,
    BlockLayout,
    coarse_factor,
    coarse_solve,
    triple_product,
)

from fem_oracles import node_pattern_product


def test_block_layout():
    lay = BlockLayout(n_linear=4, n_quadratic=6, n_pressure=5, block_size=3)
    assert lay.n_velocity_nodes == 10
    assert lay.velocity_dof == 30
    assert lay.total_dof == 35
    assert lay.is_saddle
    assert not BlockLayout(n_linear=4, n_quadratic=0).is_saddle


def node_pattern_case(name):
    """Operator and layout of one node-pattern case.  The hand-made ones
    are random sparse operators with an empty row in the middle and as
    the last row, over scalar or 3-component velocity nodes, and over a
    saddle layout whose last row is a pressure row."""
    if name in ("vector_laplace", "elasticity_displacement", "elasticity_mixed", "stokes"):
        system = assemble(*build_case(name, 2))
        return system.monolithic(), system.layout
    bs, n_pressure = {"block1": (1, 0), "block3": (3, 0), "saddle": (3, 4)}[name]
    layout = BlockLayout(n_linear=5, n_quadratic=7, n_pressure=n_pressure, block_size=bs)
    n = layout.total_dof
    rng = np.random.default_rng(48)
    dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.2)
    dense[[5, n - 1]] = 0.0
    return sp.csr_matrix(dense), layout


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize(
    "name",
    ["vector_laplace", "elasticity_displacement", "elasticity_mixed", "stokes",
     "block1", "block3", "saddle"],
)
def test_node_pattern_matches_product_oracle(name, masked):
    """``node_pattern`` equals ``D^T S D`` index for index, all its
    entries are True, and the caller's ``keep`` comes back unchanged."""
    op, layout = node_pattern_case(name)
    assert np.diff(op.indptr)[-1] == 0 or name not in ("block1", "block3", "saddle")
    keep = np.random.default_rng(49).random(op.nnz) < 0.5 if masked else None
    before = None if keep is None else keep.copy()
    got = layout.node_pattern(op, keep)
    ref = node_pattern_product(layout, op, keep)
    assert got.shape == (layout.n_nodes, layout.n_nodes)
    assert got.dtype == bool and got.data.all()
    assert got.has_sorted_indices
    assert np.array_equal(got.indptr, ref.indptr)
    assert np.array_equal(got.indices, ref.indices)
    if keep is not None:
        assert np.array_equal(keep, before)


def test_triple_product_identity_bitwise():
    a = sp.random(20, 20, density=0.3, random_state=1, format="csr")
    a = (a + a.T).tocsr()
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
    coarse = triple_product(p, a)
    for _ in range(10):
        x = rng.standard_normal(12)
        assert x @ (coarse @ x) > 0.0


def test_triple_product_against_dense_oracle():
    rng = np.random.default_rng(21)
    a = sp.random(60, 60, density=0.2, random_state=4, format="csr")
    a = (a + a.T).tocsr()
    p = sp.random(60, 18, density=0.3, random_state=5, format="csr")
    oracle = p.toarray().T @ a.toarray() @ p.toarray()
    out = triple_product(p, a).toarray()
    scale = np.abs(oracle).max()
    assert np.abs(out - oracle).max() <= 1e-12 * max(scale, 1.0)
    assert np.array_equal(out, out.T)


def test_triple_product_matches_transpose_product_on_stokes_level():
    """``R (A P)`` with ``R = P^T`` as CSR equals the symmetrised
    ``P.T @ (A @ P)`` bit for bit on a real saddle level."""
    mesh, spec = build_case("stokes", 4)
    hier = build_hierarchy(assemble(mesh, spec))
    level = hier.levels[0]
    p, a = level.prolongation, level.operator
    oracle = (p.T @ (a @ p)).tocsr()
    oracle = ((oracle + oracle.T) * 0.5).tocsr()
    oracle.sort_indices()
    out = triple_product(p, a)
    assert np.array_equal(out.indptr, oracle.indptr)
    assert np.array_equal(out.indices, oracle.indices)
    assert np.array_equal(out.data, oracle.data)


def test_triple_product_pattern_holds_both_mirrors_on_stokes_level():
    """scipy's product drops exact-zero sums, so ``R (A P)`` may store an
    entry without its mirror; the average with the transpose stores
    both.  The coarse pattern is symmetric and keeps every entry of ``R
    (A P)``."""
    mesh, spec = build_case("stokes", 4)
    level = build_hierarchy(assemble(mesh, spec)).levels[0]
    p, a = level.prolongation, level.operator
    raw = p.T.tocsr() @ (a @ p)
    out = triple_product(p, a)
    mirror = out.T.tocsr()
    mirror.sort_indices()
    assert np.array_equal(out.indptr, mirror.indptr)
    assert np.array_equal(out.indices, mirror.indices)
    assert out.nnz >= raw.nnz


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
    f = coarse_factor(sp.csr_matrix(a))
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
    f = coarse_factor(sp.csr_matrix(a))
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


def test_coarse_factor_refuses_a_large_sparse_operator_before_densifying():
    """A sparse operator of more than ``MAX_DENSE_COARSE`` rows raises a
    typed error without the dense copy (134 MB at that size)."""
    a = sp.identity(MAX_DENSE_COARSE + 1, format="csr")
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParameter, match="dense LU limit"):
            coarse_factor(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_coarse_singular():
    a = np.zeros((3, 3))
    a[0, 0] = 1.0
    with pytest.raises(SingularCoarseMatrix):
        coarse_factor(sp.csr_matrix(a))
    with pytest.raises(SingularCoarseMatrix):
        coarse_factor(sp.csr_matrix(np.ones((4, 4))))  # rank one
