import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from p2amg import smoothers, sparse_core
from p2amg.errors import (
    InvalidParameter,
    MalformedSystem,
    SingularBlock,
    SingularPatch,
)
from p2amg.multigrid import Preconditioner
from p2amg.smoothers import (
    BraessSarazinSmoother,
    GaussSeidelSmoother,
    JacobiSmoother,
    SegregatedGSSmoother,
    SmootherConfig,
    SmootherKind,
    VankaSmoother,
    _block_triangles,
    _column_ranges,
    _dependency_waves,
    _masked_rows,
    _patch_nodes,
    _split_rows,
    _subtract_columns,
    _velocity_block_inverses,
    build_schur_preconditioner,
    make_smoother,
    parse_smoother,
)
from p2amg.sparse_core import BlockLayout, as_operator, row_blocks

from fem_oracles import dof_node_incidence


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


# ---------------------------------------------------------------------------
# Jacobi


def test_jacobi_diagonal_system_one_sweep():
    a = sp.diags([2.0, 4.0, 8.0]).tocsr()
    b = np.array([2.0, 4.0, 8.0])
    x = np.zeros(3)
    JacobiSmoother(a, omega=1.0).presmooth(x, b, 1)
    assert np.allclose(x, 1.0)


def test_jacobi_hand_values():
    a = sp.csr_matrix(np.array([[2.0, 0.0], [0.0, 4.0]]))
    x = np.zeros(2)
    JacobiSmoother(a, omega=0.5).presmooth(x, np.array([2.0, 4.0]), 1)
    assert np.allclose(x, [0.5, 0.5])


def test_jacobi_fixed_point():
    rng = np.random.default_rng(1)
    q = rng.standard_normal((12, 12))
    a = sp.csr_matrix(q @ q.T + 12 * np.eye(12))
    x_star = rng.standard_normal(12)
    b = a @ x_star
    x = x_star.copy()
    JacobiSmoother(a, omega=0.7).presmooth(x, b, 1)
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
    got = x.copy()
    make_smoother(a, lay, cfg).presmooth(got, b, 1)
    assert np.allclose(got, expected, rtol=1e-14, atol=1e-14)
    direct = x.copy()
    JacobiSmoother(a, omega=0.5).presmooth(direct, b, 1)
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
    x = np.zeros(3)
    gauss_seidel(a).presmooth(x, a @ x_star, 1)
    assert np.allclose(x, x_star, atol=1e-14)


def test_gs_post_sweep_is_transpose_of_pre_sweep():
    # on a non-symmetric block matrix, the post-sweep applies T^{-T}: the
    # transpose of the forward sweep's T^{-1}, which keeps the V-cycle
    # self-adjoint
    rng = np.random.default_rng(18)
    n = 12
    dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.5)
    dense += 6.0 * np.eye(n)
    a = sp.csr_matrix(dense)
    sm = GaussSeidelSmoother(a, BlockLayout(n_linear=4, n_quadratic=0, block_size=3))
    pre, post = np.zeros((n, n)), np.zeros((n, n))
    for j, e in enumerate(np.eye(n)):
        sm.presmooth(pre[:, j], e, 1)
        sm.postsmooth(post[:, j], e, 1)
    assert np.abs(post - pre.T).max() <= 1e-14 * np.abs(pre).max()


def test_gs_hand_values():
    a = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
    x = np.zeros(2)
    gauss_seidel(a).presmooth(x, np.array([3.0, 4.0]), 1)
    assert np.allclose(x, [1.5, 5.0 / 6.0], rtol=1e-15)


def test_gs_fixed_point():
    rng = np.random.default_rng(3)
    q = rng.standard_normal((10, 10))
    a = sp.csr_matrix(q @ q.T + 10 * np.eye(10))
    x_star = rng.standard_normal(10)
    sm = gauss_seidel(a)
    for smooth in (sm.presmooth, sm.postsmooth):
        x = x_star.copy()
        smooth(x, a @ x_star, 1)
        assert np.linalg.norm(x - x_star) <= 1e-13 * np.linalg.norm(x_star)


@pytest.mark.parametrize(
    "stage,sweeps,backward",
    [("presmooth", 1, False), ("postsmooth", 2, True)],
    ids=["presmooth", "postsmooth"],
)
def test_gs_block_sweep_matches_reference(laplace2, stage, sweeps, backward):
    """Triangular-solve implementation equals an explicit block sweep:
    forward before the coarse correction, backward after it (on the
    symmetric vector Laplacian)."""
    a = laplace2.monolithic()
    lay = laplace2.layout
    rng = np.random.default_rng(4)
    b = rng.standard_normal(a.shape[0])
    x0 = rng.standard_normal(a.shape[0])

    sm = GaussSeidelSmoother(a, lay)
    fast = x0.copy()
    getattr(sm, stage)(fast, b, sweeps)

    dense = a.toarray()
    ref = x0.copy()
    nodes = range(lay.n_velocity_nodes)
    for _ in range(sweeps):
        for node in reversed(nodes) if backward else nodes:
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


def dense_block_triangle(op, layout):
    """The block lower triangle ``T`` of ``op`` as a dense array."""
    node = layout.node_of_dof()
    return np.where(node[None, :] <= node[:, None], op.toarray(), 0.0)


@pytest.mark.parametrize("sweeps", [1, 2])
@pytest.mark.parametrize("stage", ["presmooth", "postsmooth"])
def test_gs_sweep_from_nonzero_iterate_matches_full_residual_oracle(laplace2, stage, sweeps):
    """From a non-zero iterate the sweep ``x <- T^{-1} (b - U x)`` (``T^T``
    and ``U^T`` after the coarse correction) equals ``x += T^{-1} (b - A
    x)`` with the residual formed in full, and presmooth returns ``b - A
    x`` of its iterate."""
    a = laplace2.monolithic()
    t = dense_block_triangle(a, laplace2.layout)
    if stage == "postsmooth":
        t = t.T
    rng = np.random.default_rng(44)
    b = rng.standard_normal(a.shape[0])
    x0 = rng.standard_normal(a.shape[0])
    x = x0.copy()
    r = getattr(GaussSeidelSmoother(a, laplace2.layout), stage)(x, b, sweeps)
    ref = x0.copy()
    for _ in range(sweeps):
        ref += np.linalg.solve(t, b - a @ ref)
    assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)
    if stage == "presmooth":
        r_true = b - a @ x
        assert np.linalg.norm(r - r_true) <= 1e-12 * np.linalg.norm(r_true)
    else:
        assert r is None


def test_gs_sweeps_never_form_the_full_residual(laplace2, monkeypatch):
    """Block GS reads only ``U`` and its factor of ``T``, from a zero or a
    non-zero iterate; ``b - A x`` is formed only for ``presmooth`` with no
    sweep."""
    a = laplace2.monolithic()
    sm = GaussSeidelSmoother(a, laplace2.layout)
    products = []
    matmul = sp.csr_matrix.__matmul__
    monkeypatch.setattr(
        sp.csr_matrix, "__matmul__",
        lambda self, other: (self is a and products.append(1)) or matmul(self, other),
    )
    rng = np.random.default_rng(45)
    b = rng.standard_normal(a.shape[0])
    for x in (np.zeros(a.shape[0]), rng.standard_normal(a.shape[0])):
        for sweeps in (1, 2):
            sm.presmooth(x.copy(), b, sweeps)
            sm.postsmooth(x.copy(), b, sweeps)
    assert products == []
    sm.presmooth(rng.standard_normal(a.shape[0]), b, 0)
    assert products == [1]


# ---------------------------------------------------------------------------
# the row split behind block GS and the segregated GS block inverses


def coo_split(op, keep):
    """The entries of ``op`` whose dof row and column satisfy ``keep(row,
    col)``, and the others, as CSR built through a COO copy of ``op``:
    the reference the row split must match array for array."""
    coo = op.tocoo()
    sel = keep(coo.row, coo.col)
    return [sp.csr_matrix((coo.data[m], (coo.row[m], coo.col[m])), shape=op.shape)
            for m in (sel, ~sel)]


def assert_same_csr(a, b):
    """Same row pointer, column order and values, to the bit."""
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data.view(np.uint64), b.data.view(np.uint64))


def split_case(name):
    """Operator and layout of one split case; the hand-made ones have an
    empty row in the middle and as the last row."""
    rng = np.random.default_rng(47)
    if name == "vector-laplace":
        from p2amg.assembly import assemble
        from p2amg.bench_cli import build_case

        system = assemble(*build_case("vector_laplace", 2))
        return system.monolithic(), system.layout
    bs = 1 if name == "empty-rows-block1" else 3
    n = 12 * bs
    dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.4)
    dense[[5, n - 1]] = 0.0
    return sp.csr_matrix(dense), BlockLayout(n_linear=n // bs, n_quadratic=0, block_size=bs)


@pytest.mark.parametrize("name", ["vector-laplace", "empty-rows-block1", "empty-rows-block3"])
@pytest.mark.parametrize("block", [7, 64, 1 << 18])
def test_row_split_matches_coo_oracle(name, block, monkeypatch):
    """``T`` holds exactly the entries with ``node(col) <= node(row)``
    and ``U`` the rest, in the COO reference's order, so ``T + U ==
    op`` entry by entry; the diagonal node blocks are the entries with
    ``node(col) == node(row)``.  The small block sizes make row blocks
    of one or five rows, which end inside a node, and the hand-made
    operators have empty rows, the last one included."""
    monkeypatch.setattr(sparse_core, "_MASK_BLOCK", block)
    op, layout = split_case(name)
    node, first = layout.node_of_dof(), layout.first_dof()
    if block < 1 << 18 and layout.block_size == 3:
        assert any(lo % 3 for lo, _ in row_blocks(op.indptr))
    assert np.diff(op.indptr)[-1] == 0 or name == "vector-laplace"

    lower, indptr = _split_rows(op, first[node + 1])
    t = _masked_rows(op, lower, indptr)
    u = _masked_rows(op, ~lower, op.indptr - indptr)
    ref_t, ref_u = coo_split(op, lambda i, j: node[j] <= node[i])
    assert_same_csr(t, ref_t)
    assert_same_csr(u, ref_u)
    assert t.nnz + u.nnz == op.nnz
    assert np.array_equal((t + u).toarray(), op.toarray())

    own, indptr = _split_rows(op, first[node + 1], first[node])
    ref_d, _ = coo_split(op, lambda i, j: node[j] == node[i])
    assert_same_csr(_masked_rows(op, own, indptr), ref_d)


@pytest.mark.parametrize("order", ["sorted", "reversed"])
def test_block_triangles_factor_t_and_store_u(laplace2, order, monkeypatch):
    """SuperLU factors the block lower triangle as CSC with ``intc``
    indices, and ``U`` comes back sorted even from rows stored in
    reverse column order (the Schur hierarchy's operator is unsorted)."""
    op = laplace2.monolithic()
    if order == "reversed":
        rows = np.repeat(np.arange(op.shape[0]), np.diff(op.indptr))
        perm = np.lexsort((-op.indices, rows))
        op = sp.csr_matrix((op.data[perm], op.indices[perm], op.indptr), shape=op.shape)
        assert not op.has_sorted_indices
    node = laplace2.layout.node_of_dof()
    factored = []
    splu = smoothers.spla.splu
    monkeypatch.setattr(
        smoothers.spla, "splu", lambda a, **kw: factored.append(a) or splu(a, **kw)
    )
    _, u = _block_triangles(op, laplace2.layout)
    (t,) = factored
    ref_t, ref_u = coo_split(op, lambda i, j: node[j] <= node[i])
    assert t.format == "csc"
    assert t.indices.dtype == t.indptr.dtype == np.intc
    assert_same_csr(t, ref_t.tocsc())
    assert_same_csr(u, ref_u)


def test_gs_singular_block_triangle():
    with pytest.raises(SingularBlock):
        gauss_seidel(sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 2.0]])))


def test_gs_setup_peak_is_bounded_by_the_triangles():
    """Block GS setup at vector Laplace n = 8 (265,425 stored entries)
    allocates at most 1.5x the stored bytes of ``T`` and ``U`` through
    numpy: the triangles, the split mask and row-block temporaries, and
    ``T``'s CSR and CSC copies while it is converted.  A split through a
    COO copy of the operator peaks at 2.1x."""
    from p2amg.assembly import assemble
    from p2amg.bench_cli import build_case

    system = assemble(*build_case("vector_laplace", 8))
    op = system.monolithic()
    tracemalloc.start()
    try:
        sm = GaussSeidelSmoother(op, system.layout)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    u = sm._upper
    entry = op.data.itemsize + op.indices.itemsize
    stored = (op.nnz - u.nnz) * entry + op.indptr.nbytes  # T
    stored += u.nnz * entry + u.indptr.nbytes
    assert peak <= 1.5 * stored


def coo_velocity_block_inverses(op, layout):
    """The segregated GS block inverses formed through a COO copy of the
    velocity block and ``np.add.at``: the bitwise reference."""
    bs, vd = layout.block_size, layout.velocity_dof
    node, first = layout.node_of_dof(), layout.first_dof()
    coo = op[:vd, :vd].tocoo()
    i = node[coo.row]
    mask = i == node[coo.col]
    i, row, col = i[mask], coo.row[mask], coo.col[mask]
    blocks = np.zeros((layout.n_velocity_nodes, bs, bs))
    np.add.at(blocks, (i, row - first[i], col - first[i]), coo.data[mask])
    return np.linalg.inv(blocks)


def test_velocity_block_inverses_match_coo_oracle_bitwise(mixed2):
    from p2amg.coarsening import build_hierarchy

    hier = build_hierarchy(mixed2, coarse_size_cap=100)
    assert hier.n_levels > 1
    for lv in hier.levels:
        got = _velocity_block_inverses(lv.operator, lv.layout)
        ref = coo_velocity_block_inverses(lv.operator, lv.layout)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_transposed_sweep_views_share_the_stored_arrays(laplace2, stokes2):
    sm = GaussSeidelSmoother(laplace2.monolithic(), laplace2.layout)
    assert np.shares_memory(sm._upper_t.data, sm._upper.data)
    assert np.shares_memory(sm._upper_t.indices, sm._upper.indices)
    bs = BraessSarazinSmoother(stokes2.monolithic(), stokes2.layout)
    assert np.shares_memory(bs._b_block_t.data, bs.b_block.data)


class ForwardPost:
    """Block GS as the stand-alone cycle runs it: the post-smoothing
    repeats the forward sweep through ``presmooth``, its residual dropped."""

    def __init__(self, gs):
        self.presmooth = gs.presmooth

    def postsmooth(self, x, b, sweeps):
        self.presmooth(x, b, sweeps)


@pytest.fixture(scope="module")
def carried_cases(laplace2, stokes2):
    """Smoothers that carry the residual (GS, Vanka) and one that does not."""
    a, k = laplace2.monolithic(), stokes2.monolithic()
    gs = GaussSeidelSmoother(a, laplace2.layout)
    return {
        "gs-symmetric": (a, gs),
        "gs-forward": (a, ForwardPost(gs)),
        "vanka": (k, VankaSmoother(k, stokes2.layout, omega=0.7)),
        "jacobi": (a, JacobiSmoother(a, omega=0.5)),
    }


@pytest.mark.parametrize("name", ["gs-symmetric", "gs-forward", "vanka", "jacobi"])
@pytest.mark.parametrize("stage", ["presmooth", "postsmooth"])
@pytest.mark.parametrize("start", ["zero", "random"])
@pytest.mark.parametrize("sweeps", [1, 2])
def test_carried_residual_matches_recomputed(carried_cases, name, stage, start, sweeps):
    """Sweeps with the carried residual equal sweeps that recompute
    ``b - A x``, and presmooth returns the residual of its iterate."""
    op, sm = carried_cases[name]
    rng = np.random.default_rng(19)
    n = op.shape[0]
    b = rng.standard_normal(n)
    x0 = np.zeros(n) if start == "zero" else rng.standard_normal(n)
    x = x0.copy()
    r = getattr(sm, stage)(x, b, sweeps)
    ref = x0.copy()
    for _ in range(sweeps):
        getattr(sm, stage)(ref, b, 1)  # one sweep from a freshly formed residual
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
    if stage == "presmooth":
        r_true = b - op @ x
        assert np.linalg.norm(r - r_true) <= 1e-12 * np.linalg.norm(r_true)
    else:
        assert r is None


# ---------------------------------------------------------------------------
# Vanka


def test_vanka_patches_match_pattern_oracle(stokes1, stokes2):
    # stokes2's B stores exact zeros, which must not pull a node in
    for system in (stokes1, stokes2):
        dofs = VankaSmoother(system.monolithic(), system.layout)._dofs
        assert len(dofs) == system.layout.n_pressure
        vd = system.layout.velocity_dof
        b = system.monolithic()[vd:, :vd]
        for i, patch in enumerate(dofs):
            row = b.getrow(i)
            nodes = np.unique(row.indices[row.data != 0.0] // 3)
            oracle = np.concatenate([(3 * nodes[:, None] + np.arange(3)).ravel(), [vd + i]])
            assert np.array_equal(oracle, patch)


def test_vanka_empty_patch_raises():
    a = np.eye(2)
    b = np.array([[1.0, 1.0], [0.0, 0.0]])  # second pressure row zeroed
    c = np.zeros((2, 2))
    k, lay = saddle_parts(a, b, c)
    with pytest.raises(MalformedSystem):
        VankaSmoother(k, lay)
    # the same row with its couplings stored as exact zeros
    coo = k.tocoo()
    stored = sp.csr_matrix(
        (np.r_[coo.data, 0.0, 0.0], (np.r_[coo.row, 3, 3], np.r_[coo.col, 0, 1])),
        shape=k.shape,
    )
    assert stored.nnz == k.nnz + 2
    with pytest.raises(MalformedSystem):
        VankaSmoother(stored, lay)


def test_vanka_patch_threshold_reads_b_alone():
    # C's entry is 1e14 times B's: a threshold relative to max|[B, -C]|
    # would drop both couplings and leave the patch empty
    k, lay = saddle_parts(np.eye(2), np.array([[1e-3, 1e-3]]), np.array([[1e11]]))
    assert np.array_equal(_patch_nodes(k, lay).indices, [0, 1, 2])


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
    x = np.zeros(5)
    VankaSmoother(k, lay, omega=1.0).presmooth(x, k @ x_star, 1)
    assert np.allclose(x, x_star, atol=1e-12)


def test_vanka_per_patch_residual_annihilation(stokes2):
    k = stokes2.monolithic()
    lay = stokes2.layout
    sm = VankaSmoother(k, lay, omega=1.0)
    rng = np.random.default_rng(6)
    b = rng.standard_normal(k.shape[0])
    b_norm = np.linalg.norm(b)
    x = np.zeros(k.shape[0])
    # replicate one multiplicative sweep wave by wave, checking each
    # local residual right after its wave's update
    r = b - k @ x
    for wave in sm._waves:
        delta = sm._solve_wave(wave, r[wave.dofs])
        x[wave.dofs] += delta
        r -= sm.op_csc[:, wave.dofs] @ delta
        for p in wave.members:
            assert np.abs(r[sm._dofs[p]]).max() <= 1e-12 * b_norm


def test_vanka_two_disjoint_patches_match_dense_oracle():
    a = np.diag([2.0, 3.0, 4.0, 5.0])
    b = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 2.0]])
    c = np.zeros((2, 2))
    k, lay = saddle_parts(a, b, c)
    rng = np.random.default_rng(7)
    rhs = rng.standard_normal(6)

    x = np.zeros(6)
    VankaSmoother(k, lay, omega=1.0).presmooth(x, rhs, 1)

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
    x = x_star.copy()
    sm.presmooth(x, k @ x_star, 1)
    assert np.linalg.norm(x - x_star) <= 1e-13 * np.linalg.norm(x_star)


def test_vanka_singular_patch():
    # two velocity rows of the local saddle system coincide
    a = np.zeros((2, 2))
    b = np.array([[1.0, 1.0]])
    c = np.zeros((1, 1))
    k, lay = saddle_parts(a, b, c)
    # raised from the Cholesky factorization's info, not the Schur check
    with pytest.raises(SingularPatch, match="not positive definite"):
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
    """Patch indices of each wave."""
    return [list(wave.members) for wave in sm._waves]


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


def vanka_sweep_and_oracle(k, lay, omega, seed):
    """One wave sweep from a random iterate, and the same sweep as
    sequential dense patch solves with explicit residual updates."""
    sm = VankaSmoother(k, lay, omega=omega)
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(k.shape[0])
    x0 = rng.standard_normal(k.shape[0])
    x = x0.copy()
    sm.presmooth(x, b, 1)

    kd = k.toarray()
    ref = x0.copy()
    for dofs in sm._dofs:
        r = b - kd @ ref
        ref[dofs] += omega * np.linalg.solve(kd[np.ix_(dofs, dofs)], r[dofs])
    return sm, x, ref


@pytest.mark.parametrize("omega", [1.0, 0.7])
def test_vanka_wave_sweep_matches_sequential_oracle(channel_vanka, omega):
    k, lay, _ = channel_vanka
    _, x, ref = vanka_sweep_and_oracle(k, lay, omega, seed=16)
    assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.fixture(scope="module")
def vanka_operators():
    """Mixed elasticity at n = 3 (``c_p != 0``) and the L1 Galerkin
    operator of a Stokes hierarchy at n = 4, with their layouts; the
    smallest sizes at which some waves hold several patches."""
    from p2amg.assembly import assemble
    from p2amg.bench_cli import build_case
    from p2amg.coarsening import build_hierarchy

    mixed = assemble(*build_case("elasticity_mixed", 3, mu=1.15e6, lam=1.73e6))
    coarse = build_hierarchy(assemble(*build_case("stokes", 4, mu=0.5))).levels[1]
    return {
        "mixed-elasticity": (mixed.monolithic(), mixed.layout),
        "stokes-L1": (coarse.operator, coarse.layout),
    }


@pytest.mark.parametrize("omega", [1.0, 0.7])
@pytest.mark.parametrize("name", ["mixed-elasticity", "stokes-L1"])
def test_vanka_schur_sweep_matches_dense_oracle(vanka_operators, name, omega):
    k, lay = vanka_operators[name]
    vd = lay.velocity_dof
    if name == "mixed-elasticity":
        assert np.all(k.diagonal()[vd:] < 0.0)  # every patch has c_p != 0
    sm, x, ref = vanka_sweep_and_oracle(k, lay, omega, seed=25)
    assert max(len(wave.members) for wave in sm._waves) >= 2
    assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)
    assert np.linalg.norm(x[:vd] - ref[:vd]) <= 1e-13 * np.linalg.norm(ref[:vd])


def dof_level_waves(op, incidence):
    """Dependency waves from the dof-level coupling ``incidence @
    pattern(op) @ incidence.T`` plus shared dofs, scheduled patch by
    patch: the oracle of the node-level waves."""
    pattern = sp.csr_matrix(
        (np.ones(op.nnz, dtype=bool), op.indices, op.indptr), shape=op.shape
    )
    coupling = incidence @ pattern @ incidence.T
    coupling = sp.tril(coupling + coupling.T + incidence @ incidence.T, k=-1).tolil()
    wave = [0] * incidence.shape[0]
    for p, earlier in enumerate(coupling.rows):
        wave[p] = max((wave[q] + 1 for q in earlier), default=0)
    return [np.flatnonzero(np.array(wave) == w) for w in range(max(wave) + 1)]


@pytest.mark.parametrize("name", ["channel-L0", "mixed-elasticity", "stokes-L1"])
def test_vanka_node_level_waves_match_dof_level_coupling(channel_vanka, vanka_operators, name):
    k, lay = channel_vanka[:2] if name == "channel-L0" else vanka_operators[name]
    patches = _patch_nodes(k, lay)
    waves = _dependency_waves(k, patches, lay)
    oracle = dof_level_waves(k, (patches @ dof_node_incidence(lay).T).tocsr())
    assert len(waves) == len(oracle) > 1
    for wave, ref in zip(waves, oracle):
        assert np.array_equal(wave, ref)


def test_vanka_patch_and_wave_setup_peak_is_bounded():
    """Building the Vanka patches and their waves at Stokes n = 8 L0
    (1,487,380 stored entries) allocates at most 0.65x the operator's
    stored bytes through numpy: both read node patterns of the
    operator's own arrays.  Patches and waves formed through products
    with the dof-to-node incidence peak at 0.78x."""
    from p2amg.assembly import assemble
    from p2amg.bench_cli import build_case

    system = assemble(*build_case("stokes", 8))
    op, lay = system.monolithic(), system.layout
    tracemalloc.start()
    try:
        waves = _dependency_waves(op, _patch_nodes(op, lay), lay)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(waves) > 1
    assert peak <= 0.65 * (op.data.nbytes + op.indices.nbytes + op.indptr.nbytes)


@pytest.mark.parametrize("name", ["channel-L0", "stokes-L1"])
def test_vanka_patch_factors_match_dense_oracle(channel_vanka, vanka_operators, name):
    """Every stored packed factor is a Cholesky factor of its ``A_p``,
    and ``w``, ``h`` and ``s_p`` are those of the dense patch matrix."""
    k, lay = channel_vanka[:2] if name == "channel-L0" else vanka_operators[name]
    sm = VankaSmoother(k, lay)
    checked = 0
    for wave in sm._waves:
        for i, (p, (n, ap, velocity)) in enumerate(zip(wave.members, wave.factors)):
            dofs = sm._dofs[p]
            patch = k[dofs][:, dofs].toarray()
            a_p, g, h, c = patch[:n, :n], patch[:n, n], patch[n, :n], -patch[n, n]
            lower = np.zeros((n, n))
            lower.T[np.triu_indices(n)] = ap  # packed by columns of the lower triangle
            err = np.linalg.norm(lower @ lower.T - a_p) / np.linalg.norm(a_p)
            assert err <= 1e-13
            w = np.linalg.solve(a_p, g)
            first = wave.starts[i]
            assert velocity == slice(first, first + n)
            assert np.array_equal(wave.dofs[first : first + n + 1], dofs)
            assert np.array_equal(wave.h[velocity], h) and wave.h[first + n] == 0.0
            assert np.linalg.norm(wave.w[velocity] - w) <= 1e-13 * np.linalg.norm(w)
            assert wave.w[first + n] == -1.0
            assert abs(wave.schur[i] - (c + h @ w)) <= 1e-13 * abs(c + h @ w)
            checked += 1
    assert checked == len(sm._dofs)


def test_vanka_needs_spd_velocity_block_and_positive_schur():
    # the patch [[1, 0, 1], [0, -1, 2], [1, 2, 0]] is nonsingular, but
    # its velocity block is indefinite: the one-pressure Schur solve
    # needs an SPD velocity block, so the patch is rejected
    k, lay = saddle_parts(np.diag([1.0, -1.0]), np.array([[1.0, 2.0]]), np.zeros((1, 1)))
    assert abs(np.linalg.det(k.toarray())) > 1.0
    with pytest.raises(SingularPatch, match="not positive definite"):
        VankaSmoother(k, lay)
    # an SPD velocity block with s_p = c_p + g^T A^{-1} g = -10 + 2 < 0
    k, lay = saddle_parts(np.eye(2), np.array([[1.0, 1.0]]), np.array([[-10.0]]))
    with pytest.raises(SingularPatch, match="Schur complement"):
        VankaSmoother(k, lay)


def test_coarse_solve_matches_lu_solve_bitwise(channel_vanka):
    import scipy.linalg

    from p2amg.sparse_core import coarse_factor, coarse_solve

    k, _, sm = channel_vanka
    rng = np.random.default_rng(17)
    for dofs in sm._dofs:
        factor = coarse_factor(k[dofs][:, dofs])
        rhs = rng.standard_normal(factor.n)
        ref = factor.scaling * scipy.linalg.lu_solve(
            (factor.lu, factor.piv), factor.scaling * rhs, check_finite=False
        )
        assert np.array_equal(coarse_solve(factor, rhs), ref)


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_subtract_columns_matches_sliced_product(index_dtype):
    # guards the private scipy kernel behind the Vanka residual update: a
    # scipy whose csc_matvec changes its contract fails here, not in a run
    rng = np.random.default_rng(31)
    dense = rng.standard_normal((40, 30)) * (rng.random((40, 30)) < 0.15)
    dense[:, 7] = 0.0  # an empty column
    op = sp.csc_matrix(dense)
    op.indices, op.indptr = op.indices.astype(index_dtype), op.indptr.astype(index_dtype)
    cases = [[7], [3], [12, 3, 7, 25, 0, 29], list(rng.permutation(30))]
    for cols in map(np.array, cases):
        ranges, order = _column_ranges(op, cols)
        assert ranges.dtype == order.dtype == index_dtype
        d = rng.standard_normal(cols.size)
        r0 = rng.standard_normal(40)
        r = r0.copy()
        _subtract_columns(op, ranges, order, d, r)
        ref = r0 - op[:, cols] @ d
        assert np.linalg.norm(r - ref) <= 1e-14 * np.linalg.norm(ref)
        untouched = ~dense[:, cols].any(axis=1)
        assert np.array_equal(r[untouched], r0[untouched])
        if cols.size < 30:
            assert untouched.any()


def test_vanka_waves_store_their_permutation_in_the_index_dtype(channel_vanka):
    """Each wave's ``order``, like its ``ranges``, takes the dtype of the
    CSC operator's indices, and the sweep built on them still matches
    the sequential oracle."""
    k, lay, sm = channel_vanka
    dtype = sm.op_csc.indices.dtype
    assert dtype == np.int32
    for wave in sm._waves:
        assert wave.ranges.dtype == wave.order.dtype == dtype
        assert np.array_equal(np.sort(wave.order), np.arange(wave.dofs.size))
    _, x, ref = vanka_sweep_and_oracle(k, lay, 1.0, seed=46)
    assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)


def test_vanka_sweep_makes_no_wave_sized_slice():
    # on the Stokes channel's n = 4 L0 operator, slicing a wave's column
    # block op_csc[:, dofs] would take up to 0.45 MiB
    from p2amg.assembly import assemble
    from p2amg.bench_cli import build_case

    system = assemble(*build_case("stokes", 4, mu=0.5))
    k = system.monolithic()
    sm = VankaSmoother(k, system.layout, omega=1.0)
    rng = np.random.default_rng(33)
    b = rng.standard_normal(k.shape[0])
    sm.correct(np.zeros_like(b), b.copy())  # any lazy set-up happens here
    x, r = np.zeros_like(b), b.copy()
    tracemalloc.start()
    try:
        sm.correct(x, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * 2**20
    assert np.linalg.norm(r - (b - k @ x)) <= 1e-13 * np.linalg.norm(b)


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
    x = np.zeros(3)
    BraessSarazinSmoother(k, lay).presmooth(x, rhs, 1)
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

    x = x0.copy()
    BraessSarazinSmoother(k, lay).presmooth(x, rhs, 1)

    ahat = 2.0 * np.diag(a)
    schur = c + b @ np.diag(1.0 / ahat) @ b.T
    ref = bs_oracle(k, lay, x0, rhs, ahat, schur)
    assert np.allclose(x, ref, atol=1e-11 * np.abs(ref).max())


def braess_sarazin_step(k, lay, r, ahat_solve, schur_solve):
    """Block elimination with the Braess-Sarazin factor, given solves
    with ``Ahat`` and with ``Shat``: the correction for residual ``r``."""
    vd = lay.velocity_dof
    b = k[vd:, :vd]
    u_star = ahat_solve(r[:vd])
    q = schur_solve(b @ u_star - r[vd:])
    return np.concatenate([u_star - ahat_solve(b.T @ q), q])


def test_braess_sarazin_exact_pieces_reproduce_direct_solve(cube1):
    """With Ahat = A and the exact Schur complement, one step solves;
    with the smoother's own pieces, the step is the smoother's sweep."""
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

    rng = np.random.default_rng(11)
    x_star = rng.standard_normal(k.shape[0])
    rhs = k @ x_star
    x = braess_sarazin_step(
        k, lay, rhs, lambda r: a_inv @ r, lambda r: schur_inv @ r
    )
    assert np.linalg.norm(x - x_star) <= 1e-11 * np.linalg.norm(x_star)

    sm = BraessSarazinSmoother(k, lay)
    x = np.zeros(k.shape[0])
    sm.presmooth(x, rhs, 1)
    step = braess_sarazin_step(k, lay, rhs, lambda r: r / sm.ahat, sm.schur)
    assert np.abs(x - step).max() <= 1e-14 * np.abs(step).max()


def test_braess_sarazin_fixed_point(mixed2):
    k = mixed2.monolithic()
    rng = np.random.default_rng(12)
    x_star = rng.standard_normal(k.shape[0])
    x = x_star.copy()
    BraessSarazinSmoother(k, mixed2.layout).presmooth(x, k @ x_star, 1)
    assert np.linalg.norm(x - x_star) <= 1e-13 * np.linalg.norm(x_star)


def test_schur_preconditioner_kinds(mixed2):
    k = mixed2.monolithic()
    lay = mixed2.layout
    vd = lay.velocity_dof
    ahat = 2.0 * k.diagonal()[:vd]
    dense = build_schur_preconditioner(k, lay, ahat, coarse_size_cap=10_000)
    assert dense.hierarchy.n_levels == 1
    amg = build_schur_preconditioner(k, lay, ahat, coarse_size_cap=20)
    assert isinstance(amg, Preconditioner)
    rng = np.random.default_rng(13)
    r = rng.standard_normal(lay.n_pressure)
    exact = dense(r)
    approx = amg(r)
    # the Schur matrix C + B Ahat^{-1} B^T, formed here from the blocks
    b = k[vd:, :vd]
    s = -k[vd:, vd:] + b @ sp.diags(1.0 / ahat) @ b.T
    # one inner V-cycle is a crude but convergent approximation
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
    x = np.zeros(3)
    SegregatedGSSmoother(k, lay, omega=0.125).presmooth(x, rhs, 1)
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
    x = x0.copy()
    sm.presmooth(x, rhs, 1)
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
    x = x_star.copy()
    SegregatedGSSmoother(k, mixed2.layout).presmooth(x, k @ x_star, 1)
    assert np.linalg.norm(x - x_star) <= 1e-13 * np.linalg.norm(x_star)


def test_segregated_gs_validation(mixed2):
    with pytest.raises(InvalidParameter):
        SegregatedGSSmoother(mixed2.monolithic(), mixed2.layout, omega=-1.0)
    with pytest.raises(MalformedSystem):
        op, layout, _ = as_operator(sp.identity(4, format="csr"))
        SegregatedGSSmoother(op, layout)
