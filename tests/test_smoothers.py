import os
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
from p2amg.coarsening import build_hierarchy
from p2amg.multigrid import CycleConfig, Preconditioner
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


@pytest.mark.parametrize("kind", list(SmootherKind))
def test_config_and_its_name_agree_on_damping(kind):
    # a config built with the kind's default damping and the config parsed
    # from its name are equal: 0.125 for segregated GS, 1 otherwise
    cfg = SmootherConfig(kind=kind)
    assert parse_smoother(cfg.name) == cfg
    assert cfg.omega == (0.125 if kind is SmootherKind.SEGREGATED_GS else 1.0)


def test_parse_smoother_roundtrip():
    for name in ("JA-1-1-0.5", "GS-2-2", "sGS-2-2", "Braess-Sarazin-1-1"):
        assert parse_smoother(name).name == name


def test_parse_smoother_rejects_garbage():
    # damping follows the sweep counts: Vanka-2 and Vanka-0.8 name none
    for name in ("SOR-1-1", "Vanka-2", "Vanka-0.8"):
        with pytest.raises(InvalidParameter):
            parse_smoother(name)


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
    op`` entry by entry.  The strict block lower triangle ``L`` is the
    split at each row's node start, and the diagonal node blocks, the
    entries with ``node(col) == node(row)``, are those of ``T`` and not
    of ``L``, with the difference of the row pointers.  The small block
    sizes make row blocks of one or five rows, which end inside a node,
    and the hand-made operators have empty rows, the last one included."""
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

    below, lo = _split_rows(op, first[node])
    ref_d, _ = coo_split(op, lambda i, j: node[j] == node[i])
    ref_l, _ = coo_split(op, lambda i, j: node[j] < node[i])
    assert_same_csr(_masked_rows(op, lower & ~below, indptr - lo), ref_d)
    assert_same_csr(_masked_rows(op, below, lo), ref_l)


@pytest.mark.parametrize("order", ["sorted", "reversed"])
def test_block_triangles_factor_t_and_store_u(laplace2, order):
    """``_block_triangles`` returns the inverse node blocks ``D^{-1}``,
    diagonal for the vector Laplacian once exact zeros are dropped, the
    strictly lower ``S = D^{-1} L`` with ``intc`` indices, and ``U``,
    which comes back sorted even from rows stored in reverse column order
    (the Schur hierarchy's operator is unsorted)."""
    op = laplace2.monolithic()
    if order == "reversed":
        rows = np.repeat(np.arange(op.shape[0]), np.diff(op.indptr))
        perm = np.lexsort((-op.indices, rows))
        op = sp.csr_matrix((op.data[perm], op.indices[perm], op.indptr), shape=op.shape)
        assert not op.has_sorted_indices
    node = laplace2.layout.node_of_dof()
    inverses, unit, u = _block_triangles(op, laplace2.layout)
    ref_d, _ = coo_split(op, lambda i, j: node[j] == node[i])
    ref_l, _ = coo_split(op, lambda i, j: node[j] < node[i])
    _, ref_u = coo_split(op, lambda i, j: node[j] <= node[i])
    assert_same_csr(u, ref_u)
    ref_inv = np.linalg.inv(ref_d.toarray())
    assert inverses.nnz == op.shape[0]
    assert np.abs(inverses.toarray() - ref_inv).max() <= 1e-14 * np.abs(ref_inv).max()
    ref_unit = ref_inv @ ref_l.toarray()
    assert unit.indices.dtype == unit.indptr.dtype == np.intc
    assert np.abs(unit.toarray() - ref_unit).max() <= 1e-14 * np.abs(ref_unit).max()
    assert sp.triu(unit).nnz == 0


def test_gstrs_unit_triangle_contract():
    """The private ``gstrs`` that block GS calls, given the identity as
    ``L`` and the CSR arrays of a strictly lower ``S`` as ``U`` (with
    ``int32`` indices, an empty row and unsorted columns), solves with
    ``I + S`` for ``"T"`` and with ``(I + S)^T`` for ``"N"``, and returns
    a new vector with ``b`` unmodified."""
    rng = np.random.default_rng(48)
    n = 12
    dense = np.tril(rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.6), -1)
    dense[5] = 0.0
    s = sp.csr_matrix(dense)
    rows = np.repeat(np.arange(n), np.diff(s.indptr))
    perm = np.lexsort((-s.indices, rows))
    s = sp.csr_matrix((s.data[perm], s.indices[perm], s.indptr), shape=s.shape)
    assert not s.has_sorted_indices and np.diff(s.indptr)[5] == 0
    assert s.indices.dtype == s.indptr.dtype == np.int32
    eye = sp.identity(n, format="csc")
    b = rng.standard_normal(n)
    b_in = b.copy()
    for trans, tri in (("T", np.eye(n) + dense), ("N", (np.eye(n) + dense).T)):
        x, info = smoothers.gstrs(trans, n, eye.nnz, eye.data, eye.indices, eye.indptr,
                                  n, s.nnz, s.data, s.indices, s.indptr, b)
        assert info == 0
        ref = np.linalg.solve(tri, b_in)
        assert np.abs(x - ref).max() <= 1e-13 * np.abs(ref).max()
        assert not np.shares_memory(x, b)
        assert np.array_equal(b, b_in)


def test_gs_singular_block_triangle():
    with pytest.raises(SingularBlock):
        gauss_seidel(sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 2.0]])))


def test_gs_rejects_a_saddle_layout(stokes2):
    """The node-block inverses cover the velocity nodes only."""
    with pytest.raises(MalformedSystem):
        GaussSeidelSmoother(stokes2.monolithic(), stokes2.layout)


def test_gs_setup_peak_is_bounded_by_the_triangles():
    """Block GS setup at vector Laplace n = 8 (265,425 stored entries)
    allocates at most 1.5x the stored bytes of ``T`` and ``U`` through
    numpy: ``D``, ``L``, ``S = D^{-1} L`` and ``U``, the two split masks
    and row-block temporaries.  A split through a COO copy of the
    operator peaks at 2.1x."""
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


def vm_size_bytes():
    """The process's ``VmSize``: the address space it holds, mapped or not."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmSize:"):
                return 1024 * int(line.split()[1])
    raise AssertionError("no VmSize line")


def test_gs_setup_reserves_no_address_space_beyond_its_arrays():
    """Block GS setup at vector Laplace n = 8 grows ``VmSize`` by at most
    4x the operator's stored bytes (3.1 MB): it keeps arrays and reserves
    no solver workspace.  A SuperLU factor of the block triangle held
    about 30x."""
    if not os.path.exists("/proc/self/status"):
        pytest.skip("VmSize is read from /proc/self/status")
    from p2amg.assembly import assemble
    from p2amg.bench_cli import build_case

    system = assemble(*build_case("vector_laplace", 8))
    op = system.monolithic()
    before = vm_size_bytes()
    sm = GaussSeidelSmoother(op, system.layout)
    grown = vm_size_bytes() - before
    assert sm._upper.nnz > 0
    assert grown <= 4 * (op.data.nbytes + op.indices.nbytes + op.indptr.nbytes)


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
    hier = build_hierarchy(mixed2, coarse_size_cap=100)
    assert hier.n_levels > 1
    for lv in hier.levels:
        got = _velocity_block_inverses(lv.operator, lv.layout)[0]
        ref = coo_velocity_block_inverses(lv.operator, lv.layout)
        # the stored entries are the blocks' non-zeros, to the bit
        node, first = lv.layout.node_of_dof(), lv.layout.first_dof()
        coo = got.tocoo()
        i = node[coo.row]
        assert np.array_equal(i, node[coo.col])
        assert coo.nnz == np.count_nonzero(ref)
        blocks = ref[i, coo.row - first[i], coo.col - first[i]]
        assert np.array_equal(coo.data.view(np.uint64), blocks.view(np.uint64))


def test_transposed_sweep_views_share_the_stored_arrays(laplace2, stokes2):
    sm = GaussSeidelSmoother(laplace2.monolithic(), laplace2.layout)
    assert np.shares_memory(sm._upper_t.data, sm._upper.data)
    assert np.shares_memory(sm._upper_t.indices, sm._upper.indices)
    assert np.shares_memory(sm._inverses_t.data, sm._inverses.data)
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
        r -= sm.op[:, wave.dofs] @ delta
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


def assert_patches_match_dense_oracle(k, sm, patches=None):
    """Each stored packed factor ``L`` gives its dense patch matrix as
    ``K_p = L J L^T``, ``J`` negating the pressure entry, and sits at its
    patch's place in the wave, for ``patches`` (all if None)."""
    checked = 0
    for wave in sm._waves:
        for i, (p, (size, ap, lo)) in enumerate(zip(wave.members, wave.factors)):
            if patches is not None and p not in patches:
                continue
            dofs = sm._dofs[p]
            assert np.array_equal(wave.dofs[lo : lo + size], dofs)
            assert wave.pressure[i] == lo + size - 1
            lower = np.zeros((size, size))
            lower.T[np.triu_indices(size)] = ap  # packed by columns of the lower triangle
            j = np.ones(size)
            j[-1] = -1.0
            patch = k[dofs][:, dofs].toarray()
            err = np.linalg.norm((lower * j) @ lower.T - patch) / np.linalg.norm(patch)
            assert err <= 1e-13
            checked += 1
    assert checked == (len(sm._dofs) if patches is None else len(patches))


@pytest.mark.parametrize("name", ["channel-L0", "stokes-L1", "mixed-elasticity"])
def test_vanka_patch_factors_match_dense_oracle(channel_vanka, vanka_operators, name):
    """Every stored packed factor ``L`` gives its patch matrix as ``L J
    L^T``."""
    k, lay = channel_vanka[:2] if name == "channel-L0" else vanka_operators[name]
    assert_patches_match_dense_oracle(k, VankaSmoother(k, lay))


def factor_addresses(sm):
    """The address of each patch's packed factor, by patch."""
    return {
        p: ap.__array_interface__["data"][0]
        for wave in sm._waves
        for p, (_, ap, _) in zip(wave.members, wave.factors)
    }


@pytest.fixture(scope="module")
def channel4():
    """The Stokes channel at n = 4, L0: 225 patches, 84 distinct blocks."""
    from p2amg.assembly import assemble
    from p2amg.bench_cli import build_case

    system = assemble(*build_case("stokes", 4))
    return system.monolithic(), system.layout


def test_vanka_repeated_patches_share_one_exact_factor(channel4):
    k, lay = channel4
    sm = VankaSmoother(k, lay)
    address = factor_addresses(sm)
    assert len(address) == 225 and len(set(address.values())) == 84
    # sharing is invisible in every patch's own factor
    assert_patches_match_dense_oracle(k, sm)
    # a patch that shares an earlier patch's factor, and a nonzero entry
    # of the strict lower triangle of its A_p
    seen = set()
    for p in range(len(sm._dofs)):
        if address[p] in seen:
            break
        seen.add(address[p])
    dofs = sm._dofs[p][:-1]
    block = k[dofs][:, dofs].toarray()
    i, j = np.argwhere(np.tril(block, k=-1) != 0.0)[0]
    a, b = dofs[i], dofs[j]
    # one ulp, mirrored so that the block stays symmetric: a table keyed
    # on rounded values or a float fingerprint would still share
    nudged = k.copy()
    nudged[a, b] = nudged[b, a] = np.nextafter(k[a, b], np.inf)
    assert np.array_equal(k.indices, nudged.indices)
    sm = VankaSmoother(nudged, lay)
    address = factor_addresses(sm)
    assert list(address.values()).count(address[p]) == 1
    assert_patches_match_dense_oracle(nudged, sm, patches={p})


def packed_factors(sm):
    """The level's packed buffer, and each wave's ``(size, offset in the
    buffer, first position in dofs)`` per patch: every factor's bytes and
    which patches share one."""
    (buffer,) = {id(ap.base): ap.base for wave in sm._waves for _, ap, _ in wave.factors}.values()
    origin = buffer.__array_interface__["data"][0]
    return buffer, [
        [(size, ap.__array_interface__["data"][0] - origin, lo) for size, ap, lo in wave.factors]
        for wave in sm._waves
    ]


def test_vanka_setup_reads_only_the_stored_lower_triangle(channel4):
    """One ulp added to a strict-upper entry of a shared patch's block,
    not mirrored, leaves every packed factor and the factor-sharing map
    bitwise as they were: setup reads the stored lower triangle alone."""
    k, lay = channel4
    sm = VankaSmoother(k, lay)
    buffer, offsets = packed_factors(sm)
    address = factor_addresses(sm)
    sharing = [p for p, a in sorted(address.items()) if list(address.values()).count(a) > 1]
    dofs = sm._dofs[sharing[0]]
    # an entry of g_p, the velocity rows of the pressure column
    block = k[dofs][:, dofs].toarray()
    i = np.flatnonzero(block[:-1, -1])[0]
    a, b = dofs[i], dofs[-1]
    nudged = k.copy()
    nudged[a, b] = np.nextafter(k[a, b], np.inf)
    assert np.array_equal(k.indices, nudged.indices)
    assert nudged[a, b] != nudged[b, a]
    nudged_buffer, nudged_offsets = packed_factors(VankaSmoother(nudged, lay))
    assert nudged_offsets == offsets
    assert nudged_buffer.tobytes() == buffer.tobytes()


def test_vanka_distinct_factor_counts_at_stokes_n8():
    """Stokes n = 8 stores 328 factors for the 1,377 patches of L0 and
    208 for the 225 of L1, and 48 sampled patches per level each
    reproduce their own patch matrix."""
    from p2amg.assembly import assemble
    from p2amg.bench_cli import build_case
    from p2amg.coarsening import build_hierarchy

    levels = build_hierarchy(assemble(*build_case("stokes", 8))).levels
    rng = np.random.default_rng(8)
    for level, patches, distinct in ((levels[0], 1377, 328), (levels[1], 225, 208)):
        sm = VankaSmoother(level.operator, level.layout)
        address = factor_addresses(sm)
        assert len(address) == patches and len(set(address.values())) == distinct
        sample = {int(p) for p in rng.choice(patches, size=48, replace=False)}
        assert_patches_match_dense_oracle(level.operator, sm, patches=sample)


def test_vanka_equal_values_in_other_columns_share_no_factor():
    """Two patches with equal diagonals whose lower triangles store the
    same values row by row, but one off-diagonal entry in another column,
    get a factor each.  The one distinct diagonal sizes the level's
    buffer for one factor, so the second factor grows it."""
    a = 2.0 * np.eye(6)
    a[2, 0] = a[0, 2] = 1.0  # patch 0: entry (2, 0)
    a[5, 4] = a[4, 5] = 1.0  # patch 1: entry (2, 1) of its block
    k, lay = saddle_parts(a, np.kron(np.eye(2), np.ones((1, 3))), np.zeros((2, 2)))
    sm = VankaSmoother(k, lay)
    assert len(sm._waves) == 1 and len(set(factor_addresses(sm).values())) == 2
    assert_patches_match_dense_oracle(k, sm)


@pytest.mark.parametrize("name", ["channel-L0", "stokes-L1"])
def test_vanka_level_buffer_holds_only_distinct_factors(channel4, vanka_operators, name):
    """The packed factors of a level are views of one buffer whose bytes
    are exactly those of its distinct factors."""
    k, lay = channel4 if name == "channel-L0" else vanka_operators[name]
    sm = VankaSmoother(k, lay)
    views = {ap.__array_interface__["data"][0]: ap
             for wave in sm._waves for _, ap, _ in wave.factors}
    buffers = {id(ap.base): ap.base for ap in views.values()}
    assert len(buffers) == 1
    (buffer,) = buffers.values()
    assert buffer.flags.owndata
    assert buffer.nbytes == sum(ap.nbytes for ap in views.values())


def test_vanka_setup_peak_follows_the_distinct_factors():
    """At Stokes n = 8 L0 the 328 distinct factors take 25.4 MiB of the
    packed buffer, and the traced peak of the whole Vanka setup stays
    within 2.5x that: 47.3 MiB.  A buffer reserved for all 1,377 patches
    before being cut to the distinct factors peaks at 116.2 MiB."""
    from p2amg.assembly import assemble
    from p2amg.bench_cli import build_case
    from p2amg.coarsening import build_hierarchy

    level = build_hierarchy(assemble(*build_case("stokes", 8))).levels[0]
    tracemalloc.start()
    try:
        sm = VankaSmoother(level.operator, level.layout)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (buffer,) = {id(ap.base): ap.base for wave in sm._waves for _, ap, _ in wave.factors}.values()
    assert peak <= 2.5 * buffer.nbytes


@pytest.mark.parametrize("name", ["channel-L0", "stokes-L1"])
def test_vanka_wave_arrays_are_views_of_level_buffers(channel4, vanka_operators, name):
    """Each wave's ``dofs``, ``ranges``, ``order`` and ``pressure`` is a
    slice of one level-wide buffer per kind, the waves' slices in wave
    order, and the buffers hold what each wave computes on its own."""
    k, lay = channel4 if name == "channel-L0" else vanka_operators[name]
    sm = VankaSmoother(k, lay)
    assert len(sm._waves) >= 2
    for kind in ("dofs", "ranges", "order", "pressure"):
        views = [getattr(wave, kind) for wave in sm._waves]
        assert all(view.base is not None for view in views), kind
        buffers = {id(view.base): view.base for view in views}
        assert len(buffers) == 1, kind
        (buffer,) = buffers.values()
        assert buffer.flags.owndata
        offset = 0
        for view in views:
            start = view.__array_interface__["data"][0] - buffer.__array_interface__["data"][0]
            assert start == offset * buffer.itemsize
            offset += view.size
        assert offset == buffer.size
    waves = sm._waves
    dofs = np.concatenate([sm._dofs[p] for wave in waves for p in wave.members])
    ranges, order = zip(*(_column_ranges(sm.op, wave.dofs) for wave in waves))
    pressure = [np.cumsum([sm._dofs[p].size for p in wave.members]) - 1 for wave in waves]
    assert np.array_equal(waves[0].dofs.base, dofs)
    assert np.array_equal(waves[0].ranges.base, np.concatenate(ranges))
    assert np.array_equal(waves[0].order.base, np.concatenate(order))
    assert np.array_equal(waves[0].pressure.base, np.concatenate(pressure))
    assert all(np.all(wave.dofs[wave.pressure] >= lay.velocity_dof) for wave in waves)


def test_vanka_needs_spd_velocity_block_and_positive_schur():
    # the patch [[1, 0, 1], [0, -1, 2], [1, 2, 0]] is nonsingular, but
    # its velocity block is indefinite: the factor L J L^T needs an SPD
    # velocity block, so the patch is rejected
    k, lay = saddle_parts(np.diag([1.0, -1.0]), np.array([[1.0, 2.0]]), np.zeros((1, 1)))
    assert abs(np.linalg.det(k.toarray())) > 1.0
    with pytest.raises(SingularPatch, match="not positive definite"):
        VankaSmoother(k, lay)
    # an SPD velocity block with sigma^2 = c_p + h^T A^{-1} h = -10 + 2 < 0
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
    # scipy whose csc_matvec changes its contract fails here, not in a run;
    # the operator is symmetric CSR, whose arrays are its CSC arrays
    rng = np.random.default_rng(31)
    dense = rng.standard_normal((30, 30)) * (rng.random((30, 30)) < 0.08)
    dense += dense.T
    dense[:, 7] = dense[7, :] = 0.0  # an empty row and column
    op = sp.csr_matrix(dense)
    op.indices, op.indptr = op.indices.astype(index_dtype), op.indptr.astype(index_dtype)
    cases = [[7], [3], [12, 3, 7, 25, 0, 29], list(rng.permutation(30))]
    for cols in map(np.array, cases):
        ranges, order = _column_ranges(op, cols)
        assert ranges.dtype == order.dtype == index_dtype
        d = rng.standard_normal(cols.size)
        r0 = rng.standard_normal(30)
        r = r0.copy()
        _subtract_columns(op, ranges, order, d, r)
        ref = r0 - dense[:, cols] @ d
        assert np.linalg.norm(r - ref) <= 1e-14 * np.linalg.norm(ref)
        untouched = ~dense[:, cols].any(axis=1)
        assert np.array_equal(r[untouched], r0[untouched])
        if cols.size < 30:
            assert untouched.any()


def test_vanka_waves_store_their_permutation_in_the_index_dtype(channel_vanka):
    """Each wave's ``order``, like its ``ranges``, takes the dtype of the
    stored operator's indices, and the sweep built on them still matches
    the sequential oracle."""
    k, lay, sm = channel_vanka
    dtype = sm.op.indices.dtype
    assert dtype == np.int32
    for wave in sm._waves:
        assert wave.ranges.dtype == wave.order.dtype == dtype
        assert np.array_equal(np.sort(wave.order), np.arange(wave.dofs.size))
    _, x, ref = vanka_sweep_and_oracle(k, lay, 1.0, seed=46)
    assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)


def test_vanka_sweep_makes_no_wave_sized_slice():
    # on the Stokes channel's n = 4 L0 operator, slicing a wave's column
    # block op[:, dofs] would take up to 0.45 MiB
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
        g_dirichlet=lambda v: v * np.array([0.0, 0.0, 1.0]),
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
    ahat = 2.0 * k.diagonal()[:vd]
    step = braess_sarazin_step(k, lay, rhs, lambda r: r / ahat, sm.schur)
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
    b = k[vd:, :vd]
    schur = build_schur_preconditioner(k, b.tocsr(), 1.0 / ahat)
    # the symmetrised Schur matrix it formed, coarsened to one level and to several
    s_sym = schur.hierarchy.levels[0].operator
    config = CycleConfig(smoother=parse_smoother("GS-1-1"))
    dense = Preconditioner(build_hierarchy(s_sym, coarse_size_cap=lay.n_pressure), config)
    assert dense.hierarchy.n_levels == 1
    amg = Preconditioner(build_hierarchy(s_sym, coarse_size_cap=20), config)
    assert amg.hierarchy.n_levels > 1
    rng = np.random.default_rng(13)
    r = rng.standard_normal(lay.n_pressure)
    exact = dense(r)
    approx = amg(r)
    # the Schur matrix C + B Ahat^{-1} B^T, formed here from the blocks
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
