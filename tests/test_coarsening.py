from dataclasses import replace
from math import fsum

import numpy as np
import pytest
import scipy.sparse as sp

from p2amg import coarsening
from p2amg.assembly import ProblemKind, ProblemSpec, assemble
from p2amg.coarsening import (
    COARSE,
    FINE,
    MAX_LEVELS,
    MONOLITHIC,
    SEPARATED,
    _level_graph,
    build_hierarchy,
    build_prolongation,
    hierarchy_summary,
    select_coarse,
)
from p2amg.bench_cli import build_case
from p2amg.errors import CoarseningFailure, InvalidParameter, SolverError
from p2amg.mesh import generate_unit_cube_mesh, tag_boundary
from p2amg.smoothers import BraessSarazinSmoother, _patch_nodes
from p2amg.sparse_core import (
    BlockLayout,
    as_operator,
    coarse_solve,
    coupling_mask,
    triple_product,
)

from conftest import lid_displacement, nowhere, z_faces
from fem_oracles import free_node_index, node_pattern_product, reference_node_graph


def graph_from_edges(n, edges):
    if edges:
        i, j = np.array(edges).T
        data = np.ones(2 * len(edges))
        m = sp.coo_matrix(
            (data, (np.concatenate([i, j]), np.concatenate([j, i]))), shape=(n, n)
        )
    else:
        m = sp.coo_matrix((n, n))
    return reference_node_graph(m.tocsr() + sp.identity(n, format="csr"))


def node_matrix(matrix, block_size, keep=None):
    """Node-level matrix of a dof-level one whose nodes carry
    ``block_size`` consecutive dofs: an entry wherever a node block
    holds a stored entry (one selected by the mask ``keep``, if given)."""
    coo = matrix.tocoo()
    rows, cols = (coo.row, coo.col) if keep is None else (coo.row[keep], coo.col[keep])
    n = matrix.shape[0] // block_size
    return sp.coo_matrix(
        (np.ones(len(rows)), (rows // block_size, cols // block_size)), shape=(n, n)
    ).tocsr()


def neighbors(graph, i):
    return graph.indices[graph.indptr[i] : graph.indptr[i + 1]]


def n_edges(graph):
    """Edges of a symmetric adjacency without self-loops."""
    return graph.indices.shape[0] // 2


def path_graph(n):
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def test_node_graph_tridiagonal_is_path():
    m = sp.diags([np.ones(4), 2 * np.ones(5), np.ones(4)], [-1, 0, 1]).tocsr()
    g = reference_node_graph(m)
    assert g.shape == (5, 5)
    assert n_edges(g) == 4
    assert list(neighbors(g, 0)) == [1]
    assert list(neighbors(g, 2)) == [1, 3]


def test_node_graph_diagonal_is_edgeless():
    g = reference_node_graph(sp.identity(6, format="csr"))
    assert n_edges(g) == 0


def test_node_graph_blockwise():
    # one 2x2 coupling block produces one graph edge
    dense = np.zeros((6, 6))
    dense[np.diag_indices(6)] = 1.0
    dense[0, 3] = 5.0
    m = sp.csr_matrix(dense)
    g = reference_node_graph(node_matrix(m, 3))
    assert g.shape == (2, 2)
    assert n_edges(g) == 1


def test_monolithic_graph_denser_than_separated(laplace2):
    level = build_hierarchy(laplace2, coarse_size_cap=10_000).levels[0]
    g_sep = _level_graph(level, SEPARATED)
    g_mono = _level_graph(level, MONOLITHIC)
    assert n_edges(g_mono) > n_edges(g_sep)


def test_select_coarse_path():
    labels = select_coarse(path_graph(5))
    assert labels.dtype == np.int8
    assert list(np.flatnonzero(labels == COARSE)) == [0, 2, 4]
    assert list(np.flatnonzero(labels == FINE)) == [1, 3]


def test_select_coarse_edgeless_all_coarse():
    labels = select_coarse(graph_from_edges(3, []))
    assert np.count_nonzero(labels == COARSE) == 3


def test_select_coarse_complete_graph():
    k4 = graph_from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    labels = select_coarse(k4)
    assert list(np.flatnonzero(labels == COARSE)) == [0]


def test_select_coarse_invariants_random():
    rng = np.random.default_rng(31)
    for trial in range(5):
        n = 60
        mask = np.triu(rng.random((n, n)) < 0.08, k=1)
        edges = list(zip(*np.nonzero(mask)))
        g = graph_from_edges(n, edges)
        labels = select_coarse(g)
        for i in range(n):
            nbrs = neighbors(g, i)
            if labels[i] == FINE:
                assert np.any(labels[nbrs] == COARSE)
            else:
                assert not np.any(labels[nbrs] == COARSE)


def test_prolongation_all_coarse_identity():
    g = graph_from_edges(4, [])
    p = build_prolongation(g, select_coarse(g))
    assert np.allclose(p.toarray(), np.eye(4))


def test_prolongation_path_average():
    g = path_graph(3)
    p = build_prolongation(g, select_coarse(g)).toarray()
    assert np.allclose(p[1], [0.5, 0.5])
    assert np.allclose(p[0], [1.0, 0.0])
    assert np.allclose(p[2], [0.0, 1.0])


def test_prolongation_single_coarse_neighbour():
    k4 = graph_from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    p = build_prolongation(k4, select_coarse(k4)).toarray()
    assert np.allclose(p, np.ones((4, 1)))


def test_prolongation_row_sums_exact():
    # complete bipartite graph: every fine node averages 10 coarse ones
    edges = [(i, 10 + j) for i in range(10) for j in range(10)]
    g = graph_from_edges(20, edges)
    labels = select_coarse(g)
    assert np.count_nonzero(labels == COARSE) == 10
    p = build_prolongation(g, labels)
    sums = np.asarray(p.sum(axis=1)).ravel()
    assert np.abs(sums - 1.0).max() <= 1e-15


def loop_prolongation(graph, labels):
    """Per-node reference: coarse nodes, numbered in ascending order,
    inject; fine nodes average their sorted coarse neighbours, the last
    weight closing the row sum."""
    n = graph.shape[0]
    coarse_index = {c: k for k, c in enumerate(np.flatnonzero(labels == COARSE))}
    indptr = np.zeros(n + 1, dtype=np.int64)
    cols, data = [], []
    for i in range(n):
        if labels[i] == COARSE:
            cols.append(np.array([coarse_index[i]]))
            data.append(np.array([1.0]))
        else:
            nbrs = neighbors(graph, i)
            coarse_nbrs = np.array([coarse_index[j] for j in nbrs if labels[j] == COARSE])
            k = len(coarse_nbrs)
            w = np.full(k, 1.0 / k)
            if k > 1:
                w[-1] = 1.0 - fsum(w[:-1])
            cols.append(np.sort(coarse_nbrs))
            data.append(w)
        indptr[i + 1] = indptr[i] + len(cols[-1])
    return np.concatenate(data), np.concatenate(cols), indptr


def assert_matches_loop_oracle(graph, labels):
    p = build_prolongation(graph, labels)
    data, indices, indptr = loop_prolongation(graph, labels)
    assert p.shape == (graph.shape[0], np.count_nonzero(labels == COARSE))
    assert np.array_equal(p.indptr, indptr)
    assert np.array_equal(p.indices, indices)
    assert np.array_equal(p.data.view(np.int64), data.view(np.int64))


def test_prolongation_matches_loop_oracle_random():
    # fine nodes with 1..12 coarse neighbours, plus fine-fine edges
    rng = np.random.default_rng(11)
    n = 400
    labels = np.where(rng.random(n) < 0.3, COARSE, FINE).astype(np.int8)
    coarse = np.flatnonzero(labels == COARSE)
    fine = np.flatnonzero(labels == FINE)
    edges = []
    counts = 1 + np.arange(len(fine)) % 12
    for i, k in zip(fine, counts):
        edges += [(i, j) for j in rng.choice(coarse, size=k, replace=False)]
        edges += [(i, j) for j in rng.choice(fine, size=2) if j != i]
    g = graph_from_edges(n, edges)
    assert set(np.diff(build_prolongation(g, labels).indptr)[fine]) == set(range(1, 13))
    assert_matches_loop_oracle(g, labels)


def test_prolongation_matches_loop_oracle_laplace4(laplace4):
    level = build_hierarchy(laplace4, coarse_size_cap=10_000).levels[0]
    for mode in (SEPARATED, MONOLITHIC):
        g = _level_graph(level, mode)
        assert_matches_loop_oracle(g, select_coarse(g))


def test_prolongation_failure_on_broken_split():
    g = path_graph(3)
    labels = np.array([FINE, FINE, COARSE], dtype=np.int8)
    with pytest.raises(CoarseningFailure):
        build_prolongation(g, labels)  # node 0 has no coarse neighbour


def test_hierarchy_single_level_below_cap(laplace2):
    hier = build_hierarchy(laplace2, coarse_size_cap=10_000)
    assert hier.n_levels == 1
    assert hier.operator_complexity == 1.0


def test_hierarchy_strictly_decreasing(laplace4):
    hier = build_hierarchy(laplace4, coarse_size_cap=500)
    assert hier.n_levels >= 2
    sizes = [lv.n_dof for lv in hier.levels]
    assert all(a > b for a, b in zip(sizes, sizes[1:]))


def test_hierarchy_galerkin_matches_dense_oracle(laplace2):
    hier = build_hierarchy(laplace2, coarse_size_cap=60)
    assert hier.n_levels >= 2
    p = hier.levels[0].prolongation.toarray()
    a = hier.levels[0].operator.toarray()
    oracle = p.T @ a @ p
    coarse = hier.levels[1].operator.toarray()
    assert np.abs(coarse - oracle).max() <= 1e-12 * np.abs(oracle).max()


def test_hierarchy_prolongation_row_sums(laplace4, mixed2):
    for system in (laplace4, mixed2):
        hier = build_hierarchy(system, coarse_size_cap=100)
        for lv in hier.levels[:-1]:
            sums = np.asarray(lv.prolongation.sum(axis=1)).ravel()
            assert np.abs(sums - 1.0).max() <= 1e-15


def test_restriction_is_a_view_of_the_prolongation(laplace4):
    hier = build_hierarchy(laplace4, coarse_size_cap=100)
    for lv in hier.levels[:-1]:
        assert lv.restriction.format == "csc"
        assert lv.restriction.shape == lv.prolongation.shape[::-1]
        assert np.shares_memory(lv.restriction.data, lv.prolongation.data)
        assert np.shares_memory(lv.restriction.indices, lv.prolongation.indices)
    assert hier.levels[-1].restriction is None


def test_hierarchy_coarse_operators_spd(laplace4):
    hier = build_hierarchy(laplace4, coarse_size_cap=100)
    rng = np.random.default_rng(6)
    for lv in hier.levels[1:]:
        for _ in range(10):
            x = rng.standard_normal(lv.n_dof)
            assert x @ (lv.operator @ x) > 0.0


def test_separated_blocks_stay_block_diagonal(mixed2):
    hier = build_hierarchy(mixed2, coarse_size_cap=100)
    lv = hier.levels[0]
    p = lv.prolongation.tocsr()
    lay = lv.layout
    coarse_lay = hier.levels[1].layout
    bs = lay.block_size
    row_splits = [bs * lay.n_linear, lay.velocity_dof, lay.total_dof]
    col_splits = [
        bs * coarse_lay.n_linear,
        coarse_lay.velocity_dof,
        coarse_lay.total_dof,
    ]
    coo = p.tocoo()
    row_part = np.digitize(coo.row, row_splits)
    col_part = np.digitize(coo.col, col_splits)
    assert np.all(row_part == col_part)


def test_constant_preservation(laplace4):
    hier = build_hierarchy(laplace4, coarse_size_cap=500)
    p = hier.levels[0].prolongation
    ones = np.ones(p.shape[1])
    assert np.abs(p @ ones - 1.0).max() <= 1e-14


def test_pure_neumann_constant_identity():
    # (P^T A P) 1 = P^T (A 1) for the all-Neumann Laplacian sub-block
    mesh = tag_boundary(generate_unit_cube_mesh(2), nowhere)
    system = assemble(mesh, ProblemSpec(kind=ProblemKind.VECTOR_LAPLACE))
    op = system.monolithic()
    lay = system.layout
    split = 3 * lay.n_linear
    a_ll = op[:split, :split]
    g = reference_node_graph(node_matrix(a_ll, 3))
    p_nodes = build_prolongation(g, select_coarse(g))
    p = sp.kron(p_nodes, sp.identity(3, format="csr"), format="csr")
    lhs = (p.T @ a_ll @ p) @ np.ones(p.shape[1])
    rhs = p.T @ (a_ll @ np.ones(a_ll.shape[0]))
    scale = np.abs(a_ll).max()
    assert np.abs(lhs - rhs).max() <= 1e-12 * scale


def per_partition_hierarchy(system, mode, coarse_size_cap):
    """Oracle: coarsen each partition on its own graph, then stitch the
    prolongation blocks together with ``kron`` and ``block_diag``.

    A velocity partition's graph reads the entries that couple
    (``coupling_mask``).  Returns ``(operator, layout, pressure
    adjacency, prolongation)`` per level, the prolongation of the
    coarsest level being None.
    """
    op, lay, adj = as_operator(system)
    levels = []
    while op.shape[0] > coarse_size_cap and len(levels) + 1 < MAX_LEVELS:
        bs, vd, split = lay.block_size, lay.velocity_dof, lay.block_size * lay.n_linear
        if mode == SEPARATED:
            parts = [(op[:split, :split], bs)] if lay.n_linear else []
            parts += [(op[split:vd, split:vd], bs)] if lay.n_quadratic else []
        else:
            parts = [(op[:vd, :vd], bs)]
        graphs = [reference_node_graph(node_matrix(m, c, coupling_mask(m))) for m, c in parts]
        if lay.is_saddle:
            parts.append((adj, 1))
            graphs.append(reference_node_graph(adj))
        splits = [select_coarse(g) for g in graphs]
        counts = [int(np.count_nonzero(s == COARSE)) for s in splits]
        if sum(counts) > 0.9 * sum(g.shape[0] for g in graphs):
            break
        blocks = [build_prolongation(g, s) for s, g in zip(splits, graphs)]
        expanded = [
            sp.kron(b, sp.identity(c, format="csr"), format="csr") if c > 1 else b
            for b, (_, c) in zip(blocks, parts)
        ]
        p = expanded[0].tocsr() if len(expanded) == 1 else sp.block_diag(expanded, format="csr")
        p.sort_indices()
        levels.append((op, lay, adj, p))
        n_p = counts.pop() if lay.is_saddle else 0
        if mode == SEPARATED:
            n_l = counts.pop(0) if lay.n_linear else 0
            n_q = counts.pop(0) if lay.n_quadratic else 0
        else:
            n_l, n_q = counts[0], 0
        if lay.is_saddle:
            adj = (blocks[-1].T @ adj @ blocks[-1]).tocsr()
            adj.data[:] = 1.0
        op = triple_product(p, op)
        lay = BlockLayout(n_linear=n_l, n_quadratic=n_q, n_pressure=n_p, block_size=bs)
    return levels + [(op, lay, adj, None)]


def assert_same_csr(a, b):
    if a is None or b is None:
        assert a is None and b is None
        return
    assert a.shape == b.shape
    for name in ("indptr", "indices", "data"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        assert x.tobytes() == y.tobytes(), name


@pytest.mark.parametrize(
    "name, mode",
    [("laplace4", SEPARATED), ("laplace4", MONOLITHIC), ("mixed2", SEPARATED),
     ("mixed2", MONOLITHIC), ("stokes2", SEPARATED)],
)
def test_one_node_graph_matches_per_partition_oracle(request, name, mode):
    # no edge joins two partitions, so one greedy pass over all nodes
    # labels and numbers them as one pass per partition does
    system = request.getfixturevalue(name)
    hier = build_hierarchy(system, mode=mode, coarse_size_cap=20)
    oracle = per_partition_hierarchy(system, mode, coarse_size_cap=20)
    assert len(hier.levels) == len(oracle) >= 3
    for lv, (op, lay, adj, p) in zip(hier.levels, oracle):
        assert lv.layout == lay
        assert_same_csr(lv.operator, op)
        assert_same_csr(lv.pressure_adjacency, adj)
        assert_same_csr(lv.prolongation, p)


KINDS = {
    ProblemKind.VECTOR_LAPLACE: {},
    ProblemKind.ELASTICITY_DISPLACEMENT: {"mu": 1.15e6, "lam": 1.73e6},
    ProblemKind.ELASTICITY_MIXED: {"mu": 1.15e6, "lam": 1.73e6},
    ProblemKind.STOKES: {"mu": 0.5},
}


def reference_level_graph(level, mode):
    """``_level_graph`` through the product node pattern and COO
    triplets, one partition block at a time."""
    lay, op = level.layout, level.operator
    nodes = node_pattern_product(lay, op, coupling_mask(op))
    nl, nv = lay.n_linear, lay.n_velocity_nodes
    bounds = [0, nl, nv] if mode == SEPARATED else [0, nv]
    parts = [nodes[lo:hi, lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    if lay.is_saddle:
        parts.append(level.pressure_adjacency)
    return reference_node_graph(sp.block_diag(parts))


def test_assembled_level_0_is_not_masked_again(laplace2, monkeypatch):
    # assemble already dropped every velocity entry that does not couple;
    # a system built or replaced otherwise is masked on every level
    assert laplace2.coupled and not replace(laplace2).coupled
    masked = []
    mask = coarsening.coupling_mask
    monkeypatch.setattr(coarsening, "coupling_mask", lambda a: masked.append(a) or mask(a))
    hier = build_hierarchy(laplace2, coarse_size_cap=20)
    assert hier.n_levels >= 3 and masked[0] is hier.levels[1].operator
    assert not any(a is laplace2.operator for a in masked)
    masked.clear()
    build_hierarchy(replace(laplace2), coarse_size_cap=20)
    assert masked[0] is laplace2.operator


@pytest.mark.parametrize("kind", list(KINDS))
@pytest.mark.parametrize("n", [2, 4])
def test_level_graph_matches_coo_reference(kind, n):
    mesh = tag_boundary(generate_unit_cube_mesh(n), z_faces)
    spec = ProblemSpec(kind=kind, g_dirichlet=lid_displacement, **KINDS[kind])
    system = assemble(mesh, spec)
    for mode in (SEPARATED, MONOLITHIC):
        # a cap of 20 leaves a singular coarsest Stokes operator
        hier = build_hierarchy(system, mode=mode, coarse_size_cap=50)
        assert hier.n_levels >= 2
        for i, level in enumerate(hier.levels):
            graph = _level_graph(level, mode)
            oracle = reference_level_graph(level, mode)
            if i == 0:
                # assembly kept only coupling velocity entries: the graph
                # without the mask is the same, arrays and dtypes
                unmasked = _level_graph(level, mode, coupled=True)
                for name in ("indptr", "indices", "data"):
                    assert getattr(unmasked, name).tobytes() == getattr(graph, name).tobytes()
            assert graph.dtype == bool and graph.shape == oracle.shape
            assert np.array_equal(graph.indptr, oracle.indptr)
            assert np.array_equal(graph.indices, oracle.indices)
            assert graph.data.all()
            # symmetric, sorted, no self-loop, no edge between partitions
            assert (graph != graph.T).nnz == 0
            rows = np.repeat(np.arange(graph.shape[0]), np.diff(graph.indptr))
            same_row = rows[1:] == rows[:-1]
            assert np.all(np.diff(graph.indices)[same_row] > 0)
            assert not np.any(rows == graph.indices)
            lay = level.layout
            cuts = [lay.n_linear, lay.n_velocity_nodes]
            if mode == MONOLITHIC:
                cuts = cuts[1:]
            part = np.searchsorted(cuts, np.arange(graph.shape[0]), side="right")
            assert np.array_equal(part[rows], part[graph.indices])


def test_hierarchy_modes_and_errors(laplace4):
    with pytest.raises(InvalidParameter):
        build_hierarchy(laplace4, mode="classical")
    mono = build_hierarchy(laplace4, mode="monolithic", coarse_size_cap=500)
    sep = build_hierarchy(laplace4, mode="separated", coarse_size_cap=500)
    # the dense coupled graph coarsens far more aggressively and mixes
    # the linear/quadratic partitions into one
    assert mono.levels[1].n_dof < sep.levels[1].n_dof
    assert mono.levels[1].layout.n_quadratic == 0
    assert sep.levels[1].layout.n_quadratic > 0


@pytest.mark.parametrize("kind", list(KINDS))
@pytest.mark.parametrize("n", [2, 4])
def test_hierarchy_either_solves_its_coarsest_level_or_fails_typed(kind, n):
    # where coarsening stops is open (a small cap can leave a singular
    # coarsest saddle operator); a build that cannot finish must say so
    # with a SolverError, and one that finishes must solve
    system = assemble(*build_case(kind.value, n, **KINDS[kind]))
    for cap in (10, 20, 50, 100, 500):
        for mode in (SEPARATED, MONOLITHIC):
            try:
                hier = build_hierarchy(system, mode=mode, coarse_size_cap=cap)
            except SolverError:
                continue
            assert np.isfinite(coarse_solve(hier.coarse, np.ones(hier.coarse.n))).all()


def test_scalar_hierarchy_from_plain_matrix():
    n = 400
    main = 2.0 * np.ones(n)
    off = -1.0 * np.ones(n - 1)
    a = sp.diags([off, main, off], [-1, 0, 1]).tocsr()
    hier = build_hierarchy(a, coarse_size_cap=50)
    assert hier.n_levels >= 2
    assert hier.levels[0].layout.block_size == 1


def test_hierarchy_summary(laplace4):
    hier = build_hierarchy(laplace4, coarse_size_cap=100)
    rows = hierarchy_summary(hier)
    assert rows[0]["total_dof"] == laplace4.monolithic().shape[0]
    assert rows[0]["linear_dof"] == 3 * laplace4.layout.n_linear
    assert rows[0]["quadratic_dof"] == 3 * laplace4.layout.n_quadratic
    assert all(
        a["total_dof"] > b["total_dof"] for a, b in zip(rows, rows[1:])
    )
    assert rows[-1]["operator_complexity"] == pytest.approx(hier.operator_complexity)


def with_sub_threshold_entries(system, mesh, seed, kind):
    """``system`` (of problem ``kind``) with entries of at most 1e-14
    relative size added at every structural position A does not store
    (relative to ``sqrt(a_ii a_jj)``) and at every stored zero of B
    (relative to ``max|B|``), symmetrically."""
    k = system.monolithic()
    lay = system.layout
    vd = lay.velocity_dof
    node = free_node_index(mesh)
    comps = [(0, 0), (1, 1), (2, 2)]
    if kind is not ProblemKind.VECTOR_LAPLACE:
        comps = [(c, d) for c in range(3) for d in range(3)]
    rows, cols = [], []
    for tet, edges in zip(mesh.tets, mesh.tet_edges):
        free = node[np.concatenate([tet, mesh.n_vertices + edges])]
        free = free[free >= 0]
        for c, d in comps:
            rows.append(np.repeat(3 * free + d, len(free)))
            cols.append(np.tile(3 * free + c, len(free)))
    structural = sp.coo_matrix(
        (np.ones(sum(map(len, rows))), (np.concatenate(rows), np.concatenate(cols))),
        shape=(vd, vd),
    ).tocsr()
    stored = abs(k[:vd, :vd]).astype(bool).astype(float)
    missing = sp.triu(structural.astype(bool).astype(float) - stored).tocoo()
    assert missing.nnz > 0 and missing.data.min() == 1.0
    rng = np.random.default_rng(seed)
    diag = k.diagonal()
    i, j = missing.row, missing.col
    values = rng.uniform(-1e-14, 1e-14, len(i)) * np.sqrt(diag[i] * diag[j])
    extra = [(i, j, values), (j, i, values)]
    if lay.is_saddle:
        b = k[vd:, :vd].tocoo()
        zero = b.data == 0.0
        assert zero.any()
        p, u = b.row[zero], b.col[zero]
        values = rng.uniform(-1e-14, 1e-14, len(p)) * np.abs(b.data).max()
        extra += [(vd + p, u, values), (u, vd + p, values)]
    r, c, v = (np.concatenate(parts) for parts in zip(*extra))
    perturbed = (k + sp.csr_matrix((v, (r, c)), shape=k.shape)).tocsr()
    perturbed.sort_indices()
    assert perturbed.nnz > k.nnz
    return replace(system, operator=perturbed)


@pytest.mark.parametrize(
    "name, kind",
    [("laplace2", ProblemKind.VECTOR_LAPLACE), ("stokes2", ProblemKind.STOKES)],
    ids=["laplace2", "stokes2"],
)
def test_sub_threshold_entries_change_no_pattern(request, cube2, name, kind):
    # entries at or below the coupling thresholds are rounding residue:
    # they move no coarse node, no prolongation bit and no Vanka patch
    system = request.getfixturevalue(name)
    perturbed = with_sub_threshold_entries(system, cube2, seed=5, kind=kind)
    hier = build_hierarchy(system, coarse_size_cap=20)
    other = build_hierarchy(perturbed, coarse_size_cap=20)
    assert len(hier.levels) == len(other.levels) >= 3
    for lv, lo in zip(hier.levels, other.levels):
        assert lv.layout == lo.layout
        assert_same_csr(lv.prolongation, lo.prolongation)
        assert_same_csr(lv.pressure_adjacency, lo.pressure_adjacency)
        if lv.layout.is_saddle:
            assert_same_csr(
                _patch_nodes(lv.operator, lv.layout),
                _patch_nodes(lo.operator, lo.layout),
            )
    if system.layout.is_saddle:
        # and the inner Schur hierarchy of Braess-Sarazin, coarsened below
        # its default size
        schur = [
            build_hierarchy(
                BraessSarazinSmoother(s.monolithic(), s.layout).schur.hierarchy.levels[0].operator,
                coarse_size_cap=10,
            )
            for s in (system, perturbed)
        ]
        assert len(schur[0].levels) == len(schur[1].levels) >= 2
        for lv, lo in zip(*(h.levels for h in schur)):
            assert lv.layout == lo.layout
            assert_same_csr(lv.prolongation, lo.prolongation)
