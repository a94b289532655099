"""Pooled-graph generation strategies.

Every operator returns a :class:`PoolResult` holding the pooled features,
the pooled adjacency, the kept node ids, the full-length score column, and
the per-kept-node graph ids.  The caller computes the score column or the
assignment and passes it as a value.  The one exception is
:func:`local_assignment_selection_pool`, which scores the aggregated
features ``S^T x`` it forms itself and so takes a score function
``(x, a, graph_id) -> one score per node``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import diff, sparse
from .diff import Tensor
from .layers import GcnConv, Lcsmp
from .sparse import CsrMatrix, IndexSet


@dataclass(frozen=True, eq=False)
class PoolResult:
    x: Tensor
    a: CsrMatrix
    kept: IndexSet
    scores: Tensor
    graph_id: np.ndarray

    def __post_init__(self):
        if not (len(self.kept) == self.x.rows == self.a.n_rows == self.a.n_cols):
            raise ValueError("pooled features, adjacency and kept set disagree")
        if self.graph_id.shape != (len(self.kept),):
            raise ValueError("graph ids must align with kept nodes")


def check_ratio(ratio: float) -> float:
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"pool ratio must be in (0, 1], got {ratio}")
    return float(ratio)


def kept_count(ratio: float, n: int | np.ndarray):
    """max(1, ceil(ratio * n)), elementwise on an array of sizes; the
    subtraction guards float noise like 0.3*10."""
    check_ratio(ratio)
    return np.maximum(1, np.ceil(ratio * np.asarray(n) - 1e-9).astype(np.int64))


def topk(h: Tensor, graph_id, ratio: float) -> IndexSet:
    """Indices of the top-scoring nodes of each graph, ties to lower index.

    Per graph g of size n_g, exactly max(1, ceil(ratio * n_g)) nodes are
    kept, so no graph ever pools to nothing.  One stable sort by (graph,
    -score) ranks every node within its graph.
    """
    if h.cols != 1:
        raise ValueError("scores must be one column")
    gid = np.asarray(graph_id, dtype=np.int64)
    bounds = diff.segment_bounds(gid, h.rows)
    k = kept_count(ratio, np.diff(bounds))
    order = np.lexsort((-h.values[:, 0], gid))  # stable: ties keep low index
    rank = np.arange(gid.size) - bounds[gid]  # gid is sorted, so gid[order] == gid
    # k <= n_g for a ratio in (0, 1], so each graph keeps exactly k of its ranks
    return IndexSet(np.sort(order[rank < k[gid]]))


def _select_and_gate(x_star: Tensor, h: Tensor, graph_id, ratio: float,
                     pooled_adjacency) -> PoolResult:
    """Keep each graph's top nodes by the score column h, gate x* by it.

    pooled_adjacency maps the kept set to the pooled graph's adjacency.
    """
    gid = np.asarray(graph_id, dtype=np.int64)
    kept = topk(h, gid, ratio)
    gated = diff.broadcast_col(x_star, h)
    return PoolResult(
        x=diff.gather_rows(gated, kept.indices),
        a=pooled_adjacency(kept),
        kept=kept,
        scores=h,
        graph_id=gid[kept.indices],
    )


def node_selection_pool(x: Tensor, a: CsrMatrix, h: Tensor, ratio: float, graph_id) -> PoolResult:
    """Keep the nodes top-scored by h and the induced subgraph only."""
    return _select_and_gate(x, h, graph_id, ratio,
                            lambda kept: sparse.select_rows_cols(a, kept))


def dense_assignment_pool(x: Tensor, a: CsrMatrix, s: Tensor, graph_id) -> PoolResult:
    """Soft-cluster every graph into the k = s.cols pooled nodes.

    s is a row-stochastic N x k assignment tensor S.  Features become
    S_g^T X_g per graph (:func:`diff.assignment_reduce`) and the pooled
    adjacency stacks the per-graph blocks S_g^T (A S)_g with their diagonals
    dropped; both are one BLAS product per graph, in forward and backward.
    A must not join graphs.  This pooled adjacency is a constant: no
    gradient reaches S through it, so finite differences through a later
    stage disagree with the tape.
    """
    k = s.cols
    if k < 1:
        raise ValueError("need at least one cluster")
    bounds = diff.segment_bounds(graph_id, x.rows)
    n_graphs = bounds.size - 1
    n_pooled = n_graphs * k
    pooled_x = diff.assignment_reduce(s, x, graph_id)
    blocks = diff.segment_products(s.values, sparse.spmm(a, s.values), bounds)
    diagonal = np.arange(k)
    blocks[:, diagonal, diagonal] = 0.0
    blocks = blocks.reshape(n_pooled, k)
    # nonzero walks rows in order and columns in order within each row, so
    # the global columns g*k + c increase per row: canonical as built
    rows, cols = np.nonzero(blocks)
    pooled_a = CsrMatrix(n_pooled, n_pooled, sparse.row_extents(rows, n_pooled),
                         rows - rows % k + cols, blocks[rows, cols])
    return PoolResult(
        x=pooled_x,
        a=pooled_a,
        kept=IndexSet.all(n_pooled),
        scores=diff.constant(np.ones((x.rows, 1))),
        graph_id=np.repeat(np.arange(n_graphs, dtype=np.int64), k),
    )


def _pattern_keys(m: CsrMatrix) -> np.ndarray:
    return sparse.row_indices(m) * np.int64(m.n_cols) + m.col_idx


def validate_local_assignment(s: CsrMatrix, a: CsrMatrix) -> None:
    """Raise ValueError naming the first entry of s outside pattern(I + A)."""
    if s.shape != a.shape or s.n_rows != s.n_cols:
        raise ValueError("assignment and adjacency must be square and equal-shaped")
    s_keys = _pattern_keys(s)
    outside = np.nonzero(~np.isin(s_keys, _pattern_keys(sparse.add_self_loops(a))))[0]
    if outside.size:
        i, j = divmod(int(s_keys[outside[0]]), s.n_cols)
        raise ValueError(
            f"assignment entry ({i}, {j}) falls outside the self-loop adjacency pattern"
        )


def rewire(s: CsrMatrix, a: CsrMatrix, kept: IndexSet) -> CsrMatrix:
    """Pooled adjacency S_K^T A S_K, S_K the kept columns of the assignment.

    Two kept nodes connect whenever an edge of A joins their contributors.
    """
    s_kept = sparse.select_cols(s, kept)
    return sparse.spgemm(sparse.spgemm(sparse.transpose(s_kept), a), s_kept)


def local_assignment_selection_pool(
    x: Tensor, a: CsrMatrix, s: CsrMatrix, score_fn, ratio: float, graph_id
) -> PoolResult:
    """Aggregate features through a local assignment s, select, and rewire.

    The assignment may place weight only where a node touches itself or a
    neighbour.  The aggregated features x* = S^T x are scored by
    ``score_fn(x*, a, graph_id)``, called once; the pooled adjacency is
    :func:`rewire` over the kept columns, so pooled nodes connect whenever
    their contributors do.
    """
    validate_local_assignment(s, a)
    x_star = diff.spmm_const(sparse.transpose(s), x)
    return _select_and_gate(x_star, score_fn(x_star, a, graph_id), graph_id, ratio,
                            lambda kept: rewire(s, a, kept))


# local_cluster_selection_pool takes the block route when its padded
# multiply-adds F are at most this many times P, the products the sparse
# route expands in its first spgemm, and the two spgemm otherwise.  Picked
# from twelve hierarchical lcpool stages on desk batches and on hand-built
# batches of 300-620-node ring-plus-chord graphs: the blocks were faster on
# every stage up to F/P = 625, the spgemm on every stage from F/P = 8,263.
# Desk stages read F/P at most 161.  No benchmark workload reaches the
# sparse side, so the constant is unverified there.
BLOCK_ROUTE_FACTOR = 2048


class _Layout(NamedTuple):
    """Where a stage's graphs and kept nodes lie, shared by the route rule
    and the block route."""

    gid: np.ndarray  # graph of each node
    rows: np.ndarray  # row of each stored entry of A
    bounds: np.ndarray  # node extents of each graph
    kept_bounds: np.ndarray  # kept-node extents of each graph
    m: int  # nodes of the largest graph
    k_max: int  # most kept nodes in one graph


def _layout(a: CsrMatrix, kept: IndexSet, graph_id) -> _Layout:
    """The stage's layout; ValueError names the first entry of A whose
    endpoints lie in different graphs."""
    gid = np.asarray(graph_id, dtype=np.int64)
    bounds = diff.segment_bounds(gid, a.n_rows)
    rows = sparse.row_indices(a)
    cross = np.flatnonzero(gid[rows] != gid[a.col_idx])
    if cross.size:
        i, j = int(rows[cross[0]]), int(a.col_idx[cross[0]])
        raise ValueError(f"adjacency entry ({i}, {j}) joins graphs {gid[i]} and {gid[j]}")
    kept_bounds = sparse.row_extents(gid[kept.indices], bounds.size - 1)
    return _Layout(gid, rows, bounds, kept_bounds,
                   int(np.diff(bounds).max()), int(np.diff(kept_bounds).max()))


def _closure_by_sparse(a: CsrMatrix, kept: IndexSet) -> CsrMatrix:
    """Pooled closure pattern by :func:`rewire` over I + A: two spgemm."""
    return sparse.strip_diagonal(
        sparse.ones_pattern(rewire(sparse.add_self_loops(a), a, kept)))


def _closure_by_blocks(a: CsrMatrix, kept: IndexSet, layout: _Layout) -> CsrMatrix:
    """Pooled closure pattern from one padded stack of per-graph 0/1 blocks.

    Graph g's block A_g sits in a (G, m, m) stack, m the largest graph, and
    B_g = (I + A_g)[:, K_g] holds its kept columns, zero past its k_g of
    k_max slots.  C_g = B_g^T A_g B_g is two batched matmuls.  Each entry
    counts contributor paths, a sum of non-negative integers, so it is
    non-zero exactly where the closure has an edge.  ``np.nonzero`` walks
    C by (graph, row, column), and with the kept offsets added that is
    canonical order already.
    """
    gid, m, k_max = layout.gid, layout.m, layout.k_max
    n_graphs = layout.bounds.size - 1
    kept_counts = np.diff(layout.kept_bounds)
    local = np.arange(gid.size) - layout.bounds[gid]
    blocks = np.zeros((n_graphs, m, m))
    flat = (gid * m + local) * m
    blocks.reshape(-1)[flat[layout.rows] + local[a.col_idx]] = 1.0
    # slot j of graph g holds its j-th kept node; padded slots gather node 0
    filled = np.arange(k_max) < kept_counts[:, None]
    slot_node = np.zeros((n_graphs, k_max), dtype=np.int64)
    slot_node[filled] = local[kept.indices]
    graph = np.arange(n_graphs)[:, None]
    b_t = blocks.transpose(0, 2, 1)[graph, slot_node]  # (G, k_max, m): B^T
    b_t[graph, np.arange(k_max), slot_node] += 1.0
    b_t[~filled] = 0.0
    c = np.matmul(np.matmul(b_t, blocks), b_t.transpose(0, 2, 1))
    diagonal = np.arange(k_max)
    c[:, diagonal, diagonal] = 0.0
    g, r, col = np.nonzero(c)
    offset = layout.kept_bounds[g]
    n_kept = len(kept)
    return CsrMatrix(n_kept, n_kept, sparse.row_extents(offset + r, n_kept),
                     offset + col, np.ones(g.size))


def _blocks_pay(a: CsrMatrix, kept: IndexSet, layout: _Layout) -> bool:
    """F <= BLOCK_ROUTE_FACTOR * P for the pooled closure pattern.

    F = G * k_max * m * (m + k_max) is the block route's multiply-adds.  P
    is the products the sparse route expands in S_K^T A, S = I + A: deg(u)
    summed over the entries (u, v) of S_K.
    """
    in_kept = np.zeros(a.n_rows, dtype=bool)
    in_kept[kept.indices] = True
    degree = np.diff(a.row_ptr)
    p = int(degree[layout.rows[in_kept[a.col_idx]]].sum() + degree[kept.indices].sum())
    m, k_max = layout.m, layout.k_max
    return (layout.bounds.size - 1) * k_max * m * (m + k_max) <= BLOCK_ROUTE_FACTOR * p


def _closure_pattern(a: CsrMatrix, kept: IndexSet, graph_id) -> CsrMatrix:
    layout = _layout(a, kept, graph_id)
    if _blocks_pay(a, kept, layout):
        return _closure_by_blocks(a, kept, layout)
    return _closure_by_sparse(a, kept)


def local_cluster_selection_pool(
    x: Tensor, a: CsrMatrix, h: Tensor, ratio: float, graph_id
) -> PoolResult:
    """Local assignment selection specialized to the full 1-hop pattern.

    Every node contributes to exactly itself and its neighbours, so the
    assignment is the pattern of I + A and no matrix is learned: x are the
    cluster features already, gated by their score column h as they are.
    The pooled adjacency is the pattern of :func:`rewire` over I + A, which
    is the three-hop closure ``(I+A)^T A (I+A)`` on the kept nodes, directed
    or not, with its self-loops stripped.  Only that pattern leaves the
    routine, so it takes one of two exact routes per call: per-graph dense
    0/1 blocks, two batched matmuls over a (G, m, m) stack, when their
    multiply-adds F are at most ``BLOCK_ROUTE_FACTOR`` (2048) times the
    products P that the sparse route expands in its first ``spgemm``, and
    the two ``spgemm`` of :func:`rewire` otherwise.  Desk-scale stages
    take the blocks; the constant's sparse side is unverified by the
    benchmark.  Requires unweighted edges, none of them
    joining two graphs; an edge that does raises ValueError naming it.
    """
    if a.nnz and np.any(a.values != 1.0):
        raise ValueError("cluster selection requires unweighted edges")
    return _select_and_gate(x, h, graph_id, ratio,
                            lambda kept: _closure_pattern(a, kept, graph_id))


def lcpool(x: Tensor, a: CsrMatrix, scorer: Lcsmp, ratio: float, graph_id) -> PoolResult:
    """Local cluster pooling: the cluster step is dismissed entirely.

    A 1-hop convolution ahead of the pool already plays the cluster role,
    so the raw features are gated by the score directly.  The pooled
    adjacency is formed as :func:`local_cluster_selection_pool` states.
    """
    return local_cluster_selection_pool(x, a, scorer(x, a, graph_id), ratio, graph_id)


def lcpool_star(
    x: Tensor, a: CsrMatrix, cluster_conv: GcnConv, scorer: Lcsmp, ratio: float, graph_id
) -> PoolResult:
    """Variant with an explicit extra convolution as the cluster function.

    The convolved features are both scored and gated; the pooled adjacency
    is formed as :func:`local_cluster_selection_pool` states, the same as
    :func:`lcpool`'s for the same kept set.
    """
    c = cluster_conv(x, a)
    return local_cluster_selection_pool(c, a, scorer(c, a, graph_id), ratio, graph_id)
