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
    gid = diff._segments(graph_id, h.rows)
    bounds = diff._segment_bounds(gid)
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
    gid = diff._segments(graph_id, x.rows)
    bounds = diff._segment_bounds(gid)
    n_graphs = bounds.size - 1
    n_pooled = n_graphs * k
    pooled_x = diff.assignment_reduce(s, x, gid)
    blocks = diff._segment_products(s.values, sparse.spmm(a, s.values), bounds)
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


def local_cluster_selection_pool(
    x: Tensor, a: CsrMatrix, h: Tensor, ratio: float, graph_id
) -> PoolResult:
    """Local assignment selection specialized to the full 1-hop pattern.

    Every node contributes to exactly itself and its neighbours, so the
    assignment is the pattern of I + A and no matrix is learned: x are the
    cluster features already, gated by their score column h as they are.
    The pooled adjacency is the pattern of :func:`rewire` over I + A, which
    is the three-hop closure ``(I+A)^T A (I+A)`` on the kept nodes, directed
    or not, with its self-loops stripped.  Requires unweighted edges.
    """
    if a.nnz and np.any(a.values != 1.0):
        raise ValueError("cluster selection requires unweighted edges")
    return _select_and_gate(
        x, h, graph_id, ratio,
        lambda kept: sparse.strip_diagonal(
            sparse.ones_pattern(rewire(sparse.add_self_loops(a), a, kept))),
    )


def lcpool(x: Tensor, a: CsrMatrix, scorer: Lcsmp, ratio: float, graph_id) -> PoolResult:
    """Local cluster pooling: the cluster step is dismissed entirely.

    A 1-hop convolution ahead of the pool already plays the cluster role,
    so the raw features are gated by the score directly.
    """
    if not sparse.is_symmetric(a):
        raise ValueError("this pool expects an undirected (symmetric) adjacency")
    return local_cluster_selection_pool(x, a, scorer(x, a, graph_id), ratio, graph_id)


def lcpool_star(
    x: Tensor, a: CsrMatrix, cluster_conv: GcnConv, scorer: Lcsmp, ratio: float, graph_id
) -> PoolResult:
    """Variant with an explicit extra convolution as the cluster function.

    The convolved features are both scored and gated; the pooled adjacency
    is the same closure pattern as :func:`lcpool` for the same kept set.
    """
    if not sparse.is_symmetric(a):
        raise ValueError("this pool expects an undirected (symmetric) adjacency")
    c = cluster_conv(x, a)
    return local_cluster_selection_pool(c, a, scorer(c, a, graph_id), ratio, graph_id)
