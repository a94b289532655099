"""Pooled-graph generation strategies.

Every operator takes features on a :class:`~graphpool.layers.Stage` and
returns a :class:`PoolResult`, the next stage, whose extents are built, not
checked, with the pooled features; a selection pool adds its kept node ids
and full-length score column.  The caller computes the score column or the
assignment and passes it as a value.  Two entries take callables instead:
:func:`local_assignment_selection_pool` scores the aggregated features
``S^T x`` it forms itself, so it takes a score function ``(x, stage) -> one
score per node``, and :func:`lcpool_star` takes its cluster convolution and
its scorer, because the score is computed on the convolved features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diff, sparse
from .diff import Tensor
from .layers import GcnConv, Lcsmp, Stage
from .sparse import CsrMatrix, IndexSet


@dataclass(frozen=True, eq=False)
class PoolResult(Stage):
    """The pooled stage with its features, and a selection's kept node ids
    and score column (both None after the dense pool)."""

    x: Tensor
    kept: IndexSet | None
    scores: Tensor | None


def check_ratio(ratio: float) -> None:
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"pool ratio must be in (0, 1], got {ratio}")


def kept_count(ratio: float, n: int | np.ndarray):
    """max(1, ceil(ratio * n)), elementwise on an array of sizes; the
    subtraction guards float noise like 0.3*10."""
    check_ratio(ratio)
    return np.maximum(1, np.ceil(ratio * np.asarray(n) - 1e-9).astype(np.int64))


def topk(h: Tensor, stage: Stage, ratio: float) -> IndexSet:
    """Indices of the top-scoring nodes of each graph, ties to lower index.

    Per graph g of size n_g, exactly max(1, ceil(ratio * n_g)) nodes are
    kept, so no graph ever pools to nothing.  One stable sort by (graph,
    -score) ranks every node within its graph.
    """
    if h.cols != 1:
        raise ValueError("scores must be one column")
    gid, bounds = stage.graph_id, stage.bounds
    if h.rows != bounds[-1]:
        raise ValueError(f"{h.rows} scores for a stage of {bounds[-1]} nodes")
    k = kept_count(ratio, np.diff(bounds))
    order = np.lexsort((-h.values[:, 0], gid))  # stable: ties keep low index
    rank = np.arange(gid.size) - bounds[gid]  # gid is sorted, so gid[order] == gid
    # k <= n_g for a ratio in (0, 1], so each graph keeps exactly k of its ranks
    return IndexSet(np.sort(order[rank < k[gid]]))


def _select_and_gate(x_star: Tensor, h: Tensor, stage: Stage, ratio: float,
                     pooled_adjacency) -> PoolResult:
    """Keep each graph's top nodes by the score column h, gate x* by it.

    pooled_adjacency maps the kept set and its per-graph extents to the
    pooled graph's adjacency.
    """
    kept = topk(h, stage, ratio)
    # kept is sorted, so graph g's kept nodes start after those below its first row
    bounds = np.searchsorted(kept.indices, stage.bounds)
    gated = diff.broadcast_col(x_star, h)
    return PoolResult(a=pooled_adjacency(kept, bounds), bounds=bounds,
                      x=diff.gather_rows(gated, kept.indices), kept=kept, scores=h)


def node_selection_pool(x: Tensor, stage: Stage, h: Tensor, ratio: float) -> PoolResult:
    """Keep the nodes top-scored by h and the induced subgraph only."""
    return _select_and_gate(x, h, stage, ratio,
                            lambda kept, _: sparse.select_rows_cols(stage.a, kept))


def dense_assignment_pool(x: Tensor, stage: Stage, s: Tensor) -> PoolResult:
    """Soft-cluster every graph into the k = s.cols pooled nodes.

    s is a row-stochastic N x k assignment tensor S.  Features become
    S_g^T X_g per graph (:func:`diff.assignment_reduce`) and the pooled
    adjacency stacks the per-graph blocks S_g^T (A S)_g with their diagonals
    dropped; both are one BLAS product per graph, in forward and backward.
    This pooled adjacency is a constant: no gradient reaches S through it,
    so finite differences through a later stage disagree with the tape.
    """
    k = s.cols
    if k < 1:
        raise ValueError("need at least one cluster")
    bounds = np.arange(stage.bounds.size, dtype=np.int64) * k
    pooled_x = diff.assignment_reduce(s, x, stage.bounds)
    blocks = diff.segment_products(s.values, sparse.spmm(stage.a, s.values), stage.bounds)
    return PoolResult(a=_block_diagonal(blocks, bounds), bounds=bounds,
                      x=pooled_x, kept=None, scores=None)


def _block_diagonal(blocks: np.ndarray, bounds: np.ndarray) -> CsrMatrix:
    """The block-diagonal matrix of a (G, k, k) stack, diagonals dropped.

    Block g's rows and columns start at row and column bounds[g]; its
    entries past its first ``bounds[g + 1] - bounds[g]`` rows and columns
    must be zero.  ``np.flatnonzero`` walks the stack by (block, row,
    column), so the entries come out in canonical order.  The diagonals are
    zeroed in place.
    """
    k = blocks.shape[1]
    diagonal = np.arange(k)
    blocks[:, diagonal, diagonal] = 0.0
    at = np.flatnonzero(blocks)
    row = at // k  # g * k + r for row r of block g
    g = row // k
    start = bounds[g]
    n = int(bounds[-1])
    return CsrMatrix(n, n, sparse.row_extents(start + row - g * k, n),
                     start + at - row * k, blocks.reshape(-1)[at])


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
    x: Tensor, stage: Stage, s: CsrMatrix, score_fn, ratio: float
) -> PoolResult:
    """Aggregate features through a local assignment s, select, and rewire.

    The assignment may place weight only where a node touches itself or a
    neighbour.  The aggregated features x* = S^T x are scored by
    ``score_fn(x*, stage)``, called once; the pooled adjacency is
    :func:`rewire` over the kept columns, so pooled nodes connect whenever
    their contributors do.
    """
    validate_local_assignment(s, stage.a)
    x_star = diff.spmm_const(sparse.transpose(s), x)
    return _select_and_gate(x_star, score_fn(x_star, stage), stage, ratio,
                            lambda kept, _: rewire(s, stage.a, kept))


def _closure_by_sparse(a: CsrMatrix, kept: IndexSet) -> CsrMatrix:
    """Pooled closure pattern by :func:`rewire` over I + A: two spgemm."""
    return sparse.strip_diagonal(
        sparse.ones_pattern(rewire(sparse.add_self_loops(a), a, kept)))


def _closure_by_blocks(stage: Stage, kept: IndexSet, kept_bounds: np.ndarray) -> CsrMatrix:
    """Pooled closure pattern from one padded stack of per-graph 0/1 blocks.

    Graph g's block A_g is the stage's block view of a (unweighted, as
    lcpool requires), and B_g = (I + A_g)[:, K_g] holds its kept columns:
    one gather fills the k_g kept slots of a zeroed (G, k_max, m) stack of
    B^T, so the padded slots are zero as built; kept_bounds are the kept
    nodes' extents per graph.  C_g = B_g^T A_g B_g is two batched matmuls.
    Each entry counts contributor paths, a sum of non-negative integers, so
    it is non-zero exactly where the closure has an edge.
    """
    blocks = stage.a_blocks
    layout_slot, m = stage.layout
    k_max = int(np.diff(kept_bounds).max())
    # kept node i is slot j of its graph g: B^T[g, j] is column i of I + A_g
    g, node = np.divmod(layout_slot[kept.indices], m)
    slot = np.arange(len(kept)) - kept_bounds[g]
    b_t = np.zeros((blocks.shape[0], k_max, m))
    b_t[g, slot] = blocks[g, :, node]
    b_t[g, slot, node] += 1.0
    c = np.matmul(np.matmul(b_t, blocks), b_t.transpose(0, 2, 1))
    return sparse.ones_pattern(_block_diagonal(c, kept_bounds))


def lcpool(x: Tensor, stage: Stage, h: Tensor, ratio: float) -> PoolResult:
    """Local cluster pooling: select by the score column h, then rewire.

    Local assignment selection specialized to the full 1-hop pattern: every
    node contributes to exactly itself and its neighbours, so the
    assignment is the pattern of I + A and no matrix is learned.  A 1-hop
    convolution ahead of the pool already plays the cluster role, so x are
    the cluster features and are gated by h as they are.  The pooled
    adjacency is the pattern of :func:`rewire` over I + A, which is the
    three-hop closure ``(I+A)^T A (I+A)`` on the kept nodes, directed or
    not, with its self-loops stripped.  Only that pattern leaves the
    routine, so it takes one of two exact routes, by the stage's
    ``by_blocks`` as the convolutions do: per-graph dense 0/1 blocks, two
    batched matmuls over the stage's (G, m, m) block view of a, or the two
    ``spgemm`` of :func:`rewire`.  Desk-scale stages take the blocks; no
    benchmark workload reaches the sparse route.  Requires unweighted
    edges.
    """
    if stage.a.nnz and np.any(stage.a.values != 1.0):
        raise ValueError("cluster selection requires unweighted edges")
    return _select_and_gate(
        x, h, stage, ratio,
        lambda kept, bounds: _closure_by_blocks(stage, kept, bounds) if stage.by_blocks
        else _closure_by_sparse(stage.a, kept))


def lcpool_star(x: Tensor, stage: Stage, cluster_conv: GcnConv, scorer: Lcsmp,
                ratio: float) -> PoolResult:
    """:func:`lcpool` on the features convolved by an explicit cluster
    function, which are both scored and gated."""
    x_star = cluster_conv(x, stage)
    return lcpool(x_star, stage, scorer(x_star, stage), ratio)
