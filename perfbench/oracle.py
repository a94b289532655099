"""Correctness gate and pooled-graph counters on a fixed probe batch.

Every pool stage a model runs on the probe batch is recorded from outside
the program and compared with a dense-numpy reference written here:

- kept set: per graph, the ``max(1, ceil(ratio * n))`` highest scores, ties
  to the lower index, taken from the stage's own score column;
- node selection (topk, sag): the induced subgraph on the kept ids;
- lcpool, lcpool_star: ``ones(A + A^2 + A^3)`` on the kept ids with the
  diagonal stripped;
- dense: ``S^T A S`` per graph with the diagonal dropped, ``S`` recomputed
  from the pool's assignment layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from graphpool import diff, harness


@dataclass(frozen=True)
class Stage:
    pool: object
    x: np.ndarray
    a: object
    graph_id: np.ndarray
    result: object


class _Recorder:
    def __init__(self, pool, log):
        self.pool = pool
        self.log = log

    def __call__(self, x, a, graph_id):
        result = self.pool(x, a, graph_id)
        self.log.append(Stage(self.pool, x.values, a, np.asarray(graph_id), result))
        return result


def record_stages(model, batch) -> list[Stage]:
    """Run one untaped forward pass and capture every pool call."""
    log: list[Stage] = []
    pools = model.pools
    model.pools = [None if p is None else _Recorder(p, log) for p in pools]
    try:
        model.forward(batch)
    finally:
        model.pools = pools
    return log


def dense(m) -> np.ndarray:
    out = np.zeros((m.n_rows, m.n_cols))
    out[np.repeat(np.arange(m.n_rows), np.diff(m.row_ptr)), m.col_idx] = m.values
    return out


def closure(a: np.ndarray) -> np.ndarray:
    a2 = a @ a
    return a + a2 + a2 @ a


def reference_kept(scores: np.ndarray, graph_id: np.ndarray, ratio: float) -> np.ndarray:
    kept = []
    for g in np.unique(graph_id):
        members = np.flatnonzero(graph_id == g)
        k = max(1, math.ceil(ratio * members.size))
        best = np.argsort(-scores[members], kind="stable")[:k]
        kept.append(np.sort(members[best]))
    return np.concatenate(kept)


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _dense_pool_reference(stage: Stage, a: np.ndarray) -> np.ndarray:
    layer = stage.pool.assign
    s = _softmax_rows(stage.x @ layer.weight.tensor.values.T + layer.bias.tensor.values)
    k = stage.pool.k_clusters
    n_graphs = int(stage.graph_id.max()) + 1
    out = np.zeros((n_graphs * k, n_graphs * k))
    for g in range(n_graphs):
        members = np.flatnonzero(stage.graph_id == g)
        sg = s[members]
        block = sg.T @ a[np.ix_(members, members)] @ sg
        np.fill_diagonal(block, 0.0)
        out[g * k : (g + 1) * k, g * k : (g + 1) * k] = block
    return out


def check_stage(stage: Stage, ratio: float) -> str | None:
    """Describe the first way a stage differs from its reference, or None."""
    res = stage.result
    a = dense(stage.a)
    got = dense(res.a)
    if isinstance(stage.pool, harness.DensePool):
        want = _dense_pool_reference(stage, a)
        if got.shape != want.shape or not np.array_equal(got != 0, want != 0):
            return "dense pooled adjacency pattern differs from S^T A S"
        if not np.allclose(got, want, rtol=1e-9, atol=0.0):
            return "dense pooled adjacency values differ from S^T A S"
        return None
    kept = reference_kept(res.scores.values[:, 0], stage.graph_id, ratio)
    if not np.array_equal(res.kept.indices, kept):
        return "kept set differs from the per-graph top-k reference"
    if not np.array_equal(res.graph_id, stage.graph_id[kept]):
        return "pooled graph ids differ from the kept nodes' graphs"
    if isinstance(stage.pool, (harness.LcPool, harness.LcPoolStar)):
        want = closure(a)[np.ix_(kept, kept)] != 0
        np.fill_diagonal(want, False)
        if not np.array_equal(got != 0, want) or np.any(got[got != 0] != 1.0):
            return "pooled adjacency differs from ones(A + A^2 + A^3) on the kept ids"
        return None
    want = a[np.ix_(kept, kept)]
    if not np.array_equal(got, want):
        return "pooled adjacency differs from the induced subgraph"
    return None


def stage_counters(stages: list[Stage], n_stages: int) -> dict[str, float]:
    """Size of each stage's pooled graph and the closure's useful share.

    ``edges`` counts stored adjacency entries, so an undirected edge counts
    twice and ``mean_degree`` is ``edges / nodes``.  ``rewire.useful_ratio``
    is pooled entries over ``ones(A + A^2 + A^3)`` entries, summed over the
    closure-rewired stages; it reads 0 when no stage rewires by closure.
    """
    out: dict[str, float] = {}
    for i in range(n_stages):
        a = stages[i].result.a if i < len(stages) else None
        nodes = a.n_rows if a is not None else 0
        edges = a.nnz if a is not None else 0
        out[f"pooling.stage{i}.nodes"] = nodes
        out[f"pooling.stage{i}.edges"] = edges
        out[f"pooling.stage{i}.mean_degree"] = edges / nodes if nodes else 0.0
    pooled = closed = 0
    for stage in stages:
        if isinstance(stage.pool, (harness.LcPool, harness.LcPoolStar)):
            pooled += stage.result.a.nnz
            closed += int(np.count_nonzero(closure(dense(stage.a))))
    out["pooling.rewire.useful_ratio"] = pooled / closed if closed else 0.0
    return out


def tape_entries(model, batch) -> int:
    """Tape records of one training forward pass and loss."""
    with diff.Tape() as tape:
        diff.cross_entropy(model.forward(batch), batch.labels)
    return len(tape)
