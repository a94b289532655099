"""Attributed graphs, TUDataset flat-file loading, batching and splits."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .sparse import CsrMatrix, row_indices

SYNTHETIC_KINDS = ("cycles_vs_paths", "two_communities")


@dataclass(frozen=True, eq=False)
class Graph:
    """One attributed graph: features, unweighted adjacency, class label."""

    num_nodes: int
    x: np.ndarray
    a: CsrMatrix
    label: int

    def __post_init__(self):
        if self.num_nodes < 1:
            raise ValueError("a graph needs at least one node")
        if self.x.shape[0] != self.num_nodes or self.x.ndim != 2:
            raise ValueError("feature matrix must be num_nodes x d")
        if not np.all(np.isfinite(self.x)):
            raise ValueError("node features must be finite")
        if self.a.shape != (self.num_nodes, self.num_nodes):
            raise ValueError("adjacency must be square over the nodes")
        if self.a.nnz and np.any(row_indices(self.a) == self.a.col_idx):
            raise ValueError("graphs carry no self-loops")
        if self.a.nnz and np.any(self.a.values != 1.0):
            raise ValueError("graph edges are unweighted")


@dataclass(frozen=True, eq=False)
class Dataset:
    graphs: list[Graph]
    num_classes: int
    feature_dim: int
    name: str

    def __len__(self) -> int:
        return len(self.graphs)

    @property
    def mean_nodes(self) -> float:
        return float(np.mean([g.num_nodes for g in self.graphs]))


@dataclass(frozen=True, eq=False)
class GraphBatch:
    """Block-diagonal stack of graphs with per-node graph ids."""

    x: np.ndarray
    a: CsrMatrix
    graph_id: np.ndarray
    labels: np.ndarray
    graph_count: int


def make_batch(graphs: list[Graph]) -> GraphBatch:
    if not graphs:
        raise ValueError("cannot batch zero graphs")
    dims = {g.x.shape[1] for g in graphs}
    if len(dims) != 1:
        raise ValueError(f"feature dimensions differ across graphs: {sorted(dims)}")
    sizes = np.array([g.num_nodes for g in graphs], dtype=np.int64)
    offsets = np.zeros(len(graphs), dtype=np.int64)
    np.cumsum(sizes[:-1], out=offsets[1:])
    total = int(sizes.sum())
    rows, cols = [], []
    for g, off in zip(graphs, offsets):
        rows.append(row_indices(g.a) + off)
        cols.append(g.a.col_idx + off)
    a = CsrMatrix.from_coo(
        total,
        total,
        np.concatenate(rows) if rows else [],
        np.concatenate(cols) if cols else [],
        np.ones(sum(g.a.nnz for g in graphs)),
    )
    return GraphBatch(
        x=np.vstack([g.x for g in graphs]),
        a=a,
        graph_id=np.repeat(np.arange(len(graphs), dtype=np.int64), sizes),
        labels=np.array([g.label for g in graphs], dtype=np.int64),
        graph_count=len(graphs),
    )


def split(dataset: Dataset, ratios, seed: int) -> tuple[Dataset, Dataset, Dataset]:
    """Deterministic shuffled train/val/test split.

    Validation and test sizes are floored; the remainder goes to train so the
    training set stays the largest.
    """
    tr, va, te = ratios
    if min(tr, va, te) <= 0 or abs(tr + va + te - 1.0) > 1e-9:
        raise ValueError(f"ratios must be positive and sum to 1, got {ratios}")
    n = len(dataset)
    n_val = int(np.floor(n * va))
    n_test = int(np.floor(n * te))
    n_train = n - n_val - n_test
    if min(n_train, n_val, n_test) < 1:
        raise ValueError(f"split of {n} graphs leaves an empty part")
    order = np.random.default_rng(seed).permutation(n)
    parts = (
        order[:n_train],
        order[n_train : n_train + n_val],
        order[n_train + n_val :],
    )
    return tuple(
        Dataset(
            graphs=[dataset.graphs[i] for i in part],
            num_classes=dataset.num_classes,
            feature_dim=dataset.feature_dim,
            name=dataset.name,
        )
        for part in parts
    )


# ---------------------------------------------------------------------------
# TUDataset flat files


def _read_lines(path: str) -> list[str]:
    with open(path) as fh:
        return [line.strip() for line in fh if line.strip()]


def load_tudataset(root: str, name: str) -> Dataset:
    """Load the flat TUDataset text format from ``root/name/``.

    Node features are the one-hot node labels concatenated with the node
    attributes, whichever are present; with neither, a constant-1 column.
    Edges are symmetrized and deduplicated and self-loops are dropped.
    """
    base = os.path.join(root, name)
    paths = {
        key: os.path.join(base, f"{name}_{key}.txt")
        for key in ("A", "graph_indicator", "graph_labels", "node_labels", "node_attributes")
    }
    for key in ("A", "graph_indicator", "graph_labels"):
        if not os.path.exists(paths[key]):
            raise FileNotFoundError(f"missing mandatory file {paths[key]}")

    indicator = np.array([int(s) for s in _read_lines(paths["graph_indicator"])])
    n_nodes = indicator.size
    n_graphs = int(indicator.max())
    if np.any(np.diff(indicator) < 0):
        raise ValueError("graph indicator must be non-decreasing")
    node_graph = indicator - 1

    raw_labels = np.array([int(s) for s in _read_lines(paths["graph_labels"])])
    if raw_labels.size != n_graphs:
        raise ValueError("graph label count does not match the indicator")
    classes = np.unique(raw_labels)
    labels = np.searchsorted(classes, raw_labels)

    edges = []
    for line in _read_lines(paths["A"]):
        i_s, j_s = line.split(",")
        edges.append((int(i_s), int(j_s)))
    edges = np.array(edges, dtype=np.int64).reshape(-1, 2) - 1
    if edges.size:
        if edges.min() < 0 or edges.max() >= n_nodes:
            raise ValueError("edge endpoint outside node range")
        bad = node_graph[edges[:, 0]] != node_graph[edges[:, 1]]
        if np.any(bad):
            i, j = edges[np.nonzero(bad)[0][0]]
            raise ValueError(f"edge ({i + 1}, {j + 1}) crosses graph boundaries")

    blocks = []
    if os.path.exists(paths["node_labels"]):
        node_labels = np.array([int(s) for s in _read_lines(paths["node_labels"])])
        if node_labels.size != n_nodes:
            raise ValueError("node label count does not match the indicator")
        values = np.unique(node_labels)
        onehot = np.zeros((n_nodes, values.size))
        onehot[np.arange(n_nodes), np.searchsorted(values, node_labels)] = 1.0
        blocks.append(onehot)
    if os.path.exists(paths["node_attributes"]):
        attrs = np.array(
            [[float(v) for v in line.split(",")] for line in _read_lines(paths["node_attributes"])]
        )
        if attrs.shape[0] != n_nodes:
            raise ValueError("node attribute count does not match the indicator")
        blocks.append(attrs)
    x_all = np.hstack(blocks) if blocks else np.ones((n_nodes, 1))

    first = np.searchsorted(node_graph, np.arange(n_graphs))
    counts = np.bincount(node_graph, minlength=n_graphs)
    graphs = []
    for g in range(n_graphs):
        lo, size = int(first[g]), int(counts[g])
        if size == 0:
            raise ValueError(f"graph {g + 1} has no nodes")
        if edges.size:
            mine = edges[node_graph[edges[:, 0]] == g] - lo
        else:
            mine = np.empty((0, 2), dtype=np.int64)
        rows = np.concatenate([mine[:, 0], mine[:, 1]])
        cols = np.concatenate([mine[:, 1], mine[:, 0]])
        keep = rows != cols
        # from_coo sums duplicates; rebuild as an all-ones pattern
        pattern = CsrMatrix.from_coo(size, size, rows[keep], cols[keep], np.ones(keep.sum()))
        a = CsrMatrix(size, size, pattern.row_ptr, pattern.col_idx, np.ones(pattern.nnz))
        graphs.append(Graph(size, x_all[lo : lo + size], a, int(labels[g])))
    return Dataset(graphs, int(classes.size), int(x_all.shape[1]), name)


# ---------------------------------------------------------------------------
# synthetic workloads


def _ring_edges(n: int) -> np.ndarray:
    return np.stack([np.arange(n), np.roll(np.arange(n), -1)], axis=1)


def _graph_from_edges(n: int, und_edges: np.ndarray, label: int) -> Graph:
    if und_edges.size:
        rows = np.concatenate([und_edges[:, 0], und_edges[:, 1]])
        cols = np.concatenate([und_edges[:, 1], und_edges[:, 0]])
    else:
        rows = cols = np.empty(0, dtype=np.int64)
    pattern = CsrMatrix.from_coo(n, n, rows, cols, np.ones(rows.size))
    a = CsrMatrix(n, n, pattern.row_ptr, pattern.col_idx, np.ones(pattern.nnz))
    return Graph(n, np.ones((n, 1)), a, label)


def make_synthetic(kind: str, n_graphs: int, seed: int) -> Dataset:
    """Small two-class benchmarks for desk-scale runs.

    cycles_vs_paths: class 0 rings, class 1 paths, 6..20 nodes each.
    two_communities: two dense blocks joined by 1 (class 0) or 3 (class 1)
    bridge edges.
    """
    if kind not in SYNTHETIC_KINDS:
        raise ValueError(f"unknown synthetic kind {kind!r}")
    rng = np.random.default_rng(seed)
    graphs = []
    for i in range(n_graphs):
        label = i % 2
        if kind == "cycles_vs_paths":
            n = int(rng.integers(6, 21))
            edges = _ring_edges(n) if label == 0 else _ring_edges(n)[:-1]
            graphs.append(_graph_from_edges(n, edges, label))
        else:
            m1, m2 = (int(rng.integers(5, 11)) for _ in range(2))
            e1 = _ring_edges(m1)
            e2 = _ring_edges(m2) + m1
            extras = []
            for block, off in ((m1, 0), (m2, m1)):
                pairs = np.column_stack(np.triu_indices(block, k=2)) + off
                if pairs.size:
                    take = rng.random(pairs.shape[0]) < 0.5
                    extras.append(pairs[take])
            n_bridges = 1 if label == 0 else 3
            left = rng.choice(m1, size=n_bridges, replace=False)
            right = rng.choice(m2, size=n_bridges, replace=False) + m1
            bridges = np.column_stack([left, right])
            edges = np.vstack([e1, e2, *extras, bridges])
            graphs.append(_graph_from_edges(m1 + m2, edges, label))
    return Dataset(graphs, 2, 1, f"synthetic:{kind}")
