"""Attributed graphs, TUDataset flat-file loading, batching and splits."""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass

import numpy as np

from .sparse import CsrMatrix, row_extents, row_indices

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
        if self.x.ndim != 2 or self.x.shape[0] != self.num_nodes:
            raise ValueError("feature matrix must be num_nodes x d")
        if not np.all(np.isfinite(self.x)):
            raise ValueError("node features must be finite")
        if self.a.shape != (self.num_nodes, self.num_nodes):
            raise ValueError("adjacency must be square over the nodes")
        if self.a.nnz and np.any(row_indices(self.a) == self.a.col_idx):
            raise ValueError("graphs carry no self-loops")
        if self.a.nnz and np.any(self.a.values != 1.0):
            raise ValueError("graph edges are unweighted")

    @classmethod
    def _unchecked(cls, num_nodes: int, x: np.ndarray, a: CsrMatrix, label: int) -> "Graph":
        """A graph whose invariants the caller has established; no check runs."""
        g = object.__new__(cls)
        g.__dict__.update(num_nodes=num_nodes, x=x, a=a, label=label)
        return g


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
    """Stack graphs into one block-diagonal batch.

    Each graph's CSR arrays are canonical, so offsetting and concatenating
    them gives the canonical batch adjacency without a sort.
    """
    if not graphs:
        raise ValueError("cannot batch zero graphs")
    dims = {g.x.shape[1] for g in graphs}
    if len(dims) != 1:
        raise ValueError(f"feature dimensions differ across graphs: {sorted(dims)}")
    sizes = np.array([g.num_nodes for g in graphs], dtype=np.int64)
    nnzs = np.array([g.a.nnz for g in graphs], dtype=np.int64)
    node_off = np.cumsum(sizes) - sizes
    edge_off = np.cumsum(nnzs) - nnzs
    row_ptr = np.zeros(int(sizes.sum()) + 1, dtype=np.int64)
    row_ptr[1:] = np.concatenate([g.a.row_ptr[1:] for g in graphs]) + np.repeat(edge_off, sizes)
    col_idx = np.concatenate([g.a.col_idx for g in graphs]) + np.repeat(node_off, nnzs)
    total = row_ptr.size - 1
    return GraphBatch(
        x=np.vstack([g.x for g in graphs]),
        a=CsrMatrix(total, total, row_ptr, col_idx, np.ones(col_idx.size)),
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


def _parse(source, dtype, width: int | None):
    """``source`` as a (rows, width) table, or None when a line does not parse.

    ``source`` is a path or a list of lines; empty lines are skipped. With
    ``width`` None any width is accepted.
    """
    with warnings.catch_warnings():
        # a file of edgeless graphs has an empty _A file
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            table = np.loadtxt(source, dtype=dtype, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            return None
    if table.size == 0:
        return np.empty((0, width or 1), dtype=dtype)
    return table if width in (None, table.shape[1]) else None


def _read_table(path: str, dtype, width: int | None = None) -> np.ndarray:
    """The comma-separated numbers of ``path``, one row per non-empty line.

    A malformed value or a row of the wrong width raises ``ValueError`` naming
    the file and its 1-based line.
    """
    table = _parse(path, dtype, width)
    if table is not None:
        return table
    # error path only: bisect the lines for the first one the parser rejects
    with open(path) as fh:
        lines = fh.read().split("\n")
    if width is None:
        width = next(len(line.split(",")) for line in lines if line)
    lo, hi = 0, len(lines)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _parse(lines[lo:mid], dtype, width) is None:
            hi = mid
        else:
            lo = mid
    kind = "integers" if dtype is np.int64 else "numbers"
    raise ValueError(
        f"{path}, line {lo + 1}: expected {width} comma-separated {kind}, got {lines[lo]!r}"
    )


def _line_error(path: str, row: int, message: str) -> ValueError:
    """``message`` as an error naming ``path`` and the line that holds table row ``row``."""
    with open(path) as fh:
        numbers = [n for n, line in enumerate(fh, 1) if line.strip()]
    return ValueError(f"{path}, line {numbers[row]}: {message}")


def _undirected_pattern(n: int, edges: np.ndarray) -> CsrMatrix:
    """The n x n 0/1 adjacency of an (E, 2) edge list taken both ways.

    Self-loops are dropped and duplicates kept once: the sorted keys
    ``row * n + col`` are the canonical entry order, so one sort and a
    compare with each key's predecessor build the pattern. Endpoints must
    lie in ``0 .. n - 1``.
    """
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    keys = np.sort((rows * np.int64(n) + cols)[rows != cols])
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    return CsrMatrix(n, n, row_extents(keys // n, n), keys % n, np.ones(keys.size))


def load_tudataset(root: str, name: str) -> Dataset:
    """Load the flat TUDataset text format from ``root/name/``.

    Node features are the one-hot node labels concatenated with the node
    attributes, whichever are present; with neither, a constant-1 column.
    Edges are symmetrized and deduplicated and self-loops are dropped.
    Each file is parsed once and the edges of all graphs form one
    block-diagonal adjacency whose diagonal blocks are the graphs' own, so
    the load runs in time linear in graphs and edges (plus one edge sort).
    Malformed input raises ``ValueError`` naming the file and, where one
    line is at fault, its 1-based line number.
    The files are checked once for the whole dataset, so the graphs are
    built without ``Graph``'s per-graph re-check.
    """
    base = os.path.join(root, name)
    paths = {
        key: os.path.join(base, f"{name}_{key}.txt")
        for key in ("A", "graph_indicator", "graph_labels", "node_labels", "node_attributes")
    }
    for key in ("A", "graph_indicator", "graph_labels"):
        if not os.path.exists(paths[key]):
            raise FileNotFoundError(f"missing mandatory file {paths[key]}")

    indicator = _read_table(paths["graph_indicator"], np.int64, 1)[:, 0]
    n_nodes = indicator.size
    if n_nodes == 0:
        raise ValueError(f"{paths['graph_indicator']}: no nodes")
    drops = np.flatnonzero(np.diff(indicator) < 0)
    if drops.size:
        raise _line_error(paths["graph_indicator"], int(drops[0]) + 1,
                          "graph indicator must be non-decreasing")
    if indicator[0] < 1:
        raise _line_error(paths["graph_indicator"], 0, "graph ids start at 1")
    node_graph = indicator - 1
    n_graphs = int(indicator[-1])

    raw_labels = _read_table(paths["graph_labels"], np.int64, 1)[:, 0]
    if raw_labels.size != n_graphs:
        raise ValueError(f"{paths['graph_labels']}: graph label count does not match the indicator")
    classes, label_index = np.unique(raw_labels, return_inverse=True)
    labels = label_index.tolist()

    bounds = row_extents(node_graph, n_graphs)
    counts = np.diff(bounds)
    if not counts.all():
        g = int(np.argmin(counts))
        raise ValueError(f"{paths['graph_indicator']}: graph {g + 1} has no nodes")

    edges = _read_table(paths["A"], np.int64, 2) - 1
    if edges.size and (edges.min() < 0 or edges.max() >= n_nodes):
        row = int(np.argmax(((edges < 0) | (edges >= n_nodes)).any(axis=1)))
        raise _line_error(paths["A"], row, f"edge endpoint outside node range 1..{n_nodes}")
    crossed = node_graph[edges[:, 0]] != node_graph[edges[:, 1]]
    if crossed.any():
        row = int(np.argmax(crossed))
        i, j = edges[row] + 1
        raise _line_error(paths["A"], row, f"edge ({i}, {j}) crosses graph boundaries")

    blocks = []
    if os.path.exists(paths["node_labels"]):
        node_labels = _read_table(paths["node_labels"], np.int64, 1)[:, 0]
        if node_labels.size != n_nodes:
            raise ValueError(
                f"{paths['node_labels']}: node label count does not match the indicator")
        values, index = np.unique(node_labels, return_inverse=True)
        onehot = np.zeros((n_nodes, values.size))
        onehot[np.arange(n_nodes), index] = 1.0
        blocks.append(onehot)
    if os.path.exists(paths["node_attributes"]):
        attrs = _read_table(paths["node_attributes"], np.float64)
        if attrs.shape[0] != n_nodes:
            raise ValueError(
                f"{paths['node_attributes']}: node attribute count does not match the indicator")
        finite = np.isfinite(attrs).all(axis=1)
        if not finite.all():
            raise _line_error(paths["node_attributes"], int(np.argmin(finite)),
                              "node attributes must be finite")
        blocks.append(attrs)
    x_all = np.hstack(blocks) if blocks else np.ones((n_nodes, 1))

    # No edge crosses graphs, so the global adjacency is block-diagonal and
    # each graph's rows are a contiguous slice of it. Every invariant Graph
    # checks holds already: counts.all() gives each graph a node, x_all is
    # one-hot, finite attributes or ones, and the pattern has unit values and
    # no self-loops.
    pattern = _undirected_pattern(n_nodes, edges)
    row_ptr, col_idx, ones = pattern.row_ptr, pattern.col_idx, pattern.values
    graphs = []
    for g, (lo, hi) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist())):
        s, e = int(row_ptr[lo]), int(row_ptr[hi])
        a = CsrMatrix(hi - lo, hi - lo, row_ptr[lo : hi + 1] - s, col_idx[s:e] - lo, ones[s:e])
        graphs.append(Graph._unchecked(hi - lo, x_all[lo:hi], a, labels[g]))
    return Dataset(graphs, int(classes.size), int(x_all.shape[1]), name)


# ---------------------------------------------------------------------------
# synthetic workloads


def _ring_edges(n: int) -> np.ndarray:
    return np.stack([np.arange(n), np.roll(np.arange(n), -1)], axis=1)


def _graph_from_edges(n: int, und_edges: np.ndarray, label: int) -> Graph:
    return Graph(n, np.ones((n, 1)), _undirected_pattern(n, und_edges), label)


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
