"""Seeded TUDataset flat-file fixtures and the check that a load reproduces them.

The generator is graphpool's own synthetic benchmark plus seeded node
labels; the expected dataset carries the one-hot node-label features that
``load_tudataset`` builds, so a load can be compared with it exactly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from graphpool import dataset, sparse

FIXTURE_NAME = "FIXTURE"


@dataclass(frozen=True)
class FixtureCounts:
    graphs: int
    nodes: int
    edges: int  # undirected; the _A file lists each one in both directions


def generate(kind: str, n_graphs: int, label_values: int, seed: int) -> dataset.Dataset:
    """Synthetic graphs whose features are one-hot seeded node labels."""
    base = dataset.make_synthetic(kind, n_graphs, seed)
    rng = np.random.default_rng([seed, 1])
    graphs = []
    for g in base.graphs:
        labels = rng.integers(0, label_values, size=g.num_nodes)
        graphs.append(dataset.Graph(g.num_nodes, np.eye(label_values)[labels], g.a, g.label))
    return dataset.Dataset(graphs, base.num_classes, label_values, base.name)


def _node_labels(ds: dataset.Dataset) -> np.ndarray:
    return np.concatenate([g.x.argmax(axis=1) for g in ds.graphs])


def write(ds: dataset.Dataset, root: str) -> FixtureCounts:
    """Write ``root/FIXTURE/FIXTURE_{A,graph_indicator,graph_labels,node_labels}.txt``.

    Node ids are 1-based and global; graph labels are written shifted by
    one so the loader's relabelling is exercised.
    """
    folder = os.path.join(root, FIXTURE_NAME)
    os.makedirs(folder, exist_ok=True)
    sizes = np.array([g.num_nodes for g in ds.graphs], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    rows = np.concatenate([sparse.row_indices(g.a) + off for g, off in zip(ds.graphs, offsets)])
    cols = np.concatenate([g.a.col_idx + off for g, off in zip(ds.graphs, offsets)])
    indicator = np.repeat(np.arange(1, len(ds.graphs) + 1), sizes)
    files = {
        "A": "".join(f"{i}, {j}\n" for i, j in zip((rows + 1).tolist(), (cols + 1).tolist())),
        "graph_indicator": "".join(f"{g}\n" for g in indicator.tolist()),
        "graph_labels": "".join(f"{g.label + 1}\n" for g in ds.graphs),
        "node_labels": "".join(f"{v}\n" for v in _node_labels(ds).tolist()),
    }
    for key, text in files.items():
        with open(os.path.join(folder, f"{FIXTURE_NAME}_{key}.txt"), "w") as fh:
            fh.write(text)
    return FixtureCounts(len(ds.graphs), int(sizes.sum()), int(rows.size // 2))


def mismatch(loaded: dataset.Dataset, expected: dataset.Dataset) -> str | None:
    """First difference between a loaded fixture and its generator, or None."""
    if len(loaded) != len(expected):
        return f"{len(loaded)} graphs loaded, {len(expected)} written"
    if (loaded.num_classes, loaded.feature_dim) != (expected.num_classes, expected.feature_dim):
        return "class count or feature width differs"
    pairs = list(zip(loaded.graphs, expected.graphs))
    checks = {
        "node counts": lambda g: np.array([g.num_nodes]),
        "graph labels": lambda g: np.array([g.label]),
        "row extents": lambda g: g.a.row_ptr,
        "edge columns": lambda g: g.a.col_idx,
        "edge values": lambda g: g.a.values,
        "node features": lambda g: g.x.ravel(),
    }
    for what, field in checks.items():
        got = np.concatenate([field(a) for a, _ in pairs])
        want = np.concatenate([field(b) for _, b in pairs])
        if got.shape != want.shape or not np.array_equal(got, want):
            return f"{what} differ from the generator"
    return None
