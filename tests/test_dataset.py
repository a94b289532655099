import os
import re
import time
import warnings

import numpy as np
import pytest
from helpers import random_adjacency_dense
from hypothesis import given, settings
from hypothesis import strategies as st

from graphpool import sparse
from graphpool.dataset import (
    Graph,
    load_tudataset,
    make_batch,
    make_synthetic,
    split,
)
from graphpool.sparse import CsrMatrix, IndexSet

DATA_ROOT = os.environ.get("GRAPHPOOL_DATA", "data")


def write_fixture(root, name, files):
    base = root / name
    base.mkdir(parents=True)
    for suffix, content in files.items():
        (base / f"{name}_{suffix}.txt").write_text(content)
    return str(root)


TINY = {
    "A": "1, 2\n2, 1\n2, 3\n3, 2\n1, 3\n3, 1\n4, 5\n5, 4\n",
    "graph_indicator": "1\n1\n1\n2\n2\n",
    "graph_labels": "3\n7\n",
    "node_labels": "0\n1\n0\n2\n1\n",
    "node_attributes": "0.5\n1.5\n2.5\n3.5\n4.5\n",
}

INT1 = "expected 1 comma-separated integers"
INT2 = "expected 2 comma-separated integers"
OUTSIDE = "edge endpoint outside node range"


@pytest.fixture
def two_graph_root(tmp_path):
    """Triangle (nodes 1-3) plus a single edge (nodes 4-5)."""
    return write_fixture(tmp_path, "tiny", TINY)


def write_dataset(root, name, ds, a_lines=None):
    """Write a Dataset as TUDataset flat files; ``a_lines`` overrides the _A rows."""
    sizes = np.array([g.num_nodes for g in ds.graphs])
    offsets = np.cumsum(sizes) - sizes
    if a_lines is None:
        a_lines = np.concatenate([
            np.column_stack([sparse.row_indices(g.a), g.a.col_idx]) + off
            for g, off in zip(ds.graphs, offsets)
        ]) + 1
    base = root / name
    base.mkdir(parents=True)
    np.savetxt(base / f"{name}_A.txt", a_lines, fmt="%d", delimiter=", ")
    np.savetxt(base / f"{name}_graph_indicator.txt",
               np.repeat(np.arange(1, len(ds) + 1), sizes), fmt="%d")
    np.savetxt(base / f"{name}_graph_labels.txt", [g.label for g in ds.graphs], fmt="%d")
    return str(root)


class TestLoader:
    def test_two_graph_fixture(self, two_graph_root):
        ds = load_tudataset(two_graph_root, "tiny")
        assert len(ds) == 2
        assert ds.num_classes == 2
        assert ds.feature_dim == 4  # 3 node-label values one-hot + 1 attribute
        tri, pair = ds.graphs
        assert (tri.num_nodes, pair.num_nodes) == (3, 2)
        assert (tri.label, pair.label) == (0, 1)
        assert np.array_equal(sparse.to_dense(tri.a), [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        assert np.array_equal(sparse.to_dense(pair.a), [[0, 1], [1, 0]])
        assert np.array_equal(tri.x, [
            [1, 0, 0, 0.5], [0, 1, 0, 1.5], [1, 0, 0, 2.5],
        ])
        assert np.array_equal(pair.x, [[0, 0, 1, 3.5], [0, 1, 0, 4.5]])

    def test_one_directional_edges_are_symmetrized(self, tmp_path):
        root = write_fixture(tmp_path, "oneway", {
            "A": "1, 2\n",
            "graph_indicator": "1\n1\n",
            "graph_labels": "0\n",
        })
        g = load_tudataset(root, "oneway").graphs[0]
        assert sparse.is_symmetric(g.a)
        assert g.a.nnz == 2

    def test_self_loops_dropped(self, tmp_path):
        root = write_fixture(tmp_path, "loopy", {
            "A": "1, 1\n1, 2\n2, 1\n",
            "graph_indicator": "1\n1\n",
            "graph_labels": "0\n",
        })
        g = load_tudataset(root, "loopy").graphs[0]
        assert np.array_equal(sparse.to_dense(g.a), [[0, 1], [1, 0]])

    def test_constant_feature_fallback(self, tmp_path):
        root = write_fixture(tmp_path, "bare", {
            "A": "1, 2\n2, 1\n",
            "graph_indicator": "1\n1\n",
            "graph_labels": "5\n",
        })
        ds = load_tudataset(root, "bare")
        assert ds.feature_dim == 1
        assert np.array_equal(ds.graphs[0].x, [[1.0], [1.0]])

    def test_missing_mandatory_file(self, tmp_path):
        root = write_fixture(tmp_path, "broken", {
            "A": "1, 2\n",
            "graph_indicator": "1\n1\n",
        })
        with pytest.raises(FileNotFoundError):
            load_tudataset(root, "broken")

    def test_cross_graph_edge_rejected(self, tmp_path):
        root = write_fixture(tmp_path, "crossed", {
            "A": "1, 2\n2, 1\n2, 3\n",
            "graph_indicator": "1\n1\n2\n",
            "graph_labels": "0\n1\n",
        })
        with pytest.raises(ValueError, match="crosses graph boundaries"):
            load_tudataset(root, "crossed")

    def test_loaded_adjacency_is_symmetric(self, two_graph_root):
        ds = load_tudataset(two_graph_root, "tiny")
        assert all(sparse.is_symmetric(g.a) for g in ds.graphs)

    @pytest.mark.parametrize("key, content, line, what", [
        # the line number counts the empty lines the parser skips
        pytest.param("A", "1, 2\n\n2, x\n", 3, INT2, id="A-bad-token"),
        pytest.param("A", "1, 2\n2, 1, 3\n", 2, INT2, id="A-three-columns"),
        pytest.param("A", "1, 2\n2, 1,\n", 2, INT2, id="A-trailing-comma"),
        pytest.param("A", "1, 2\n   \n2, 1\n", 2, INT2, id="A-blank-spaces"),
        pytest.param("A", "1, 2\n\n\n2, 9\n", 4, OUTSIDE + " 1..5", id="A-endpoint-high"),
        pytest.param("A", "0, 1\n", 1, OUTSIDE, id="A-endpoint-zero"),
        pytest.param("A", "1, 2\n\n3, 4\n", 3, "edge (3, 4) crosses graph boundaries",
                     id="A-cross-graph"),
        pytest.param("graph_indicator", "1\n1\n2.5\n2\n2\n", 3, INT1, id="indicator-bad-token"),
        pytest.param("graph_indicator", "1\n2\n1\n2\n2\n", 3,
                     "graph indicator must be non-decreasing", id="indicator-decreasing"),
        pytest.param("graph_indicator", "0\n1\n1\n2\n2\n", 1, "graph ids start at 1",
                     id="indicator-zero"),
        pytest.param("graph_labels", "3, 4\n7\n", 1, INT1, id="labels-two-columns"),
        pytest.param("node_labels", "0\n1\n0\n\n2\nb\n", 6, INT1, id="node-labels-bad-token"),
        pytest.param("node_attributes", "0.5\n1.5, 2\n2.5\n3.5\n4.5\n", 2,
                     "expected 1 comma-separated numbers", id="attributes-width"),
        pytest.param("node_attributes", "0.5\n1.5\nnan\n3.5\n4.5\n", 3,
                     "node attributes must be finite", id="attributes-nan"),
    ])
    def test_errors_name_file_and_line(self, tmp_path, key, content, line, what):
        root = write_fixture(tmp_path, "tiny", {**TINY, key: content})
        path = os.path.join(root, "tiny", f"tiny_{key}.txt")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line {line}: {what}")):
            load_tudataset(root, "tiny")

    def test_empty_graph_names_the_indicator(self, tmp_path):
        root = write_fixture(tmp_path, "gap", {
            "A": "",
            "graph_indicator": "1\n3\n",
            "graph_labels": "0\n1\n0\n",
        })
        path = os.path.join(root, "gap", "gap_graph_indicator.txt")
        with pytest.raises(ValueError, match=re.escape(f"{path}: graph 2 has no nodes")):
            load_tudataset(root, "gap")

    def test_edgeless_dataset_loads_quietly(self, tmp_path):
        root = write_fixture(tmp_path, "edgeless", {
            "A": "",
            "graph_indicator": "1\n1\n2\n",
            "graph_labels": "0\n1\n",
        })
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = load_tudataset(root, "edgeless")
        assert [g.num_nodes for g in ds.graphs] == [2, 1]
        assert all(g.a.nnz == 0 for g in ds.graphs)
        for g in ds.graphs:
            sparse.validate(g.a)

    def test_messy_fixture_passes_public_graph_checks(self, tmp_path):
        # the loader builds graphs without Graph's checks; each must still pass them
        root = write_fixture(tmp_path, "messy", {
            "A": "1, 1\n1, 2\n1, 2\n2, 1\n2, 3\n7, 8\n9, 8\n9, 9\n8, 7\n",
            "graph_indicator": "1\n1\n1\n1\n2\n2\n3\n3\n3\n",
            "graph_labels": "4\n-1\n4\n",
            "node_labels": "2\n0\n2\n5\n0\n0\n2\n5\n5\n",
            "node_attributes": "".join(f"{i / 4}, {-i}\n" for i in range(9)),
        })
        ds = load_tudataset(root, "messy")
        assert [g.num_nodes for g in ds.graphs] == [4, 2, 3]
        assert [g.label for g in ds.graphs] == [1, 0, 1]
        assert ds.feature_dim == 5
        want = [
            [[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 0]],  # node 4 isolated
            [[0, 0], [0, 0]],
            [[0, 1, 0], [1, 0, 1], [0, 1, 0]],
        ]
        for g, dense in zip(ds.graphs, want):
            sparse.validate(g.a)
            assert np.array_equal(sparse.to_dense(g.a), dense)
            rebuilt = Graph(g.num_nodes, g.x, g.a, g.label)
            assert sparse.equal(rebuilt.a, g.a)

    def test_edge_order_does_not_matter(self, tmp_path):
        rng = np.random.default_rng(4)
        ds = make_synthetic("two_communities", 12, seed=4)
        sizes = np.array([g.num_nodes for g in ds.graphs])
        offsets = np.cumsum(sizes) - sizes
        und = np.concatenate([
            np.column_stack([sparse.row_indices(g.a), g.a.col_idx]) + off
            for g, off in zip(ds.graphs, offsets)
        ])
        und = und[und[:, 0] < und[:, 1]]
        # each edge once, in a random direction, then a tenth of them again reversed
        flip = rng.random(len(und)) < 0.5
        one_way = np.where(flip[:, None], und[:, ::-1], und)
        extra = und[rng.random(len(und)) < 0.1][:, ::-1]
        lines = np.vstack([one_way, extra, one_way[:5]])[rng.permutation(len(und) + len(extra) + 5)]
        assert np.any(np.diff(np.minimum(lines[:, 0], lines[:, 1])) < 0)  # not grouped by graph
        shuffled = load_tudataset(write_dataset(tmp_path / "s", "S", ds, lines + 1), "S")
        ordered = load_tudataset(write_dataset(tmp_path / "o", "O", ds), "O")
        assert len(shuffled) == len(ordered) == len(ds)
        for g, h, want in zip(shuffled.graphs, ordered.graphs, ds.graphs):
            sparse.validate(g.a)
            assert sparse.equal(g.a, h.a)
            assert sparse.equal(g.a, want.a)

    def test_load_time_scales_linearly(self, tmp_path):
        def best_load(n_graphs):
            name = f"G{n_graphs}"
            root = write_dataset(tmp_path / name, name,
                                 make_synthetic("two_communities", n_graphs, seed=0))
            times = []
            for _ in range(3):
                start = time.perf_counter()
                ds = load_tudataset(root, name)
                times.append(time.perf_counter() - start)
            assert len(ds) == n_graphs
            return min(times)

        small, large = best_load(1000), best_load(4000)
        assert large / small < 8, f"4x the graphs took {large / small:.1f}x the time"


@pytest.mark.skipif(
    not os.path.isdir(os.path.join(DATA_ROOT, "PROTEINS")),
    reason="PROTEINS files not present under the data root",
)
def test_proteins_statistics():
    ds = load_tudataset(DATA_ROOT, "PROTEINS")
    assert len(ds) == 1113
    assert ds.num_classes == 2
    assert abs(ds.mean_nodes - 39.06) < 0.01


@pytest.mark.skipif(
    not os.path.isdir(os.path.join(DATA_ROOT, "ENZYMES")),
    reason="ENZYMES files not present under the data root",
)
def test_enzymes_statistics():
    ds = load_tudataset(DATA_ROOT, "ENZYMES")
    assert len(ds) == 600
    assert ds.num_classes == 6


class TestBatch:
    def test_single_graph_batch(self):
        ds = make_synthetic("cycles_vs_paths", 2, seed=0)
        g = ds.graphs[0]
        batch = make_batch([g])
        assert np.array_equal(batch.x, g.x)
        assert sparse.equal(batch.a, g.a)
        assert np.array_equal(batch.graph_id, np.zeros(g.num_nodes))
        assert batch.labels.size == 1

    def test_triangle_plus_edge_block_structure(self):
        tri = Graph(3, np.ones((3, 1)), sparse.from_dense(
            np.ones((3, 3)) - np.eye(3)), 0)
        pair = Graph(2, np.ones((2, 1)), sparse.from_dense(
            np.array([[0.0, 1.0], [1.0, 0.0]])), 1)
        batch = make_batch([tri, pair])
        assert batch.a.shape == (5, 5)
        rows = sparse.row_indices(batch.a)
        cols = batch.a.col_idx
        first = (rows < 3) & (cols < 3)
        second = (rows >= 3) & (cols >= 3)
        assert np.all(first | second)
        assert np.array_equal(batch.graph_id, [0, 0, 0, 1, 1])
        assert np.array_equal(batch.labels, [0, 1])

    def test_batch_slicing_round_trip(self):
        ds = make_synthetic("two_communities", 6, seed=3)
        batch = make_batch(ds.graphs)
        start = 0
        for g in ds.graphs:
            stop = start + g.num_nodes
            assert np.array_equal(batch.x[start:stop], g.x)
            block = sparse.select_rows_cols(batch.a, IndexSet(np.arange(start, stop)))
            assert sparse.equal(block, g.a)
            start = stop

    def test_matches_from_coo_route(self):
        rng = np.random.default_rng(11)
        seen = set()
        for _ in range(50):
            graphs = []
            for _ in range(int(rng.integers(1, 7))):
                n = int(rng.choice([1, 1, 2, 3, 5, 8]))
                p = 0.0 if rng.random() < 0.25 else 0.4
                a = sparse.from_dense(random_adjacency_dense(rng, n, p))
                graphs.append(Graph(n, rng.random((n, 2)), a, int(rng.integers(2))))
                seen.add("one node" if n == 1 else "edgeless" if a.nnz == 0 else "edges")
            batch = make_batch(graphs)
            sizes = [g.num_nodes for g in graphs]
            offsets = np.cumsum(sizes) - sizes
            rows = np.concatenate([sparse.row_indices(g.a) + o for g, o in zip(graphs, offsets)])
            cols = np.concatenate([g.a.col_idx + o for g, o in zip(graphs, offsets)])
            want = CsrMatrix.from_coo(sum(sizes), sum(sizes), rows, cols, np.ones(rows.size))
            sparse.validate(batch.a)
            assert sparse.equal(batch.a, want)
            assert batch.a.row_ptr.dtype == batch.a.col_idx.dtype == np.int64
        assert seen == {"one node", "edgeless", "edges"}

    def test_feature_dim_mismatch(self):
        a = CsrMatrix.empty(1, 1)
        with pytest.raises(ValueError):
            make_batch([Graph(1, np.ones((1, 1)), a, 0), Graph(1, np.ones((1, 2)), a, 0)])

    def test_empty_graph_rejected_at_construction(self):
        with pytest.raises(ValueError):
            Graph(0, np.ones((0, 1)), CsrMatrix.empty(0, 0), 0)

    @pytest.mark.parametrize("x", [np.float64(1.0), np.ones(1), np.ones((2, 1)), np.ones((1, 1, 1))],
                             ids=["0-d", "1-d", "wrong-rows", "3-d"])
    def test_feature_matrix_shape_rejected(self, x):
        with pytest.raises(ValueError, match="feature matrix must be num_nodes x d"):
            Graph(1, x, CsrMatrix.empty(1, 1), 0)

    def test_weighted_graph_rejected(self):
        a = CsrMatrix.from_coo(2, 2, [0, 1], [1, 0], [2.0, 2.0])
        with pytest.raises(ValueError):
            Graph(2, np.ones((2, 1)), a, 0)

    def test_self_loop_rejected(self):
        a = CsrMatrix.from_coo(2, 2, [0, 0, 1], [0, 1, 0], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="graphs carry no self-loops"):
            Graph(2, np.ones((2, 1)), a, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_feature_rejected(self, bad):
        x = np.ones((2, 2))
        x[1, 0] = bad
        with pytest.raises(ValueError, match="node features must be finite"):
            Graph(2, x, CsrMatrix.empty(2, 2), 0)

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (3, 3), (1, 1)])
    def test_adjacency_not_square_over_nodes_rejected(self, shape):
        with pytest.raises(ValueError, match="adjacency must be square over the nodes"):
            Graph(2, np.ones((2, 1)), CsrMatrix.empty(*shape), 0)


class TestSplit:
    def test_600_splits_480_60_60(self):
        ds = make_synthetic("cycles_vs_paths", 600, seed=0)
        train, val, test = split(ds, (0.8, 0.1, 0.1), seed=1)
        assert (len(train), len(val), len(test)) == (480, 60, 60)

    def test_deterministic(self):
        ds = make_synthetic("cycles_vs_paths", 50, seed=0)
        a = split(ds, (0.8, 0.1, 0.1), seed=9)
        b = split(ds, (0.8, 0.1, 0.1), seed=9)
        for part_a, part_b in zip(a, b):
            assert [id(g) for g in part_a.graphs] == [id(g) for g in part_b.graphs]

    def test_ten_graphs(self):
        ds = make_synthetic("cycles_vs_paths", 10, seed=0)
        sizes = tuple(len(p) for p in split(ds, (0.8, 0.1, 0.1), seed=0))
        assert sizes == (8, 1, 1)

    def test_empty_part_rejected(self):
        ds = make_synthetic("cycles_vs_paths", 4, seed=0)
        with pytest.raises(ValueError):
            split(ds, (0.8, 0.1, 0.1), seed=0)

    def test_bad_ratios_rejected(self):
        ds = make_synthetic("cycles_vs_paths", 30, seed=0)
        with pytest.raises(ValueError):
            split(ds, (0.8, 0.1, 0.2), seed=0)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(10, 200), st.integers(0, 10_000))
    def test_partition_property(self, n, seed):
        ds = make_synthetic("cycles_vs_paths", n, seed=0)
        parts = split(ds, (0.8, 0.1, 0.1), seed=seed)
        ids = [id(g) for part in parts for g in part.graphs]
        assert len(ids) == n
        assert set(ids) == {id(g) for g in ds.graphs}


class TestSynthetic:
    def test_cycles_vs_paths_balanced(self):
        ds = make_synthetic("cycles_vs_paths", 200, seed=7)
        labels = np.array([g.label for g in ds.graphs])
        assert len(ds) == 200
        assert int(labels.sum()) == 100
        assert ds.num_classes == 2

    def test_cycle_instance_degrees(self):
        ds = make_synthetic("cycles_vs_paths", 2, seed=1)
        ring = ds.graphs[0]
        degrees = np.diff(ring.a.row_ptr)
        assert ring.a.nnz == 2 * ring.num_nodes  # n undirected edges
        assert np.all(degrees == 2)

    def test_path_instance_endpoints(self):
        ds = make_synthetic("cycles_vs_paths", 2, seed=1)
        path = ds.graphs[1]
        degrees = np.diff(path.a.row_ptr)
        assert path.a.nnz == 2 * (path.num_nodes - 1)
        assert int(np.sum(degrees == 1)) == 2

    def test_two_communities_bridges(self):
        ds = make_synthetic("two_communities", 20, seed=5)
        assert all(sparse.is_symmetric(g.a) for g in ds.graphs)
        assert {g.label for g in ds.graphs} == {0, 1}

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_synthetic("nope", 10, seed=0)

    def test_unknown_kind_names_the_kinds(self):
        with pytest.raises(ValueError, match="choose from .*'cycles_vs_paths', 'two_communities'"):
            make_synthetic("nope", 10, seed=0)
