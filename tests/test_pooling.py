import numpy as np
import pytest

from helpers import cycle, edgeless, path4, random_adjacency_dense, single_graph
from graphpool import diff, pooling, sparse
from graphpool.dataset import Graph, make_batch, make_synthetic
from graphpool.diff import constant
from graphpool.layers import GcnConv, Lcsmp, Stage
from graphpool.pooling import (
    dense_assignment_pool,
    kept_count,
    lcpool,
    lcpool_star,
    local_assignment_selection_pool,
    node_selection_pool,
    topk,
    validate_local_assignment,
)
from graphpool.sparse import CsrMatrix, IndexSet


def fixed_score(values):
    return constant(np.asarray(values, dtype=np.float64).reshape(-1, 1))


def linear_score(rng, dim):
    w = rng.normal(size=(dim, 1))
    return lambda x, stage: diff.matmul(x, constant(w))


class TestTopk:
    def test_half_of_four(self):
        h = constant([[0.5], [0.1], [0.9], [0.3]])
        kept = topk(h, edgeless(np.zeros(4)), 0.5)
        assert np.array_equal(kept.indices, [0, 2])

    def test_ratio_one_keeps_all(self):
        h = constant([[0.5], [0.1], [0.9], [0.3]])
        assert np.array_equal(topk(h, edgeless(np.zeros(4)), 1.0).indices, np.arange(4))

    def test_floor_protection(self):
        h = constant([[1.0], [2.0], [3.0], [9.0]])
        kept = topk(h, edgeless([0, 0, 0, 1]), 0.5)
        assert np.array_equal(np.bincount(np.array([0, 0, 0, 1])[kept.indices]), [2, 1])

    def test_tie_break_prefers_lower_index(self):
        h = constant([[1.0], [1.0], [1.0], [1.0]])
        kept = topk(h, edgeless(np.zeros(4)), 0.5)
        assert np.array_equal(kept.indices, [0, 1])

    def test_kept_count_formula(self):
        assert kept_count(0.5, 5) == 3
        assert kept_count(1.0, 7) == 7
        assert kept_count(0.3, 10) == 3  # float noise must not bump the ceiling
        assert kept_count(0.1, 1) == 1

    def test_random_batches_match_per_graph_sort(self):
        rng = np.random.default_rng(12)
        for trial in range(300):
            sizes = rng.integers(1, 15, size=int(rng.integers(1, 8)))
            gid = np.repeat(np.arange(sizes.size), sizes)
            if trial % 2:  # ties within and across graphs
                s = rng.integers(0, 3, size=gid.size).astype(np.float64)
            else:
                s = rng.normal(size=gid.size)
            ratio = float(rng.choice([0.1, 1 / 3, 0.5, 0.7, 1.0]))
            expected = []
            lo = 0
            for n in sizes.tolist():
                order = np.argsort(-s[lo : lo + n], kind="stable")
                expected.extend(sorted((lo + order[: kept_count(ratio, n)]).tolist()))
                lo += n
            kept = topk(constant(s[:, None]), edgeless(gid), ratio)
            assert kept.indices.tolist() == expected

    def test_kept_count_elementwise_matches_scalar(self):
        sizes = np.arange(0, 40)
        for ratio in (0.1, 0.3, 1 / 3, 0.5, 0.7, 1.0):
            assert kept_count(ratio, sizes).tolist() == [kept_count(ratio, int(n)) for n in sizes]

    def test_bad_ratio(self):
        with pytest.raises(ValueError):
            kept_count(0.0, 3)
        with pytest.raises(ValueError):
            kept_count(1.2, 3)


class TestNodeSelection:
    def test_ratio_one_constant_score(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 2))
        result = node_selection_pool(constant(x), single_graph(path4()),
                                     fixed_score([2.0] * 4), 1.0)
        assert np.array_equal(result.x.values, 2.0 * x)
        assert sparse.equal(result.a, path4())

    def test_keep_middle_pair_leaves_one_edge(self):
        result = node_selection_pool(
            constant(np.eye(4)), single_graph(path4()), fixed_score([0.0, 1.0, 1.0, 0.0]), 0.5)
        assert np.array_equal(result.kept.indices, [1, 2])
        assert np.array_equal(sparse.to_dense(result.a), [[0, 1], [1, 0]])

    def test_keep_endpoints_loses_all_edges(self):
        result = node_selection_pool(
            constant(np.eye(4)), single_graph(path4()), fixed_score([1.0, 0.0, 0.0, 1.0]), 0.5)
        assert np.array_equal(result.kept.indices, [0, 3])
        assert result.a.nnz == 0


class TestDenseAssignment:
    def test_identity_assignment_keeps_graph(self):
        x = np.random.default_rng(1).normal(size=(4, 2))
        result = dense_assignment_pool(constant(x), single_graph(path4()),
                                       constant(np.eye(4)))
        assert np.allclose(result.x.values, x)
        assert np.array_equal(sparse.to_dense(result.a), sparse.to_dense(path4()))

    def test_result_has_no_kept_set_or_scores(self):
        result = dense_assignment_pool(constant(np.eye(4)), single_graph(path4()),
                                       constant(np.full((4, 2), 0.5)))
        assert result.kept is None and result.scores is None

    def test_single_cluster_collapses_to_empty(self):
        result = dense_assignment_pool(
            constant(np.arange(4, dtype=np.float64).reshape(4, 1)), single_graph(path4()),
            constant(np.ones((4, 1))))
        assert np.array_equal(result.x.values, [[6.0]])  # column sum
        assert result.a.nnz == 0  # only entry was the dropped self-loop

    @staticmethod
    def _check_dense_oracle(rng, graphs, k):
        """Pool a batch under a random row-softmax S; compare with per-graph numpy."""
        batch = make_batch(graphs)
        logits = rng.normal(size=(batch.x.shape[0], k))
        s = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        result = dense_assignment_pool(constant(batch.x), batch, constant(s))
        sparse.validate(result.a)
        expected_a = np.zeros((len(graphs) * k, len(graphs) * k))
        expected_x = np.zeros((len(graphs) * k, 3))
        for g, graph in enumerate(graphs):
            s_g = s[batch.graph_id == g]
            block = s_g.T @ sparse.to_dense(graph.a) @ s_g
            np.fill_diagonal(block, 0.0)
            expected_a[g * k : (g + 1) * k, g * k : (g + 1) * k] = block
            expected_x[g * k : (g + 1) * k] = s_g.T @ graph.x
        got_a = sparse.to_dense(result.a)
        assert np.array_equal(got_a != 0, expected_a != 0)
        assert np.allclose(got_a, expected_a, rtol=1e-12, atol=0.0)
        assert np.allclose(result.x.values, expected_x, rtol=0.0, atol=1e-12)

    def test_random_assignment_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        seen = set()
        for _ in range(30):
            k = int(rng.integers(1, 6))
            graphs = []
            for _ in range(int(rng.integers(1, 5))):
                n = int(rng.integers(1, 9))
                ad = random_adjacency_dense(rng, n, p=0.5) * (rng.random() < 0.8)
                graphs.append(Graph(n, rng.normal(size=(n, 3)), sparse.from_dense(ad), 0))
                if n == 1:
                    seen.add("one-node")
                elif not ad.any():
                    seen.add("edgeless")
                if k > n:
                    seen.add("k > n")
            self._check_dense_oracle(rng, graphs, k)
        assert seen == {"one-node", "edgeless", "k > n"}

    def test_long_graphs_match_dense_oracle(self):
        rng = np.random.default_rng(3)
        graphs = [
            Graph(n, rng.normal(size=(n, 3)),
                  sparse.from_dense(random_adjacency_dense(rng, n, p=0.1)), 0)
            for n in (30, 37, 52, 80)
        ]
        for k in (1, 2, 13, 31, 40):  # 31 and 40 exceed some graph sizes
            self._check_dense_oracle(rng, graphs, k)

    def test_zero_clusters_rejected(self):
        with pytest.raises(ValueError):
            dense_assignment_pool(constant(np.eye(2)), single_graph(CsrMatrix.empty(2, 2)),
                                  constant(np.empty((2, 0))))


class TestLocalAssignmentValidation:
    def test_identity_is_local(self):
        validate_local_assignment(CsrMatrix.identity(4), path4())

    def test_full_one_hop_pattern_is_local(self):
        validate_local_assignment(sparse.add_self_loops(path4()), path4())

    def test_entry_outside_pattern_raises(self):
        # nodes 0 and 3 are not adjacent, nor are 1 and 3: the first is named
        s = CsrMatrix.from_coo(4, 4, [0, 1, 1], [3, 1, 3], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match=r"\(0, 3\)"):
            validate_local_assignment(s, path4())

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="equal-shaped"):
            validate_local_assignment(CsrMatrix.identity(3), path4())

    def test_pool_rejects_nonlocal_assignment(self):
        s = CsrMatrix.from_coo(4, 4, [0], [3], [1.0])
        with pytest.raises(ValueError, match=r"\(0, 3\)"):
            local_assignment_selection_pool(
                constant(np.eye(4)), single_graph(path4()), s,
                lambda *_: fixed_score([1.0] * 4), 0.5)


class TestLocalAssignmentSelection:
    def test_identity_assignment_equals_node_selection(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            ad = random_adjacency_dense(rng, n, p=0.4)
            x = rng.normal(size=(n, 3))
            score = linear_score(rng, 3)
            ratio = float(rng.choice([0.4, 0.7, 1.0]))
            stage = single_graph(sparse.from_dense(ad))
            via_identity = local_assignment_selection_pool(
                constant(x), stage, CsrMatrix.identity(n), score, ratio)
            direct = node_selection_pool(constant(x), stage, score(constant(x), stage), ratio)
            assert np.array_equal(via_identity.x.values, direct.x.values)
            assert sparse.equal(via_identity.a, direct.a)
            assert np.array_equal(via_identity.kept.indices, direct.kept.indices)

    def test_score_fn_scores_aggregated_features(self):
        # a weighted local S with off-diagonal entries, so S^T x != x
        rng = np.random.default_rng(14)
        graphs = [Graph(n, rng.normal(size=(n, 3)),
                        sparse.from_dense(random_adjacency_dense(rng, n, p=0.5)), 0)
                  for n in (7, 5)]
        batch = make_batch(graphs)
        star = sparse.add_self_loops(batch.a)
        assert star.nnz > batch.a.n_rows
        s = CsrMatrix(star.n_rows, star.n_cols, star.row_ptr, star.col_idx,
                      rng.uniform(0.1, 1.0, star.nnz))
        w = rng.normal(size=(3, 1))
        calls = []

        def score_fn(x_star, stage):
            calls.append((x_star.values, stage))
            return diff.matmul(x_star, constant(w))

        result = local_assignment_selection_pool(constant(batch.x), batch, s, score_fn, 0.5)
        x_star = sparse.to_dense(s).T @ batch.x
        assert len(calls) == 1
        seen_x, seen_stage = calls[0]
        np.testing.assert_allclose(seen_x, x_star, rtol=1e-12, atol=1e-12)
        assert seen_stage is batch
        h = seen_x @ w
        assert np.array_equal(result.scores.values, h)
        kept = topk(constant(h), batch, 0.5).indices
        assert np.array_equal(result.kept.indices, kept)
        assert np.array_equal(result.x.values, (seen_x * h)[kept])

    def test_endpoint_contributors_connect_on_path(self):
        # keeping only 0 and 3 of the path: their one-hop contributor sets
        # contain adjacent nodes 1 and 2, so the pooled pair gets an edge
        star = sparse.add_self_loops(path4())
        result = local_assignment_selection_pool(
            constant(np.eye(4)), single_graph(path4()), star,
            lambda *_: fixed_score([1.0, 0.0, 0.0, 1.0]), 0.5)
        assert np.array_equal(result.kept.indices, [0, 3])
        assert sparse.to_dense(result.a)[0, 1] != 0

    def test_original_edges_survive_with_nonzero_diagonal(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            ad = random_adjacency_dense(rng, n, p=0.4)
            a = sparse.from_dense(ad)
            star = sparse.add_self_loops(a)
            s = CsrMatrix(n, n, star.row_ptr, star.col_idx,
                          rng.uniform(0.1, 1.0, star.nnz))
            result = local_assignment_selection_pool(
                constant(rng.normal(size=(n, 2))), single_graph(a), s,
                linear_score(rng, 2), 0.6)
            kept = result.kept.indices
            pooled = sparse.to_dense(result.a) != 0
            original = ad[np.ix_(kept, kept)] != 0
            assert np.all(pooled[original])
            sd = sparse.to_dense(s)
            oracle = (sd.T @ ad @ sd)[np.ix_(kept, kept)]
            assert np.allclose(sparse.to_dense(result.a), oracle, atol=1e-12)


class TestLocalClusterSelection:
    def test_matches_assignment_route_with_full_pattern(self):
        # the assignment route, the cluster route and the literal three-hop
        # closure agree on directed graphs, an isolated node, |K| = 1 and
        # K = every node
        rng = np.random.default_rng(5)
        for trial in range(120):
            directed = trial % 2 == 1
            ratio = (0.5, 0.01, 1.0)[trial % 3]
            n = int(rng.integers(1, 21))
            ad = random_adjacency_dense(rng, n, p=0.35, directed=directed)
            if trial % 5 == 0:
                ad[n - 1, :] = ad[:, n - 1] = 0.0
            a = sparse.from_dense(ad)
            x = rng.normal(size=(n, 2))
            score = fixed_score(rng.normal(size=n))
            star = sparse.add_self_loops(a)
            via_assignment = local_assignment_selection_pool(
                constant(x), single_graph(a), star, lambda *_: score, ratio)
            via_cluster = lcpool(diff.spmm_const(sparse.transpose(star), constant(x)),
                                 single_graph(a), score, ratio)
            kept = via_cluster.kept
            assert len(kept) == kept_count(ratio, n)
            assert np.array_equal(via_assignment.kept.indices, kept.indices)
            lhs = sparse.strip_diagonal(sparse.ones_pattern(via_assignment.a))
            assert sparse.equal(lhs, via_cluster.a)
            closure = sparse.hop_closure(a, symmetric=not directed)
            literal = sparse.strip_diagonal(sparse.select_rows_cols(closure, kept))
            assert sparse.equal(literal, via_cluster.a)

    def test_path_endpoints_reconnect_within_three_hops(self):
        result = lcpool(constant(np.eye(4)), single_graph(path4()),
                        fixed_score([1.0, 0.0, 0.0, 1.0]), 0.5)
        assert np.array_equal(result.kept.indices, [0, 3])
        assert np.array_equal(sparse.to_dense(result.a), [[0, 1], [1, 0]])

    def test_weighted_adjacency_rejected(self):
        weighted = CsrMatrix.from_coo(2, 2, [0, 1], [1, 0], [2.0, 2.0])
        with pytest.raises(ValueError, match="unweighted"):
            lcpool(constant(np.eye(2)), single_graph(weighted), fixed_score([1.0, 0.0]), 1.0)


class TestClosureRoutes:
    """The two routes to the pooled closure pattern, called directly."""

    @staticmethod
    def _stages(batch, ratio, seed, stages=3):
        """(stage, kept, kept extents) of each stage of a chain of pools on
        random scores."""
        rng = np.random.default_rng(seed)
        stage = batch
        for _ in range(stages):
            kept = topk(fixed_score(rng.normal(size=stage.a.n_rows)), stage, ratio)
            gid = stage.graph_id[kept.indices]
            kept_bounds = sparse.row_extents(gid, stage.bounds.size - 1)
            yield stage, kept, kept_bounds
            stage = Stage(pooling._closure_by_sparse(stage.a, kept), kept_bounds)

    def _assert_routes_agree(self, batch, ratio, seed):
        for stage, kept, kept_bounds in self._stages(batch, ratio, seed):
            by_blocks = pooling._closure_by_blocks(stage, kept, kept_bounds)
            sparse.validate(by_blocks)
            assert sparse.equal(by_blocks, pooling._closure_by_sparse(stage.a, kept))

    @staticmethod
    def _random_graphs(rng, sizes, p, directed):
        return [Graph(int(n), rng.normal(size=(int(n), 2)),
                      sparse.from_dense(random_adjacency_dense(rng, int(n), p, directed)), 0)
                for n in sizes]

    @staticmethod
    def _mixed_batch(rng):
        """One 620-node and one 350-node ring-plus-chord graph and 30 desk graphs."""
        graphs = []
        for n in (620, 350):
            ad = np.zeros((n, n), dtype=bool)
            ring = np.arange(n)
            ad[ring, (ring + 1) % n] = True
            u, v = rng.integers(0, n, size=(2, n // 2))
            ad[u, v] = True
            ad |= ad.T
            np.fill_diagonal(ad, False)
            graphs.append(Graph(n, rng.normal(size=(n, 1)),
                                sparse.from_dense(ad.astype(np.float64)), 0))
        return make_batch(graphs + make_synthetic("two_communities", 30, seed=4).graphs)

    @pytest.mark.parametrize("kind", ["two_communities", "cycles_vs_paths"])
    @pytest.mark.parametrize("ratio", [0.1, 0.5, 1.0])
    def test_desk_batches_agree_at_every_stage(self, kind, ratio):
        data = make_synthetic(kind, 64, seed=3)
        for lo in (0, 32):
            self._assert_routes_agree(make_batch(data.graphs[lo : lo + 32]), ratio, lo)

    @pytest.mark.parametrize("ratio", [0.1, 0.5, 1.0])
    def test_directed_edgeless_and_single_node_graphs_agree(self, ratio):
        rng = np.random.default_rng(14)
        for trial in range(6):
            sizes = rng.integers(1, 21, size=12)
            sizes[:3] = 1
            graphs = self._random_graphs(rng, sizes, 0.3, directed=True)
            graphs += self._random_graphs(rng, [1, 7, 15], 0.0, directed=True)  # edgeless
            graphs += self._random_graphs(rng, [9, 4], 0.5, directed=False)
            order = rng.permutation(len(graphs))
            self._assert_routes_agree(make_batch([graphs[i] for i in order]), ratio, trial)

    def test_mixed_long_and_desk_batch_agrees(self):
        self._assert_routes_agree(self._mixed_batch(np.random.default_rng(15)), 0.5, 0)

    @staticmethod
    def _routes_taken(monkeypatch, batch, stages):
        taken = []

        def recorded(name):
            route = getattr(pooling, name)

            def call(*args):
                taken.append(name)
                return route(*args)
            return call

        for name in ("_closure_by_sparse", "_closure_by_blocks"):
            monkeypatch.setattr(pooling, name, recorded(name))
        rng = np.random.default_rng(16)
        x, stage = constant(batch.x), batch
        for _ in range(stages):
            stage = lcpool(x, stage, fixed_score(rng.normal(size=stage.a.n_rows)), 0.5)
            x = stage.x
        return taken

    @pytest.mark.parametrize("kind", ["two_communities", "cycles_vs_paths"])
    def test_desk_batch_takes_the_blocks_at_every_stage(self, monkeypatch, kind):
        batch = make_batch(make_synthetic(kind, 32, seed=5).graphs)
        assert self._routes_taken(monkeypatch, batch, 3) == ["_closure_by_blocks"] * 3

    def test_mixed_batch_takes_the_sparse_route_at_stage_zero(self, monkeypatch):
        batch = self._mixed_batch(np.random.default_rng(15))
        assert self._routes_taken(monkeypatch, batch, 1) == ["_closure_by_sparse"]

    def test_stage_failing_the_fill_rule_takes_the_sparse_route(self, monkeypatch):
        n = 161
        ring = np.arange(n)
        cols = np.concatenate([(ring + step) % n for step in (1, -1, 2, -2)])
        circulant = CsrMatrix.from_coo(n, n, np.tile(ring, 4), cols, np.ones(4 * n))  # C_161(1, 2)
        batch = make_batch([Graph(n, np.ones((n, 1)), circulant, label) for label in (0, 1)])
        assert not batch.by_blocks  # G m^2 = 2 * 161^2 > 32 * (4 * 322 + 322)
        assert self._routes_taken(monkeypatch, batch, 1) == ["_closure_by_sparse"]
        assert "a_blocks" not in vars(batch)

    @pytest.mark.parametrize("blocks", [False, True])
    def test_edge_joining_two_graphs_rejected_on_either_route(self, monkeypatch, blocks):
        batch = make_batch([Graph(4, np.eye(4), path4(), 0), Graph(4, np.eye(4), path4(), 1)])
        a = batch.a
        joined = CsrMatrix.from_coo(8, 8, np.append(sparse.row_indices(a), 2),
                                    np.append(a.col_idx, 5), np.ones(a.nnz + 1))
        monkeypatch.setattr(Stage, "by_blocks", property(lambda _: blocks))
        # the stage's one check rejects the edge whichever closure route the rule picks
        with pytest.raises(ValueError, match=r"entry \(2, 5\) joins graphs 0 and 1"):
            lcpool(constant(batch.x), Stage.of(joined, batch.graph_id),
                   fixed_score(np.arange(8.0)), 0.5)


class TestLcPool:
    def _scorer(self, dim, seed=0, hidden=None):
        rng = np.random.default_rng(seed)
        scorer = Lcsmp(dim, rng, "s", hidden=hidden)
        for p in scorer.parameters():
            p.tensor.values = rng.normal(size=p.tensor.shape)
        return scorer

    def test_ratio_one_gates_and_closes(self):
        rng = np.random.default_rng(6)
        x = constant(rng.normal(size=(4, 2)))
        scorer = self._scorer(2)
        stage = single_graph(path4())
        h = scorer(x, stage)
        result = lcpool(x, stage, h, 1.0)
        assert abs(h.values.sum() - 1.0) < 1e-12
        assert np.allclose(result.x.values, x.values * h.values)
        assert np.array_equal(result.kept.indices, np.arange(4))
        closure = sparse.strip_diagonal(sparse.hop_closure(path4(), symmetric=True))
        assert sparse.equal(result.a, closure)

    def test_uniform_cycle_keeps_prefix_and_forms_triangle(self):
        scorer = self._scorer(1, seed=1)
        x = constant(np.ones((6, 1)))
        stage = single_graph(cycle(6))
        result = lcpool(x, stage, scorer(x, stage), 0.5)
        # identical features on a regular graph give uniform scores: tie-break
        assert np.array_equal(result.kept.indices, [0, 1, 2])
        assert np.array_equal(sparse.to_dense(result.a),
                              np.ones((3, 3)) - np.eye(3))

    def test_directed_adjacency_gets_the_general_closure(self):
        rng = np.random.default_rng(12)
        scorer = self._scorer(2, seed=3)
        conv = GcnConv(2, 2, rng, "v")
        asymmetric = 0
        for _ in range(40):
            n = int(rng.integers(1, 15))
            a = sparse.from_dense(random_adjacency_dense(rng, n, p=0.35, directed=True))
            asymmetric += not sparse.is_symmetric(a)
            x = constant(rng.normal(size=(n, 2)))
            stage = single_graph(a)
            closure = sparse.hop_closure(a, symmetric=False)
            for result in (lcpool(x, stage, scorer(x, stage), 0.5),
                           lcpool_star(x, stage, conv, scorer, 0.5)):
                want = sparse.strip_diagonal(sparse.select_rows_cols(closure, result.kept))
                assert sparse.equal(result.a, want)
        assert asymmetric > 30

    def test_gradients_flow_through_gating(self):
        from graphpool.selfcheck import gradient_max_rel_err
        rng = np.random.default_rng(7)
        scorer = self._scorer(2, seed=2, hidden=3)
        ad = random_adjacency_dense(rng, 6, p=0.5)
        x = constant(rng.normal(size=(6, 2)))
        proj = rng.normal(size=(3, 2))

        def builder():
            stage = single_graph(sparse.from_dense(ad))
            result = lcpool(x, stage, scorer(x, stage), 0.5)
            return diff.sum_all(diff.mul(result.x, constant(proj)))

        tensors = [p.tensor for p in scorer.parameters()]
        assert gradient_max_rel_err(builder, tensors) < 1e-4


class TestLcPoolStar:
    def test_single_node_reduces_to_plain_variant(self):
        rng = np.random.default_rng(8)
        conv = GcnConv(2, 2, rng, "v")
        conv.linear.weight.tensor.values = np.eye(2)  # degree-1 node: v is the identity
        scorer = Lcsmp(2, rng, "s")
        x = constant([[1.5, -0.5]])
        a = CsrMatrix.empty(1, 1)
        stage = single_graph(a)
        starred = lcpool_star(x, stage, conv, scorer, 1.0)
        plain = lcpool(x, stage, scorer(x, stage), 1.0)
        assert np.allclose(starred.x.values, plain.x.values)

    def test_same_kept_set_gives_same_adjacency_pattern(self):
        rng = np.random.default_rng(9)
        ad = random_adjacency_dense(rng, 8, p=0.4)
        x = rng.normal(size=(8, 2))
        conv = GcnConv(2, 2, rng, "v")
        scorer = Lcsmp(2, rng, "s")
        stage = single_graph(sparse.from_dense(ad))
        starred = lcpool_star(constant(x), stage, conv, scorer, 0.5)
        plain = lcpool(constant(x), stage, fixed_score(starred.scores.values.ravel()), 0.5)
        assert np.array_equal(starred.kept.indices, plain.kept.indices)
        assert sparse.equal(starred.a, plain.a)

    def test_gradients_reach_cluster_conv_and_scorer(self):
        from graphpool.selfcheck import gradient_max_rel_err
        rng = np.random.default_rng(10)
        conv = GcnConv(2, 2, rng, "v")
        scorer = Lcsmp(2, rng, "s", hidden=3)
        for p in conv.parameters() + scorer.parameters():
            p.tensor.values = rng.normal(size=p.tensor.shape)
        ad = random_adjacency_dense(rng, 6, p=0.5)
        x = constant(rng.normal(size=(6, 2)))
        proj = rng.normal(size=(3, 2))

        def builder():
            result = lcpool_star(x, single_graph(sparse.from_dense(ad)), conv, scorer, 0.5)
            return diff.sum_all(diff.mul(result.x, constant(proj)))

        tensors = [p.tensor for p in conv.parameters() + scorer.parameters()]
        assert gradient_max_rel_err(builder, tensors) < 1e-4


class TestBatchBehaviour:
    def _graphs(self, rng, sizes):
        graphs = []
        for n in sizes:
            ad = random_adjacency_dense(rng, n, p=0.5)
            graphs.append(Graph(n, rng.normal(size=(n, 2)), sparse.from_dense(ad), 0))
        return graphs

    def test_batch_equals_per_graph_pooling(self):
        rng = np.random.default_rng(11)
        scorer = Lcsmp(2, rng, "s")
        for p in scorer.parameters():
            p.tensor.values = rng.normal(size=p.tensor.shape)
        graphs = self._graphs(rng, [5, 3, 7])
        batch = make_batch(graphs)
        x = constant(batch.x)
        pooled = lcpool(x, batch, scorer(x, batch), 0.5)
        offset = kept_offset = 0
        for g in graphs:
            x, stage = constant(g.x), single_graph(g.a)
            single = lcpool(x, stage, scorer(x, stage), 0.5)
            k = len(single.kept)
            np.testing.assert_allclose(
                pooled.x.values[kept_offset : kept_offset + k], single.x.values,
                atol=1e-12)
            assert np.array_equal(
                pooled.kept.indices[kept_offset : kept_offset + k] - offset,
                single.kept.indices)
            block = sparse.select_rows_cols(
                pooled.a, IndexSet(np.arange(kept_offset, kept_offset + k)))
            assert sparse.equal(block, single.a)
            offset += g.num_nodes
            kept_offset += k

    def test_permuting_nodes_permutes_the_pooled_graph(self):
        rng = np.random.default_rng(12)
        scorer = Lcsmp(2, rng, "s")
        for p in scorer.parameters():
            p.tensor.values = rng.normal(size=p.tensor.shape)
        for _ in range(10):
            ad = random_adjacency_dense(rng, 8, p=0.4)
            x = rng.normal(size=(8, 2))
            perm = rng.permutation(8)
            stage = single_graph(sparse.from_dense(ad))
            base = lcpool(constant(x), stage, scorer(constant(x), stage), 0.5)
            stage = single_graph(sparse.from_dense(ad[np.ix_(perm, perm)]))
            permuted = lcpool(constant(x[perm]), stage, scorer(constant(x[perm]), stage), 0.5)
            # kept identities map through the permutation
            kept_original = set(perm[permuted.kept.indices].tolist())
            assert kept_original == set(base.kept.indices.tolist())
            # pooled graphs are isomorphic: compare canonical edge lists
            def canonical(result, node_names):
                rows = sparse.row_indices(result.a)
                names = np.asarray(node_names)[result.kept.indices]
                return sorted(zip(names[rows], names[result.a.col_idx]))
            assert canonical(base, np.arange(8)) == canonical(permuted, perm)

    def test_size_adaptivity_across_ratios(self):
        rng = np.random.default_rng(13)
        for ratio in (0.2, 0.5, 0.9, 1.0):
            graphs = self._graphs(rng, list(rng.integers(1, 11, size=4)))
            batch = make_batch(graphs)
            scorer = Lcsmp(2, rng, "s")
            x = constant(batch.x)
            result = lcpool(x, batch, scorer(x, batch), ratio)
            counts = np.bincount(result.graph_id, minlength=len(graphs))
            expected = [kept_count(ratio, g.num_nodes) for g in graphs]
            assert np.array_equal(counts, expected)
