import numpy as np
import pytest

from helpers import cycle, path4, random_adjacency_dense
from graphpool import diff, sparse
from graphpool.dataset import Graph, make_batch
from graphpool.diff import constant
from graphpool.layers import GcnConv, Lcsmp
from graphpool.pooling import (
    dense_assignment_pool,
    kept_count,
    lcpool,
    lcpool_star,
    local_assignment_selection_pool,
    local_cluster_selection_pool,
    node_selection_pool,
    topk,
    validate_local_assignment,
)
from graphpool.sparse import CsrMatrix, IndexSet


def fixed_score(values):
    return constant(np.asarray(values, dtype=np.float64).reshape(-1, 1))


def linear_score(rng, dim):
    w = rng.normal(size=(dim, 1))
    return lambda x, a, gid: diff.matmul(x, constant(w))


def single_graph_ids(n):
    return np.zeros(n, dtype=np.int64)


class TestTopk:
    def test_half_of_four(self):
        h = constant([[0.5], [0.1], [0.9], [0.3]])
        kept = topk(h, single_graph_ids(4), 0.5)
        assert np.array_equal(kept.indices, [0, 2])

    def test_ratio_one_keeps_all(self):
        h = constant([[0.5], [0.1], [0.9], [0.3]])
        assert np.array_equal(topk(h, single_graph_ids(4), 1.0).indices, np.arange(4))

    def test_floor_protection(self):
        h = constant([[1.0], [2.0], [3.0], [9.0]])
        kept = topk(h, np.array([0, 0, 0, 1]), 0.5)
        assert np.array_equal(np.bincount(np.array([0, 0, 0, 1])[kept.indices]), [2, 1])

    def test_tie_break_prefers_lower_index(self):
        h = constant([[1.0], [1.0], [1.0], [1.0]])
        kept = topk(h, single_graph_ids(4), 0.5)
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
            kept = topk(constant(s[:, None]), gid, ratio)
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
        result = node_selection_pool(constant(x), path4(), fixed_score([2.0] * 4), 1.0,
                                     single_graph_ids(4))
        assert np.array_equal(result.x.values, 2.0 * x)
        assert sparse.equal(result.a, path4())

    def test_keep_middle_pair_leaves_one_edge(self):
        result = node_selection_pool(
            constant(np.eye(4)), path4(), fixed_score([0.0, 1.0, 1.0, 0.0]), 0.5,
            single_graph_ids(4))
        assert np.array_equal(result.kept.indices, [1, 2])
        assert np.array_equal(sparse.to_dense(result.a), [[0, 1], [1, 0]])

    def test_keep_endpoints_loses_all_edges(self):
        result = node_selection_pool(
            constant(np.eye(4)), path4(), fixed_score([1.0, 0.0, 0.0, 1.0]), 0.5,
            single_graph_ids(4))
        assert np.array_equal(result.kept.indices, [0, 3])
        assert result.a.nnz == 0


class TestDenseAssignment:
    def test_identity_assignment_keeps_graph(self):
        x = np.random.default_rng(1).normal(size=(4, 2))
        result = dense_assignment_pool(constant(x), path4(), constant(np.eye(4)),
                                       single_graph_ids(4))
        assert np.allclose(result.x.values, x)
        assert np.array_equal(sparse.to_dense(result.a), sparse.to_dense(path4()))

    def test_single_cluster_collapses_to_empty(self):
        result = dense_assignment_pool(
            constant(np.arange(4, dtype=np.float64).reshape(4, 1)), path4(),
            constant(np.ones((4, 1))), single_graph_ids(4))
        assert np.array_equal(result.x.values, [[6.0]])  # column sum
        assert result.a.nnz == 0  # only entry was the dropped self-loop

    @staticmethod
    def _check_dense_oracle(rng, graphs, k):
        """Pool a batch under a random row-softmax S; compare with per-graph numpy."""
        batch = make_batch(graphs)
        logits = rng.normal(size=(batch.x.shape[0], k))
        s = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        result = dense_assignment_pool(
            constant(batch.x), batch.a, constant(s), batch.graph_id)
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
            dense_assignment_pool(constant(np.eye(2)), CsrMatrix.empty(2, 2),
                                  constant(np.empty((2, 0))), single_graph_ids(2))


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
                constant(np.eye(4)), path4(), s,
                lambda *_: fixed_score([1.0] * 4), 0.5, single_graph_ids(4))


class TestLocalAssignmentSelection:
    def test_identity_assignment_equals_node_selection(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            ad = random_adjacency_dense(rng, n, p=0.4)
            x = rng.normal(size=(n, 3))
            score = linear_score(rng, 3)
            ratio = float(rng.choice([0.4, 0.7, 1.0]))
            a = sparse.from_dense(ad)
            via_identity = local_assignment_selection_pool(
                constant(x), a, CsrMatrix.identity(n), score, ratio, single_graph_ids(n))
            direct = node_selection_pool(constant(x), a,
                                         score(constant(x), a, single_graph_ids(n)),
                                         ratio, single_graph_ids(n))
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

        def score_fn(x_star, a, gid):
            calls.append((x_star.values, a, np.asarray(gid)))
            return diff.matmul(x_star, constant(w))

        result = local_assignment_selection_pool(
            constant(batch.x), batch.a, s, score_fn, 0.5, batch.graph_id)
        x_star = sparse.to_dense(s).T @ batch.x
        assert len(calls) == 1
        seen_x, seen_a, seen_gid = calls[0]
        np.testing.assert_allclose(seen_x, x_star, rtol=1e-12, atol=1e-12)
        assert seen_a is batch.a
        assert np.array_equal(seen_gid, batch.graph_id)
        h = seen_x @ w
        assert np.array_equal(result.scores.values, h)
        kept = topk(constant(h), batch.graph_id, 0.5).indices
        assert np.array_equal(result.kept.indices, kept)
        assert np.array_equal(result.x.values, (seen_x * h)[kept])

    def test_endpoint_contributors_connect_on_path(self):
        # keeping only 0 and 3 of the path: their one-hop contributor sets
        # contain adjacent nodes 1 and 2, so the pooled pair gets an edge
        star = sparse.add_self_loops(path4())
        result = local_assignment_selection_pool(
            constant(np.eye(4)), path4(), star,
            lambda *_: fixed_score([1.0, 0.0, 0.0, 1.0]), 0.5, single_graph_ids(4))
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
                constant(rng.normal(size=(n, 2))), a, s,
                linear_score(rng, 2), 0.6, single_graph_ids(n))
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
                constant(x), a, star, lambda *_: score, ratio, single_graph_ids(n))
            via_cluster = local_cluster_selection_pool(
                diff.spmm_const(sparse.transpose(star), constant(x)), a,
                score, ratio, single_graph_ids(n))
            kept = via_cluster.kept
            assert len(kept) == kept_count(ratio, n)
            assert np.array_equal(via_assignment.kept.indices, kept.indices)
            lhs = sparse.strip_diagonal(sparse.ones_pattern(via_assignment.a))
            assert sparse.equal(lhs, via_cluster.a)
            closure = sparse.hop_closure(a, symmetric=not directed)
            literal = sparse.strip_diagonal(sparse.select_rows_cols(closure, kept))
            assert sparse.equal(literal, via_cluster.a)

    def test_path_endpoints_reconnect_within_three_hops(self):
        result = local_cluster_selection_pool(
            constant(np.eye(4)), path4(),
            fixed_score([1.0, 0.0, 0.0, 1.0]), 0.5, single_graph_ids(4))
        assert np.array_equal(result.kept.indices, [0, 3])
        assert np.array_equal(sparse.to_dense(result.a), [[0, 1], [1, 0]])

    def test_weighted_adjacency_rejected(self):
        weighted = CsrMatrix.from_coo(2, 2, [0, 1], [1, 0], [2.0, 2.0])
        with pytest.raises(ValueError, match="unweighted"):
            local_cluster_selection_pool(
                constant(np.eye(2)), weighted,
                fixed_score([1.0, 0.0]), 1.0, single_graph_ids(2))


class TestLcPool:
    def _scorer(self, dim, seed=0, hidden=None):
        rng = np.random.default_rng(seed)
        scorer = Lcsmp(dim, rng, "s", hidden=hidden)
        for p in scorer.parameters():
            p.tensor.values = rng.normal(size=p.tensor.shape)
        return scorer

    def test_ratio_one_gates_and_closes(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 2))
        scorer = self._scorer(2)
        result = lcpool(constant(x), path4(), scorer, 1.0, single_graph_ids(4))
        h = scorer(constant(x), path4(), single_graph_ids(4)).values
        assert abs(h.sum() - 1.0) < 1e-12
        assert np.allclose(result.x.values, x * h)
        assert np.array_equal(result.kept.indices, np.arange(4))
        closure = sparse.strip_diagonal(sparse.hop_closure(path4(), symmetric=True))
        assert sparse.equal(result.a, closure)

    def test_uniform_cycle_keeps_prefix_and_forms_triangle(self):
        scorer = self._scorer(1, seed=1)
        x = np.ones((6, 1))
        result = lcpool(constant(x), cycle(6), scorer, 0.5, single_graph_ids(6))
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
            closure = sparse.hop_closure(a, symmetric=False)
            for result in (lcpool(x, a, scorer, 0.5, single_graph_ids(n)),
                           lcpool_star(x, a, conv, scorer, 0.5, single_graph_ids(n))):
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
            result = lcpool(x, sparse.from_dense(ad), scorer, 0.5, single_graph_ids(6))
            return diff.sum_all(diff.mul(result.x, constant(proj)))

        tensors = [p.tensor for p in scorer.parameters()]
        assert gradient_max_rel_err(builder, tensors) < 1e-4


class TestLcPoolStar:
    def test_single_node_reduces_to_plain_variant(self):
        rng = np.random.default_rng(8)
        conv = GcnConv(2, 2, rng, "v")
        conv.weight.tensor.values = np.eye(2)  # degree-1 node: v is the identity
        scorer = Lcsmp(2, rng, "s")
        x = constant([[1.5, -0.5]])
        a = CsrMatrix.empty(1, 1)
        starred = lcpool_star(x, a, conv, scorer, 1.0, single_graph_ids(1))
        plain = lcpool(x, a, scorer, 1.0, single_graph_ids(1))
        assert np.allclose(starred.x.values, plain.x.values)

    def test_same_kept_set_gives_same_adjacency_pattern(self):
        rng = np.random.default_rng(9)
        ad = random_adjacency_dense(rng, 8, p=0.4)
        x = rng.normal(size=(8, 2))
        conv = GcnConv(2, 2, rng, "v")
        scorer = Lcsmp(2, rng, "s")
        starred = lcpool_star(constant(x), sparse.from_dense(ad), conv, scorer, 0.5,
                              single_graph_ids(8))
        plain = local_cluster_selection_pool(
            constant(x), sparse.from_dense(ad),
            fixed_score(starred.scores.values.ravel()), 0.5, single_graph_ids(8))
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
            result = lcpool_star(x, sparse.from_dense(ad), conv, scorer, 0.5,
                                 single_graph_ids(6))
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
        pooled = lcpool(constant(batch.x), batch.a, scorer, 0.5, batch.graph_id)
        offset = kept_offset = 0
        for g in graphs:
            single = lcpool(constant(g.x), g.a, scorer, 0.5, single_graph_ids(g.num_nodes))
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
            base = lcpool(constant(x), sparse.from_dense(ad), scorer, 0.5,
                          single_graph_ids(8))
            permuted = lcpool(constant(x[perm]), sparse.from_dense(ad[np.ix_(perm, perm)]),
                              scorer, 0.5, single_graph_ids(8))
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
            result = lcpool(constant(batch.x), batch.a, scorer, ratio, batch.graph_id)
            counts = np.bincount(result.graph_id, minlength=len(graphs))
            expected = [kept_count(ratio, g.num_nodes) for g in graphs]
            assert np.array_equal(counts, expected)
