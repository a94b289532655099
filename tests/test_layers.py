import numpy as np
import pytest

from helpers import cycle, edgeless, path4, random_adjacency_dense, single_graph
from graphpool import dataset, diff, harness, pooling, sparse
from graphpool.diff import Parameter, Tape, Tensor, backward, constant
from graphpool.layers import (
    GcnConv,
    GraphConv,
    Lcsmp,
    Linear,
    Mlp,
    Module,
    Stage,
    gcn_normalized,
    readout,
)
from graphpool.selfcheck import laplacian, laplacian_score
from graphpool.sparse import CsrMatrix


def star3():
    """Centre node 0 connected to nodes 1 and 2."""
    return sparse.from_dense(np.array([
        [0, 1, 1], [1, 0, 0], [1, 0, 0],
    ], dtype=np.float64))


def set_weight(layer, w, b=None):
    layer.weight.tensor.values = np.asarray(w, dtype=np.float64)
    if b is not None and layer.bias is not None:
        layer.bias.tensor.values = np.asarray(b, dtype=np.float64)


class TestModule:
    def test_parameters_are_listed_in_attribute_order(self):
        rng = np.random.default_rng(0)

        class Holder(Module):
            def __init__(self):
                self.own = Parameter("own", np.zeros((1, 1)))
                self.late = None
                self.missing = None
                self.ratio = 0.5
                self.items = [Parameter("listed", np.zeros((1, 1))), None]
                self.sub = Linear(2, 1, rng, "sub")

        holder = Holder()
        holder.late = Parameter("late", np.zeros((1, 1)))
        assert [p.name for p in holder.parameters()] == [
            "own", "late", "listed", "sub.w", "sub.b",
        ]


class TestGcnConv:
    def test_single_node_identity_weight(self):
        conv = GcnConv(2, 2, np.random.default_rng(0), "c")
        conv.linear.weight.tensor.values = np.eye(2)
        x = constant([[3.0, -1.0]])
        out = conv(x, single_graph(CsrMatrix.empty(1, 1)))
        assert np.allclose(out.values, x.values)  # degree 1 normalization

    def test_connected_pair_symmetry(self):
        conv = GcnConv(2, 3, np.random.default_rng(1), "c")
        a = sparse.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        out = conv(constant([[1.0, 2.0], [1.0, 2.0]]), single_graph(a))
        assert np.allclose(out.values[0], out.values[1])

    def test_path_matches_dense_normalization_oracle(self):
        conv = GcnConv(1, 1, np.random.default_rng(2), "c")
        conv.linear.weight.tensor.values = np.array([[1.0]])
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        a_hat = sparse.to_dense(path4()) + np.eye(4)
        d_inv = np.diag(1.0 / np.sqrt(a_hat.sum(axis=1)))
        expected = d_inv @ a_hat @ d_inv @ x
        out = conv(constant(x), single_graph(path4()))
        assert np.allclose(out.values, expected, atol=1e-12)

    def test_weight_is_the_first_draw(self):
        conv = GcnConv(3, 2, np.random.default_rng(6), "c")
        bound = 1.0 / np.sqrt(3.0)
        expected = np.random.default_rng(6).uniform(-bound, bound, (2, 3))
        assert [p.name for p in conv.parameters()] == ["c.w"]
        assert np.array_equal(conv.linear.weight.tensor.values, expected)

    def test_normalized_adjacency_rows(self):
        norm = gcn_normalized(path4())
        # endpoint row: self 1/2, neighbour 1/sqrt(2*3)
        dense = sparse.to_dense(norm)
        assert abs(dense[0, 0] - 0.5) < 1e-12
        assert abs(dense[0, 1] - 1.0 / np.sqrt(6.0)) < 1e-12


class TestGraphConv:
    def test_root_then_neighbour_draws(self):
        conv = GraphConv(3, 2, np.random.default_rng(6), "c")
        bound = 1.0 / np.sqrt(3.0)
        rng = np.random.default_rng(6)
        root, nbr = (rng.uniform(-bound, bound, (2, 3)) for _ in range(2))
        assert [p.name for p in conv.parameters()] == ["c.root.w", "c.nbr.w"]
        assert np.array_equal(conv.root.weight.tensor.values, root)
        assert np.array_equal(conv.nbr.weight.tensor.values, nbr)

    def test_isolated_node_keeps_own_transform(self):
        conv = GraphConv(2, 2, np.random.default_rng(3), "c")
        x = constant([[1.0, 2.0]])
        out = conv(x, single_graph(CsrMatrix.empty(1, 1)))
        assert np.allclose(out.values, x.values @ conv.root.weight.tensor.values.T)

    def test_swap_on_pair(self):
        conv = GraphConv(2, 2, np.random.default_rng(4), "c")
        conv.root.weight.tensor.values = np.zeros((2, 2))
        conv.nbr.weight.tensor.values = np.eye(2)
        a = sparse.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = conv(constant(x), single_graph(a))
        assert np.array_equal(out.values, x[::-1])

    def test_random_graph_matches_dense_oracle(self):
        rng = np.random.default_rng(5)
        conv = GraphConv(3, 2, rng, "c")
        ad = random_adjacency_dense(rng, 5, p=0.5)
        x = rng.normal(size=(5, 3))
        expected = x @ conv.root.weight.tensor.values.T + ad @ x @ conv.nbr.weight.tensor.values.T
        out = conv(constant(x), single_graph(sparse.from_dense(ad)))
        assert np.allclose(out.values, expected, atol=1e-12)


class TestLaplacianScore:
    def test_constant_features_score_zero(self):
        w = Parameter("w", np.ones((1, 3)))
        scores = laplacian_score(constant(np.full((6, 3), 2.5)), cycle(6), w)
        assert np.array_equal(scores.values, np.zeros((6, 1)))

    def test_star_centre_differences_cancel(self):
        # neighbours 0 and 2 average to the centre value 1: score exactly 0
        w = Parameter("w", np.ones((1, 1)))
        scores = laplacian_score(constant([[1.0], [0.0], [2.0]]), star3(), w)
        assert scores.values[0, 0] == 0.0

    def test_pair_scores(self):
        w = Parameter("w", np.ones((1, 1)))
        a = sparse.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        scores = laplacian_score(constant([[0.0], [1.0]]), a, w)
        assert np.array_equal(scores.values, [[-1.0], [1.0]])

    def test_laplacian_matrix(self):
        lap = sparse.to_dense(laplacian(path4()))
        ad = sparse.to_dense(path4())
        assert np.array_equal(lap, np.diag(ad.sum(axis=1)) - ad)


class TestLcsmp:
    def test_identical_features_uniform_scores(self):
        rng = np.random.default_rng(6)
        scorer = Lcsmp(2, rng, "s")
        for p in scorer.parameters():
            p.tensor.values = rng.normal(size=p.tensor.shape)
        h = scorer(constant(np.full((6, 2), 1.5)), single_graph(cycle(6)))
        assert np.allclose(h.values, 1.0 / 6.0, atol=1e-12)

    def test_scores_sum_to_one_per_graph(self):
        rng = np.random.default_rng(7)
        scorer = Lcsmp(3, rng, "s")
        from graphpool.dataset import make_batch, make_synthetic
        batch = make_batch(make_synthetic("two_communities", 4, seed=2).graphs)
        x = constant(np.hstack([batch.x, rng.normal(size=(batch.x.shape[0], 2))]))
        h = scorer(x, batch).values.ravel()
        sums = np.bincount(batch.graph_id, weights=h)
        assert np.all(np.abs(sums - 1.0) < 1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        scorer = Lcsmp(3, rng, "s")
        for p in scorer.parameters():
            p.tensor.values = rng.normal(size=p.tensor.shape)
        for _ in range(10):
            ad = random_adjacency_dense(rng, 8, p=0.4)
            x = rng.normal(size=(8, 3))
            perm = rng.permutation(8)
            base = scorer.pre_softmax(constant(x), sparse.from_dense(ad)).values
            permuted = scorer.pre_softmax(
                constant(x[perm]), sparse.from_dense(ad[np.ix_(perm, perm)])
            ).values
            assert np.allclose(permuted, base[perm], atol=1e-10)

    def test_gradients_reach_all_four_layers(self):
        from graphpool.selfcheck import gradient_max_rel_err
        rng = np.random.default_rng(9)
        scorer = Lcsmp(2, rng, "s", hidden=3)
        for p in scorer.parameters():
            p.tensor.values = rng.normal(size=p.tensor.shape)
        ad = random_adjacency_dense(rng, 6, p=0.5)
        x = constant(rng.normal(size=(6, 2)))
        stage = single_graph(sparse.from_dense(ad))
        proj = rng.normal(size=(6, 1))

        def builder():
            return diff.sum_all(diff.mul(scorer(x, stage), constant(proj)))

        tensors = [p.tensor for p in scorer.parameters()]
        assert gradient_max_rel_err(builder, tensors) < 1e-4


def reference_pre_softmax(scorer, x, a):
    """Lcsmp written literally: relu(L_d(x_i - x_k)) on every gathered edge row,
    summed into node i, then L_fd, L_x and L_s as in the layer.  x_i - x_k is
    x_i + (-1 * x_k), the same bits in IEEE arithmetic."""
    targets = sparse.row_indices(a)
    minus_one = constant(-np.ones((a.nnz, 1)))
    minus_x_k = diff.broadcast_col(diff.gather_rows(x, a.col_idx), minus_one)
    diffs = diff.add(diff.gather_rows(x, targets), minus_x_k)
    messages = diff.relu(scorer.l_diff(diffs))
    agg = diff.scatter_sum(messages, targets, x.rows)
    hidden = diff.add(diff.relu(scorer.l_agg(agg)), diff.relu(scorer.l_self(x)))
    return scorer.l_score(hidden)


def rel_err(got, want):
    """Largest entrywise difference relative to the largest reference entry."""
    return float(np.abs(got - want).max() / np.abs(want).max())


def reference_batch(rng, dim):
    """Random graphs, one with an isolated node, and a 150-leaf hub with chords."""
    graphs = []
    for n in (7, 12):
        a = sparse.from_dense(random_adjacency_dense(rng, n, p=0.4))
        graphs.append(dataset.Graph(n, rng.normal(size=(n, dim)), a, 0))
    ad = random_adjacency_dense(rng, 9, p=0.5)
    ad[8, :] = ad[:, 8] = 0.0
    graphs.append(dataset.Graph(9, rng.normal(size=(9, dim)), sparse.from_dense(ad), 1))
    hub = np.zeros((151, 151))
    hub[0, 1:] = hub[1:, 0] = 1.0
    leaves = rng.choice(np.arange(1, 151), size=(40, 2))
    leaves = leaves[leaves[:, 0] != leaves[:, 1]]
    hub[leaves[:, 0], leaves[:, 1]] = hub[leaves[:, 1], leaves[:, 0]] = 1.0
    graphs.append(dataset.Graph(151, rng.normal(size=(151, dim)), sparse.from_dense(hub), 1))
    return dataset.make_batch(graphs)


def reference_scores(scorer, x, stage):
    """The scorer's column by :func:`reference_pre_softmax`."""
    return diff.segment_softmax(reference_pre_softmax(scorer, x, stage.a), stage.bounds)


def assert_kept_sets_match_up_to_ties(ref, new, stage, ratio=0.5):
    """Kept sets by the score columns ref and new may differ only by
    swapping nodes whose ref scores are within one ulp of each other."""
    kept_ref = pooling.topk(ref, stage, ratio).indices
    kept_new = pooling.topk(new, stage, ratio).indices
    gid = stage.graph_id
    scores = ref.values[:, 0]
    only_new = np.setdiff1d(kept_new, kept_ref)
    only_ref = np.setdiff1d(kept_ref, kept_new)
    for mine, theirs in ((only_new, only_ref), (only_ref, only_new)):
        for i in mine:
            partners = theirs[gid[theirs] == gid[i]]
            gaps = np.abs(scores[partners] - scores[i])
            ulps = np.spacing(np.maximum(np.abs(scores[partners]), abs(scores[i])))
            assert np.any(gaps <= ulps), f"node {i} swapped at a gap beyond one ulp"


class TestLcsmpMatchesLiteralComposition:
    """pre_softmax projects node rows once; the literal form projects edge rows."""

    def _scorer(self, rng, dim, hidden):
        scorer = Lcsmp(dim, rng, "s", hidden=hidden)
        for p in scorer.parameters():
            p.tensor.values = 0.5 * rng.normal(size=p.tensor.shape)
        return scorer

    def test_values_and_gradients(self):
        rng = np.random.default_rng(14)
        batch = reference_batch(rng, 6)
        scorer = self._scorer(rng, 6, 16)
        proj = constant(rng.normal(size=(batch.x.shape[0], 1)))
        params = [p.tensor for p in scorer.parameters()]
        results = []
        for route in (scorer.pre_softmax, lambda x, a: reference_pre_softmax(scorer, x, a)):
            x = Tensor(batch.x)
            for t in params:
                t.grad = None
            with Tape():
                out = route(x, batch.a)
                loss = diff.sum_all(diff.mul(out, proj))
            backward(loss)
            results.append((out.values, x.grad, [t.grad.copy() for t in params]))
        (got, got_x, got_params), (want, want_x, want_params) = results
        assert rel_err(got, want) < 1e-12
        assert rel_err(got_x, want_x) < 1e-10
        for p, g, w in zip(scorer.parameters(), got_params, want_params):
            assert rel_err(g, w) < 1e-10, p.name

    def test_kept_sets_on_seeded_graphs(self):
        rng = np.random.default_rng(16)
        batch = reference_batch(rng, 6)
        for _ in range(5):
            scorer = self._scorer(rng, 6, 16)
            x = constant(batch.x)
            assert_kept_sets_match_up_to_ties(reference_scores(scorer, x, batch),
                                              scorer(x, batch), batch)

    @pytest.mark.parametrize("pool", ["lcpool", "lcpool_star"])
    def test_kept_sets_through_training(self, pool):
        # constant input features make many scores tie mathematically, so
        # this exercises swaps at rounding ties
        data = dataset.make_synthetic("two_communities", 32, seed=3)
        cfg = harness.ModelConfig(pool=pool, hidden=32, pre_mlp=(32,), post_mlp=(32,))
        model = harness.build_model(cfg, feature_dim=1, num_classes=2, seed=1)
        opt = diff.Adam(model.parameters(), lr=0.005)
        calls = []
        pools = model.pools

        def recorder(p):
            def record(x, a, gid):
                calls.append((p, constant(x.values), a, np.asarray(gid)))
                return p(x, a, gid)
            return record

        model.pools = [recorder(p) for p in pools]
        for step in range(6):
            batch = dataset.make_batch(data.graphs[(step % 2) * 16 : (step % 2 + 1) * 16])
            with Tape():
                loss = diff.cross_entropy(model.forward(batch), batch.labels)
            opt.zero_grad()
            backward(loss)
            opt.step()
            for p, x, a, gid in calls:
                stage = Stage.of(a, gid)
                scored = p.cluster(x, stage) if isinstance(p, harness.LcPoolStar) else x
                assert_kept_sets_match_up_to_ties(reference_scores(p.scorer, scored, stage),
                                                  p.scorer(scored, stage), stage)
            calls.clear()


def ring_batch(rng, sizes):
    """Rings of the given sizes, random features: mean degree 2."""
    graphs = []
    for n in sizes:
        ring = np.arange(n)
        a = CsrMatrix.from_coo(n, n, np.r_[ring, (ring + 1) % n], np.r_[(ring + 1) % n, ring],
                               np.ones(2 * n))
        graphs.append(dataset.Graph(int(n), rng.normal(size=(n, 3)), a, 0))
    return dataset.make_batch(graphs)


def random_batch(rng, n_graphs=10, directed=False):
    """Random graphs of 1 to 16 nodes with random features and labels."""
    graphs = []
    for n in rng.integers(1, 17, size=n_graphs):
        ad = random_adjacency_dense(rng, int(n), p=0.35, directed=directed)
        graphs.append(dataset.Graph(int(n), rng.normal(size=(n, 3)), sparse.from_dense(ad),
                                    int(rng.integers(0, 2))))
    return dataset.make_batch(graphs)


def weighted_directed_stage(rng):
    """(stage, features) of a random directed batch with weights in [0.5, 2)."""
    batch = random_batch(rng, directed=True)
    a = batch.a
    weights = a.values * rng.uniform(0.5, 2.0, a.nnz)
    return Stage(CsrMatrix(a.n_rows, a.n_cols, a.row_ptr, a.col_idx, weights), batch.bounds), batch.x


def forced_route(monkeypatch, by_blocks):
    monkeypatch.setattr(Stage, "by_blocks", property(lambda stage: by_blocks))


class TestPropagationRoutes:
    """GcnConv, GraphConv and lcpool's closure take a stage's block view or
    its CSR, as its by_blocks picks."""

    def test_layout_places_each_node_in_its_graphs_block(self):
        batch = random_batch(np.random.default_rng(30))
        slot, m = batch.layout
        assert m == np.diff(batch.bounds).max()
        assert np.array_equal(slot // m, batch.graph_id)
        assert np.array_equal(slot % m, np.arange(slot.size) - batch.bounds[batch.graph_id])

    @pytest.mark.parametrize("view", ["a_hat", "a"])
    def test_block_view_holds_the_csr_entries_bit_for_bit(self, view):
        stage, _ = weighted_directed_stage(np.random.default_rng(31))
        stack, matrix = getattr(stage, f"{view}_blocks"), getattr(stage, view)
        dense = np.zeros(matrix.shape)
        for g, (lo, hi) in enumerate(zip(stage.bounds[:-1], stage.bounds[1:])):
            dense[lo:hi, lo:hi] = stack[g, : hi - lo, : hi - lo]
        assert np.array_equal(dense, sparse.to_dense(matrix))
        assert np.count_nonzero(stack) == matrix.nnz  # nothing in the padding
        assert not stack.flags.writeable

    @pytest.mark.parametrize("conv_cls", [GcnConv, GraphConv])
    def test_conv_routes_agree_with_gradients(self, monkeypatch, conv_cls):
        rng = np.random.default_rng(32)
        stage, features = weighted_directed_stage(rng)
        conv = conv_cls(3, 4, rng, "c")
        proj = constant(rng.normal(size=(features.shape[0], 4)))
        results = []
        for by_blocks in (False, True):
            forced_route(monkeypatch, by_blocks)
            x = Tensor(features)
            params = [p.tensor for p in conv.parameters()]
            for t in params:
                t.grad = None
            with Tape():
                out = conv(x, stage)
                loss = diff.sum_all(diff.mul(out, proj))
            backward(loss)
            results.append([out.values, x.grad] + [t.grad for t in params])
        for want, got in zip(*results):
            assert rel_err(got, want) < 1e-12

    @pytest.mark.parametrize("conv", harness.CONVS)
    @pytest.mark.parametrize("backbone", harness.BACKBONES)
    @pytest.mark.parametrize("pool", harness.POOLS)
    def test_model_routes_agree(self, monkeypatch, pool, backbone, conv):
        rng = np.random.default_rng(33)
        batch = random_batch(rng, n_graphs=12)
        cfg = harness.ModelConfig(backbone=backbone, conv=conv, pool=pool, hidden=8,
                                  pre_mlp=(8,), post_mlp=(8,))
        model = harness.build_model(cfg, 3, 2, seed=2, mean_nodes=batch.x.shape[0] / 12)
        pools = model.pools
        runs = []
        for by_blocks in (False, True):
            forced_route(monkeypatch, by_blocks)
            calls = []

            def recorder(p):
                def record(x, a, gid):
                    result = p(x, a, gid)
                    calls.append((Stage.of(a, gid), result))
                    return result
                return record

            model.pools = [None if p is None else recorder(p) for p in pools]
            runs.append((model.forward(batch).values, calls))
        (want, csr_calls), (got, block_calls) = runs
        assert rel_err(got, want) < 1e-12
        assert len(csr_calls) == len(block_calls) == sum(p is not None for p in pools)
        for (stage, by_csr), (_, by_blocks) in zip(csr_calls, block_calls):
            if by_csr.scores is not None:
                assert_kept_sets_match_up_to_ties(by_csr.scores, by_blocks.scores, stage,
                                                  cfg.ratio)

    @pytest.mark.parametrize("kind", ["two_communities", "cycles_vs_paths"])
    @pytest.mark.parametrize("conv", harness.CONVS)
    def test_desk_stages_take_the_blocks(self, monkeypatch, kind, conv):
        rule = Stage.by_blocks.fget
        taken = []
        monkeypatch.setattr(Stage, "by_blocks",
                            property(lambda stage: taken.append(rule(stage)) or taken[-1]))
        data = dataset.make_synthetic(kind, 32, seed=5)
        batch = dataset.make_batch(data.graphs)
        for pool in harness.POOLS:
            cfg = harness.ModelConfig(conv=conv, pool=pool)
            harness.build_model(cfg, data.feature_dim, data.num_classes, seed=0,
                                mean_nodes=data.mean_nodes).forward(batch)
        assert taken and all(taken)

    @pytest.mark.parametrize("conv_cls", [GcnConv, GraphConv])
    def test_sparse_stage_takes_the_csr(self, monkeypatch, conv_cls):
        rng = np.random.default_rng(34)
        batch = ring_batch(rng, [400, 30, 40, 50])  # G m^2 = 4 * 400^2 > 32 * 3 * 520
        assert not batch.by_blocks

        def refused(*args):
            raise AssertionError("the block view was used")

        monkeypatch.setattr(diff, "block_spmm", refused)
        conv = conv_cls(3, 2, rng, "c")
        out = conv(constant(batch.x), batch)
        assert out.shape == (batch.x.shape[0], 2)
        assert "a_hat_blocks" not in vars(batch) and "a_blocks" not in vars(batch)


def bits(array):
    return np.ascontiguousarray(array).view(np.int64)


class TestNormalisedBlocks:
    """a_hat_blocks normalises the stage's own a_blocks, without a_hat, and
    has the bits of a_hat scattered into blocks, 0 in every padded slot."""

    @staticmethod
    def assert_matches_the_csr(stage):
        stack = stage.a_hat_blocks
        assert "a_hat" not in vars(stage)
        assert np.array_equal(bits(stack), bits(stage._block_stack(stage.a_hat)))
        slot, m = stage.layout
        real = np.zeros(stack.shape[:2], dtype=bool)
        real.reshape(-1)[slot] = True
        padded = ~(real[:, :, None] & real[:, None, :])
        assert not np.isnan(stack).any() and not stack[padded].any()
        assert not stack.flags.writeable

    @pytest.mark.parametrize("kind", ["two_communities", "cycles_vs_paths"])
    def test_desk_batch(self, kind):
        batch = dataset.make_batch(dataset.make_synthetic(kind, 32, seed=5).graphs)
        assert batch.by_blocks and np.diff(batch.bounds).min() < batch.layout[1]
        self.assert_matches_the_csr(batch)

    def test_dense_pools_weighted_stage(self):
        rng = np.random.default_rng(40)
        batch = dataset.make_batch(dataset.make_synthetic("two_communities", 16, seed=6).graphs)
        s = diff.row_softmax(constant(rng.normal(size=(batch.x.shape[0], 5))))
        pooled = pooling.dense_assignment_pool(constant(batch.x), batch, s)
        stage = Stage(pooled.a, pooled.bounds)
        assert not np.all(stage.a.values == 1.0)
        self.assert_matches_the_csr(stage)

    def test_degrees_are_summed_in_row_order(self):
        # a weighted 12-node graph whose rows hold 11 entries of magnitudes
        # 1e-8 .. 1e8, and a 3-node path that leaves padded slots: row sums
        # taken pairwise (np.add.reduce over the last axis) differ from the
        # in-order sums that gcn_normalized's np.bincount takes
        rng = np.random.default_rng(41)
        dense = np.zeros((15, 15))
        dense[:12, :12] = rng.uniform(1.0, 10.0, (12, 12)) * 10.0 ** rng.integers(-8, 9, (12, 12))
        dense[12:, 12:] = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
        np.fill_diagonal(dense, 0.0)
        stage = Stage.of(sparse.from_dense(dense), np.repeat([0, 1], [12, 3]))
        with_loops = stage.a_blocks + np.eye(12)
        assert not np.array_equal(np.add.reduce(with_loops[0], axis=1),
                                  np.cumsum(with_loops[0], axis=1)[:, -1])
        self.assert_matches_the_csr(stage)


class TestReadoutRoutes:
    """readout reduces a stage through its padded layout where by_blocks
    holds and graph by graph elsewhere, with the same bits either way."""

    @staticmethod
    def record_primitives(monkeypatch):
        """The names of the readout primitives that run, in call order."""
        calls = []
        for name in ("block_mean_max", "segment_mean", "segment_max"):
            def recorded(*args, name=name, op=getattr(diff, name)):
                calls.append(name)
                return op(*args)
            monkeypatch.setattr(diff, name, recorded)
        return calls

    @pytest.mark.parametrize("kind", ["two_communities", "cycles_vs_paths"])
    def test_desk_stages_take_the_padded_layout(self, monkeypatch, kind):
        calls = self.record_primitives(monkeypatch)
        data = dataset.make_synthetic(kind, 32, seed=5)
        batch = dataset.make_batch(data.graphs)
        for pool in harness.POOLS:
            cfg = harness.ModelConfig(pool=pool, hidden=8, pre_mlp=(8,), post_mlp=(8,))
            harness.build_model(cfg, data.feature_dim, data.num_classes, seed=0,
                                mean_nodes=data.mean_nodes).forward(batch)
        assert calls == ["block_mean_max"] * 3 * len(harness.POOLS)

    def test_skewed_batch_takes_the_loop(self, monkeypatch):
        rng = np.random.default_rng(35)
        batch = ring_batch(rng, [620, *rng.integers(10, 61, size=31)])
        assert not batch.by_blocks
        calls = self.record_primitives(monkeypatch)
        out = readout(constant(batch.x), batch)
        assert out.shape == (32, 6)
        assert calls == ["segment_mean", "segment_max"]

    def test_block_stage_readout_records_one_entry_and_scatters_once(self, monkeypatch):
        batch = dataset.make_batch(dataset.make_synthetic("two_communities", 32, seed=5).graphs)
        assert batch.by_blocks
        scatters = []

        def padded(values, layout, n_segments, op=diff._padded):
            scatters.append(values)
            return op(values, layout, n_segments)

        monkeypatch.setattr(diff, "_padded", padded)
        x = Tensor(np.random.default_rng(36).normal(size=(batch.bounds[-1], 8)))
        with Tape() as tape:
            out = readout(x, batch)
        assert out.shape == (32, 16)
        assert len(tape) == 1
        assert len(scatters) == 1 and scatters[0] is x.values

    @pytest.mark.parametrize("backbone", harness.BACKBONES)
    @pytest.mark.parametrize("pool", harness.POOLS)
    def test_logits_and_gradients_bit_equal_across_routes(self, monkeypatch, pool, backbone):
        data = dataset.make_synthetic("two_communities", 16, seed=6)
        batch = dataset.make_batch(data.graphs)
        cfg = harness.ModelConfig(backbone=backbone, pool=pool, hidden=8, pre_mlp=(8,),
                                  post_mlp=(8,))
        model = harness.build_model(cfg, data.feature_dim, data.num_classes, seed=3,
                                    mean_nodes=data.mean_nodes)
        params = [p.tensor for p in model.parameters()]
        runs = []
        for by_layout in (True, False):
            if by_layout:
                calls = self.record_primitives(monkeypatch)
            else:  # the block primitive becomes the pair: the readout reduces graph by graph
                monkeypatch.undo()
                monkeypatch.setattr(diff, "block_mean_max", lambda x, bounds, layout: (
                    diff.concat_cols(diff.segment_mean(x, bounds), diff.segment_max(x, bounds))))
            for t in params:
                t.grad = None
            with Tape():
                logits = model.forward(batch)
                loss = diff.cross_entropy(logits, batch.labels)
            backward(loss)
            runs.append([logits.values] + [t.grad for t in params])
        assert calls and set(calls) == {"block_mean_max"}
        for got, want in zip(*runs, strict=True):
            assert np.array_equal(got, want)


class TestOneHopLocality:
    """Zeroing features beyond one hop must not change a node's output row."""

    @pytest.mark.parametrize("kind", ["gcn", "graphconv"])
    def test_far_features_do_not_matter(self, kind):
        rng = np.random.default_rng(10)
        ad = sparse.to_dense(path4())
        x = rng.normal(size=(4, 2))
        if kind == "gcn":
            conv = GcnConv(2, 2, rng, "c")
        else:
            conv = GraphConv(2, 2, rng, "c")
        node = 0
        near = {0, 1}  # node 0 and its single neighbour on the path
        x_far_zeroed = x.copy()
        for j in range(4):
            if j not in near:
                x_far_zeroed[j] = 0.0
        full = conv(constant(x), single_graph(path4())).values[node]
        masked = conv(constant(x_far_zeroed), single_graph(path4())).values[node]
        assert np.allclose(full, masked, atol=1e-12)


class TestMlpAndReadout:
    def test_identity_mlp_passthrough(self):
        mlp = Mlp([3, 3], np.random.default_rng(11), "m")
        set_weight(mlp.layers[0], np.eye(3), np.zeros((1, 3)))
        x = constant(np.arange(6, dtype=np.float64).reshape(2, 3))
        assert np.array_equal(mlp(x).values, x.values)

    def test_relu_between_but_not_after(self):
        mlp = Mlp([1, 1, 1], np.random.default_rng(12), "m")
        set_weight(mlp.layers[0], [[1.0]], [[0.0]])
        set_weight(mlp.layers[1], [[1.0]], [[0.0]])
        out = mlp(constant([[-2.0]]))
        assert out.values[0, 0] == 0.0  # relu clipped between layers
        set_weight(mlp.layers[1], [[-1.0]], [[0.0]])
        out = mlp(constant([[2.0]]))
        assert out.values[0, 0] == -2.0  # but not after the last

    def test_single_node_readout_duplicates_row(self):
        x = constant([[1.0, 2.0]])
        out = readout(x, edgeless([0]))
        assert np.array_equal(out.values, [[1.0, 2.0, 1.0, 2.0]])

    def test_mean_then_max_blocks(self):
        out = readout(constant([[1.0], [3.0]]), edgeless([0, 0]))
        assert np.array_equal(out.values, [[2.0, 3.0]])

    def test_linear_matches_formula(self):
        rng = np.random.default_rng(13)
        layer = Linear(3, 2, rng, "l")
        x = rng.normal(size=(4, 3))
        expected = x @ layer.weight.tensor.values.T + layer.bias.tensor.values
        assert np.allclose(layer(constant(x)).values, expected)


class TestTapeEntriesPerLayer:
    """Each dense map is one diff.linear entry; these counts guard the tape."""

    def _entries(self, call):
        with Tape() as tape:
            call()
        return len(tape)

    def test_counts(self):
        rng = np.random.default_rng(14)
        x = constant(rng.normal(size=(4, 3)))
        stage = single_graph(path4())
        a = stage.a
        assert self._entries(lambda: Linear(3, 2, rng, "l")(x)) == 1
        assert self._entries(lambda: GcnConv(3, 2, rng, "c")(x, stage)) == 2
        assert self._entries(lambda: GraphConv(3, 2, rng, "g")(x, stage)) == 4
        w = Parameter("w", rng.normal(size=(1, 3)))
        assert self._entries(lambda: laplacian_score(x, a, w)) == 2
        assert self._entries(lambda: Mlp([3, 5, 4, 2], rng, "m")(x)) == 5
        assert self._entries(lambda: Lcsmp(3, rng, "s")(x, stage)) == 9
