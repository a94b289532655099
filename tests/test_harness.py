import functools
import json
import os
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    circulant_pair,
    gradient_fingerprint,
    path4,
    random_adjacency_dense,
    training_fingerprint,
)
from graphpool import diff, harness, layers, selfcheck, sparse
from graphpool.dataset import Graph, make_batch, make_synthetic, split
from graphpool.harness import (
    ModelConfig,
    RunRecord,
    TrainConfig,
    TrainingDiverged,
    _average_ranks,
    _improved,
    _should_stop,
    build_model,
    evaluate,
    evaluate_suite,
    load_records,
    rank,
    rank_table,
    ranking_csv,
    records_csv,
    save_records,
    summary_csv,
    summary_rows,
    train,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "records_golden.csv")

TINY = dict(hidden=8, pre_mlp=(8,), post_mlp=(8,))


def tiny_dataset(n=24, seed=0):
    return make_synthetic("cycles_vs_paths", n, seed=seed)


class TestModelBuilding:
    def test_nopool_plain_output_shape(self):
        ds = tiny_dataset()
        model = build_model(ModelConfig(backbone="plain", pool="nopool", **TINY),
                            ds.feature_dim, ds.num_classes, seed=0)
        batch = make_batch(ds.graphs[:5])
        assert model.forward(batch).shape == (5, 2)

    def test_hierarchical_stage_sizes_halve(self):
        # 40 nodes at ratio 0.5 shrink 40 -> 20 -> 10 -> 5 through the blocks
        rng = np.random.default_rng(0)
        ring = make_synthetic("cycles_vs_paths", 2, seed=1).graphs[0]
        dense = np.zeros((40, 40))
        idx = np.arange(40)
        dense[idx, (idx + 1) % 40] = dense[(idx + 1) % 40, idx] = 1.0
        g = Graph(40, rng.normal(size=(40, 1)), sparse.from_dense(dense), 0)
        model = build_model(ModelConfig(pool="lcpool", ratio=0.5, **TINY), 1, 2, seed=0)
        batch = make_batch([g])
        x = diff.relu(model.pre(diff.constant(batch.x)))
        stage = batch
        sizes = [x.rows]
        for conv, pool in zip(model.convs, model.pools):
            x = diff.relu(conv(x, stage))
            stage = pool(x, stage.a, stage.graph_id)
            x = stage.x
            sizes.append(x.rows)
        assert sizes == [40, 20, 10, 5]

    def test_parameter_census_shared_across_pools(self):
        shapes = {}
        for pool in harness.POOLS:
            model = build_model(ModelConfig(pool=pool, **TINY), 3, 2, seed=0,
                                mean_nodes=10.0)
            shapes[pool] = {
                p.name: p.tensor.shape
                for p in model.parameters()
                if ".pool." not in p.name and not p.name.startswith("pool")
            }
        reference = shapes["nopool"]
        for pool, got in shapes.items():
            assert got == reference, pool

    @pytest.mark.parametrize("backbone", ["hierarchical", "plain"])
    @pytest.mark.parametrize("pool", ["lcpool", "lcpool_star"])
    def test_no_model_registers_the_score_bias(self, backbone, pool):
        # the per-graph softmax ignores a shift of every score
        model = build_model(ModelConfig(backbone=backbone, pool=pool, **TINY), 3, 2, seed=0)
        names = [p.name for p in model.parameters()]
        assert any(n.endswith(".ls.w") for n in names)
        assert not [n for n in names if n.endswith(".ls.b")]

    def test_probe_values_are_keyed_by_parameter_name(self):
        name, cfg = selfcheck._GRAD_CONFIGS[0]
        new = build_model(cfg, 3, 2, seed=5)
        old = build_model(cfg, 3, 2, seed=5)
        score = old.pools[-1].scorer.l_score
        score.bias = diff.Parameter("pool.scorer.ls.b", np.zeros((1, 1)))
        for model in (new, old):
            selfcheck._set_probe_values(model.parameters(), 5, name)
        old_values = {p.name: p.tensor.values for p in old.parameters()}
        assert "pool.scorer.ls.b" in old_values
        assert old_values.keys() - {"pool.scorer.ls.b"} == {p.name for p in new.parameters()}
        for p in new.parameters():
            assert np.array_equal(p.tensor.values, old_values[p.name]), p.name

    def test_parameter_order_is_the_fingerprinted_order(self):
        model = build_model(ModelConfig(backbone="plain", conv="gcn", pool="sag", **TINY),
                            3, 2, seed=0)
        assert [p.name for p in model.parameters()] == [
            "pre.0.w", "pre.0.b", "block0.conv.w", "block1.conv.w", "block2.conv.w",
            "pool.conv.w", "pool.score.w", "pool.score.b",
            "post.0.w", "post.0.b", "post.1.w", "post.1.b",
        ]

    def test_dense_pool_stage_clusters_shrink(self):
        model = build_model(ModelConfig(pool="dense", ratio=0.5, **TINY), 1, 2,
                            seed=0, mean_nodes=12.0)
        ks = [pool.k_clusters for pool in model.pools]
        assert ks == [6, 3, 2]

    def test_dense_pool_keeps_a_cluster_at_the_smallest_size(self):
        # kept_count is at least 1, so no stage's pool can get zero clusters
        cfg = ModelConfig(pool="dense", ratio=0.1, **TINY)
        pool = harness._make_pool(cfg, 2, np.random.default_rng(0), "pool", 1.0)
        assert pool.k_clusters == 1

    def test_dense_pool_needs_statistics(self):
        with pytest.raises(ValueError):
            build_model(ModelConfig(pool="dense", **TINY), 1, 2, seed=0)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(backbone="deep")
        with pytest.raises(ValueError):
            ModelConfig(pool="magic")
        with pytest.raises(ValueError):
            ModelConfig(ratio=0.0)

    def test_forward_without_tape_records_nothing(self):
        ds = tiny_dataset()
        model = build_model(ModelConfig(pool="lcpool", **TINY), ds.feature_dim,
                            ds.num_classes, seed=0)
        logits = model.forward(make_batch(ds.graphs[:3]))
        assert logits.tape is None

    @pytest.mark.parametrize("backbone", ["hierarchical", "plain"])
    @pytest.mark.parametrize("pool", harness.POOLS)
    def test_parameter_gradients_are_c_ordered_and_read_only(self, backbone, pool):
        # Adam runs over a gradient in its parameter's own layout (a Linear
        # weight's is column-major), and a stored gradient may be shared with
        # other tensors, so none may be written after backward
        ds = make_synthetic("two_communities", 8, seed=3)
        model = build_model(ModelConfig(backbone=backbone, pool=pool, **TINY), ds.feature_dim,
                            ds.num_classes, seed=0, mean_nodes=ds.mean_nodes)
        names = [p.name for p in model.parameters()]
        assert len(set(names)) == len(names)  # Adam rejects a repeated name
        batch = make_batch(ds.graphs)
        with diff.Tape():
            loss = diff.cross_entropy(model.forward(batch), batch.labels)
        diff.backward(loss)
        for p in model.parameters():
            g = p.tensor.grad
            assert g is not None and g.shape == p.tensor.shape, p.name
            values = p.tensor.values
            assert (g.flags.c_contiguous, g.flags.f_contiguous) == (
                values.flags.c_contiguous, values.flags.f_contiguous), p.name
            assert not g.flags.writeable, p.name


class TestStages:
    """A stage is checked once, when a pool module is called; make_batch and
    the pools build theirs by construction."""

    POOLED = [pool for pool in harness.POOLS if pool != "nopool"]

    @pytest.mark.parametrize("pool", POOLED)
    def test_pool_module_rejects_an_edge_joining_two_graphs(self, pool):
        batch = make_batch([Graph(4, np.eye(4), path4(), 0), Graph(4, np.eye(4), path4(), 1)])
        a = batch.a
        joined = sparse.CsrMatrix.from_coo(8, 8, np.append(sparse.row_indices(a), 2),
                                           np.append(a.col_idx, 5), np.ones(a.nnz + 1))
        model = build_model(ModelConfig(pool=pool, **TINY), 4, 2, seed=0, mean_nodes=4.0)
        with pytest.raises(ValueError, match=r"entry \(2, 5\) joins graphs 0 and 1"):
            model.pools[0](diff.constant(np.ones((8, 8))), joined, batch.graph_id)

    @pytest.mark.parametrize("bad", [0.4, 1.5, np.nan, np.inf])
    def test_non_integral_graph_ids_rejected(self, bad):
        # a cast would read [0, 0.4, 1.5] as [0, 0, 1]
        with pytest.raises(ValueError, match="indices must be integral"):
            layers.Stage.of(sparse.CsrMatrix.empty(3, 3), [0.0, 0.0, bad])

    def test_boolean_graph_ids_rejected(self):
        # a cast would read [False, False, True] as the ids [0, 0, 1]
        with pytest.raises(ValueError, match="indices must be integers, not booleans"):
            layers.Stage.of(sparse.CsrMatrix.empty(3, 3), [False, False, True])

    @staticmethod
    def _nopool_normalisations(monkeypatch, batch):
        """The matrices gcn_normalized is called on, and the stages whose
        a_hat_blocks is built, in one nopool forward over batch."""
        calls, builds = [], []
        normalized = layers.gcn_normalized
        monkeypatch.setattr(layers, "gcn_normalized", lambda a: calls.append(a) or normalized(a))
        build = layers.Stage.a_hat_blocks.func
        counted = functools.cached_property(lambda stage: builds.append(stage) or build(stage))
        counted.__set_name__(layers.Stage, "a_hat_blocks")
        monkeypatch.setattr(layers.Stage, "a_hat_blocks", counted)
        model = build_model(ModelConfig(pool="nopool", **TINY), batch.x.shape[1], 2, seed=0)
        model.forward(batch)
        return calls, builds

    def test_nopool_forward_normalises_the_batch_once(self, monkeypatch):
        # a block-route stage normalises its own blocks, never the CSR
        batch = make_batch(tiny_dataset().graphs[:8])
        assert batch.by_blocks
        calls, builds = self._nopool_normalisations(monkeypatch, batch)
        assert calls == [] and len(builds) == 1 and builds[0] is batch

    def test_csr_route_forward_normalises_the_batch_once(self, monkeypatch):
        batch = circulant_pair()
        assert not batch.by_blocks
        calls, builds = self._nopool_normalisations(monkeypatch, batch)
        assert len(calls) == 1 and calls[0] is batch.a and builds == []

    @pytest.mark.parametrize("pool", POOLED)
    def test_built_extents_match_the_graph_ids(self, pool):
        rng = np.random.default_rng(21)
        for trial in range(4):
            sizes = rng.integers(1, 16, size=int(rng.integers(2, 9)))
            graphs = [Graph(int(n), rng.normal(size=(int(n), 3)),
                            sparse.from_dense(random_adjacency_dense(rng, int(n), p=0.4)), 0)
                      for n in sizes]
            batch = make_batch(graphs)
            model = build_model(ModelConfig(pool=pool, **TINY), 3, 2, seed=trial,
                                mean_nodes=float(sizes.mean()))
            assert np.array_equal(batch.bounds, np.concatenate([[0], np.cumsum(sizes)]))
            built = []

            def checked(p):
                # each stage's extents against counts taken apart from them,
                # before the next pool reads them: k per graph, or the graph
                # of every kept node under the ids the pool was called with
                def call(x, a, graph_id):
                    stage = p(x, a, graph_id)
                    if stage.kept is None:
                        want = np.arange(sizes.size + 1) * p.k_clusters
                    else:
                        want = sparse.row_extents(graph_id[stage.kept.indices], sizes.size)
                    assert np.array_equal(stage.bounds, want)
                    built.append(stage)
                    return stage
                return call

            model.pools = [checked(p) for p in model.pools]
            model.forward(batch)
            assert len(built) == harness.N_BLOCKS


class TestEarlyStoppingRules:
    def test_improvement_every_epoch_runs_to_max(self):
        best_epoch = 0
        for epoch in range(1, 101):
            if True:  # improves every epoch
                best_epoch = epoch
            assert not _should_stop(epoch, best_epoch, patience=50)
        assert best_epoch == 100

    def test_no_improvement_after_first_stops_at_51(self):
        best_epoch = stopped_at = 0
        best = (-np.inf, np.inf)
        for epoch in range(1, 501):
            acc, loss = (0.5, 1.0) if epoch == 1 else (0.5, 2.0)
            if _improved(acc, loss, *best):
                best = (acc, loss)
                best_epoch = epoch
            elif _should_stop(epoch, best_epoch, patience=50):
                stopped_at = epoch
                break
        assert (best_epoch, stopped_at) == (1, 51)

    def test_accuracy_tie_falls_back_to_loss(self):
        assert _improved(0.5, 0.9, 0.5, 1.0)
        assert not _improved(0.5, 1.1, 0.5, 1.0)
        assert _improved(0.6, 9.9, 0.5, 0.1)

    def test_accuracy_first_index_tie_break(self):
        ds = tiny_dataset(2)
        model = build_model(ModelConfig(pool="nopool", **TINY), ds.feature_dim,
                            ds.num_classes, seed=0)
        model.forward = lambda batch: diff.Tensor([[1.0, 1.0], [0.0, 2.0]])
        graphs = [replace(g, label=label) for g, label in zip(ds.graphs, (0, 1))]
        assert evaluate(model, replace(ds, graphs=graphs), batch_size=2)[0] == 1.0
        graphs = [replace(g, label=1) for g in ds.graphs]
        assert evaluate(model, replace(ds, graphs=graphs), batch_size=2)[0] == 0.5


class TestTraining:
    def _cfg(self, **kw):
        base = dict(max_epochs=4, patience=3, batch_size=8, lr=0.01, seed=0)
        base.update(kw)
        return TrainConfig(**base)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    def test_non_finite_learning_rate_rejected(self, lr):
        with pytest.raises(ValueError):
            TrainConfig(lr=lr)

    def test_record_fields_and_bounds(self):
        ds = tiny_dataset(30)
        cfg = self._cfg()
        parts = split(ds, harness.SPLIT_RATIOS, 0)
        model = build_model(ModelConfig(pool="lcpool", **TINY), ds.feature_dim,
                            ds.num_classes, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rec = train(model, parts, cfg)
        assert 0.0 <= rec.test_accuracy <= 1.0
        assert 1 <= rec.best_epoch <= cfg.max_epochs
        assert rec.dataset == ds.name and rec.run_seed == 0

    def test_epochs_run_counts_the_epochs_trained(self):
        ds = tiny_dataset(30)
        parts = split(ds, harness.SPLIT_RATIOS, 0)
        for cfg in (self._cfg(max_epochs=3, patience=50), self._cfg(max_epochs=30, patience=1)):
            model = build_model(ModelConfig(pool="topk", **TINY), ds.feature_dim,
                                ds.num_classes, seed=0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rec = train(model, parts, cfg)
            # the last improvement is best_epoch, so the run stops patience later
            assert rec.epochs_run == min(cfg.max_epochs, rec.best_epoch + cfg.patience)

    def test_determinism_of_seeded_runs(self):
        ds = tiny_dataset(30)
        cfg = self._cfg(max_epochs=3)
        records = []
        for _ in range(2):
            parts = split(ds, harness.SPLIT_RATIOS, 5)
            model = build_model(ModelConfig(pool="topk", **TINY), ds.feature_dim,
                                ds.num_classes, seed=5)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                records.append((train(model, parts, cfg),
                                [p.tensor.values.copy() for p in model.parameters()]))
        (rec_a, params_a), (rec_b, params_b) = records
        assert rec_a.test_accuracy == rec_b.test_accuracy
        assert rec_a.best_epoch == rec_b.best_epoch
        for pa, pb in zip(params_a, params_b):
            assert np.array_equal(pa, pb)

    def test_divergence_aborts_with_diagnostic(self):
        ds = tiny_dataset(30)
        cfg = self._cfg()
        parts = split(ds, harness.SPLIT_RATIOS, 0)
        model = build_model(ModelConfig(pool="nopool", **TINY), ds.feature_dim,
                            ds.num_classes, seed=0)
        model.forward = lambda batch: diff.Tensor(
            np.full((batch.labels.size, ds.num_classes), np.nan))
        with pytest.raises(TrainingDiverged, match="epoch 1"):
            train(model, parts, cfg)

    def test_stop_at_first_epoch_warns(self):
        ds = tiny_dataset(30)
        cfg = self._cfg(max_epochs=1, seed=3)
        parts = split(ds, harness.SPLIT_RATIOS, 0)
        model = build_model(ModelConfig(pool="nopool", **TINY), ds.feature_dim,
                            ds.num_classes, seed=0)
        with pytest.warns(UserWarning, match=r"epoch 1 \(hierarchical/gcn nopool, seed 3\)"):
            train(model, parts, cfg)

    def test_evaluate_suite_counts(self):
        ds = tiny_dataset(30)
        cfg = self._cfg(max_epochs=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            records = evaluate_suite([ModelConfig(pool="nopool", **TINY)], ds, 2, cfg)
        assert [r.run_seed for r in records] == [0, 1]

    def test_evaluate_empty_dataset_rejected(self):
        ds = tiny_dataset()
        model = build_model(ModelConfig(pool="nopool", **TINY), ds.feature_dim,
                            ds.num_classes, seed=0)
        empty = replace(ds, graphs=[])
        with pytest.raises(ValueError, match="empty dataset"):
            harness.evaluate(model, empty, batch_size=4)

    def test_training_fingerprint_is_deterministic(self):
        # reading a buffer before it is written would make two runs differ
        assert training_fingerprint() == training_fingerprint()

    def test_gradient_fingerprint_is_deterministic(self):
        assert gradient_fingerprint() == gradient_fingerprint()


class TestRanking:
    def test_average_ranks_match_definition(self):
        # rank of v: values above it, plus the mean position among its ties
        rng = np.random.default_rng(4)
        for _ in range(200):
            v = rng.integers(0, 4, size=int(rng.integers(1, 9))) / 4
            expected = [(v > x).sum() + ((v == x).sum() + 1) / 2 for x in v]
            assert _average_ranks(v).tolist() == expected

    def test_single_approach_ranks_first(self):
        means = {("b", "ds1", "only"): 0.9, ("b", "ds2", "only"): 0.1}
        table = rank_table(means)
        assert table.average_rank[("b", "only")] == 1.0

    def test_two_approaches_two_datasets(self):
        means = {
            ("b", "ds1", "A"): 0.8, ("b", "ds1", "B"): 0.6,
            ("b", "ds2", "A"): 0.8, ("b", "ds2", "B"): 0.6,
        }
        table = rank_table(means)
        assert table.average_rank[("b", "A")] == 1.0
        assert table.average_rank[("b", "B")] == 2.0

    def test_ranks_form_permutation_with_tie_averaging(self):
        means = {("b", "ds", p): acc
                 for p, acc in [("A", 0.5), ("B", 0.5), ("C", 0.9), ("D", 0.1)]}
        table = rank_table(means)
        ranks = sorted(table.average_rank[("b", p)] for p in "ABCD")
        assert ranks == [1.0, 2.5, 2.5, 4.0]

    def test_rank_from_records(self):
        def rec(pool, dataset, acc, seed=0):
            return RunRecord(ModelConfig(pool=pool, **TINY), dataset, seed, acc, 1, 0.0)
        records = [
            rec("lcpool", "d1", 0.9), rec("lcpool", "d1", 0.7),  # mean 0.8
            rec("topk", "d1", 0.6),
            rec("lcpool", "d2", 0.5), rec("topk", "d2", 0.9),
        ]
        table = rank(records)
        key = ("hierarchical/gcn", "lcpool")
        assert table.average_rank[key] == 1.5
        assert table.average_rank[("hierarchical/gcn", "topk")] == 1.5


class TestReporting:
    def _records(self):
        return [
            RunRecord(ModelConfig(), "demo", 0, 0.875, 12, 3.25),
            RunRecord(ModelConfig(backbone="plain", conv="graphconv", pool="topk"),
                      "demo", 1, 0.75, 5, 1.5),
        ]

    def test_json_round_trip_keeps_epochs_run(self, tmp_path):
        path = tmp_path / "records.json"
        records = [replace(r, epochs_run=e) for r, e in zip(self._records(), (62, 5))]
        save_records(records, path)
        assert json.loads(path.read_text())["records"][0]["epochs_run"] == 62
        assert load_records(path) == records

    def test_record_saved_without_epochs_run_loads_as_none(self, tmp_path):
        path = tmp_path / "records.json"
        records = [replace(r, epochs_run=7) for r in self._records()]
        save_records(records, path)
        data = json.loads(path.read_text())
        for rec in data["records"]:
            del rec["epochs_run"]
        path.write_text(json.dumps(data))
        assert [r.epochs_run for r in load_records(path)] == [None, None]
        assert load_records(path) == self._records()

    def test_empty_records_keep_headers(self):
        assert records_csv([]).splitlines() == [
            "backbone,conv,pool,dataset,run_seed,test_accuracy,best_epoch,wall_time"
        ]

    def test_json_round_trip_identity(self, tmp_path):
        path = tmp_path / "records.json"
        records = self._records()
        save_records(records, path)
        assert load_records(path) == records

    def test_record_with_the_removed_dense_clusters_key_loads(self, tmp_path):
        path = tmp_path / "records.json"
        records = self._records()
        save_records(records, path)
        data = json.loads(path.read_text())
        for rec in data["records"]:
            rec["model"]["dense_clusters"] = None
        path.write_text(json.dumps(data))
        assert load_records(path) == records

    @pytest.mark.parametrize("text, named", [
        ('{"rows": []}', "no 'records' list"), ('{"records": {}}', "no 'records' list"),
        ("[1, 2]", "no 'records' list"), ("{", "Expecting property name"),
        ('{"records": [{"model": {}}]}', "a record lacks field 'pre_mlp'"),
        ('{"records": [{"dataset": "d"}]}', "a record lacks field 'model'")])
    def test_malformed_results_rejected_naming_the_file(self, tmp_path, text, named):
        path = tmp_path / "records.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {named}')}"):
            load_records(path)

    def test_csv_matches_golden_file(self):
        with open(GOLDEN) as fh:
            assert records_csv(self._records()) == fh.read()

    def test_summary_rows(self):
        rows = summary_rows(self._records())
        assert len(rows) == 2
        assert rows[0]["runs"] == 1

    def test_summary_csv_text(self):
        assert summary_csv(self._records()[:1]) == (
            "backbone,conv,pool,dataset,runs,mean_accuracy,std_accuracy\n"
            "hierarchical,gcn,lcpool,demo,1,0.875000,0.000000\n"
        )

    def test_ranking_csv_layout(self):
        table = rank(self._records())
        lines = ranking_csv(table).splitlines()
        assert lines[0].startswith("backbone,")
        assert len(lines) == 3  # header + two backbones
