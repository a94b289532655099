import json
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest

from helpers import training_fingerprint
from graphpool import diff, harness, selfcheck, sparse
from graphpool.dataset import Graph, make_batch, make_synthetic, split
from graphpool.harness import (
    ModelConfig,
    RunRecord,
    TrainConfig,
    TrainingDiverged,
    _average_ranks,
    _improved,
    _should_stop,
    accuracy,
    build_model,
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
        a, gid = batch.a, batch.graph_id
        sizes = [x.rows]
        for conv, pool in zip(model.convs, model.pools):
            x = diff.relu(conv(x, a))
            result = pool(x, a, gid)
            x, a, gid = result.x, result.a, result.graph_id
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
        # Adam updates C-ordered gradients fastest, and a stored gradient may
        # be shared with other tensors, so none may be written after backward
        ds = make_synthetic("two_communities", 8, seed=3)
        model = build_model(ModelConfig(backbone=backbone, pool=pool, **TINY), ds.feature_dim,
                            ds.num_classes, seed=0, mean_nodes=ds.mean_nodes)
        batch = make_batch(ds.graphs)
        with diff.Tape():
            loss = diff.cross_entropy(model.forward(batch), batch.labels)
        diff.backward(loss)
        for p in model.parameters():
            g = p.tensor.grad
            assert g is not None and g.shape == p.tensor.shape, p.name
            assert g.flags.c_contiguous and not g.flags.writeable, p.name


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
        logits = np.array([[1.0, 1.0], [0.0, 2.0]])
        assert accuracy(logits, np.array([0, 1])) == 1.0
        assert accuracy(logits, np.array([1, 1])) == 0.5


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
            np.full((batch.graph_count, ds.num_classes), np.nan))
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
