"""Model builders, the training protocol, multi-run evaluation and ranking."""

from __future__ import annotations

import csv
import io
import json
import time
import warnings
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import diff, pooling
from .dataset import Dataset, GraphBatch, make_batch, split
from .diff import Adam, Tape, Tensor, backward, cross_entropy
from .layers import GcnConv, GraphConv, Lcsmp, Linear, Mlp, Module, Stage, readout

BACKBONES = ("hierarchical", "plain")
CONVS = ("gcn", "graphconv")
POOLS = ("nopool", "topk", "sag", "dense", "lcpool", "lcpool_star")
N_BLOCKS = 3
SPLIT_RATIOS = (0.8, 0.1, 0.1)  # train, validation, test


@dataclass(frozen=True)
class ModelConfig:
    backbone: str = "hierarchical"
    conv: str = "gcn"
    pool: str = "lcpool"
    hidden: int = 128
    ratio: float = 0.5
    pre_mlp: tuple[int, ...] = (128,)
    post_mlp: tuple[int, ...] = (256, 128)

    def __post_init__(self):
        if self.backbone not in BACKBONES:
            raise ValueError(f"unknown backbone {self.backbone!r}")
        if self.conv not in CONVS:
            raise ValueError(f"unknown conv {self.conv!r}")
        if self.pool not in POOLS:
            raise ValueError(f"unknown pool {self.pool!r}")
        if self.hidden < 1 or any(w < 1 for w in self.pre_mlp + self.post_mlp):
            raise ValueError(f"widths must be positive, got hidden {self.hidden}, "
                             f"pre_mlp {self.pre_mlp} and post_mlp {self.post_mlp}")
        pooling.check_ratio(self.ratio)

    @property
    def backbone_label(self) -> str:
        return f"{self.backbone}/{self.conv}"


@dataclass(frozen=True)
class TrainConfig:
    max_epochs: int = 500
    patience: int = 50
    batch_size: int = 32
    lr: float = 0.0005
    seed: int = 0

    def __post_init__(self):
        for name in ("max_epochs", "patience", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not 0 < self.lr < np.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")


@dataclass(frozen=True)
class RunRecord:
    model: ModelConfig
    dataset: str
    run_seed: int
    test_accuracy: float
    best_epoch: int
    wall_time: float
    epochs_run: int | None = None  # None in results saved before it was recorded


class TrainingDiverged(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# pooling layers with their own trainable score/assignment functions, called
# as pool(x, a, graph_id) (the form perfbench/oracle.py records): each checks
# its stage once with Stage.of


class TopkPool(Module):
    """Generic score-based selection: h = tanh(linear(x))."""

    def __init__(self, hidden, ratio, rng, name):
        self.score = Linear(hidden, 1, rng, f"{name}.score")
        self.ratio = ratio

    def __call__(self, x, a, graph_id):
        h = diff.tanh(self.score(x))
        return pooling.node_selection_pool(x, Stage.of(a, graph_id), h, self.ratio)


class SagPool(Module):
    """Selection with a convolution-derived score: tanh(linear(conv(x)))."""

    def __init__(self, hidden, ratio, rng, name):
        self.conv = GcnConv(hidden, hidden, rng, f"{name}.conv")
        self.score = Linear(hidden, 1, rng, f"{name}.score")
        self.ratio = ratio

    def __call__(self, x, a, graph_id):
        stage = Stage.of(a, graph_id)
        h = diff.tanh(self.score(self.conv(x, stage)))
        return pooling.node_selection_pool(x, stage, h, self.ratio)


class DensePool(Module):
    """Soft assignment to a fixed cluster count: softmax(linear(x)) rows."""

    def __init__(self, hidden, k_clusters, rng, name):
        self.assign = Linear(hidden, k_clusters, rng, f"{name}.assign")
        self.k_clusters = k_clusters

    def __call__(self, x, a, graph_id):
        s = diff.row_softmax(self.assign(x))
        return pooling.dense_assignment_pool(x, Stage.of(a, graph_id), s)


class LcPool(Module):
    def __init__(self, hidden, ratio, rng, name):
        self.scorer = Lcsmp(hidden, rng, f"{name}.scorer")
        self.ratio = ratio

    def __call__(self, x, a, graph_id):
        stage = Stage.of(a, graph_id)
        return pooling.lcpool(x, stage, self.scorer(x, stage), self.ratio)


class LcPoolStar(Module):
    def __init__(self, hidden, ratio, rng, name):
        self.cluster = GcnConv(hidden, hidden, rng, f"{name}.cluster")
        self.scorer = Lcsmp(hidden, rng, f"{name}.scorer")
        self.ratio = ratio

    def __call__(self, x, a, graph_id):
        return pooling.lcpool_star(x, Stage.of(a, graph_id), self.cluster, self.scorer,
                                   self.ratio)


def _make_pool(cfg: ModelConfig, stage: int, rng, name: str, mean_nodes: float | None):
    if cfg.pool == "nopool":
        return None
    if cfg.pool == "topk":
        return TopkPool(cfg.hidden, cfg.ratio, rng, name)
    if cfg.pool == "sag":
        return SagPool(cfg.hidden, cfg.ratio, rng, name)
    if cfg.pool == "dense":
        if mean_nodes is None:
            raise ValueError("dense pooling needs the mean graph size")
        # later stages shrink by the same ratio, mirroring the adaptive pools
        base = pooling.kept_count(cfg.ratio, int(round(mean_nodes)))
        k = int(pooling.kept_count(cfg.ratio**stage, base))
        return DensePool(cfg.hidden, k, rng, name)
    if cfg.pool == "lcpool":
        return LcPool(cfg.hidden, cfg.ratio, rng, name)
    return LcPoolStar(cfg.hidden, cfg.ratio, rng, name)


def _make_conv(cfg: ModelConfig, in_dim, rng, name):
    if cfg.conv == "gcn":
        return GcnConv(in_dim, cfg.hidden, rng, name)
    return GraphConv(in_dim, cfg.hidden, rng, name)


class Model(Module):
    """Backbone assembling MLPs, convolutions, pools and readouts.

    hierarchical: pre-MLP, then three conv/pool blocks whose readouts are
    summed; plain: pre-MLP, three convolutions, one pool, one readout.  The
    classifier MLP maps the readout to class logits.
    """

    def __init__(self, cfg: ModelConfig, feature_dim: int, num_classes: int, seed: int,
                 mean_nodes: float | None = None):
        rng = np.random.default_rng(seed)
        self.cfg = cfg
        self.pre = Mlp([feature_dim, *cfg.pre_mlp], rng, "pre")
        width = cfg.pre_mlp[-1]
        self.convs = []
        self.pools = []
        for i in range(N_BLOCKS):
            self.convs.append(_make_conv(cfg, width if i == 0 else cfg.hidden, rng, f"block{i}.conv"))
            if cfg.backbone == "hierarchical":
                self.pools.append(_make_pool(cfg, i, rng, f"block{i}.pool", mean_nodes))
        if cfg.backbone == "plain":
            self.pools = [None] * (N_BLOCKS - 1) + [_make_pool(cfg, 0, rng, "pool", mean_nodes)]
        self.classifier = Mlp([2 * cfg.hidden, *cfg.post_mlp, num_classes], rng, "post")

    def forward(self, batch: GraphBatch) -> Tensor:
        """Class logits; the batch is the first stage, each pool's result the next."""
        x = diff.relu(self.pre(diff.constant(batch.x)))
        stage = batch
        hierarchical = self.cfg.backbone == "hierarchical"
        summed = None
        for i, (conv, pool) in enumerate(zip(self.convs, self.pools)):
            x = diff.relu(conv(x, stage))
            if pool is not None:
                stage = pool(x, stage.a, stage.graph_id)
                x = stage.x
            if hierarchical or i == N_BLOCKS - 1:
                r = readout(x, stage.bounds)
                summed = r if summed is None else diff.add(summed, r)
        return self.classifier(summed)


def build_model(cfg: ModelConfig, feature_dim: int, num_classes: int, seed: int = 0,
                mean_nodes: float | None = None) -> Model:
    return Model(cfg, feature_dim, num_classes, seed, mean_nodes)


# ---------------------------------------------------------------------------
# training protocol


def _batches(graphs, batch_size):
    for lo in range(0, len(graphs), batch_size):
        yield make_batch(graphs[lo : lo + batch_size])


def evaluate(model: Model, dataset: Dataset, batch_size: int) -> tuple[float, float]:
    """(accuracy, mean loss) over a dataset, without recording gradients."""
    if len(dataset) == 0:
        raise ValueError(f"cannot evaluate on an empty dataset ({dataset.name})")
    correct = 0
    loss_sum = 0.0
    for batch in _batches(dataset.graphs, batch_size):
        logits = model.forward(batch)
        correct += int(np.sum(logits.values.argmax(axis=1) == batch.labels))
        loss_sum += cross_entropy(logits, batch.labels).values[0, 0] * batch.labels.size
    n = len(dataset)
    return correct / n, loss_sum / n


def _improved(acc, loss, best_acc, best_loss) -> bool:
    """Higher validation accuracy wins; equal accuracy falls back to lower loss."""
    return acc > best_acc or (acc == best_acc and loss < best_loss)


def _should_stop(epoch, best_epoch, patience) -> bool:
    return epoch - best_epoch >= patience


def train(model: Model, splits: tuple[Dataset, Dataset, Dataset], cfg: TrainConfig) -> RunRecord:
    """Mini-batch Adam with early stopping on validation accuracy.

    The parameters of the best validation epoch are restored before the test
    accuracy is measured.  A non-finite training loss aborts the run.
    """
    train_set, val_set, test_set = splits
    if min(len(train_set), len(val_set), len(test_set)) < 1:
        raise ValueError("all three splits must be non-empty")
    start = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    params = model.parameters()
    opt = Adam(params, lr=cfg.lr)
    best_acc, best_loss = -np.inf, np.inf
    best_epoch = 0
    best_state = diff.snapshot(params)
    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(len(train_set))
        shuffled = [train_set.graphs[i] for i in order]
        for batch in _batches(shuffled, cfg.batch_size):
            with Tape():
                logits = model.forward(batch)
                loss = cross_entropy(logits, batch.labels)
            value = loss.values[0, 0]
            if not np.isfinite(value):
                raise TrainingDiverged(
                    f"non-finite loss {value} at epoch {epoch} (seed {cfg.seed})"
                )
            opt.zero_grad()
            backward(loss)
            opt.step()
        val_acc, val_loss = evaluate(model, val_set, cfg.batch_size)
        if _improved(val_acc, val_loss, best_acc, best_loss):
            best_acc, best_loss = val_acc, val_loss
            best_epoch = epoch
            best_state = diff.snapshot(params)
        elif _should_stop(epoch, best_epoch, cfg.patience):
            break
    if best_epoch <= 1:
        warnings.warn(
            f"training stopped improving at epoch {best_epoch} ({model.cfg.backbone_label} "
            f"{model.cfg.pool}, seed {cfg.seed}); the model may not be learning on this split",
            stacklevel=2,
        )
    diff.restore(params, best_state)
    test_acc, _ = evaluate(model, test_set, cfg.batch_size)
    return RunRecord(
        model=model.cfg,
        dataset=train_set.name,
        run_seed=cfg.seed,
        test_accuracy=test_acc,
        best_epoch=best_epoch,
        wall_time=time.perf_counter() - start,
        epochs_run=epoch,
    )


def evaluate_suite(models, dataset: Dataset, runs: int, cfg: TrainConfig,
                   progress=None) -> list[RunRecord]:
    """Train each configuration ``runs`` times on the dataset, fresh split per run."""
    if runs < 1:
        raise ValueError("need at least one run")
    records = []
    for mcfg in models:
        for r in range(runs):
            run_seed = cfg.seed + r
            run_cfg = replace(cfg, seed=run_seed)
            parts = split(dataset, SPLIT_RATIOS, run_seed)
            model = build_model(
                mcfg, dataset.feature_dim, dataset.num_classes, run_seed,
                mean_nodes=dataset.mean_nodes,
            )
            record = train(model, parts, run_cfg)
            records.append(record)
            if progress is not None:
                progress(record)
    return records


# ---------------------------------------------------------------------------
# ranking and reporting


@dataclass(frozen=True)
class RankingTable:
    backbones: tuple[str, ...]
    pools: tuple[str, ...]
    average_rank: dict[tuple[str, str], float]


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Descending competition-free ranks; tied values share the mean rank."""
    _, inverse, counts = np.unique(-values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def rank_table(means: dict[tuple[str, str, str], float]) -> RankingTable:
    """Rank mean accuracies keyed by (backbone, dataset, pool).

    Approaches are ranked by accuracy within every (backbone, dataset) cell,
    ties averaged, then averaged over the datasets where the approach was
    evaluated.
    """
    backbones = sorted({k[0] for k in means})
    datasets = sorted({k[1] for k in means})
    pools = sorted({k[2] for k in means})
    sums: dict[tuple[str, str], list[float]] = {}
    for backbone in backbones:
        for ds in datasets:
            present = [p for p in pools if (backbone, ds, p) in means]
            if not present:
                continue
            values = np.array([means[(backbone, ds, p)] for p in present])
            for pool, r in zip(present, _average_ranks(values)):
                sums.setdefault((backbone, pool), []).append(float(r))
    table = {key: float(np.mean(v)) for key, v in sums.items()}
    present_pools = tuple(p for p in pools if any((b, p) in table for b in backbones))
    return RankingTable(tuple(backbones), present_pools, table)


def rank(records: list[RunRecord]) -> RankingTable:
    """Average rank of each pooling approach per backbone across datasets,
    from the mean accuracies of :func:`summary_rows`."""
    return rank_table({
        (f"{row['backbone']}/{row['conv']}", row["dataset"], row["pool"]): row["mean_accuracy"]
        for row in summary_rows(records)
    })


_CSV_COLUMNS = ("backbone", "conv", "pool", "dataset", "run_seed",
                "test_accuracy", "best_epoch", "wall_time")


def _record_from_dict(data: dict) -> RunRecord:
    m = dict(data["model"])
    m.pop("dense_clusters", None)  # a removed field that older results still store
    m["pre_mlp"] = tuple(m["pre_mlp"])
    m["post_mlp"] = tuple(m["post_mlp"])
    return RunRecord(
        model=ModelConfig(**m),
        dataset=data["dataset"],
        run_seed=int(data["run_seed"]),
        test_accuracy=float(data["test_accuracy"]),
        best_epoch=int(data["best_epoch"]),
        wall_time=float(data["wall_time"]),
        epochs_run=None if data.get("epochs_run") is None else int(data["epochs_run"]),
    )


def save_records(records: list[RunRecord], path) -> None:
    with open(path, "w") as fh:
        json.dump({"records": [asdict(r) for r in records]}, fh, indent=2)
        fh.write("\n")


def load_records(path) -> list[RunRecord]:
    with open(path) as fh:
        data = json.load(fh)
    return [_record_from_dict(d) for d in data["records"]]


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def records_csv(records: list[RunRecord]) -> str:
    return _csv_text(_CSV_COLUMNS, (
        [rec.model.backbone, rec.model.conv, rec.model.pool, rec.dataset,
         rec.run_seed, f"{rec.test_accuracy:.6f}", rec.best_epoch, f"{rec.wall_time:.3f}"]
        for rec in records
    ))


def summary_rows(records: list[RunRecord]) -> list[dict]:
    """Mean and std of test accuracy per (backbone, conv, pool, dataset)."""
    groups: dict[tuple, list[float]] = {}
    for rec in records:
        key = (rec.model.backbone, rec.model.conv, rec.model.pool, rec.dataset)
        groups.setdefault(key, []).append(rec.test_accuracy)
    rows = []
    for key in sorted(groups):
        values = np.array(groups[key])
        rows.append({
            "backbone": key[0], "conv": key[1], "pool": key[2], "dataset": key[3],
            "runs": values.size,
            "mean_accuracy": float(values.mean()),
            "std_accuracy": float(values.std()),
        })
    return rows


def summary_csv(records: list[RunRecord]) -> str:
    return _csv_text(
        ["backbone", "conv", "pool", "dataset", "runs", "mean_accuracy", "std_accuracy"],
        ([row["backbone"], row["conv"], row["pool"], row["dataset"], row["runs"],
          f"{row['mean_accuracy']:.6f}", f"{row['std_accuracy']:.6f}"]
         for row in summary_rows(records)),
    )


def ranking_csv(table: RankingTable) -> str:
    rows = []
    for backbone in table.backbones:
        ranks = [table.average_rank.get((backbone, pool)) for pool in table.pools]
        rows.append([backbone, *("" if r is None else f"{r:.4f}" for r in ranks)])
    return _csv_text(["backbone", *table.pools], rows)
