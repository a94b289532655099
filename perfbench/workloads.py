"""Workload definitions, set-up, and the measured round.

A round restores every model to its post-warm-up parameters and a fresh
Adam, then does a fixed amount of work: the workload's fixture loads, one
training pass and one validation pass per model, and the ``make_batch``
passes.  Every round therefore repeats the same deterministic work: each
step, evaluation, load and batch pass is timed once per round under the same
key, and the traced round's counts repeat exactly.  One closed-loop caller
drives everything: each operation starts when the previous one has returned.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np
from graphpool import dataset, diff, harness

import fixture
import oracle

BATCH_SIZE = 32
LEARNING_RATE = 0.0005
SPLIT = (0.8, 0.1, 0.1)
PROBE_GRAPHS = 32
STAGES = 3  # hierarchical backbone: three conv/pool blocks


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # graphpool synthetic generator
    n_graphs: int
    label_values: int  # distinct node labels written to the fixture
    models: tuple[tuple[str, str, str], ...]  # (backbone, conv, pool); the first is probed
    train_batches: int | None  # per model and round; None is one full epoch
    loads_per_round: int
    batch_passes_per_round: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train-lcpool",
            "hierarchical GCN with lcpool and lcpool_star on two_communities "
            "(mean degree 4.6): exercises the closure rewire and the Lcsmp scorer",
            "two_communities", 200, 1,
            (("hierarchical", "gcn", "lcpool"), ("hierarchical", "gcn", "lcpool_star")),
            None, 3, 5,
        ),
        Workload(
            "train-baselines",
            "nopool, topk, sag, dense and a plain GraphConv topk on cycles_vs_paths "
            "(mean degree 1.9): no closure, no Lcsmp; spmm, segment ops, dense loop",
            "cycles_vs_paths", 200, 1,
            (
                ("hierarchical", "gcn", "topk"),
                ("hierarchical", "gcn", "nopool"),
                ("hierarchical", "gcn", "sag"),
                ("hierarchical", "gcn", "dense"),
                ("plain", "graphconv", "topk"),
            ),
            None, 3, 5,
        ),
        Workload(
            "load-tudataset",
            "1,000-graph TUDataset flat-file fixture with three node labels: "
            "load_tudataset and make_batch dominate, training is a small share",
            "two_communities", 1000, 3,
            (("hierarchical", "gcn", "topk"),),
            20, 1, 3,
        ),
    )
}


@dataclass
class ModelRun:
    label: str
    model: harness.Model
    params: list
    snapshot: dict
    shuffle_seed: int


@dataclass
class State:
    workload: Workload
    data: dataset.Dataset
    splits: tuple
    runs: list[ModelRun]
    fixture_root: str
    counts: fixture.FixtureCounts
    probe: dataset.GraphBatch


@dataclass
class Samples:
    """Timings in seconds, one per round for each repeated unit of work,
    and the gate's tally of operations."""

    # (model, batch index) -> [(step, forward, backward, adam, graphs)]
    steps: dict = field(default_factory=dict)
    evals: dict = field(default_factory=dict)  # model -> [seconds]
    load: list = field(default_factory=list)
    batch_pass: list = field(default_factory=list)
    round_wall: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _train_pass(run: ModelRun, graphs, n_batches, samples: Samples, tracer) -> None:
    """One fixed training pass from the snapshot."""
    diff.restore(run.params, run.snapshot)
    opt = diff.Adam(run.params, lr=LEARNING_RATE)
    order = np.random.default_rng(run.shuffle_seed).permutation(len(graphs))
    shuffled = [graphs[i] for i in order]
    chunks = [shuffled[lo : lo + BATCH_SIZE] for lo in range(0, len(shuffled), BATCH_SIZE)]
    if n_batches is not None:
        chunks = chunks[:n_batches]
    for i, chunk in enumerate(chunks):
        span = tracer.open("bench.step") if tracer is not None else None
        t0 = time.perf_counter()
        batch = dataset.make_batch(chunk)
        t1 = time.perf_counter()
        with diff.Tape():
            loss = diff.cross_entropy(run.model.forward(batch), batch.labels)
        t2 = time.perf_counter()
        opt.zero_grad()
        diff.backward(loss)
        t3 = time.perf_counter()
        opt.step()
        t4 = time.perf_counter()
        if tracer is not None:
            tracer.close(span)
        samples.check(bool(np.isfinite(loss.values[0, 0])), f"{run.label}: non-finite loss")
        samples.steps.setdefault((run.label, i), []).append(
            (t4 - t0, t2 - t1, t3 - t2, t4 - t3, len(chunk)))


def run_round(state: State, samples: Samples, tracer=None) -> float:
    """The fixed unit of work; returns its wall time."""
    w = state.workload
    train_set, val_set, _ = state.splits
    start = time.perf_counter()
    for _ in range(w.loads_per_round):
        t0 = time.perf_counter()
        loaded = dataset.load_tudataset(state.fixture_root, fixture.FIXTURE_NAME)
        samples.load.append(time.perf_counter() - t0)
        problem = fixture.mismatch(loaded, state.data)
        samples.check(problem is None, f"fixture load: {problem}")
    for run in state.runs:
        _train_pass(run, train_set.graphs, w.train_batches, samples, tracer)
        t0 = time.perf_counter()
        acc, loss = harness.evaluate(run.model, val_set, BATCH_SIZE)
        samples.evals.setdefault(run.label, []).append(time.perf_counter() - t0)
        samples.check(0.0 <= acc <= 1.0 and bool(np.isfinite(loss)),
                      f"{run.label}: evaluation returned accuracy {acc}, loss {loss}")
    graphs = state.data.graphs
    expected_nnz = [sum(g.a.nnz for g in graphs[lo : lo + BATCH_SIZE])
                    for lo in range(0, len(graphs), BATCH_SIZE)]
    for _ in range(w.batch_passes_per_round):
        t0 = time.perf_counter()
        batches = [dataset.make_batch(graphs[lo : lo + BATCH_SIZE])
                   for lo in range(0, len(graphs), BATCH_SIZE)]
        samples.batch_pass.append(time.perf_counter() - t0)
        samples.check([b.a.nnz for b in batches] == expected_nnz,
                      "make_batch pass: batched edge counts differ from the graphs'")
    wall = time.perf_counter() - start
    samples.round_wall.append(wall)
    return wall


def setup(workload: Workload, seed: int, scratch: str) -> State:
    """Generate and write the fixture, split, build the models, warm up.

    The warm-up is one untimed training pass per model, so caches a later
    change might add are filled before timing, and its cost lands here.
    """
    data = fixture.generate(workload.kind, workload.n_graphs, workload.label_values, seed)
    root = tempfile.mkdtemp(prefix="fixture-", dir=scratch)
    counts = fixture.write(data, root)
    splits = dataset.split(data, SPLIT, seed)
    runs = []
    for i, (backbone, conv, pool) in enumerate(workload.models):
        cfg = harness.ModelConfig(backbone=backbone, conv=conv, pool=pool)
        model = harness.build_model(cfg, data.feature_dim, data.num_classes, seed + i,
                                    mean_nodes=data.mean_nodes)
        params = model.parameters()
        run = ModelRun(f"{backbone}/{conv}/{pool}", model, params,
                       diff.snapshot(params), seed + 1000 + i)
        _train_pass(run, splits[0].graphs, workload.train_batches, Samples(), None)
        run.snapshot = diff.snapshot(params)
        runs.append(run)
    probe = dataset.make_batch(data.graphs[:PROBE_GRAPHS])
    return State(workload, data, splits, runs, root, counts, probe)


def gate_probe(state: State, samples: Samples) -> tuple[dict, int]:
    """Check the probe batch and every pool stage against the references.

    Returns the probe model's pooled-graph counters and the tape entries of
    one training step of each model, summed.
    """
    probe_graphs = state.data.graphs[:PROBE_GRAPHS]
    blocks = [oracle.dense(g.a) for g in probe_graphs]
    size = sum(b.shape[0] for b in blocks)
    want = np.zeros((size, size))
    off = 0
    for b in blocks:
        want[off : off + b.shape[0], off : off + b.shape[0]] = b
        off += b.shape[0]
    samples.check(np.array_equal(oracle.dense(state.probe.a), want),
                  "make_batch: probe adjacency is not the block diagonal of its graphs")
    counters: dict = {}
    entries = 0
    for i, run in enumerate(state.runs):
        diff.restore(run.params, run.snapshot)
        stages = oracle.record_stages(run.model, state.probe)
        for j, stage in enumerate(stages):
            problem = oracle.check_stage(stage, run.model.cfg.ratio)
            samples.check(problem is None, f"{run.label} stage {j}: {problem}")
        if i == 0:
            counters = oracle.stage_counters(stages, STAGES)
        entries += oracle.tape_entries(run.model, state.probe)
    return counters, entries


def scratch_dir(repo_root: str) -> str:
    path = os.path.join(repo_root, "perfbench", "out")
    os.makedirs(path, exist_ok=True)
    return path
