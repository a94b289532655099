"""Shared fixtures-in-code: tiny named graphs, random generators, and a
training fingerprint."""

import hashlib

import numpy as np

from graphpool import diff, harness, sparse
from graphpool.dataset import Graph, make_batch, make_synthetic
from graphpool.layers import Stage
from graphpool.sparse import CsrMatrix


def path4() -> CsrMatrix:
    """P4: the path 0-1-2-3."""
    return sparse.from_dense(np.array([
        [0, 1, 0, 0],
        [1, 0, 1, 0],
        [0, 1, 0, 1],
        [0, 0, 1, 0],
    ], dtype=np.float64))


def cycle(n: int) -> CsrMatrix:
    idx = np.arange(n)
    rows = np.concatenate([idx, np.roll(idx, -1)])
    cols = np.concatenate([np.roll(idx, -1), idx])
    return CsrMatrix.from_coo(n, n, rows, cols, np.ones(2 * n))


def triangle() -> CsrMatrix:
    return sparse.from_dense(np.array([
        [0, 1, 1],
        [1, 0, 1],
        [1, 1, 0],
    ], dtype=np.float64))


def single_graph(a: CsrMatrix) -> Stage:
    """The one-graph stage of adjacency a."""
    return Stage.of(a, np.zeros(a.n_rows))


def circulant_pair():
    """Two copies of C_161(1, 2), each node joined to the two on either side,
    as one batch: a stage that fails the block rule, 2 * 161^2 > 32 * (4 *
    322 + 322), and so takes the CSR route."""
    n = 161
    ring = np.arange(n)
    cols = np.concatenate([(ring + step) % n for step in (1, -1, 2, -2)])
    circulant = CsrMatrix.from_coo(n, n, np.tile(ring, 4), cols, np.ones(4 * n))
    return make_batch([Graph(n, np.ones((n, 1)), circulant, label) for label in (0, 1)])


def edgeless(graph_id) -> Stage:
    """The stage of sorted graph ids without edges, all that topk and the
    segment ops read."""
    gid = np.asarray(graph_id)
    return Stage.of(CsrMatrix.empty(gid.size, gid.size), gid)


def random_integer_dense(rng, n_rows, n_cols, density=0.3, lo=-3, hi=3):
    dense = rng.integers(lo, hi + 1, (n_rows, n_cols)).astype(np.float64)
    dense *= rng.random((n_rows, n_cols)) < density
    return dense


def random_adjacency_dense(rng, n, p=0.35, directed=False):
    dense = rng.random((n, n)) < p
    np.fill_diagonal(dense, False)
    if not directed:
        dense |= dense.T
    return dense.astype(np.float64)


ALL_POOLS = ("nopool", "topk", "sag", "dense", "lcpool", "lcpool_star")


def _fingerprint_models(pools):
    """Each fixed-seed model of the fingerprints (``pools`` under both
    backbones, hidden 32, on each synthetic kind) with its four 16-graph
    batches."""
    for kind in ("cycles_vs_paths", "two_communities"):
        data = make_synthetic(kind, 64, seed=5)
        batches = [make_batch(data.graphs[lo : lo + 16]) for lo in range(0, 64, 16)]
        for backbone in ("hierarchical", "plain"):
            for pool in pools:
                cfg = harness.ModelConfig(backbone=backbone, pool=pool, hidden=32,
                                          pre_mlp=(32,), post_mlp=(32,))
                yield harness.build_model(cfg, data.feature_dim, data.num_classes,
                                          seed=0, mean_nodes=data.mean_nodes), batches


def training_fingerprint(pools=ALL_POOLS) -> str:
    """sha256 of the losses and final parameters of a fixed-seed Adam run.

    Each of ``pools`` (all six by default) under both backbones trains 4
    Adam steps (16-graph batches, hidden 32, lr 0.01) on each synthetic
    kind; ``pools=("topk",)`` hashes only the topk runs, so a change that
    moves one pool's bits can show the others unchanged.  It uses only
    long-standing public names, so pointing ``PYTHONPATH`` at another
    checkout's ``src`` fingerprints that checkout; with one BLAS thread,
    two commits that compute the same results give the same digest.
    """
    digest = hashlib.sha256()
    for model, batches in _fingerprint_models(pools):
        params = model.parameters()
        opt = diff.Adam(params, lr=0.01)
        for batch in batches:
            with diff.Tape():
                loss = diff.cross_entropy(model.forward(batch), batch.labels)
            opt.zero_grad()
            diff.backward(loss)
            opt.step()
            digest.update(loss.values.tobytes())
        for p in params:
            digest.update(p.tensor.values.tobytes())
    return digest.hexdigest()


def gradient_fingerprint(pools=ALL_POOLS) -> str:
    """sha256 of the loss and every parameter gradient of one taped step,
    with no optimizer, of each :func:`training_fingerprint` model on its
    first batch.

    A change that touches only the optimizer moves the training fingerprint
    but must leave this one equal; it compares checkouts the same way.
    """
    digest = hashlib.sha256()
    for model, batches in _fingerprint_models(pools):
        batch = batches[0]
        with diff.Tape():
            loss = diff.cross_entropy(model.forward(batch), batch.labels)
        diff.backward(loss)
        digest.update(loss.values.tobytes())
        for p in model.parameters():
            grad = p.tensor.grad
            digest.update(b"no gradient" if grad is None else grad.tobytes())
    return digest.hexdigest()
