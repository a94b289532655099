"""Timed rounds and the statistics reported from them.

Every round repeats the same work, so each unit of work is timed once per
round under the same key and reported at its best round.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

import tracing
import workloads

MIN_ROUNDS = 3
CALL_COUNTS = (
    "sparse.spgemm", "sparse.spmm", "sparse.transpose", "sparse.is_symmetric",
    "sparse.CsrMatrix.from_coo", "sparse.select_rows_cols", "layers.gcn_normalized",
    "dataset.make_batch",
)


def untraced(state, seconds: float):
    """Untraced rounds until the time is spent; end-to-end metrics.

    The units of work are a step of one model on one batch, an evaluation,
    a load and a batch pass.  On a shared host the slower repeats of a unit
    measure the neighbours, not graphpool, so medians are taken over the
    workload's distinct steps at their best round.  The tail, ``p90``, is
    taken over every timed step, so that it rests on more than ten samples.
    """
    samples = workloads.Samples()
    start = time.perf_counter()
    while True:
        workloads.run_round(state, samples)
        elapsed = time.perf_counter() - start
        rounds = len(samples.round_wall)
        if rounds >= MIN_ROUNDS and elapsed + elapsed / rounds > seconds:
            break
    # rows: distinct steps; columns: step, forward, backward, adam, graphs
    best = {key: np.min(np.array(times), axis=0) for key, times in samples.steps.items()}
    table = np.array(list(best.values()))
    evals = [min(times) for times in samples.evals.values()]
    n = len(state.data)
    metrics = {
        "train_graphs_per_s": float(table[:, 4].sum() / table[:, 0].sum()),
        "step_ms.p50": 1e3 * float(np.percentile(table[:, 0], 50)),
        "step_ms.p90": 1e3 * float(np.percentile(
            [times[0] for runs in samples.steps.values() for times in runs], 90)),
        "forward_ms.p50": 1e3 * float(np.percentile(table[:, 1], 50)),
        "backward_ms.p50": 1e3 * float(np.percentile(table[:, 2], 50)),
        "adam_ms.p50": 1e3 * float(np.percentile(table[:, 3], 50)),
        "eval_graphs_per_s": len(state.splits[1]) * len(evals) / sum(evals),
        "load_graphs_per_s": n / min(samples.load),
        "batch_graphs_per_s": n / min(samples.batch_pass),
    }
    by_model: dict = {}
    for (label, _), row in best.items():
        by_model.setdefault(label, []).append(1e3 * float(row[0]))
    detail = {
        "rounds": len(samples.round_wall),
        "distinct_steps": len(best),
        "steps": sum(len(runs) for runs in samples.steps.values()),
        "loads": len(samples.load),
        "batch_passes": len(samples.batch_pass),
        "step_ms.p50_by_model": {k: statistics.median(v) for k, v in by_model.items()},
    }
    return samples, metrics, detail


def traced(state, seconds: float, out_path: str):
    """Alternate untraced and traced rounds; per-layer metrics.

    Self times and round walls are taken at their best round, as in
    :func:`untraced`.  Counts come from the first traced round; every round
    repeats the same work, so later traced rounds must give the same counts.
    """
    samples = workloads.Samples()
    plain_walls, traced_walls, summaries, all_spans = [], [], [], []
    first_counts = None
    start = time.perf_counter()
    while True:
        plain_walls.append(workloads.run_round(state, samples))
        tracer = tracing.Tracer()
        with tracer:
            traced_walls.append(workloads.run_round(state, samples, tracer))
        summaries.append(tracing.summarize(tracer, "bench.step"))
        counts = dict(tracer.counts)
        if first_counts is None:
            first_counts = counts
        samples.check(counts == first_counts, "traced rounds did different work")
        all_spans.append(tracer.spans)
        elapsed = time.perf_counter() - start
        if len(traced_walls) >= 2 and elapsed + elapsed / len(traced_walls) > seconds:
            break
    metrics = {f"{name}.self_s": min(s[f"{name}.self_s"] for s in summaries)
               for name in tracing.SPAN_NAMES}
    for name in CALL_COUNTS:
        metrics[f"{name}.calls"] = summaries[0][f"{name}.calls"]
    products = first_counts.get("sparse.spgemm.products", 0)
    metrics["sparse.spgemm.products"] = products
    metrics["sparse.spgemm.useful_ratio"] = (
        first_counts.get("sparse.spgemm.out_nnz", 0) / products if products else 0.0)
    for key in ("sparse.spmm.flops", "sparse.hop_closure.out_nnz",
                "sparse.CsrMatrix.from_coo.triplets_in", "layers.Lcsmp.pre_softmax.edge_rows"):
        metrics[key] = first_counts.get(key, 0)
    wall = sum(s["step_wall_s"] for s in summaries)
    metrics["trace.step_self_sum_ratio"] = sum(s["step_self_sum_s"] for s in summaries) / wall
    metrics["trace.step_layer_share"] = 1.0 - sum(s["step_own_s"] for s in summaries) / wall
    metrics["trace.overhead_s"] = min(traced_walls) - min(plain_walls)
    metrics["trace.overhead_ratio"] = metrics["trace.overhead_s"] / min(plain_walls)
    names = sorted({s[0] for spans in all_spans for s in spans})
    index = {name: i for i, name in enumerate(names)}
    with open(out_path, "w") as fh:
        json.dump({"names": names,
                   "rounds": [[[index[s[0]], s[1], s[2], s[3]] for s in spans]
                              for spans in all_spans]}, fh)
        fh.write("\n")
    detail = {"rounds": len(traced_walls), "spans": sum(len(s) for s in all_spans)}
    return samples, metrics, detail
