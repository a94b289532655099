#!/usr/bin/env python3
"""Sweep pooling strategies over a dataset and write results plus a ranking.

Example:
    python scripts/run_experiments.py --dataset synthetic:cycles_vs_paths \
        --backbones h p --runs 3 --max-epochs 100 --out-dir results/
"""

import argparse
import os
import warnings

from graphpool import harness
from graphpool.cli import load_dataset


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", required=True,
                        help="TUDataset name or synthetic:<kind>")
    parser.add_argument("--data-root", default="data")
    parser.add_argument("--synthetic-size", type=int, default=200)
    parser.add_argument("--backbones", nargs="+", default=["h"],
                        choices=["h", "p"], help="h=hierarchical, p=plain")
    parser.add_argument("--convs", nargs="+", default=["gcn"],
                        choices=list(harness.CONVS))
    parser.add_argument("--pools", nargs="+", default=list(harness.POOLS),
                        choices=list(harness.POOLS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-epochs", type=int, default=500)
    parser.add_argument("--patience", type=int, default=50)
    parser.add_argument("--hidden", type=int, default=128)
    parser.add_argument("--ratio", type=float, default=0.5)
    parser.add_argument("--out-dir", default="results")
    return parser.parse_args()


def main():
    args = parse_args()
    dataset = load_dataset(vars(args))
    print(f"{dataset.name}: {len(dataset)} graphs, {dataset.num_classes} classes")

    backbone_names = {"h": "hierarchical", "p": "plain"}
    models = [
        harness.ModelConfig(backbone=backbone_names[b], conv=conv, pool=pool,
                            hidden=args.hidden, ratio=args.ratio)
        for b in args.backbones for conv in args.convs for pool in args.pools
    ]
    cfg = harness.TrainConfig(max_epochs=args.max_epochs, patience=args.patience,
                              seed=args.seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        records = harness.evaluate_suite(
            models, [dataset], args.runs, cfg,
            progress=lambda r: print(
                f"  {r.model.backbone_label} {r.model.pool} seed {r.run_seed}: "
                f"{r.test_accuracy:.4f} ({r.wall_time:.0f}s)"
            ),
        )

    os.makedirs(args.out_dir, exist_ok=True)
    harness.save_records(records, os.path.join(args.out_dir, "results.json"))
    with open(os.path.join(args.out_dir, "results.csv"), "w") as fh:
        fh.write(harness.records_csv(records))
    with open(os.path.join(args.out_dir, "summary.csv"), "w") as fh:
        fh.write(harness.summary_csv(records))
    table = harness.rank(records)
    with open(os.path.join(args.out_dir, "ranking.csv"), "w") as fh:
        fh.write(harness.ranking_csv(table))
    print(harness.summary_csv(records), end="")
    print(harness.ranking_csv(table), end="")
    print(f"wrote results under {args.out_dir}/")


if __name__ == "__main__":
    main()
