"""Command line harness: train, rank, selftest."""

from __future__ import annotations

import argparse
import os
import sys

from . import harness, selfcheck
from .dataset import SYNTHETIC_KINDS, load_tudataset, make_synthetic

_BACKBONE_ALIASES = {"h": "hierarchical", "p": "plain",
                     "hierarchical": "hierarchical", "plain": "plain"}

# flag -> value parser, used both for CLI strings and config files
_TRAIN_OPTIONS = {
    "dataset": str,
    "data_root": str,
    "backbone": str,
    "conv": str,
    "pool": str,
    "ratio": float,
    "runs": int,
    "seed": int,
    "max_epochs": int,
    "patience": int,
    "batch_size": int,
    "lr": float,
    "hidden": int,
    "synthetic_size": int,
    "out": str,
}

_TRAIN_DEFAULTS = {
    "dataset": None,
    "data_root": "data",
    "backbone": "h",
    "conv": "gcn",
    "pool": "lcpool",
    "ratio": 0.5,
    "runs": 10,
    "seed": 0,
    "max_epochs": 500,
    "patience": 50,
    "batch_size": 32,
    "lr": 0.0005,
    "hidden": 128,
    "synthetic_size": 200,
    "out": "results.json",
}


def load_config(path: str) -> dict:
    """key=value lines; '#' starts a comment; keys match the CLI flags."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in _TRAIN_OPTIONS:
                raise ValueError(f"{path}:{lineno}: unknown option {key!r}")
            values[key] = _TRAIN_OPTIONS[key](value)
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="graphpool")
    sub = parser.add_subparsers(dest="command", required=True)

    # defaults live in _TRAIN_DEFAULTS so config files sit between them and
    # explicit flags; unset flags stay absent from the namespace
    train = sub.add_parser("train", help="train one configuration for several runs")
    omit = argparse.SUPPRESS
    train.add_argument("--config", help="key=value file supplying any flag; flags override")
    train.add_argument("--dataset", default=omit, help="TUDataset name or synthetic:<kind>")
    train.add_argument("--data-root", default=omit)
    train.add_argument("--backbone", choices=sorted(_BACKBONE_ALIASES), default=omit)
    train.add_argument("--conv", choices=harness.CONVS, default=omit)
    train.add_argument("--pool", default=omit,
                       choices=[p.replace("_", "-") for p in harness.POOLS])
    train.add_argument("--ratio", type=float, default=omit)
    train.add_argument("--runs", type=int, default=omit)
    train.add_argument("--seed", type=int, default=omit)
    train.add_argument("--max-epochs", type=int, default=omit)
    train.add_argument("--patience", type=int, default=omit)
    train.add_argument("--batch-size", type=int, default=omit)
    train.add_argument("--lr", type=float, default=omit)
    train.add_argument("--hidden", type=int, default=omit)
    train.add_argument("--synthetic-size", type=int, default=omit,
                       help="graph count for synthetic:<kind> datasets")
    train.add_argument("--out", default=omit)

    rank = sub.add_parser("rank", help="average-rank table from saved results")
    rank.add_argument("--in", dest="in_path", required=True)
    rank.add_argument("--out", default="ranking.csv")

    selftest = sub.add_parser("selftest", help="run the oracle and property suites")
    selftest.add_argument("--full", action="store_true",
                          help="include the slow synthetic training check")
    return parser


def _train_settings(args: argparse.Namespace) -> dict:
    """Defaults, then the config file, then explicit flags."""
    settings = dict(_TRAIN_DEFAULTS)
    if getattr(args, "config", None):
        settings.update(load_config(args.config))
    settings.update({k: v for k, v in vars(args).items() if k in _TRAIN_OPTIONS})
    return settings


def load_dataset(opts: dict):
    name = opts["dataset"]
    if name is None:
        raise SystemExit("train requires --dataset (flag or config file)")
    if name.startswith("synthetic:"):
        kind = name.split(":", 1)[1]
        if kind not in SYNTHETIC_KINDS:
            raise SystemExit(f"unknown synthetic kind {kind!r}; choose from {SYNTHETIC_KINDS}")
        return make_synthetic(kind, opts["synthetic_size"], seed=opts["seed"])
    return load_tudataset(opts["data_root"], name)


def _cmd_train(args) -> int:
    opts = _train_settings(args)
    dataset = load_dataset(opts)
    mcfg = harness.ModelConfig(
        backbone=_BACKBONE_ALIASES[opts["backbone"]],
        conv=opts["conv"],
        pool=opts["pool"].replace("-", "_"),
        hidden=opts["hidden"],
        ratio=opts["ratio"],
    )
    tcfg = harness.TrainConfig(
        max_epochs=opts["max_epochs"],
        patience=opts["patience"],
        batch_size=opts["batch_size"],
        lr=opts["lr"],
        seed=opts["seed"],
    )
    print(f"dataset {dataset.name}: {len(dataset)} graphs, "
          f"{dataset.num_classes} classes, feature dim {dataset.feature_dim}")
    records = harness.evaluate_suite(
        [mcfg], [dataset], opts["runs"], tcfg,
        progress=lambda r: print(
            f"  seed {r.run_seed}: accuracy {r.test_accuracy:.4f} "
            f"(best epoch {r.best_epoch}, {r.wall_time:.0f}s)"
        ),
    )
    harness.save_records(records, opts["out"])
    csv_path = os.path.splitext(opts["out"])[0] + ".csv"
    with open(csv_path, "w") as fh:
        fh.write(harness.records_csv(records))
    print(harness.summary_csv(records), end="")
    print(f"wrote {opts['out']} and {csv_path}")
    return 0


def _cmd_rank(args) -> int:
    records = harness.load_records(args.in_path)
    table = harness.rank(records)
    text = harness.ranking_csv(table)
    with open(args.out, "w") as fh:
        fh.write(text)
    print(text, end="")
    print(f"wrote {args.out}")
    return 0


def _cmd_selftest(args) -> int:
    results = selfcheck.run_selftest(full=args.full)
    for result in results:
        print(result.line())
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "train":
        return _cmd_train(args)
    if args.command == "rank":
        return _cmd_rank(args)
    return _cmd_selftest(args)


if __name__ == "__main__":
    sys.exit(main())
