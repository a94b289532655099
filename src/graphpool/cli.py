"""Command line harness: train, rank, selftest."""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, NamedTuple

from . import harness, selfcheck
from .dataset import SYNTHETIC_KINDS, load_tudataset, make_synthetic

_BACKBONE_ALIASES = {"h": "hierarchical", "p": "plain",
                     "hierarchical": "hierarchical", "plain": "plain"}


class _Option(NamedTuple):
    parse: Callable[[str], object] = str
    default: object = None
    choices: tuple[str, ...] = ()  # set only on the grid axes, which take one or more values
    help: str | None = None


# Every train option under its config-file key (the flag with "_" for "-").
# The parser's flags, the config-file keys and the defaults all come from here.
_TRAIN_OPTIONS = {
    "dataset": _Option(help="TUDataset name or synthetic:<kind>"),
    "data_root": _Option(default="data", help="directory holding <NAME>/ TUDataset folders"),
    "backbone": _Option(default=("h",), choices=tuple(sorted(_BACKBONE_ALIASES)),
                        help="h = hierarchical, p = plain"),
    "conv": _Option(default=("gcn",), choices=harness.CONVS, help="graph convolution"),
    "pool": _Option(default=("lcpool",),
                    choices=tuple(p.replace("_", "-") for p in harness.POOLS),
                    help="pooling strategy"),
    "ratio": _Option(float, harness.ModelConfig.ratio, help="share of nodes a pool keeps"),
    "runs": _Option(int, 10, help="runs per configuration, seeds seed .. seed+runs-1"),
    "seed": _Option(int, harness.TrainConfig.seed, help="seed of the first run"),
    "max_epochs": _Option(int, harness.TrainConfig.max_epochs, help="epoch cap per run"),
    "patience": _Option(int, harness.TrainConfig.patience,
                        help="epochs without a validation gain before stopping"),
    "batch_size": _Option(int, harness.TrainConfig.batch_size, help="graphs per batch"),
    "lr": _Option(float, harness.TrainConfig.lr, help="Adam learning rate"),
    "hidden": _Option(int, harness.ModelConfig.hidden, help="hidden width"),
    "synthetic_size": _Option(int, 200, help="graph count for synthetic:<kind> datasets"),
    "out": _Option(default="results.json",
                   help="results JSON; the records CSV goes beside it as <stem>.csv"),
}


def _config_value(key: str, text: str):
    opt = _TRAIN_OPTIONS[key]
    if not opt.choices:
        return opt.parse(text)
    values = [v.replace("_", "-") for v in text.split()]
    if not values or not set(values) <= set(opt.choices):
        raise ValueError(f"{key} takes one or more of {' '.join(opt.choices)}; got {text!r}")
    return values


def load_config(path: str) -> dict:
    """key=value lines; '#' starts a comment; keys match the train flags.

    A grid axis (backbone, conv, pool) takes space-separated values.
    """
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
            try:
                values[key] = _config_value(key, value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="graphpool")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser(
        "train", help="train every backbone x conv x pool combination for several runs")
    train.add_argument("--config", help="key=value file supplying any flag; flags override")
    # unset flags stay absent from the namespace, so a config file sits
    # between the table's defaults and explicit flags
    for key, opt in _TRAIN_OPTIONS.items():
        train.add_argument("--" + key.replace("_", "-"), type=opt.parse,
                           default=argparse.SUPPRESS, choices=opt.choices or None,
                           nargs="+" if opt.choices else None, help=opt.help)

    rank = sub.add_parser("rank", help="average-rank table from saved results")
    rank.add_argument("--in", dest="in_path", required=True)
    rank.add_argument("--out", default="ranking.csv")

    selftest = sub.add_parser("selftest", help="run the oracle and property suites")
    selftest.add_argument("--full", action="store_true",
                          help="include the slow synthetic training check")
    return parser


def _train_settings(args: argparse.Namespace) -> dict:
    """Defaults, then the config file, then explicit flags."""
    settings = {key: opt.default for key, opt in _TRAIN_OPTIONS.items()}
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


def _require_out_directory(out: str) -> None:
    """Refuse an --out path whose directory is missing, before any work."""
    if not os.path.isdir(os.path.dirname(out) or "."):
        raise SystemExit(f"--out {out}: directory {os.path.dirname(out)} does not exist")


def _cmd_train(args) -> int:
    opts = _train_settings(args)
    out = opts["out"]
    csv_path = os.path.splitext(out)[0] + ".csv"
    if csv_path == out:
        raise SystemExit(f"--out {out} and its records CSV {csv_path} are the same file; "
                         "give --out another extension, e.g. .json")
    _require_out_directory(out)
    if opts["runs"] < 1:
        raise SystemExit(f"train: runs must be at least 1, got {opts['runs']}")
    try:
        # a set of combinations: a repeated value or alias trains once, in first place
        models = list(dict.fromkeys(
            harness.ModelConfig(backbone=_BACKBONE_ALIASES[backbone], conv=conv,
                                pool=pool.replace("-", "_"), hidden=opts["hidden"],
                                ratio=opts["ratio"])
            for backbone in opts["backbone"] for conv in opts["conv"] for pool in opts["pool"]
        ))
        tcfg = harness.TrainConfig(
            max_epochs=opts["max_epochs"],
            patience=opts["patience"],
            batch_size=opts["batch_size"],
            lr=opts["lr"],
            seed=opts["seed"],
        )
    except ValueError as exc:
        raise SystemExit(f"train: {exc}") from None
    dataset = load_dataset(opts)
    print(f"dataset {dataset.name}: {len(dataset)} graphs, "
          f"{dataset.num_classes} classes, feature dim {dataset.feature_dim}")
    records = harness.evaluate_suite(
        models, dataset, opts["runs"], tcfg,
        progress=lambda r: print(
            f"  {r.model.backbone_label} {r.model.pool} seed {r.run_seed}: "
            f"accuracy {r.test_accuracy:.4f} (best epoch {r.best_epoch} of {r.epochs_run}, "
            f"{r.wall_time:.0f}s)"
        ),
    )
    harness.save_records(records, out)
    with open(csv_path, "w") as fh:
        fh.write(harness.records_csv(records))
    print(harness.summary_csv(records), end="")
    print(f"wrote {out} and {csv_path}")
    return 0


def _cmd_rank(args) -> int:
    _require_out_directory(args.out)
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
