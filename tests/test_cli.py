import os
import re
import subprocess
import sys
import warnings

import pytest

from graphpool import harness, selfcheck
from graphpool.cli import build_parser, load_config, main


class TestConfigFile:
    def test_key_value_parsing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nlr = 0.001\nmax-epochs = 7\npool = topk\n")
        values = load_config(str(path))
        assert values == {"lr": 0.001, "max_epochs": 7, "pool": ["topk"]}

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("lrr = 0.001\n")
        with pytest.raises(ValueError, match="unknown option"):
            load_config(str(path))

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just words\n")
        with pytest.raises(ValueError, match="key=value"):
            load_config(str(path))

    @pytest.mark.parametrize("key, value", [("backbone", "hier"), ("pool", "topk lcpoolstar")])
    def test_grid_value_outside_choices_rejected(self, tmp_path, key, value):
        path = tmp_path / "run.cfg"
        path.write_text(f"seed = 1\n{key} = {value}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: {key} takes one or more of")):
            load_config(str(path))

    def test_grid_values_accept_long_names_and_underscores(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("backbone = hierarchical p\npool = lcpool_star topk\n")
        values = load_config(str(path))
        assert values == {"backbone": ["hierarchical", "p"], "pool": ["lcpool-star", "topk"]}


class TestTrainCommand:
    def _run(self, tmp_path, extra=(), config_text=None):
        out = tmp_path / "results.json"
        argv = [
            "train", "--dataset", "synthetic:cycles_vs_paths",
            "--synthetic-size", "24", "--runs", "1", "--max-epochs", "2",
            "--patience", "2", "--batch-size", "8", "--hidden", "8",
            "--out", str(out), *extra,
        ]
        if config_text is not None:
            cfg_path = tmp_path / "run.cfg"
            cfg_path.write_text(config_text)
            argv += ["--config", str(cfg_path)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(argv)
        return code, out

    def test_train_writes_results_and_csv(self, tmp_path, capsys):
        code, out = self._run(tmp_path)
        assert code == 0
        records = harness.load_records(out)
        assert len(records) == 1
        assert out.with_suffix(".csv").exists()
        assert "mean_accuracy" in capsys.readouterr().out

    def test_config_file_supplies_flags(self, tmp_path):
        code, out = self._run(tmp_path, config_text="pool = topk\nseed = 3\n")
        assert code == 0
        rec = harness.load_records(out)[0]
        assert rec.model.pool == "topk"
        assert rec.run_seed == 3

    def test_cli_flag_overrides_config(self, tmp_path):
        code, out = self._run(tmp_path, extra=["--pool", "sag"],
                              config_text="pool = topk\n")
        assert code == 0
        assert harness.load_records(out)[0].model.pool == "sag"

    def test_explicit_default_valued_flag_beats_config(self, tmp_path):
        code, out = self._run(tmp_path, extra=["--pool", "lcpool"],
                              config_text="pool = topk\n")
        assert code == 0
        assert harness.load_records(out)[0].model.pool == "lcpool"

    def test_rank_round_trip(self, tmp_path, capsys):
        _, out = self._run(tmp_path)
        ranking = tmp_path / "ranking.csv"
        assert main(["rank", "--in", str(out), "--out", str(ranking)]) == 0
        text = ranking.read_text()
        assert text.splitlines()[0].startswith("backbone,")
        assert "1.0000" in text

    def test_grid_trains_backbone_major_and_ranks(self, tmp_path, capsys):
        code, out = self._run(tmp_path, extra=["--pool", "topk", "sag",
                                               "--backbone", "h", "p"])
        assert code == 0
        records = harness.load_records(out)
        pairs = [(r.model.backbone, r.model.pool) for r in records]
        assert pairs == [("hierarchical", "topk"), ("hierarchical", "sag"),
                         ("plain", "topk"), ("plain", "sag")]
        assert "plain/gcn sag seed 0:" in capsys.readouterr().out
        ranking = tmp_path / "ranking.csv"
        assert main(["rank", "--in", str(out), "--out", str(ranking)]) == 0
        lines = ranking.read_text().splitlines()
        assert lines[0] == "backbone,sag,topk"
        assert [line.split(",")[0] for line in lines[1:]] == ["hierarchical/gcn", "plain/gcn"]

    def test_repeated_grid_values_train_once(self, tmp_path):
        code, out = self._run(tmp_path, extra=["--backbone", "h", "hierarchical",
                                               "--pool", "topk", "topk"])
        assert code == 0
        assert len(harness.load_records(out)) == 1

    def test_config_file_grid_and_flag_override(self, tmp_path):
        code, out = self._run(tmp_path, extra=["--backbone", "h", "p"],
                              config_text="pool = topk sag\n")
        assert code == 0
        pairs = [(r.model.backbone, r.model.pool) for r in harness.load_records(out)]
        assert pairs == [("hierarchical", "topk"), ("hierarchical", "sag"),
                         ("plain", "topk"), ("plain", "sag")]
        code, out = self._run(tmp_path, extra=["--backbone", "h", "p", "--pool", "nopool"],
                              config_text="pool = topk sag\n")
        assert code == 0
        assert [r.model.pool for r in harness.load_records(out)] == ["nopool", "nopool"]

    def test_out_colliding_with_records_csv_refused(self, tmp_path):
        out = tmp_path / "results.csv"
        with pytest.raises(SystemExit, match=re.escape(f"--out {out} and its records CSV {out} ")):
            main(["train", "--dataset", "synthetic:cycles_vs_paths", "--out", str(out)])
        assert not out.exists()

    def test_out_in_missing_directory_refused_before_training(self, tmp_path, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("the dataset loaded or a run started")

        monkeypatch.setattr("graphpool.cli.load_dataset", no_run)
        monkeypatch.setattr(harness, "evaluate_suite", no_run)
        out = tmp_path / "missing" / "r.json"
        with pytest.raises(SystemExit, match=re.escape(f"directory {out.parent} does not exist")):
            main(["train", "--dataset", "synthetic:cycles_vs_paths", "--out", str(out)])
        assert not out.parent.exists()

    @pytest.mark.parametrize("flag, value, named", [
        ("--ratio", "0", "pool ratio"), ("--lr", "-1", "lr"), ("--runs", "0", "runs"),
        ("--hidden", "0", "widths must be positive, got hidden 0"),
        ("--max-epochs", "0", "max_epochs")])
    def test_bad_setting_refused_before_loading(self, tmp_path, monkeypatch, flag, value,
                                                named):
        def no_run(*args, **kwargs):
            raise AssertionError("the dataset loaded or a run started")

        monkeypatch.setattr("graphpool.cli.load_dataset", no_run)
        monkeypatch.setattr(harness, "evaluate_suite", no_run)
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit, match=rf"^train: {named}\b"):
            main(["train", "--dataset", "synthetic:cycles_vs_paths", "--out", str(out),
                  flag, value])
        assert not out.exists()

    def test_rank_out_in_missing_directory_refused_before_loading(self, tmp_path, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("the records loaded or were ranked")

        monkeypatch.setattr(harness, "load_records", no_run)
        monkeypatch.setattr(harness, "rank", no_run)
        out = tmp_path / "missing" / "rank.csv"
        with pytest.raises(SystemExit, match=re.escape(f"directory {out.parent} does not exist")):
            main(["rank", "--in", str(tmp_path / "r.json"), "--out", str(out)])
        assert not out.parent.exists()

    def test_synthetic_kind_validated(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["train", "--dataset", "synthetic:bogus", "--out",
                  str(tmp_path / "r.json")])

    def test_dataset_required(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["train", "--out", str(tmp_path / "r.json")])


def test_parser_pool_choices_use_hyphens():
    parser = build_parser()
    args = parser.parse_args(["train", "--dataset", "x", "--pool", "lcpool-star"])
    assert args.pool == ["lcpool-star"]


def _fake_check(name, passed):
    return lambda: selfcheck.CheckResult(name, passed, "fake")


# The real checks run with these arguments in tests/test_acceptance.py
# (test_01-06, 08 and 10); here only the command's wiring is under test.
def test_selftest_command_passes(capsys, monkeypatch):
    monkeypatch.setattr(selfcheck, "FAST_CHECKS", (_fake_check("a", True), _fake_check("b", True)))
    assert main(["selftest"]) == 0
    assert capsys.readouterr().out.splitlines() == ["PASS a: fake", "PASS b: fake"]


def test_selftest_command_fails_on_one_failing_check(capsys, monkeypatch):
    checks = (_fake_check("good", True), _fake_check("bad", False))
    monkeypatch.setattr(selfcheck, "FAST_CHECKS", checks)
    assert main(["selftest"]) == 1
    assert capsys.readouterr().out.splitlines() == ["PASS good: fake", "FAIL bad: fake"]


def test_console_entry_trains_a_pool_list(tmp_path):
    out = tmp_path / "r.json"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-m", "graphpool.cli", "train",
         "--dataset", "synthetic:cycles_vs_paths", "--synthetic-size", "24",
         "--pool", "topk", "nopool", "--runs", "1", "--max-epochs", "1",
         "--hidden", "8", "--out", str(out)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(harness.load_records(out)) == 2
