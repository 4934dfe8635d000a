"""End-to-end command tests, run in process through main(argv)."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fusecast import evaluation
from fusecast.cli import (
    _bool,
    main,
    make_run_dir,
    parse_config_file,
    resolve_config,
    write_json,
)
from fusecast.errors import ConfigError
from fusecast.model import load_checkpoint
from fusecast.train import assemble_windows

BASE = [
    "--context-len", "12", "--segment-len", "4", "--hidden-dim", "8",
    "--experts", "2", "--layers", "0", "--heads", "1", "--epochs", "2",
    "--batch", "8", "--horizon", "4", "--stride", "4",
    "--split-counts", "72,24,24", "--lr", "1e-2",
]


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-data") / "sine.csv"
    assert main(["synth", "--kind", "sine", "--length", "120", "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def trained(tmp_path_factory, data_csv):
    out_root = tmp_path_factory.mktemp("cli-runs")
    rc = main(["train", "--data", str(data_csv), "--out-root", str(out_root)] + BASE)
    assert rc == 0
    (run_dir,) = [p for p in out_root.iterdir() if p.is_dir()]
    return run_dir


def test_cli_import_loads_every_module():
    # perfbench/probe.py imports fusecast.cli alone, then traces these modules
    modules = {f"fusecast.{name}" for name in ("cli", "data", "descriptors", "textenc",
                                               "model", "train", "evaluation", "synth")}
    code = "import sys, fusecast.cli; print(*sorted(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(Path(evaluation.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert modules <= set(out.split())


class TestConfigResolution:
    def test_defaults(self):
        cfg = resolve_config(None, {})
        assert cfg["context_len"] == 168
        assert cfg["hidden_dim"] == 64
        assert cfg["lambda"] == 0.1
        assert cfg["gated"] is True

    def test_file_then_flags(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\n\nepochs = 3\nlr=0.05\n")
        cfg = resolve_config(path, {"epochs": "5"})
        assert cfg["epochs"] == 5  # flag beats file
        assert cfg["lr"] == 0.05  # file beats default

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            resolve_config(None, {"bogus": "1"})

    def test_unparseable_value(self):
        with pytest.raises(ConfigError):
            resolve_config(None, {"epochs": "three"})

    def test_text_mode_guard(self):
        with pytest.raises(ConfigError):
            resolve_config(None, {"text_mode": "oracle"})

    def test_config_file_syntax(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("epochs\n")
        with pytest.raises(ConfigError):
            parse_config_file(path)

    @pytest.mark.parametrize("text,expected", [
        ("1", True), ("true", True), ("YES", True), ("on", True),
        ("0", False), ("false", False), ("No", False), ("off", False),
    ])
    def test_bool_values(self, text, expected):
        assert _bool(text) is expected

    def test_bool_rejects(self):
        with pytest.raises(ConfigError):
            _bool("maybe")


class TestRunDir:
    def test_hash_named(self, tmp_path):
        run = make_run_dir(tmp_path, "train", {"config": {"a": 1}})
        assert run.is_dir()
        assert re.fullmatch(r"train-[0-9a-f]{12}", run.name)

    def test_deterministic_and_payload_sensitive(self, tmp_path):
        a = make_run_dir(tmp_path, "train", {"config": {"a": 1}})
        b = make_run_dir(tmp_path, "train", {"config": {"a": 1}})
        c = make_run_dir(tmp_path, "train", {"config": {"a": 2}})
        assert a == b != c

    def test_write_json_stable(self, tmp_path):
        path = tmp_path / "x.json"
        write_json(path, {"b": 1, "a": [2, 3]})
        assert path.read_text() == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'


class TestSynthCommand:
    def test_deterministic_output(self, tmp_path, capsys):
        args = ["synth", "--kind", "two-regime", "--length", "80"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert "wrote 80x1 two-regime series" in capsys.readouterr().out

    def test_comment_header(self, tmp_path):
        path = tmp_path / "c.csv"
        main(["synth", "--kind", "constant", "--length", "5", "--out", str(path)])
        first = path.read_text().splitlines()[0]
        assert first.startswith("# kind=constant length=5")


class TestTrainCommand:
    def test_artifacts(self, trained):
        assert re.fullmatch(r"train-[0-9a-f]{12}", trained.name)
        params, config = load_checkpoint(trained / "checkpoint.json")
        assert config.dim == 8 and config.experts == 2
        record = json.loads((trained / "record.json").read_text())
        assert record["resolved_config"]["epochs"] == 2
        assert len(record["epochs"]) == 2
        assert record["best_epoch"] in (0, 1)
        assert set(record["epochs"][0]) == {
            "epoch", "train_loss", "val_mse", "val_mae", "mean_gate_entropy", "alpha",
        }

    def test_reruns_are_byte_identical(self, tmp_path, data_csv, capsys):
        out_root = tmp_path / "runs"
        argv = ["train", "--data", str(data_csv), "--out-root", str(out_root)] + BASE
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "run dir:" in out and "best val MSE" in out
        (run_dir,) = [p for p in out_root.iterdir() if p.is_dir()]
        first = (run_dir / "checkpoint.json").read_bytes()
        record_first = (run_dir / "record.json").read_bytes()
        assert main(argv) == 0
        dirs = [p for p in out_root.iterdir() if p.is_dir()]
        assert dirs == [run_dir]  # same resolved inputs, same hash
        assert (run_dir / "checkpoint.json").read_bytes() == first
        assert (run_dir / "record.json").read_bytes() == record_first

    def test_data_bytes_name_the_run_dir(self, tmp_path):
        # editing the CSV in place must not overwrite the run trained on the old bytes
        data = tmp_path / "series.csv"
        out_root = tmp_path / "runs"
        argv = ["train", "--data", str(data), "--out-root", str(out_root)] + BASE
        assert main(["synth", "--kind", "sine", "--length", "120", "--out", str(data)]) == 0
        assert main(argv) == 0
        (first_dir,) = [p for p in out_root.iterdir() if p.is_dir()]
        first = (first_dir / "checkpoint.json").read_bytes()
        assert main(["synth", "--kind", "sine", "--length", "120", "--noise", "0.1",
                     "--out", str(data)]) == 0
        assert main(argv) == 0
        assert len([p for p in out_root.iterdir() if p.is_dir()]) == 2
        assert (first_dir / "checkpoint.json").read_bytes() == first

    def test_config_file_layer_lands_in_record(self, tmp_path, data_csv):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("epochs=3\nlambda=0.02\n")
        out_root = tmp_path / "runs"
        base = list(BASE)
        base[base.index("--epochs") + 1] = "1"
        argv = ["train", "--data", str(data_csv), "--out-root", str(out_root),
                "--config", str(cfg_file)] + base
        assert main(argv) == 0
        (run_dir,) = [p for p in out_root.iterdir() if p.is_dir()]
        record = json.loads((run_dir / "record.json").read_text())
        assert record["resolved_config"]["epochs"] == 1  # flag wins
        assert record["resolved_config"]["lambda"] == 0.02  # file wins

    def test_embedding_cache_created_and_validated(self, tmp_path, data_csv, capsys):
        cache = tmp_path / "emb.jsonl"
        out_root = tmp_path / "runs"
        argv = ["train", "--data", str(data_csv), "--out-root", str(out_root),
                "--emb-cache", str(cache)] + BASE
        assert main(argv) == 0
        assert cache.read_text().splitlines()[0] == "SMET-EMB v1 dim=8"
        capsys.readouterr()

        # a model of another width must refuse the cache, not silently re-embed
        wrong = list(argv)
        wrong[wrong.index("--hidden-dim") + 1] = "16"
        assert main(wrong) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "cache dim" in err["message"]

    def test_embedding_cache_needs_builtin_text(self, tmp_path, data_csv, capsys):
        # the cache holds builtin-encoder vectors, so a zero-text run must not use it
        cache = tmp_path / "emb.jsonl"
        argv = ["train", "--data", str(data_csv), "--out-root", str(tmp_path / "runs"),
                "--emb-cache", str(cache), "--text-mode", "zero"] + BASE
        assert main(argv) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
        assert not cache.exists()
        cache.write_text("not a cache\n")  # refused before the file is read
        assert main(argv) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


class TestErrorReporting:
    def test_bad_config_key_is_json_on_stderr(self, tmp_path, data_csv, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("bogus=1\n")
        rc = main(["train", "--data", str(data_csv), "--config", str(cfg_file),
                   "--out-root", str(tmp_path / "runs")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "bogus" in err["message"]

    def test_parse_error_carries_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "date,OT\n2020-01-01 00:00:00,1.0\n2020-01-01 01:00:00,oops\n"
        )
        rc = main(["train", "--data", str(bad), "--out-root", str(tmp_path / "runs")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParseError"
        assert err["row"] == 2 and err["column"] == 1

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path / "nope.csv"),
                   "--out-root", str(tmp_path / "runs")])
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"] == "OSError"

    def test_bad_split_counts(self, tmp_path, data_csv, capsys):
        rc = main(["train", "--data", str(data_csv), "--split-counts", "10,10",
                   "--out-root", str(tmp_path / "runs")])
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    @pytest.mark.parametrize("command,bad", [
        ("train", ["--split-counts", "a,b,c"]),
        ("evaluate", ["--horizons", "x"]),
        ("ablate", ["--seeds", "x"]),
        ("promote", ["--sizes", "x"]),
        ("sweep", ["--axis", "hidden_dim", "--values", "x"]),
    ], ids=["split-counts", "horizons", "seeds", "sizes", "values"])
    def test_bad_integer_list(self, tmp_path, data_csv, trained, capsys, command, bad):
        argv = [command, "--data", str(data_csv), "--out-root", str(tmp_path / "runs")] + bad
        if command == "evaluate":
            argv += ["--checkpoint", str(trained / "checkpoint.json")]
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "integers" in err["message"]

    @pytest.mark.parametrize("command,bad,key", [
        ("train", ["--stride", "0"], "stride"),
        ("train", ["--stride", "-1"], "stride"),
        ("train", ["--context-len", "-5"], "context_len"),
        ("train", ["--horizon", "0"], "horizon"),
        ("train", ["--horizon", "-3"], "horizon"),
        ("train", ["--decimals", "-1"], "decimals"),
        ("train", ["--max-steps", "-1"], "max_steps"),
        ("dump-prompts", ["--decimals", "-1"], "decimals"),
        ("dump-prompts", ["--segment-len", "0"], "segment_len"),
        ("dump-prompts", ["--windows", "-1"], "windows"),
    ], ids=["stride-0", "stride-neg", "context-len-neg", "horizon-0", "horizon-neg",
            "train-decimals-neg", "max-steps-neg", "dump-decimals-neg", "dump-segment-len-0",
            "dump-windows-neg"])
    def test_out_of_range_integer(self, tmp_path, data_csv, capsys, command, bad, key):
        argv = [command, "--data", str(data_csv), "--out-root", str(tmp_path / "runs")]
        assert main(argv + BASE + bad) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert key in err["message"]
        assert not (tmp_path / "runs").exists()


class TestEvaluateCommand:
    def test_report_and_table(self, tmp_path, data_csv, trained, capsys):
        out_root = tmp_path / "runs"
        rc = main(["evaluate", "--checkpoint", str(trained / "checkpoint.json"),
                   "--data", str(data_csv), "--horizons", "4,8",
                   "--max-windows", "2", "--table", "--plot-data",
                   "--out-root", str(out_root)] + BASE)
        assert rc == 0
        out = capsys.readouterr().out
        assert "horizon" in out and "avg" in out
        (run_dir,) = [p for p in out_root.iterdir() if p.is_dir()]
        assert re.fullmatch(r"evaluate-[0-9a-f]{12}", run_dir.name)
        report = json.loads((run_dir / "report.json").read_text())
        assert set(report["horizons"]) == {"4", "8"}
        for cell in report["horizons"].values():
            assert set(cell) == {"mse", "mae"}
        showcase = (run_dir / "showcase.csv").read_text().splitlines()
        assert showcase[0] == "t,truth,prediction"
        assert len(showcase) == 1 + 8

    def _evaluate(self, out_root, data_csv, trained, *extra):
        return main(["evaluate", "--checkpoint", str(trained / "checkpoint.json"),
                     "--data", str(data_csv), "--horizons", "4",
                     "--out-root", str(out_root), *extra] + BASE)

    def test_negative_max_windows_rejected(self, tmp_path, data_csv, trained, capsys):
        assert self._evaluate(tmp_path / "runs", data_csv, trained, "--max-windows", "-1") == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "max_windows" in err["message"]

    def test_max_windows_names_the_run_dir(self, tmp_path, data_csv, trained):
        out_root = tmp_path / "runs"
        for n in ("1", "2"):
            assert self._evaluate(out_root, data_csv, trained, "--max-windows", n) == 0
        assert len([p for p in out_root.iterdir() if p.is_dir()]) == 2

    def test_checkpoint_names_the_run_dir(self, tmp_path, data_csv):
        # two checkpoints evaluated with the same flags get one report each
        out_root = tmp_path / "runs"
        for seed in ("0", "1"):
            train_root = tmp_path / f"train-{seed}"
            assert main(["train", "--data", str(data_csv), "--out-root", str(train_root),
                         "--seed", seed] + BASE) == 0
            (run_dir,) = [p for p in train_root.iterdir() if p.is_dir()]
            assert self._evaluate(out_root, data_csv, run_dir) == 0
        assert len([p for p in out_root.iterdir() if p.is_dir()]) == 2

    def test_malformed_checkpoint_is_json_error(self, tmp_path, data_csv, trained, capsys):
        bad = tmp_path / "checkpoint.json"
        bad.write_text((trained / "checkpoint.json").read_text()[:100])
        rc = main(["evaluate", "--checkpoint", str(bad), "--data", str(data_csv),
                   "--horizons", "4", "--out-root", str(tmp_path / "runs")] + BASE)
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


class TestHarnessCommands:
    def test_ablate(self, tmp_path, data_csv, capsys):
        out_root = tmp_path / "runs"
        rc = main(["ablate", "--data", str(data_csv), "--seeds", "0", "--table",
                   "--out-root", str(out_root)] + BASE)
        assert rc == 0
        assert "w/o MoE" in capsys.readouterr().out
        (run_dir,) = [p for p in out_root.iterdir() if p.is_dir()]
        report = json.loads((run_dir / "ablation.json").read_text())
        assert set(report["rows"]) == {"Original", "w/o Context", "w/o Fusion", "w/o MoE"}
        assert report["seeds"] == [0]

    def test_promote(self, tmp_path, data_csv, capsys):
        out_root = tmp_path / "runs"
        rc = main(["promote", "--data", str(data_csv), "--sizes", "8", "--table",
                   "--out-root", str(out_root)] + BASE)
        assert rc == 0
        assert "promotion" in capsys.readouterr().out
        (run_dir,) = [p for p in out_root.iterdir() if p.is_dir()]
        report = json.loads((run_dir / "promotion.json").read_text())
        assert report["rows"][0]["size"] == 8
        assert report["rows"][0]["promotion_mse"].endswith("%")

    @pytest.mark.parametrize("command,extra,sources", [
        ("ablate", ["--seeds", "0"], {"PromptEncoder"}),
        ("promote", ["--sizes", "8", "--text-mode", "zero"], {"ZeroTextSource"}),
    ], ids=["ablate", "promote"])
    def test_harness_renders_with_configured_text(self, tmp_path, data_csv, monkeypatch,
                                                  command, extra, sources):
        seen = []

        def spy(windows, freq, segment_len, text_source, decimals=4):
            seen.append((type(text_source).__name__, decimals))
            return assemble_windows(windows, freq, segment_len, text_source, decimals)

        monkeypatch.setattr(evaluation, "assemble_windows", spy)
        rc = main([command, "--data", str(data_csv), "--decimals", "2",
                   "--out-root", str(tmp_path / "runs")] + extra + BASE)
        assert rc == 0
        assert {name for name, _ in seen} == sources
        assert {decimals for _, decimals in seen} == {2}

    def test_sweep(self, tmp_path, data_csv, capsys):
        out_root = tmp_path / "runs"
        rc = main(["sweep", "--data", str(data_csv), "--axis", "hidden_dim",
                   "--values", "8", "--plot-data", "--out-root", str(out_root)] + BASE)
        assert rc == 0
        assert "best hidden_dim: 8" in capsys.readouterr().out
        (run_dir,) = [p for p in out_root.iterdir() if p.is_dir()]
        report = json.loads((run_dir / "sweep.json").read_text())
        assert report["best_value"] == 8
        sweep_csv = (run_dir / "sweep.csv").read_text().splitlines()
        assert sweep_csv[0] == "hidden_dim,mse,mae"
        assert len(sweep_csv) == 2


class TestInspectionCommands:
    def test_gradcheck_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "tolerance 1e-4" in out

    def test_dump_prompts(self, data_csv, capsys):
        rc = main(["dump-prompts", "--data", str(data_csv), "--windows", "1"] + BASE)
        assert rc == 0
        out = capsys.readouterr().out
        assert "window 0 channel 0" in out
        assert "The time range of this sequence is from" in out
        assert "[3]" in out  # context_len 12 / segment_len 4 gives 3 segments
