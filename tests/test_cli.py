"""End-to-end command tests, run in process through main(argv)."""

import json
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from fusecast import cli, evaluation
from fusecast.cli import (
    _bool,
    main,
    make_run_dir,
    parse_config_file,
    resolve_config,
    write_json,
)
from fusecast.errors import ConfigError
from fusecast.evaluation import render_forecast_table
from fusecast.model import ModelConfig, load_checkpoint
from fusecast.synth import SynthSpec, generate, spec_comment
from fusecast.train import assemble_windows

BASE = [
    "--context-len", "12", "--segment-len", "4", "--hidden-dim", "8",
    "--experts", "2", "--layers", "0", "--heads", "1", "--epochs", "2",
    "--batch", "8", "--horizon", "4", "--stride", "4",
    "--split-counts", "72,24,24", "--lr", "1e-2",
]
# BASE without its model keys: what evaluate needs besides the checkpoint
DATA = ["--context-len", "12", "--horizon", "4", "--stride", "4", "--split-counts", "72,24,24"]


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


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; SciPy is only a test dependency
    code = "import sys, fusecast.cli; print(*sorted(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(Path(evaluation.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert [m for m in out.split() if m == "scipy" or m.startswith("scipy.")] == []


def _readme_config_rows():
    """(key, default, meaning) of each row of the README's config table."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| key | default | meaning |\n")[1].split("\n\n")[0]
    return re.findall(r"^\| `(\w+)` \| ([^|]+?) \| (.+) \|$", table, re.M)


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

    @pytest.mark.parametrize("rows,expected", [(1000, (600, 200, 200)), (1001, (600, 200, 201))])
    def test_default_split_is_60_20_20(self, rows, expected):
        frame = generate(SynthSpec(kind="constant", length=rows))
        assert cli._split_counts(resolve_config(None, {}), frame) == expected

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

    def test_readme_table_matches_schema(self):
        # the README's table is the one hand-written copy of the schema and its bounds
        rows = _readme_config_rows()
        assert [key for key, _, _ in rows] == list(cli._SCHEMA)
        defaults = resolve_config(None, {})
        for key, text, meaning in rows:
            convert = cli._SCHEMA[key][0]
            assert convert("" if text == "(60/20/20)" else text) == defaults[key], key
            span = re.search(r"(\d+)–(\d+)", meaning)  # "0–17" states both bounds
            low, high = re.search(r"≥ (\d+)", meaning), re.search(r"≤ (\d+)", meaning)
            if span:
                stated = (int(span[1]), int(span[2]))
            else:
                stated = (int(low[1]) if low else None, int(high[1]) if high else math.inf)
            if key in cli._BOUNDS:
                assert stated == cli._BOUNDS[key], key
            else:  # a stated ceiling must be an enforced one
                assert stated[1] == math.inf, key

    def test_every_stated_floor_is_enforced_and_names_its_key(self):
        # a floor outside _BOUNDS is the config classes' to enforce, under the key's own name
        floors = {key: re.search(r"([≥>]) (\d+)", meaning) for key, _, meaning
                  in _readme_config_rows() if key not in cli._BOUNDS}
        floors = {key: found.groups() for key, found in floors.items() if found}
        assert set(floors) == {"hidden_dim", "experts", "layers", "lr", "lambda", "epochs",
                               "batch", "seed", "weight_decay", "max_steps"}
        for key, (relation, floor) in floors.items():
            if relation == ">":
                value = float(floor)
            elif cli._SCHEMA[key][0] is int:
                value = int(floor) - 1
            else:
                value = math.nextafter(float(floor), -math.inf)
            cfg = resolve_config(None, {key: value})
            with pytest.raises(ConfigError, match=rf"^{key}\b"):
                cli._model_config(cfg)
                cli._train_config(cfg)

    def test_every_config_field_is_set_by_one_key(self):
        # a dataclass field that no key sets is a knob no command can turn
        defaults = resolve_config(None, {})
        base = asdict(cli._train_config(defaults))
        setters = {f"TrainConfig.{name}": [] for name in base}
        for key, value in defaults.items():
            if isinstance(value, bool):
                nudged = not value
            elif isinstance(value, str):
                nudged = {"literal": "entropy"}.get(value, value + "x")
            else:
                nudged = value + 1
            moved = asdict(cli._train_config({**defaults, key: nudged}))
            for name in base:
                if moved[name] != base[name]:
                    setters[f"TrainConfig.{name}"].append(key)
        for f in fields(ModelConfig):
            setters[f"ModelConfig.{f.name}"] = [key for key, name in cli._MODEL_KEYS.items()
                                                if name == f.name]
        assert set(cli._MODEL_KEYS) <= set(cli._SCHEMA)
        assert {name: keys for name, keys in setters.items() if len(keys) != 1} == {}


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

    def test_flags_follow_the_spec(self):
        parse = cli.build_parser().parse_args
        argv = ["synth", "--kind", "sine", "--length", "9", "--out", "o"]

        def spec(args):
            return SynthSpec(**{f.name: getattr(args, f.name) for f in fields(SynthSpec)})

        assert spec(parse(argv)) == SynthSpec(kind="sine", length=9)
        # a float field given an integer spelling still prints as a float in the CSV comment
        floats = ["--noise", "1", "--amplitude", "2", "--level", "3", "--slope", "4"]
        assert spec_comment(spec(parse(argv + floats))) == spec_comment(
            SynthSpec(kind="sine", length=9, noise=1.0, amplitude=2.0, level=3.0, slope=4.0))


class TestTrainCommand:
    def test_artifacts(self, trained):
        assert re.fullmatch(r"train-[0-9a-f]{12}", trained.name)
        params, config = load_checkpoint(trained / "checkpoint.json")
        assert config.dim == 8 and config.experts == 2
        record = json.loads((trained / "record.json").read_text())
        assert set(record) == {"epochs", "best_epoch", "best_val_mse", "steps",
                               "resolved_config", "data", "data_sha256", "inputs"}
        assert record["inputs"] == {}
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
        assert "report:" in out and "best val MSE" in out
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

    def test_path_spelling_does_not_name_the_run_dir(self, tmp_path, data_csv, monkeypatch,
                                                     capsys):
        # two spellings of one file are one input, so they share one run directory
        monkeypatch.chdir(tmp_path)
        (tmp_path / "s.csv").write_bytes(data_csv.read_bytes())
        for spelling in ("s.csv", "./s.csv", str(tmp_path / "s.csv")):
            assert main(["train", "--data", spelling, "--out-root", "runs"] + BASE) == 0
        dirs = re.findall(r"report: (\S+)", capsys.readouterr().out)
        assert len(dirs) == 3 and len(set(dirs)) == 1

    @pytest.mark.parametrize("command,extra,name", [
        ("train", [], "record.json"),
        ("promote", ["--sizes", "8"], "promotion.json"),
        ("evaluate", ["--horizons", "4"], "report.json"),
    ], ids=["train", "promote", "evaluate"])
    def test_artifact_names_data_by_file_name_and_bytes(self, tmp_path, data_csv, trained,
                                                         command, extra, name):
        # two checkouts hold the same file under different paths; their artifacts agree
        if command == "evaluate":
            extra = extra + ["--checkpoint", str(trained / "checkpoint.json")]
        blobs = []
        for where in ("a", "b/c"):
            data = tmp_path / where / data_csv.name
            data.parent.mkdir(parents=True)
            data.write_bytes(data_csv.read_bytes())
            out_root = tmp_path / where / "runs"
            assert main([command, "--data", str(data), "--out-root", str(out_root)]
                        + extra + BASE) == 0
            (run_dir,) = [p for p in out_root.iterdir() if p.is_dir()]
            blobs.append((run_dir / name).read_bytes())
        assert blobs[0] == blobs[1]
        stamped = json.loads(blobs[0])
        assert stamped["data"] == "sine.csv"
        assert stamped["data_sha256"] == cli._sha256(data_csv)

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
        (run_dir,) = [p for p in out_root.iterdir() if p.is_dir()]
        record = json.loads((run_dir / "record.json").read_text())
        assert record["inputs"] == {"emb_cache_sha256": cli._sha256(cache)}
        capsys.readouterr()

        # a model of another width must refuse the cache, not silently re-embed
        wrong = list(argv)
        wrong[wrong.index("--hidden-dim") + 1] = "16"
        assert main(wrong) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "cache dim" in err["message"]

    def test_embedding_cache_names_the_run_dir(self, tmp_path, data_csv, capsys):
        # a seed-0 cache read at --text-seed 7 must not overwrite the plain seed-7 run
        cache = tmp_path / "emb.jsonl"
        out_root = tmp_path / "runs"
        argv = ["train", "--data", str(data_csv), "--out-root", str(out_root)] + BASE
        assert main(argv + ["--emb-cache", str(cache)]) == 0
        assert main(argv + ["--text-seed", "7"]) == 0
        assert main(argv + ["--text-seed", "7", "--emb-cache", str(cache)]) == 0
        dirs = re.findall(r"report: (\S+)", capsys.readouterr().out)
        assert len(set(dirs)) == 3

    def test_embedding_cache_refuses_non_finite_vector(self, tmp_path, data_csv, capsys):
        # the cache line is to blame, not the parameter whose gradient turns NaN
        cache = tmp_path / "emb.jsonl"
        argv = ["train", "--data", str(data_csv), "--out-root", str(tmp_path / "runs"),
                "--emb-cache", str(cache)] + BASE
        assert main(argv) == 0
        lines = cache.read_text().splitlines()
        lines[1] = re.sub(r'"values":\[[^,]+', '"values":[NaN', lines[1])
        cache.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert payload["error"] == "CorruptCache" and payload["message"].startswith("line 2: ")

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

    def test_memory_error_is_json_on_stderr(self, tmp_path, monkeypatch, capsys):
        class ArrayMemoryError(MemoryError):  # how NumPy reports a failed allocation
            pass

        def exhausted(spec):
            raise ArrayMemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setattr(cli, "generate", exhausted)
        rc = main(["synth", "--kind", "sine", "--length", "100",
                   "--out", str(tmp_path / "s.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (line,) = err.splitlines()
        assert json.loads(line) == {"error": "MemoryError",
                                    "message": "Unable to allocate 745. GiB for an array"}

    @pytest.mark.parametrize("argv", [
        ["train", "--hidden-dim", "100000000"],
        ["train", "--hidden-dim", "64", "--experts", "100000"],
        ["sweep", "--axis", "hidden_dim", "--values", "8,100000000"],
        ["promote", "--sizes", "8,100000000"],
        ["train", "--hidden-dim", "1", "--heads", "1", "--layers", "2000000"],
    ], ids=["train-hidden-dim", "train-experts", "sweep", "promote", "train-deep-narrow"])
    def test_model_above_the_size_ceiling_is_refused_unallocated(self, tmp_path, data_csv,
                                                                 monkeypatch, capsys, argv):
        # window assembly and init_params are where a model's arrays are first allocated
        def allocate(*args, **kwargs):
            raise AssertionError("allocated before the model size was checked")

        for name in ("assemble_windows", "init_params"):
            monkeypatch.setattr(evaluation, name, allocate)
        out_root = tmp_path / "runs"
        assert main([argv[0], "--data", str(data_csv), "--out-root", str(out_root)]
                    + BASE + argv[1:]) == 1
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        err = json.loads(captured.err)
        assert err["error"] == "ConfigError"
        assert re.search(r"\d[\d,]* parameters", err["message"])
        assert "hidden_dim" in err["message"] and "layers" in err["message"]
        assert not out_root.exists()

    def test_checkpoint_above_the_size_ceiling_is_refused(self, tmp_path, data_csv, capsys):
        config = dict(segment_len=4, dim=10**8, experts=2, layers=0, heads=1, seed=0,
                      gated=True, fused=True)
        ckpt = tmp_path / "checkpoint.json"
        ckpt.write_text(json.dumps({"format": "fusecast-ckpt v1", "config": config,
                                    "params": {}}))
        out_root = tmp_path / "runs"
        assert main(["evaluate", "--checkpoint", str(ckpt), "--data", str(data_csv),
                     "--horizons", "4", "--out-root", str(out_root), *DATA]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert re.search(r"\d[\d,]* parameters", err["message"])
        assert not out_root.exists()

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path / "nope.csv"),
                   "--out-root", str(tmp_path / "runs")])
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"] == "OSError"

    @pytest.mark.parametrize("flag,body,error", [
        ("--data", b"date,OT\n2020-01-01 00:00:00,1.0\n2020-01-01 01:00:00,\xff\n", "ParseError"),
        ("--data", b"date,OT\n2020-01-01 00:00:00," + b"1" * 200_000 + b"\n", "ParseError"),
        ("--config", b"epochs=2\n\xff\n", "ConfigError"),
        ("--emb-cache", b"SMET-EMB v1 dim=8\n\xff\n", "CorruptCache"),
    ], ids=["csv-not-utf8", "csv-huge-cell", "config-not-utf8", "cache-not-utf8"])
    def test_unreadable_input_file(self, tmp_path, data_csv, capsys, flag, body, error):
        bad = tmp_path / "bad-input"
        bad.write_bytes(body)
        argv = ["train", "--data", str(data_csv), "--out-root", str(tmp_path / "runs")] + BASE
        if flag == "--data":
            argv[2] = str(bad)
        else:
            argv += [flag, str(bad)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert payload["error"] == error and "bad-input" in payload["message"]

    @pytest.mark.parametrize("command,flag,value", [
        ("synth", "--length", "ten"),
        ("synth", "--channels", "two"),
        ("synth", "--noise", "low"),
        ("synth", "--seed", "1.5"),
        ("synth", "--period", "day"),
        ("synth", "--amplitude", "big"),
        ("synth", "--level", "high"),
        ("synth", "--slope", "up"),
        ("synth", "--kind", "bogus"),
        ("evaluate", "--max-windows", "abc"),
        ("gradcheck", "--seed", "x"),
        ("gradcheck", "--h", "abc"),
        ("dump-prompts", "--windows", "abc"),
        ("dump-prompts", "--split", "nope"),
        ("sweep", "--axis", "nope"),
    ], ids=lambda part: part.lstrip("-"))
    def test_bad_flag_value_is_json_error(self, tmp_path, data_csv, trained, capsys, command,
                                          flag, value):
        # argparse's own error is usage text with exit 2; a bad value is a ConfigError instead
        runs, out = tmp_path / "runs", tmp_path / "series.csv"
        argv = {
            "synth": ["--kind", "sine", "--length", "48", "--out", str(out)],
            "evaluate": ["--checkpoint", str(trained / "checkpoint.json")],
            "gradcheck": [],
            "dump-prompts": [],
            "sweep": ["--axis", "hidden_dim", "--values", "8"],
        }[command]
        if command not in ("synth", "gradcheck"):
            argv += ["--data", str(data_csv), "--out-root", str(runs)] + BASE
        assert main([command, *argv, flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        err = json.loads(captured.err)
        assert err["error"] == "ConfigError"
        assert re.search(rf"\b{flag[2:]}\b", err["message"])
        assert not runs.exists() and not out.exists()

    @pytest.mark.parametrize("argv", [
        ["train", "--seed", "-1"],
        ["ablate", "--seeds", "-1"],
        ["gradcheck", "--seed", "-1"],
        ["synth", "--kind", "sine", "--length", "48", "--seed", "-1"],
    ], ids=["train", "ablate", "gradcheck", "synth"])
    def test_negative_seed(self, tmp_path, data_csv, capsys, argv):
        if argv[0] == "synth":
            argv = argv + ["--out", str(tmp_path / "series.csv")]
        elif argv[0] != "gradcheck":
            argv = argv + ["--data", str(data_csv), "--out-root", str(tmp_path / "runs")] + BASE
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and "seed must be >= 0" in err["message"]
        assert not (tmp_path / "runs").exists() and not (tmp_path / "series.csv").exists()

    def test_negative_exponent_is_a_value(self, tmp_path, data_csv, capsys):
        # argparse's own pattern reads -1e-3 as an unknown flag and exits 2 with usage text
        train = ["train", "--data", str(data_csv), "--out-root", str(tmp_path / "runs")] + BASE
        for argv, message in ((train + ["--lr", "-1e-3"], "lr must be"),
                              (["gradcheck", "--h", "-1e-5"], "h must be")):
            assert main(argv) == 1
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "ConfigError" and message in err["message"]

    @pytest.mark.parametrize("command,value,message", [
        ("gradcheck", "-inf", "h must be"),
        ("train", "-inf", "lr must be"),
        ("train", "-NaN", "lr must be"),
    ], ids=["gradcheck-h-inf", "train-lr-inf", "train-lr-nan"])
    def test_negative_non_finite_is_a_value(self, tmp_path, data_csv, capsys, command, value,
                                            message):
        # float() reads -inf and -nan, so argparse must not take them for flags (exit 2)
        if command == "gradcheck":
            argv = ["gradcheck", "--h", value]
        else:
            argv = ["train", "--data", str(data_csv), "--out-root", str(tmp_path / "runs")]
            argv += BASE + ["--lr", value]
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and message in err["message"]

    @pytest.mark.parametrize("value", ["-1e-3", "-2.5E+4", "-.5e1"])
    def test_every_subcommand_reads_negative_exponents(self, value):
        parser = cli.build_parser()
        for argv in (["train"], ["evaluate", "--checkpoint", "c"], ["ablate"],
                     ["promote", "--sizes", "8"], ["sweep", "--axis", "hidden_dim",
                     "--values", "8"], ["dump-prompts"]):
            assert parser.parse_args(argv + ["--data", "d", "--lr", value]).cfg_lr == value
        assert parser.parse_args(["gradcheck", "--h", value]).h == float(value)
        assert parser.parse_args(["synth", "--kind", "sine", "--length", "9", "--out", "o",
                                  "--slope", value]).slope == float(value)

    @pytest.mark.parametrize("value", ["-inf", "-INF", "-Infinity", "-nan", "-NaN"])
    def test_every_subcommand_reads_negative_non_finite(self, value):
        parser = cli.build_parser()
        for argv in (["train"], ["evaluate", "--checkpoint", "c"], ["ablate"],
                     ["promote", "--sizes", "8"], ["sweep", "--axis", "hidden_dim",
                     "--values", "8"], ["dump-prompts"]):
            assert parser.parse_args(argv + ["--data", "d", "--lr", value]).cfg_lr == value
        h = parser.parse_args(["gradcheck", "--h", value]).h
        assert str(h) == str(float(value))  # nan != nan, so compare the spellings

    @pytest.mark.parametrize("bad,message", [
        (["--lr", "inf"], "lr must be"),
        (["--lr", "nan"], "lr must be"),
        (["--lambda", "nan"], "lambda must be"),
        (["--weight-decay", "-5"], "weight_decay must be"),
        (["--weight-decay", "inf"], "weight_decay must be"),
    ], ids=["lr-inf", "lr-nan", "lambda-nan", "weight-decay-neg", "weight-decay-inf"])
    def test_non_finite_or_negative_float(self, tmp_path, data_csv, capsys, bad, message):
        argv = ["train", "--data", str(data_csv), "--out-root", str(tmp_path / "runs")]
        assert main(argv + BASE + bad) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and message in err["message"]
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("bad,message", [
        ("--noise=-0.5", "noise must be"),
        ("--noise=nan", "noise must be"),
        ("--amplitude=inf", "amplitude must be"),
        ("--level=-inf", "level must be"),
        ("--slope=nan", "slope must be"),
    ], ids=["noise-neg", "noise-nan", "amplitude-inf", "level-inf", "slope-nan"])
    def test_synth_rejects_bad_float(self, tmp_path, capsys, bad, message):
        out = tmp_path / "series.csv"
        assert main(["synth", "--kind", "sine", "--length", "48", bad, "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and message in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_sweep_resolves_each_config(self, tmp_path, data_csv, capsys, value):
        # a swept value meets the same checks as the flag it stands for
        argv = ["sweep", "--data", str(data_csv), "--axis", "context_len", "--values", value,
                "--out-root", str(tmp_path / "runs")]
        assert main(argv + BASE) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert f"context_len must be >= 1, got {value}" in err["message"]

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
        ("sweep", ["--axis", "hidden_dim", "--values", ""]),
    ], ids=["split-counts", "horizons", "seeds", "sizes", "values", "values-empty"])
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
        ("train", ["--decimals", "18"], "decimals"),
        ("train", ["--max-steps", "-1"], "max_steps"),
        ("dump-prompts", ["--decimals", "-1"], "decimals"),
        ("dump-prompts", ["--decimals", "18"], "decimals"),
        ("dump-prompts", ["--segment-len", "0"], "segment_len"),
        ("dump-prompts", ["--windows", "-1"], "windows"),
    ], ids=["stride-0", "stride-neg", "context-len-neg", "horizon-0", "horizon-neg",
            "train-decimals-neg", "train-decimals-18", "max-steps-neg", "dump-decimals-neg",
            "dump-decimals-18", "dump-segment-len-0",
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
        (run_dir,) = [p for p in out_root.iterdir() if p.is_dir()]
        assert re.fullmatch(r"evaluate-[0-9a-f]{12}", run_dir.name)
        report = json.loads((run_dir / "report.json").read_text())
        assert set(report["horizons"]) == {"4", "8"}
        for cell in report["horizons"].values():
            assert set(cell) == {"mse", "mae"}
        table = render_forecast_table(report)
        assert "horizon" in table and "avg" in table and f"{report['avg_mse']:.4f}" in table
        assert f"{table}\nreport: {run_dir / 'report.json'}\n" in out
        showcase = (run_dir / "showcase.csv").read_text().splitlines()
        assert showcase[0] == "t,truth,prediction"
        assert len(showcase) == 1 + 8

    def test_report_records_the_checkpoint_model(self, tmp_path, data_csv, trained):
        # the model comes from the checkpoint, so the report's config must say so,
        # and no model flag is needed to run it
        _, config = load_checkpoint(trained / "checkpoint.json")
        out_root = tmp_path / "runs"
        argv = ["evaluate", "--checkpoint", str(trained / "checkpoint.json"),
                "--data", str(data_csv), "--horizons", "4,8", "--out-root", str(out_root), *DATA]
        assert main(argv) == 0
        (run_dir,) = [p for p in out_root.iterdir() if p.is_dir()]
        first = (run_dir / "report.json").read_bytes()
        report = json.loads(first)
        assert set(report) == {"horizons", "avg_mse", "avg_mae", "resolved_config", "data",
                               "data_sha256", "inputs"}
        assert report["inputs"] == {"checkpoint_sha256": cli._sha256(trained / "checkpoint.json"),
                                    "horizons": [4, 8], "max_windows": 0}
        model = {key: report["resolved_config"][key] for key in cli._MODEL_KEYS}
        assert model == {key: getattr(config, name) for key, name in cli._MODEL_KEYS.items()}
        assert model["hidden_dim"] == 8 and model["segment_len"] == 4  # not the defaults
        cells = report["horizons"].values()
        assert report["avg_mse"] == sum(c["mse"] for c in cells) / 2
        assert report["avg_mae"] == sum(c["mae"] for c in cells) / 2
        assert main(argv) == 0  # an identical rerun: same directory, same bytes
        assert [p for p in out_root.iterdir() if p.is_dir()] == [run_dir]
        assert (run_dir / "report.json").read_bytes() == first

    @pytest.mark.parametrize("extra,key", [
        (["--hidden-dim", "999"], "hidden_dim"),
        (["--segment-len", "7"], "segment_len"),
        (["--experts", "1"], "experts"),
        (["--layers", "1"], "layers"),
        (["--heads", "2"], "heads"),
        (["--gated", "false"], "gated"),
        (["--fused", "off"], "fused"),
        (["--seed", "3"], "seed"),
        (["hidden_dim=999\n"], "hidden_dim"),
    ], ids=["hidden-dim", "segment-len", "experts", "layers", "heads", "gated", "fused", "seed",
            "config-file"])
    def test_model_key_must_match_the_checkpoint(self, tmp_path, data_csv, trained, capsys,
                                                 extra, key):
        # a model key given by flag or config line but not honoured would mislabel the report
        if not extra[0].startswith("--"):
            (tmp_path / "run.cfg").write_text(extra[0])
            extra = ["--config", str(tmp_path / "run.cfg")]
        out_root = tmp_path / "runs"
        assert main(["evaluate", "--checkpoint", str(trained / "checkpoint.json"),
                     "--data", str(data_csv), "--horizons", "4", "--out-root", str(out_root),
                     *DATA, *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        err = json.loads(captured.err)
        assert err["error"] == "ConfigError" and re.search(rf"\b{key}\b", err["message"])
        assert not out_root.exists()

    def test_model_key_matching_the_checkpoint_runs(self, tmp_path, data_csv, trained):
        (tmp_path / "run.cfg").write_text("hidden_dim=8\ngated=yes\n")
        assert self._evaluate(tmp_path / "runs", data_csv, trained,
                              "--config", str(tmp_path / "run.cfg")) == 0

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

    def test_duplicate_horizons_roll_once(self, tmp_path, data_csv, trained, monkeypatch):
        rolled, real = [], cli.forecast_windows

        def spy(params, mconfig, windows, freq, horizon, *rest):
            rolled.append(horizon)
            return real(params, mconfig, windows, freq, horizon, *rest)

        monkeypatch.setattr(cli, "forecast_windows", spy)
        out_root = tmp_path / "runs"
        for horizons in ("4,8,8", "8,4"):
            assert self._evaluate(out_root, data_csv, trained, "--horizons", horizons) == 0
        assert rolled == [4, 8, 4, 8]
        assert len([p for p in out_root.iterdir() if p.is_dir()]) == 1

    @pytest.mark.parametrize("horizons", ["0", "-4,8"])
    def test_horizons_must_be_positive(self, tmp_path, data_csv, trained, capsys, horizons):
        assert self._evaluate(tmp_path / "runs", data_csv, trained, "--horizons", horizons) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and "horizons must be >= 1" in err["message"]
        assert not (tmp_path / "runs").exists()

    def test_malformed_checkpoint_is_json_error(self, tmp_path, data_csv, trained, capsys):
        bad = tmp_path / "checkpoint.json"
        bad.write_text((trained / "checkpoint.json").read_text()[:100])
        rc = main(["evaluate", "--checkpoint", str(bad), "--data", str(data_csv),
                   "--horizons", "4", "--out-root", str(tmp_path / "runs")] + BASE)
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    def test_non_finite_checkpoint_is_json_error(self, tmp_path, data_csv, trained, capsys):
        blob = json.loads((trained / "checkpoint.json").read_text())
        blob["params"]["out_b"]["data"][0] = float("nan")
        bad = tmp_path / "checkpoint.json"
        bad.write_text(json.dumps(blob))
        rc = main(["evaluate", "--checkpoint", str(bad), "--data", str(data_csv),
                   "--horizons", "4", "--out-root", str(tmp_path / "runs")] + BASE)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert payload["error"] == "ConfigError" and "out_b" in payload["message"]
        assert not (tmp_path / "runs").exists()


class TestHarnessCommands:
    def test_ablate(self, tmp_path, data_csv, capsys):
        out_root = tmp_path / "runs"
        rc = main(["ablate", "--data", str(data_csv), "--seeds", "0", "--table",
                   "--out-root", str(out_root)] + BASE)
        assert rc == 0
        assert "w/o MoE" in capsys.readouterr().out
        (run_dir,) = [p for p in out_root.iterdir() if p.is_dir()]
        report = json.loads((run_dir / "ablation.json").read_text())
        assert set(report) == {"rows", "resolved_config", "data", "data_sha256", "inputs"}
        assert set(report["rows"]) == {"Original", "w/o Context", "w/o Fusion", "w/o MoE"}
        assert report["inputs"] == {"seeds": [0]}

    def test_ablate_refuses_text_mode_zero(self, tmp_path, data_csv, capsys):
        # every ablation row sets its own text mode, so a configured one would go unused
        out_root = tmp_path / "runs"
        rc = main(["ablate", "--data", str(data_csv), "--seeds", "0", "--text-mode", "zero",
                   "--out-root", str(out_root)] + BASE)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert payload["error"] == "ConfigError" and "text_mode" in payload["message"]
        assert not out_root.exists()

    def test_promote(self, tmp_path, data_csv, capsys):
        out_root = tmp_path / "runs"
        rc = main(["promote", "--data", str(data_csv), "--sizes", "8", "--table",
                   "--out-root", str(out_root)] + BASE)
        assert rc == 0
        assert "promotion" in capsys.readouterr().out
        (run_dir,) = [p for p in out_root.iterdir() if p.is_dir()]
        report = json.loads((run_dir / "promotion.json").read_text())
        assert set(report) == {"rows", "resolved_config", "data", "data_sha256", "inputs"}
        assert report["inputs"] == {"sizes": [8]}
        assert report["rows"][0]["size"] == 8
        assert report["rows"][0]["promotion_mse"].endswith("%")

    def test_promote_checks_the_trained_sizes_not_hidden_dim(self, tmp_path, data_csv):
        # 4 heads divide the trained width 8 but not the unused hidden_dim 10
        out_root = tmp_path / "runs"
        rc = main(["promote", "--data", str(data_csv), "--sizes", "8",
                   "--out-root", str(out_root)] + BASE
                  + ["--hidden-dim", "10", "--heads", "4", "--layers", "1"])
        assert rc == 0
        (run_dir,) = [p for p in out_root.iterdir() if p.is_dir()]
        report = json.loads((run_dir / "promotion.json").read_text())
        assert [row["size"] for row in report["rows"]] == [8]

    def test_promote_refuses_a_bad_size_before_training(self, tmp_path, data_csv,
                                                        monkeypatch, capsys):
        def train_variants(*args, **kwargs):
            raise AssertionError("promote trained before it checked every size")

        monkeypatch.setattr(evaluation, "train_variants", train_variants)
        out_root = tmp_path / "runs"
        rc = main(["promote", "--data", str(data_csv), "--sizes", "8,10",
                   "--out-root", str(out_root)] + BASE + ["--heads", "4", "--layers", "1"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ConfigError" and "dim=10 heads=4" in payload["message"]
        assert not out_root.exists()

    @pytest.mark.parametrize("command,extra,sources", [
        ("ablate", ["--seeds", "0"], {"PromptEncoder", "ZeroTextSource"}),
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
                   "--values", "8", "--out-root", str(out_root)] + BASE)
        assert rc == 0
        assert "best hidden_dim: 8" in capsys.readouterr().out
        (run_dir,) = [p for p in out_root.iterdir() if p.is_dir()]
        report = json.loads((run_dir / "sweep.json").read_text())
        assert set(report) == {"curve", "best_value", "best_mse", "resolved_config", "data",
                               "data_sha256", "inputs"}
        assert report["inputs"] == {"axis": "hidden_dim", "values": [8]}
        assert report["best_value"] == 8
        assert os.listdir(run_dir) == ["sweep.json"]  # the curve has no second copy

    def test_sweep_best_is_the_lowest_mse_row(self, tmp_path, data_csv):
        out_root = tmp_path / "runs"
        rc = main(["sweep", "--data", str(data_csv), "--axis", "hidden_dim",
                   "--values", "8,4", "--out-root", str(out_root)] + BASE)
        assert rc == 0
        (run_dir,) = [p for p in out_root.iterdir() if p.is_dir()]
        report = json.loads((run_dir / "sweep.json").read_text())
        assert [row["value"] for row in report["curve"]] == [8, 4]
        best = min(report["curve"], key=lambda row: row["mse"])
        assert (report["best_value"], report["best_mse"]) == (best["value"], best["mse"])
        assert report["curve"][0]["mse"] != report["curve"][1]["mse"]


@pytest.mark.parametrize("command,extra,flag,values,artifact", [
    ("evaluate", ["--horizons", "4"], "--horizon", ("4", "8"), "report.json"),
    ("ablate", ["--seeds", "0"], "--seed", ("3", "4"), "ablation.json"),
    ("promote", ["--sizes", "8"], "--hidden-dim", ("4", "16"), "promotion.json"),
    ("sweep", ["--axis", "context_len", "--values", "12"], "--context-len", ("8", "16"),
     "sweep.json"),
], ids=["evaluate", "ablate", "promote", "sweep"])
def test_a_list_flag_replaces_its_key(tmp_path, data_csv, trained, command, extra, flag, values,
                                      artifact):
    # the list in `inputs` is the key's one statement, so the key's flag changes nothing
    key = flag[2:].replace("-", "_")
    out_root = tmp_path / "runs"
    argv = [command, "--data", str(data_csv), "--out-root", str(out_root), *BASE, *extra]
    if command == "evaluate":
        argv += ["--checkpoint", str(trained / "checkpoint.json")]
    written = []
    for value in values:
        assert main(argv + [flag, value]) == 0
        (run_dir,) = [p for p in out_root.iterdir() if p.is_dir()]
        written.append((run_dir / artifact).read_bytes())
    assert written[0] == written[1]
    expected = cli._config_from(cli.build_parser().parse_args(argv + [flag, values[0]]))
    del expected[key]
    assert json.loads(written[0])["resolved_config"] == expected


class TestInspectionCommands:
    def test_gradcheck_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "tolerance 1e-4" in out

    def test_gradcheck_fails_on_a_nan_block(self, monkeypatch, capsys):
        # a NaN block error must fail; max(worst, nan) would keep worst and pass
        monkeypatch.setattr(cli, "gradient_check",
                            lambda seed, h: {"a": 1e-7, "b": float("nan"), "c": 1e-8})
        assert main(["gradcheck"]) == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("h", ["nan", "0", "inf", "-0.001"])
    def test_gradcheck_step_must_be_finite_and_positive(self, h, capsys):
        assert main(["gradcheck", "--h", h]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and "h must be" in err["message"]

    def test_dump_prompts(self, data_csv, capsys):
        rc = main(["dump-prompts", "--data", str(data_csv), "--windows", "1"] + BASE)
        assert rc == 0
        out = capsys.readouterr().out
        assert "window 0 channel 0" in out
        assert "The time range of this sequence is from" in out
        assert "[3]" in out  # context_len 12 / segment_len 4 gives 3 segments
