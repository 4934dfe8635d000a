"""End-to-end command tests, run in process through main(argv)."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest

from fusecast import cli, evaluation
from fusecast.cli import (
    _bool,
    main,
    make_run_dir,
    resolve_config,
    write_json,
)
from fusecast.data import TimeSeriesFrame
from fusecast.errors import ConfigError, FusecastError
from fusecast.evaluation import (forecast_windows, persistence_baseline, render_forecast_table,
                                 rolling_forecast)
from fusecast.model import ModelConfig, load_checkpoint
from fusecast.synth import SynthSpec, generate, save_csv, spec_comment
from fusecast.textenc import PromptEncoder
from fusecast.train import SPARSITY_MODES, TrainConfig, assemble_windows, metrics

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


@pytest.fixture(scope="module")
def two_regime_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-two-regime") / "two_regime.csv"
    assert main(["synth", "--kind", "two-regime", "--length", "720", "--out", str(path)]) == 0
    return path


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


_SPY_BLAS_VARS = """
import json, os, sys
def seen(): print(json.dumps([os.environ.get(name) for name in sys.argv[1:]]))
class AtNumpyImport:  # a finder that only looks: OpenBLAS reads its count as NumPy loads
    def find_spec(self, name, path=None, target=None):
        if name == "numpy": seen()
sys.meta_path.insert(0, AtNumpyImport())
import fusecast.cli
seen()
"""


@pytest.mark.parametrize("preset,want", [
    ({}, ["1", None]),
    ({"OPENBLAS_NUM_THREADS": "2"}, ["2", None]),
    ({"OMP_NUM_THREADS": "2"}, [None, "2"]),
], ids=["unset", "openblas-2", "omp-2"])
def test_cli_import_runs_blas_on_one_thread_unless_a_count_is_set(preset, want):
    # (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS) as NumPy starts to import, then after the import
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in names}
    env.update(preset, PYTHONPATH=str(Path(evaluation.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", _SPY_BLAS_VARS, *names], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert [json.loads(line) for line in out.splitlines()] == [want, want]


def _readme_config_rows():
    """(key, default, meaning) of each row of the README's config table."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| key | default | meaning |\n")[1].split("\n\n")[0]
    return re.findall(r"^\| `(\w+)` \| ([^|]+?) \| (.+) \|$", table, re.M)


def test_readme_quick_start_runs_as_written(tmp_path, monkeypatch, capsys):
    """Each `fusecast` line of the Quick start, with one epoch and train's real run hash."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start\n")[1].split("```sh\n")[1].split("```")[0]
    commands = [line for line in block.replace("\\\n", " ").splitlines()
                if line and not line.startswith("#")]
    assert [line.split()[:2] for line in commands] == [
        ["fusecast", "synth"], ["fusecast", "train"], ["fusecast", "evaluate"]]
    assert block.count("--epochs 60") == 1 and block.count("<hash>") == 1
    monkeypatch.chdir(tmp_path)
    run_hash = None
    for line in commands:
        line = line.replace("--epochs 60", "--epochs 1").replace("<hash>", str(run_hash))
        assert main(line.split()[1:]) == 0, line
        out = capsys.readouterr().out
        if line.split()[1] == "train":
            (run_hash,) = re.findall(r"^report: runs/train-([0-9a-f]{12})/record\.json$", out, re.M)
    assert len(list((tmp_path / "runs").iterdir())) == 2  # train's and evaluate's run directories


class TestConfigResolution:
    def test_defaults(self):
        cfg = resolve_config({})
        assert cfg["context_len"] == 168
        assert cfg["hidden_dim"] == 64
        assert cfg["lambda"] == 0.1
        assert cfg["gated"] is True

    @pytest.mark.parametrize("rows,expected", [(1000, (600, 200, 200)), (1001, (600, 200, 201))])
    def test_default_split_is_60_20_20(self, rows, expected):
        frame = generate(SynthSpec(kind="constant", length=rows))
        assert cli._split_counts(resolve_config({}), frame) == expected

    def test_split_counts_keep_their_repeats(self):
        frame = generate(SynthSpec(kind="constant", length=300))
        cfg = resolve_config({"split_counts": "100,100,100"})
        assert cli._split_counts(cfg, frame) == (100, 100, 100)

    @pytest.mark.parametrize("text,expected", [
        ("1", True), ("true", True), ("YES", True), ("on", True),
        ("0", False), ("false", False), ("No", False), ("off", False),
    ])
    def test_bool_values(self, text, expected):
        assert _bool(text) is expected

    def test_readme_table_matches_schema(self):
        # the README's table is the one hand-written copy of the schema and its bounds
        rows = _readme_config_rows()
        assert [key for key, _, _ in rows] == list(cli._SCHEMA)
        defaults = resolve_config({})
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
        # a mode key's row lists its values before the first ";"
        listed = {key: re.findall(r"`(\w+)`", meaning.split(";")[0]) for key, _, meaning in rows}
        assert listed["sparsity_mode"] == list(SPARSITY_MODES)

    def test_readme_names_the_range_checked_keys(self):
        # every command checks these keys, read or not; the README names them in _BOUNDS' order
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        listed = re.search(r"has a range of its own \(([^)]*)\)", readme)[1]
        assert re.findall(r"`(\w+)`", listed) == list(cli._BOUNDS)

    def test_a_field_key_takes_its_fields_type_and_default(self):
        # _SCHEMA writes out only the keys that set no ModelConfig or TrainConfig field
        convert = {int: int, float: float, str: str, bool: _bool}
        for cls, keys in ((ModelConfig, cli._MODEL_KEYS), (TrainConfig, cli._TRAIN_KEYS)):
            types = get_type_hints(cls)
            for key, name in keys.items():
                assert cli._SCHEMA[key] == (convert[types[name]], getattr(cls, name)), key
        assert set(cli._SCHEMA) - set(cli._MODEL_KEYS) - set(cli._TRAIN_KEYS) == {
            "context_len", "split_counts", "stride", "horizon"}

    def test_every_stated_floor_is_enforced_and_names_its_key(self):
        # a floor outside _BOUNDS is the config classes' to enforce, under the key's own name
        floors = {key: re.search(r"([≥>]) (\d+)", meaning) for key, _, meaning
                  in _readme_config_rows() if key not in cli._BOUNDS}
        floors = {key: found.groups() for key, found in floors.items() if found}
        assert set(floors) == {"hidden_dim", "experts", "layers", "lr", "lambda", "epochs",
                               "batch", "seed", "max_steps"}
        for key, (relation, floor) in floors.items():
            if relation == ">":
                value = float(floor)
            elif cli._SCHEMA[key][0] is int:
                value = int(floor) - 1
            else:
                value = math.nextafter(float(floor), -math.inf)
            cfg = resolve_config({key: value})
            with pytest.raises(ConfigError, match=rf"^{key}\b"):
                cli._model_config(cfg)
                cli._train_config(cfg)

    def test_every_config_field_is_set_by_one_key(self):
        # a dataclass field that no key sets is a knob no command can turn
        defaults = resolve_config({})
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


class TestSha256:
    @pytest.mark.parametrize("size", [0, 1000, 3 * 65536 + 7], ids=["empty", "one-block",
                                                                  "multi-block"])
    def test_digest_equals_the_whole_file_hash(self, tmp_path, size):
        path = tmp_path / "file.bin"
        path.write_bytes(np.random.default_rng(size).bytes(size))
        assert cli._sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_peak_memory(self, tmp_path):
        path = tmp_path / "big.bin"
        path.write_bytes(np.random.default_rng(0).bytes(4_000_000))
        tracemalloc.start()
        try:
            cli._sha256(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured: 0.14 MB in 64 KiB blocks, 4.0 MB reading the file whole
        assert peak <= 0.5e6, f"hashing peaks at {peak / 1e6:.2f} MB"


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

    @pytest.mark.parametrize("cache", [False, True], ids=["encoder", "cache-build"])
    def test_no_text_memo_is_alive_while_training(self, tmp_path, data_csv, memos_at_first_train,
                                                  cache):
        extra = ["--emb-cache", str(tmp_path / "emb.txt")] if cache else []
        assert main(["train", "--data", str(data_csv), "--out-root", str(tmp_path / "runs")]
                    + BASE + extra) == 0
        made = memos_at_first_train["made"]
        assert made["tokens"] > 0 and made["encoders"] == (0 if cache else 1)
        assert memos_at_first_train["alive"] == {"encoders": 0, "tokens": 0}
        # neither table copies a future: training reads none, validation stacks its own
        assert memos_at_first_train["arrays"] == [{"values", "text", "rows"}] * 2

    def test_lambda_0_trains_alike_under_either_mode(self, tmp_path, data_csv):
        # no penalty at lambda 0, whatever the mode: what a mode without a penalty would train
        records, checkpoints = [], []
        for mode in SPARSITY_MODES:
            out_root = tmp_path / mode
            assert main(["train", "--data", str(data_csv), "--out-root", str(out_root),
                         "--lambda", "0", "--sparsity-mode", mode] + BASE) == 0
            (run_dir,) = [p for p in out_root.iterdir() if p.is_dir()]
            records.append(json.loads((run_dir / "record.json").read_text())["epochs"])
            checkpoints.append((run_dir / "checkpoint.json").read_bytes())
        assert records[0] == records[1]
        assert checkpoints[0] == checkpoints[1]

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
        # a run that reads a cache lands beside the run that wrote those bytes, not the plain run
        cache = tmp_path / "emb.jsonl"
        out_root = tmp_path / "runs"
        argv = ["train", "--data", str(data_csv), "--out-root", str(out_root)] + BASE
        assert main(argv + ["--emb-cache", str(cache)]) == 0
        assert main(argv) == 0
        assert main(argv + ["--emb-cache", str(cache)]) == 0
        written, plain, reread = re.findall(r"report: (\S+)", capsys.readouterr().out)
        assert written == reread != plain

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


class TestErrorReporting:
    def test_sparsity_mode_none_is_refused(self, tmp_path, data_csv, capsys):
        out_root = tmp_path / "runs"
        rc = main(["train", "--data", str(data_csv), "--out-root", str(out_root)] + BASE
                  + ["--sparsity-mode", "none"])
        assert rc == 1
        (line,) = capsys.readouterr().err.splitlines()
        err = json.loads(line)
        assert err["error"] == "ConfigError" and "sparsity_mode" in err["message"]
        assert not out_root.exists()

    @pytest.mark.parametrize("command,value", [("evaluate", "bogus"), ("dump-prompts", "none")],
                             ids=["evaluate", "dump-prompts"])
    def test_every_command_checks_the_sparsity_mode(self, tmp_path, data_csv, trained, capsys,
                                                    command, value):
        # neither command builds a TrainConfig, so the key is checked where the config resolves
        given = ["--sparsity-mode", value]
        if command == "evaluate":
            given += ["--checkpoint", str(trained / "checkpoint.json")]
        out_root = tmp_path / "runs"
        assert main([command, "--data", str(data_csv), "--out-root", str(out_root)]
                    + BASE + given) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert json.loads(line) == {
            "error": "ConfigError",
            "message": f"sparsity_mode must be one of {SPARSITY_MODES}, got {value!r}"}
        assert not out_root.exists()

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--checkpoint", "c.json", "--table"],
        ["evaluate", "--checkpoint", "c.json", "--plot-data"],
        ["ablate", "--table"],
        ["promote", "--sizes", "8", "--table"],
        ["train", "--config", "run.cfg"],
        ["evaluate", "--checkpoint", "c.json", "--config", "run.cfg"],
        ["ablate", "--config", "run.cfg"],
        ["promote", "--sizes", "8", "--config", "run.cfg"],
        ["sweep", "--axis", "hidden_dim", "--values", "8", "--config", "run.cfg"],
        ["dump-prompts", "--config", "run.cfg"],
    ], ids=["evaluate-table", "evaluate-plot-data", "ablate-table", "promote-table",
            "train-config", "evaluate-config", "ablate-config", "promote-config",
            "sweep-config", "dump-prompts-config"])
    def test_presentation_flags_are_unknown(self, tmp_path, data_csv, capsys, argv):
        # every run prints its table and every evaluate writes its showcase, so no flag asks;
        # every key is a flag, so no config file sets one
        flag = [part for part in argv if part.startswith("--")][-1]
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--help"])
        assert exc.value.code == 0 and flag not in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--data", str(data_csv), "--out-root", str(tmp_path / "runs")])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: ")
        assert f"unrecognized arguments: {' '.join(argv[argv.index(flag):])}" in captured.err
        assert not (tmp_path / "runs").exists()

    def test_text_mode_is_no_flag_and_no_key(self, tmp_path, data_csv, capsys):
        # every command embeds with the builtin encoder at seed 0 and renders its prompts to
        # four places; ablate's w/o Context row is zero text. So a seed-0 cache is never read
        # under another seed, as `--text-seed 7 --emb-cache` once did. No run decays its
        # weights, so `weight_decay` is gone as well
        cache = tmp_path / "c.txt"
        argv = ["train", "--data", str(data_csv), "--emb-cache", str(cache)] + BASE
        assert main(argv + ["--out-root", str(tmp_path / "written")]) == 0
        written = cache.read_bytes()
        capsys.readouterr()
        out_root = tmp_path / "runs"
        argv += ["--out-root", str(out_root)]
        for key, value in (("text_mode", "zero"), ("text_seed", "7"), ("decimals", "2"),
                           ("weight_decay", "4")):
            option = f"--{key.replace('_', '-')}"
            with pytest.raises(SystemExit) as exc:
                main(argv + [option, value])
            assert exc.value.code == 2, key
            captured = capsys.readouterr()
            assert captured.out == "" and f"unrecognized arguments: {option} {value}" in captured.err
            assert cache.read_bytes() == written and not out_root.exists(), key

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

    @pytest.mark.parametrize("argv, error, where", [
        (["--epochs", "1", "--max-steps", "1", "--lr", "1e300"], "ConfigError", "at epoch 0: "),
        (["--epochs", "3", "--batch", "4", "--lr", "1e40"], "NonFiniteGradient", "at step 2"),
        (["--epochs", "1", "--lambda", "1e308"], "ConfigError", "at epoch 0: "),
    ], ids=["val-mse", "gradient", "train-loss"])
    def test_a_diverging_train_is_one_json_line(self, tmp_path, two_regime_csv, capsys, argv,
                                                error, where):
        # the suite turns NumPy's overflow warnings into errors, so none may be raised either
        out_root = tmp_path / "runs"
        rc = main(["train", "--data", str(two_regime_csv), "--out-root", str(out_root),
                   "--split-counts", "432,144,144", "--context-len", "96", "--segment-len", "24",
                   "--hidden-dim", "8", "--experts", "2", "--layers", "1", "--heads", "1",
                   "--stride", "24", "--horizon", "24", *argv])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        (line,) = captured.err.splitlines()
        err = json.loads(line)
        assert err["error"] == error and where in err["message"]
        assert not out_root.exists()  # no run directory, so no checkpoint of a diverged run

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
        ("--emb-cache", b"SMET-EMB v1 dim=8\n\xff\n", "CorruptCache"),
    ], ids=["csv-not-utf8", "csv-huge-cell", "cache-not-utf8"])
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

    @pytest.mark.parametrize("key", [key for key, (convert, _) in cli._SCHEMA.items()
                                     if convert is not str])
    def test_bad_config_flag_value_names_its_flag(self, tmp_path, data_csv, capsys, key):
        # argparse converts each config flag by its key's type, so its refusal names the flag
        flag, runs = f"--{key.replace('_', '-')}", tmp_path / "runs"
        assert main(["train", "--data", str(data_csv), "--out-root", str(runs), *BASE,
                     flag, "maybe"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        convert = cli._SCHEMA[key][0]
        reason = ("expected a boolean, got 'maybe'" if convert is _bool
                  else f"invalid {convert.__name__} value: 'maybe'")
        assert json.loads(captured.err) == {"error": "ConfigError",
                                            "message": f"argument {flag}: {reason}"}
        assert not runs.exists()

    @pytest.mark.parametrize("body,row", [
        (b"2020-01-01 00:00:00,1.0\n2020-01-01 01:00:00,2.0\n2020-01-01 03:00:00,3.0\n", 3),
        (b"2020-01-01 01:00:00,1.0\n2020-01-01 01:00:00,2.0\n", 2),
        (b"2020-01-01 00:00:00,1.0\n", None),
    ], ids=["gap", "not-increasing", "one-row"])
    def test_a_series_off_its_grid_is_a_parse_error_at_its_row(self, tmp_path, capsys, body,
                                                               row):
        (tmp_path / "series.csv").write_bytes(b"date,OT\n" + body)
        runs = tmp_path / "runs"
        assert main(["dump-prompts", "--data", str(tmp_path / "series.csv"),
                     "--out-root", str(runs)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        err = json.loads(captured.err)
        assert err["error"] == "ParseError" and err.get("row") == row and "column" not in err
        assert not runs.exists()

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
            assert parser.parse_args(argv + ["--data", "d", "--lr", value]).cfg_lr == float(value)
        assert parser.parse_args(["gradcheck", "--h", value]).h == float(value)
        assert parser.parse_args(["synth", "--kind", "sine", "--length", "9", "--out", "o",
                                  "--slope", value]).slope == float(value)

    @pytest.mark.parametrize("value", ["-inf", "-INF", "-Infinity", "-nan", "-NaN"])
    def test_every_subcommand_reads_negative_non_finite(self, value):
        parser = cli.build_parser()
        for argv in (["train"], ["evaluate", "--checkpoint", "c"], ["ablate"],
                     ["promote", "--sizes", "8"], ["sweep", "--axis", "hidden_dim",
                     "--values", "8"], ["dump-prompts"]):
            lr = parser.parse_args(argv + ["--data", "d", "--lr", value]).cfg_lr
            assert str(lr) == str(float(value))  # nan != nan, so compare the spellings
        h = parser.parse_args(["gradcheck", "--h", value]).h
        assert str(h) == str(float(value))

    @pytest.mark.parametrize("bad,message", [
        (["--lr", "inf"], "lr must be"),
        (["--lr", "nan"], "lr must be"),
        (["--lambda", "nan"], "lambda must be"),
    ], ids=["lr-inf", "lr-nan", "lambda-nan"])
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
        # finite settings whose values overflow; a written inf fails every command that reads it
        ("--kind=linear --slope=1e308", "'linear' settings give values that overflow"),
        ("--noise=1e308", "'sine' settings give values that overflow"),
        ("--level=1e308 --amplitude=1e308", "'sine' settings give values that overflow"),
    ], ids=["noise-neg", "noise-nan", "amplitude-inf", "level-inf", "slope-nan",
            "slope-overflow", "noise-overflow", "level-overflow"])
    def test_synth_rejects_bad_float(self, tmp_path, capsys, bad, message):
        out = tmp_path / "series.csv"
        argv = ["synth", "--kind", "sine", "--length", "48", *bad.split(), "--out", str(out)]
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and message in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "dump-prompts"])
    @pytest.mark.parametrize("values", [
        np.full(300, 5.0),
        np.where(np.arange(300) % 2, 1.7e308, 1.5e308),  # the train mean overflows
        1e200 * np.sin(np.arange(300) / 3),  # the train std overflows
    ], ids=["constant", "mean-overflow", "std-overflow"])
    def test_a_degenerate_channel_is_refused(self, tmp_path, capsys, values, command):
        # every cell is finite; unrefused, an overflow made train blame a parameter or fit zeros
        frame = generate(SynthSpec(kind="sine", length=300))
        path, out_root = tmp_path / "huge.csv", tmp_path / "runs"
        save_csv(TimeSeriesFrame(frame.timestamps, values[:, None], ("OT",), frame.freq), path)
        argv = [command, "--data", str(path), "--out-root", str(out_root),
                "--split-counts", "180,60,60", "--context-len", "48", "--segment-len", "24",
                "--horizon", "24", "--hidden-dim", "8", "--layers", "0", "--experts", "2",
                "--epochs", "1"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        err = json.loads(line)
        assert err["error"] == "DegenerateChannel" and "'OT'" in err["message"]
        assert not out_root.exists()

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
        ("train", ["--max-steps", "-1"], "max_steps"),
        ("dump-prompts", ["--segment-len", "0"], "segment_len"),
        ("dump-prompts", ["--windows", "-1"], "windows"),
    ], ids=["stride-0", "stride-neg", "context-len-neg", "horizon-0", "horizon-neg",
            "max-steps-neg", "dump-segment-len-0", "dump-windows-neg"])
    def test_out_of_range_integer(self, tmp_path, data_csv, capsys, command, bad, key):
        argv = [command, "--data", str(data_csv), "--out-root", str(tmp_path / "runs")]
        assert main(argv + BASE + bad) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert key in err["message"]
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("argv,refused", [
        (["train", *BASE, "--split-counts", "72,24,2"], None),
        (["evaluate", *DATA, "--split-counts", "72,8,40", "--horizons", "4,32"], None),
        (["evaluate", *DATA, "--split-counts", "72,8,40", "--horizons", "64"],
         "test split has 40 rows and borrows 12 rows of context before it: too few for "
         "context 12 + horizon 64"),
        (["train", *BASE, "--split-counts", "15,24,24"],
         "train split has 15 rows and borrows 0 rows of context before it: too few for "
         "context 12 + horizon 4"),
        (["train", *BASE, "--split-counts", "10,24,24"],
         "train split has 10 rows and borrows 0 rows of context before it: too few for "
         "context 12 + horizon 4"),
        (["evaluate", *DATA, "--split-counts", "10,70,40", "--horizons", "4"], None),
    ], ids=["train-short-test", "evaluate-short-val", "evaluate-short-test", "train-short-train",
            "train-below-one-context", "evaluate-short-train"])
    def test_a_command_checks_only_the_splits_it_samples(self, tmp_path, data_csv, trained,
                                                         capsys, argv, refused):
        # train reads train and val, evaluate reads the test split (with its borrowed context)
        # and the train split's statistics only
        if argv[0] == "evaluate":
            argv = argv + ["--checkpoint", str(trained / "checkpoint.json")]
        out_root = tmp_path / "runs"
        rc = main(argv + ["--data", str(data_csv), "--out-root", str(out_root)])
        if refused is None:
            assert rc == 0 and len(list(out_root.iterdir())) == 1
        else:
            assert rc == 1 and not out_root.exists()
            (line,) = capsys.readouterr().err.splitlines()
            assert json.loads(line) == {"error": "SplitTooShort", "message": refused}


class TestEvaluateCommand:
    @staticmethod
    def _top_forecasts(trained, data_csv, top, max_windows=0):
        """The first test windows of BASE's splits and the checkpoint's forecasts to `top`."""
        params, config = load_checkpoint(trained / "checkpoint.json")
        cfg = resolve_config({"context_len": 12, "stride": 4,
                                    "split_counts": "72,24,24"})
        freq, (test_w,) = cli.prepare(cfg, data_csv, top, ("test",))
        test_w = test_w[: max_windows or None]
        return test_w, forecast_windows(params, config, test_w, freq, top,
                                        PromptEncoder(config.dim))

    def test_report_and_table(self, tmp_path, data_csv, trained, capsys):
        out_root = tmp_path / "runs"
        rc = main(["evaluate", "--checkpoint", str(trained / "checkpoint.json"),
                   "--data", str(data_csv), "--horizons", "4,8",
                   "--max-windows", "2", "--out-root", str(out_root)] + BASE)
        assert rc == 0
        out = capsys.readouterr().out
        (run_dir,) = [p for p in out_root.iterdir() if p.is_dir()]
        assert re.fullmatch(r"evaluate-[0-9a-f]{12}", run_dir.name)
        report = json.loads((run_dir / "report.json").read_text())
        assert set(report["horizons"]) == {"4", "8"}
        # each baseline is scored on the same windows and averaged per window, as the model is
        test_w, preds = self._top_forecasts(trained, data_csv, 8, 2)
        for h, cell in report["horizons"].items():
            assert set(cell) == {"mse", "mae", "persistence", "last_segment"}
            h = int(h)
            for name, forecast in (("persistence", lambda w: persistence_baseline(w.context, h)),
                                   ("last_segment", lambda w: np.resize(w.context[-4:], h))):
                scores = [metrics(forecast(w), w.target[:h]) for w in test_w]
                assert cell[name] == {"mse": float(np.mean([mse for mse, _ in scores])),
                                      "mae": float(np.mean([mae for _, mae in scores]))}, name
        assert report["roll_mse"] == [
            float(np.mean([metrics(p[lo : lo + 4], w.target[lo : lo + 4])[0]
                           for p, w in zip(preds, test_w)])) for lo in (0, 4)]
        # the first roll is the segment_len horizon, bit for bit (criterion 10's prefix)
        assert report["roll_mse"][0] == report["horizons"]["4"]["mse"]
        table = render_forecast_table(report)
        lines = table.splitlines()
        assert lines[0].split() == ["horizon", "MSE", "MAE", "persistence", "MSE", "persistence",
                                    "MAE", "last-segment", "MSE", "last-segment", "MAE"]
        cell = report["horizons"]["8"]
        assert lines[3].split() == ["8", *(f"{c[m]:.4f}" for c in (
            cell, cell["persistence"], cell["last_segment"]) for m in ("mse", "mae"))]
        assert lines[4:] == [f"avg      {report['avg_mse']:.4f}  {report['avg_mae']:.4f}",
                             *(f"roll {k}   {mse:.4f}" for k, mse in
                               enumerate(report["roll_mse"], start=1))]
        assert f"{table}\nreport: {run_dir / 'report.json'}\n" in out
        showcase = (run_dir / "showcase.csv").read_text().splitlines()
        assert showcase[0] == "t,truth,prediction"
        assert len(showcase) == 1 + 8

    def test_model_cell_averages_per_window_metrics(self, tmp_path, data_csv, trained):
        # the model is scored as the baselines are: per window, then averaged over windows
        out_root = tmp_path / "runs"
        assert main(["evaluate", "--checkpoint", str(trained / "checkpoint.json"),
                     "--data", str(data_csv), "--horizons", "4,6",
                     "--out-root", str(out_root), *DATA]) == 0
        (run_dir,) = out_root.iterdir()
        report = json.loads((run_dir / "report.json").read_text())
        params, config = load_checkpoint(trained / "checkpoint.json")
        cfg = resolve_config({"context_len": 12, "stride": 4,
                                    "split_counts": "72,24,24"})
        freq, (test_w,) = cli.prepare(cfg, data_csv, 6, ("test",))
        enc = PromptEncoder(config.dim)
        for h in (4, 6):
            preds = forecast_windows(params, config, test_w, freq, h, enc)
            assert len(preds) == len(test_w) > 1
            per_sq, per_abs = [], []
            for w, got in zip(test_w, preds):
                pred = rolling_forecast(params, config, w.context, w.start, freq, h, enc)
                np.testing.assert_array_equal(got, pred)
                diff = pred - w.target[:h]
                per_sq.append((diff**2).mean())
                per_abs.append(np.abs(diff).mean())
            cell = report["horizons"][str(h)]
            assert cell["mse"] == pytest.approx(np.mean(per_sq), abs=1e-15)
            assert cell["mae"] == pytest.approx(np.mean(per_abs), abs=1e-15)
            scores = [metrics(p, w.target[:h]) for p, w in zip(preds, test_w)]
            assert (cell["mse"], cell["mae"]) == (float(np.mean([m for m, _ in scores])),
                                                  float(np.mean([m for _, m in scores])))

    def test_every_run_writes_its_showcase_and_prints_its_table(self, tmp_path, data_csv,
                                                                 trained, capsys):
        out_root = tmp_path / "runs"
        rc = main(["evaluate", "--checkpoint", str(trained / "checkpoint.json"),
                   "--data", str(data_csv), "--horizons", "8,4",
                   "--out-root", str(out_root), *DATA])
        assert rc == 0
        (run_dir,) = out_root.iterdir()
        assert sorted(os.listdir(run_dir)) == ["report.json", "showcase.csv"]
        report = json.loads((run_dir / "report.json").read_text())
        out = capsys.readouterr().out
        assert out == f"{render_forecast_table(report)}\nreport: {run_dir / 'report.json'}\n"
        # the first test window up to the largest horizon, floats in shortest round-trip form
        cfg = resolve_config({"context_len": 12, "stride": 4,
                                    "split_counts": "72,24,24"})
        _, (test_w,) = cli.prepare(cfg, data_csv, 8, ("test",))
        rows = (run_dir / "showcase.csv").read_text().splitlines()
        assert rows[0] == "t,truth,prediction" and len(rows) == 1 + 8
        for i, row in enumerate(rows[1:]):
            t, truth, prediction = row.split(",")
            assert t == str(i) and truth == repr(float(test_w[0].target[i]))
            assert prediction == repr(float(prediction))

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
        assert set(report) == {"horizons", "avg_mse", "avg_mae", "roll_mse", "resolved_config",
                               "data", "data_sha256", "inputs"}
        assert report["inputs"] == {"checkpoint_sha256": cli._sha256(trained / "checkpoint.json"),
                                    "horizons": [4, 8], "max_windows": 0}
        # last_segment repeats each window's last segment_len context values
        test_w, preds = self._top_forecasts(trained, data_csv, 8)
        for h in (4, 8):
            scores = [metrics(np.resize(w.context[-4:], h), w.target[:h]) for w in test_w]
            assert report["horizons"][str(h)]["last_segment"] == {
                "mse": float(np.mean([mse for mse, _ in scores])),
                "mae": float(np.mean([mae for _, mae in scores]))}
        # every roll holds segment_len values in every window, so the per-window mean is the
        # pooled MSE of the roll's slices, up to rounding
        assert report["roll_mse"] == pytest.approx([metrics(
            np.concatenate([p[lo : lo + 4] for p in preds]),
            np.concatenate([w.target[lo : lo + 4] for w in test_w]))[0] for lo in (0, 4)],
            rel=1e-12)
        assert report["roll_mse"][0] == report["horizons"]["4"]["mse"]
        model = {key: report["resolved_config"][key] for key in cli._MODEL_KEYS}
        assert model == {key: getattr(config, name) for key, name in cli._MODEL_KEYS.items()}
        assert model["hidden_dim"] == 8 and model["segment_len"] == 4  # not the defaults
        cells = report["horizons"].values()
        assert report["avg_mse"] == sum(c["mse"] for c in cells) / 2
        assert report["avg_mae"] == sum(c["mae"] for c in cells) / 2
        assert main(argv) == 0  # an identical rerun: same directory, same bytes
        assert [p for p in out_root.iterdir() if p.is_dir()] == [run_dir]
        assert (run_dir / "report.json").read_bytes() == first

    def test_roll_mse_has_one_entry_per_roll(self, tmp_path, data_csv, trained):
        # a top horizon of 2.5 segments rolls three times; the last roll scores its 2 values
        out_root = tmp_path / "runs"
        assert main(["evaluate", "--checkpoint", str(trained / "checkpoint.json"),
                     "--data", str(data_csv), "--horizons", "10", "--out-root", str(out_root),
                     *DATA]) == 0
        (run_dir,) = out_root.iterdir()
        report = json.loads((run_dir / "report.json").read_text())
        test_w, preds = self._top_forecasts(trained, data_csv, 10)
        assert report["roll_mse"] == [
            float(np.mean([metrics(p[lo:hi], w.target[lo:hi])[0] for p, w in zip(preds, test_w)]))
            for lo, hi in ((0, 4), (4, 8), (8, 10))]

    @pytest.mark.parametrize("extra,key", [
        (["--hidden-dim", "999"], "hidden_dim"),
        (["--segment-len", "7"], "segment_len"),
        (["--experts", "1"], "experts"),
        (["--layers", "1"], "layers"),
        (["--heads", "2"], "heads"),
        (["--gated", "false"], "gated"),
        (["--fused", "off"], "fused"),
        (["--seed", "3"], "seed"),
    ], ids=["hidden-dim", "segment-len", "experts", "layers", "heads", "gated", "fused", "seed"])
    def test_model_key_must_match_the_checkpoint(self, tmp_path, data_csv, trained, capsys,
                                                 extra, key):
        # a model key given by flag but not honoured would mislabel the report
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
        assert self._evaluate(tmp_path / "runs", data_csv, trained,
                              "--hidden-dim", "8", "--gated", "yes") == 0

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

    def test_non_finite_forecast_is_json_error(self, tmp_path, data_csv, trained, capsys):
        # 1e200 is finite, so the checkpoint loads; its squared errors overflow to inf
        blob = json.loads((trained / "checkpoint.json").read_text())
        blob["params"]["out_b"]["data"] = [1e200] * len(blob["params"]["out_b"]["data"])
        (tmp_path / "edited").mkdir()
        (tmp_path / "edited" / "checkpoint.json").write_text(json.dumps(blob))
        assert self._evaluate(tmp_path / "runs", data_csv, tmp_path / "edited") == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        payload = json.loads(captured.err)
        assert payload["error"] == "ConfigError"
        assert payload["message"].startswith("horizon 4: ") and "not finite" in payload["message"]
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("key,value", [("segment_len", 4.0), ("gated", 1)])
    def test_wrongly_typed_checkpoint_config_is_json_error(self, tmp_path, data_csv, trained,
                                                          capsys, key, value):
        blob = json.loads((trained / "checkpoint.json").read_text())
        assert blob["config"][key] == value  # the same value, in JSON's other type
        blob["config"][key] = value
        (tmp_path / "edited").mkdir()
        (tmp_path / "edited" / "checkpoint.json").write_text(json.dumps(blob))
        assert self._evaluate(tmp_path / "runs", data_csv, tmp_path / "edited") == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert payload["error"] == "ConfigError" and repr(key) in payload["message"]
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("keys,named", [(("heads",), "heads"),
                                            (("gated", "experts"), "experts")],
                             ids=["heads", "gated-experts"])
    def test_checkpoint_missing_a_config_key_is_json_error(self, tmp_path, data_csv, trained,
                                                           capsys, keys, named):
        blob = json.loads((trained / "checkpoint.json").read_text())
        for key in keys:
            del blob["config"][key]
        (tmp_path / "edited").mkdir()
        (tmp_path / "edited" / "checkpoint.json").write_text(json.dumps(blob))
        assert self._evaluate(tmp_path / "runs", data_csv, tmp_path / "edited") == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert payload["error"] == "ConfigError" and repr(named) in payload["message"]
        assert not (tmp_path / "runs").exists()


class TestHarnessCommands:
    @pytest.mark.parametrize("argv,name,run_dir,digest", [
        (["ablate", "--seeds", "0,1"], "ablation.json", "ablate-8b1ae5745b0c",
         "9e3c395fdd96a4841cf61ac81d20c2331597cf384f2a8d9e4a173af76666d96a"),
        (["promote", "--sizes", "8,16"], "promotion.json", "promote-d83b3b7010af",
         "454a60c3280c0baa47066a629856f0138feb94c3eadef82de6fdf89f726a926b"),
    ], ids=["ablate", "promote"])
    def test_harness_file_bytes_pinned(self, tmp_path, data_csv, argv, name, run_dir, digest):
        """A harness report is fixed byte for byte, under a fixed run-directory name.

        The reports hold trained numbers: the digests were taken with OpenBLAS's Haswell
        kernels, and another CPU's kernels may round the tiny GEMMs differently.
        """
        out_root = tmp_path / "runs"
        assert main([*argv, "--data", str(data_csv), "--out-root", str(out_root)] + BASE) == 0
        assert [p.name for p in out_root.iterdir()] == [run_dir]
        assert cli._sha256(out_root / run_dir / name) == digest

    def test_ablate(self, tmp_path, data_csv, capsys):
        out_root = tmp_path / "runs"
        rc = main(["ablate", "--data", str(data_csv), "--seeds", "0",
                   "--out-root", str(out_root)] + BASE)
        assert rc == 0
        assert "w/o MoE" in capsys.readouterr().out
        (run_dir,) = [p for p in out_root.iterdir() if p.is_dir()]
        report = json.loads((run_dir / "ablation.json").read_text())
        assert set(report) == {"rows", "resolved_config", "data", "data_sha256", "inputs"}
        assert set(report["rows"]) == {"Original", "w/o Context", "w/o Fusion", "w/o MoE"}
        assert report["inputs"] == {"seeds": [0]}

    @pytest.mark.parametrize("argv,key", [
        (["promote", "--sizes", "8", "--experts", "1"], "experts"),
        (["ablate", "--seeds", "0", "--fused", "false"], "fused"),
        (["ablate", "--seeds", "0", "--experts", "1"], "experts"),
        (["ablate", "--seeds", "0", "--fused", "false", "--experts", "1", "--gated", "false"],
         "experts"),
    ], ids=["promote-one-expert", "ablate-unfused", "ablate-one-expert", "ablate-all-off"])
    def test_harness_refuses_a_base_whose_rows_are_one_model(self, tmp_path, data_csv,
                                                             monkeypatch, capsys, argv, key):
        # rows that differ by no toggle would publish a difference that is only noise
        monkeypatch.setattr(evaluation, "assemble_windows", None)  # refused before assembly
        out_root = tmp_path / "runs"
        assert main([argv[0], "--data", str(data_csv), "--out-root", str(out_root)]
                    + BASE + argv[1:]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "ConfigError" and re.search(rf"\b{key}\b", payload["message"])
        assert not out_root.exists()

    def test_promote(self, tmp_path, data_csv, capsys):
        out_root = tmp_path / "runs"
        rc = main(["promote", "--data", str(data_csv), "--sizes", "8",
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

    @pytest.mark.parametrize("command,extra", [
        ("train", ["--context-len", "7"]),
        ("ablate", ["--seeds", "0", "--context-len", "7"]),
        ("promote", ["--sizes", "8", "--context-len", "7"]),
        ("sweep", ["--axis", "context_len", "--values", "12,7"]),
        ("sweep", ["--axis", "segment_len", "--values", "4,8"]),
    ], ids=["train", "ablate", "promote", "sweep-context-len", "sweep-segment-len"])
    def test_context_shorter_than_two_segments_is_refused_before_training(
            self, tmp_path, data_csv, monkeypatch, capsys, command, extra):
        # teacher forcing predicts each segment from the ones before it, so it needs two
        def train_variants(*args, **kwargs):
            raise AssertionError(f"{command} trained before it checked context_len")

        monkeypatch.setattr(evaluation, "train_variants", train_variants)
        monkeypatch.setattr(cli, "train_variants", train_variants)
        out_root = tmp_path / "runs"
        assert main([command, "--data", str(data_csv), "--out-root", str(out_root)]
                    + BASE + extra) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ConfigError"
        assert payload["message"].startswith("context_len must be >= 2 * segment_len")
        assert not out_root.exists()

    def test_context_of_exactly_two_segments_is_accepted(self):
        cfg = resolve_config({"context_len": 48, "segment_len": 24})
        assert cli._model_config(cfg).segment_len == 24

    @pytest.mark.parametrize("command,extra,sources", [
        ("ablate", ["--seeds", "0"], {"PromptEncoder", "ZeroTextSource"}),
        ("promote", ["--sizes", "8"], {"PromptEncoder"}),
    ], ids=["ablate", "promote"])
    def test_harness_renders_with_configured_text(self, tmp_path, data_csv, monkeypatch,
                                                  command, extra, sources):
        seen = []

        def spy(windows, freq, segment_len, text_source):
            seen.append(type(text_source).__name__)
            return assemble_windows(windows, freq, segment_len, text_source)

        monkeypatch.setattr(evaluation, "assemble_windows", spy)
        rc = main([command, "--data", str(data_csv),
                   "--out-root", str(tmp_path / "runs")] + extra + BASE)
        assert rc == 0
        assert set(seen) == sources

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


def _error_argv(name, tmp_path, data_csv, two_regime_csv):
    """A command line on which a command reports the error type `name`; None if there is none."""
    def write(file_name, body):
        (tmp_path / file_name).write_bytes(body)
        return str(tmp_path / file_name)

    train = ["train", "--data", str(data_csv), *BASE]
    if name == "DegenerateChannel":
        frame = generate(SynthSpec(kind="sine", length=120))
        save_csv(TimeSeriesFrame(frame.timestamps, np.full((120, 1), 5.0), ("OT",), frame.freq),
                 tmp_path / "constant.csv")
    return {
        "ParseError": ["train", "--data", write("cell.csv", b"date,OT\n2020-01-01 00:00:00,1.0\n"
                                                          b"2020-01-01 01:00:00,oops\n")],
        "SplitTooShort": ["train", "--data", str(data_csv), "--split-counts", "100,10,10"],
        "DegenerateChannel": ["train", "--data", str(tmp_path / "constant.csv"), *BASE],
        "CacheMiss": train + ["--emb-cache", write("empty.emb", b"SMET-EMB v1 dim=8\n")],
        "CorruptCache": train + ["--emb-cache", write("bad.emb", b"SMET-EMB v1 dim=8\n\xff\n")],
        "NonFiniteGradient": [
            "train", "--data", str(two_regime_csv), "--split-counts", "432,144,144",
            "--context-len", "96", "--segment-len", "24", "--hidden-dim", "8", "--experts", "2",
            "--layers", "1", "--heads", "1", "--stride", "24", "--horizon", "24",
            "--epochs", "3", "--batch", "4", "--lr", "1e40"],
        "ConfigError": ["dump-prompts", "--data", str(data_csv), "--stride", "0"],
    }.get(name)


@pytest.mark.parametrize("name", [cls.__name__ for cls in FusecastError.__subclasses__()])
def test_each_error_type_is_reachable_from_a_command(tmp_path, data_csv, two_regime_csv,
                                                     capsys, name):
    # an error type that no command can raise is one no user can see; a new type needs a case
    argv = _error_argv(name, tmp_path, data_csv, two_regime_csv)
    assert argv is not None, f"no command line reports {name}"
    out_root = tmp_path / "runs"
    assert main(argv + ["--out-root", str(out_root)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == name
    assert not out_root.exists()
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    assert f"`{name}`" in readme.split("- **Errors**:")[1].split("\n\n")[0]


def _readme_unread_keys():
    """command -> the config keys that the README's file-format table says it leaves out."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^  \| `[\w.]+` \(`(\w+)`\) \|.* \| ([^|]+) \|$", readme, re.M)
    return {command: [key for key in re.findall(r"`(\w+)`", cell) if key in cli._SCHEMA]
            for command, cell in rows}


@pytest.mark.parametrize("command,extra,flag,values,artifact", [
    ("evaluate", ["--horizons", "4"], "--horizon", ("4", "8"), "report.json"),
    ("evaluate", ["--horizons", "4"], "--lr", ("0.1", "0.5"), "report.json"),
    ("evaluate", ["--horizons", "4"], "--epochs", ("1", "0"), "report.json"),
    ("ablate", ["--seeds", "0"], "--seed", ("3", "4"), "ablation.json"),
    ("promote", ["--sizes", "8"], "--hidden-dim", ("4", "16"), "promotion.json"),
    ("promote", ["--sizes", "8"], "--gated", ("true", "false"), "promotion.json"),
    ("sweep", ["--axis", "context_len", "--values", "12"], "--context-len", ("8", "16"),
     "sweep.json"),
], ids=["evaluate", "evaluate-lr", "evaluate-epochs", "ablate", "promote", "promote-gated",
        "sweep"])
def test_an_unread_key_is_left_out(tmp_path, data_csv, trained, command, extra, flag, values,
                                   artifact):
    # an artifact holds exactly the keys its command reads, so the flag of a key that the
    # command never reads, or that its list flag replaces, changes nothing
    unread = _readme_unread_keys()[command] + ([extra[1]] if command == "sweep" else [])
    assert flag[2:].replace("-", "_") in unread
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
    assert json.loads(written[0])["resolved_config"] == {
        key: value for key, value in expected.items() if key not in unread}


@pytest.mark.parametrize("command,flag,repeated,plain,artifact", [
    ("ablate", "--seeds", "0,0", "0", "ablation.json"),
    ("promote", "--sizes", "8,8", "8", "promotion.json"),
    ("sweep", "--values", "8,8", "8", "sweep.json"),
], ids=["ablate", "promote", "sweep"])
def test_a_repeated_list_value_is_trained_once(tmp_path, data_csv, monkeypatch, command, flag,
                                               repeated, plain, artifact):
    # the first of a repeated value is kept, so the run is the plain one, in its directory
    trained = []

    def train_model(*args):
        trained.append(args[1])
        return real(*args)

    real = evaluation.train_model
    monkeypatch.setattr(evaluation, "train_model", train_model)
    out_root = tmp_path / "runs"
    argv = [command, "--data", str(data_csv), "--out-root", str(out_root), *BASE]
    if command == "sweep":
        argv += ["--axis", "hidden_dim"]
    written = []
    for values in (repeated, plain):
        trained.clear()
        assert main(argv + [flag, values]) == 0
        (run_dir,) = [p for p in out_root.iterdir() if p.is_dir()]
        written.append(((run_dir / artifact).read_bytes(), list(trained)))
    assert written[0] == written[1]


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


def _run_with_stdout_closed(argv, unbuffered, patch="pass"):
    """Run the CLI in a child whose stdout is a pipe with its read end already closed."""
    read, write = os.pipe()
    os.close(read)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(evaluation.__file__).parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    code = f"import sys; from fusecast import cli; {patch}; sys.exit(cli.main(sys.argv[1:]))"
    try:
        return subprocess.run([sys.executable, "-c", code, *argv], stdout=write,
                              stderr=subprocess.PIPE, env=env, text=True, timeout=120)
    finally:
        os.close(write)


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
class TestClosedStdout:
    """Every artifact is written before the first line, so a closed stdout ends with 0."""

    def test_train_writes_what_a_normal_run_writes(self, tmp_path, data_csv, trained,
                                                   unbuffered):
        out_root = tmp_path / "runs"
        done = _run_with_stdout_closed(["train", "--data", str(data_csv), "--out-root",
                                        str(out_root)] + BASE, unbuffered)
        assert (done.returncode, done.stderr) == (0, "")
        (run_dir,) = [p for p in out_root.iterdir() if p.is_dir()]
        assert run_dir.name == trained.name
        assert sorted(os.listdir(run_dir)) == sorted(os.listdir(trained))
        for name in os.listdir(trained):
            assert (run_dir / name).read_bytes() == (trained / name).read_bytes(), name

    def test_sweep_publishes(self, tmp_path, data_csv, unbuffered):
        argv = ["sweep", "--data", str(data_csv), "--axis", "hidden_dim", "--values", "8,16"]
        done = _run_with_stdout_closed(argv + ["--out-root", str(tmp_path / "closed")] + BASE,
                                       unbuffered)
        assert (done.returncode, done.stderr) == (0, "")
        assert main(argv + ["--out-root", str(tmp_path / "open")] + BASE) == 0
        (closed,) = (tmp_path / "closed").iterdir()
        (opened,) = (tmp_path / "open").iterdir()
        assert (closed / "sweep.json").read_bytes() == (opened / "sweep.json").read_bytes()

    def test_dump_prompts(self, data_csv, unbuffered):
        done = _run_with_stdout_closed(["dump-prompts", "--data", str(data_csv),
                                        "--windows", "3"] + BASE, unbuffered)
        assert (done.returncode, done.stderr) == (0, "")

    def test_evaluate_writes_what_a_normal_run_writes(self, tmp_path, data_csv, trained,
                                                      unbuffered):
        # evaluate prints its table's lines before report:, so the pipe breaks at the first
        argv = ["evaluate", "--checkpoint", str(trained / "checkpoint.json"), "--data",
                str(data_csv), "--horizons", "4,8", *DATA]
        done = _run_with_stdout_closed(argv + ["--out-root", str(tmp_path / "closed")],
                                       unbuffered)
        assert (done.returncode, done.stderr) == (0, "")
        assert main(argv + ["--out-root", str(tmp_path / "open")]) == 0
        (closed,) = (tmp_path / "closed").iterdir()
        (opened,) = (tmp_path / "open").iterdir()
        assert closed.name == opened.name
        assert sorted(os.listdir(closed)) == ["report.json", "showcase.csv"]
        for name in ("report.json", "showcase.csv"):
            assert (closed / name).read_bytes() == (opened / name).read_bytes(), name

    def test_a_failing_gradcheck_still_fails(self, unbuffered):
        patch = "cli.gradient_check = lambda seed, h: {'a': float('nan')}"
        done = _run_with_stdout_closed(["gradcheck"], unbuffered, patch)
        assert (done.returncode, done.stderr) == (1, "")
