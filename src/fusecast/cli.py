"""Command-line interface: synthesis, training, evaluation, and harnesses.

Configuration is a flat key=value namespace resolved in three layers:
built-in defaults, then an optional config file, then command-line flags.
Every command accepts every key. The resolved mapping, less the keys a command
does not read, is embedded into its artifact, and each run writes into a
directory named by a content hash of that mapping, so identical invocations
land in identical places with byte-identical artifacts.

Errors are emitted as one JSON object on stderr with a nonzero exit code. A command writes
every artifact before it prints its first line, so a closed stdout is not an error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
from dataclasses import MISSING, fields
from functools import partial
from pathlib import Path
from typing import get_type_hints

# One BLAS thread unless the user chose a count; this takes effect only before NumPy's import
if "OMP_NUM_THREADS" not in os.environ:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import data as dataio
from .errors import ConfigError, FusecastError, SplitTooShort
from .evaluation import (
    HORIZONS,
    ablation_run,
    forecast_windows,
    persistence_baseline,
    promotion_run,
    render_ablation_table,
    render_forecast_table,
    render_promotion_table,
    train_variants,
)
from .model import ModelConfig, load_checkpoint, save_checkpoint
from .synth import SynthSpec, generate, save_csv, spec_comment
from .textenc import PromptEncoder, load_cache, precompute_cache, save_cache
from .train import SPARSITY_MODES, TrainConfig, gradient_check, metrics, window_segments

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _bool(text):
    lowered = text.strip().lower()
    if lowered in _TRUE:
        return True
    if lowered in _FALSE:
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


# config key -> the ModelConfig or TrainConfig field it sets: its namesake, except these two
_KEY_OF = {"dim": "hidden_dim", "lam": "lambda"}
_MODEL_KEYS = {_KEY_OF.get(f.name, f.name): f.name for f in fields(ModelConfig)}
_TRAIN_KEYS = {_KEY_OF.get(f.name, f.name): f.name for f in fields(TrainConfig)}


def _field_keys(cls) -> dict:
    """key -> (converter, default) of each field of `cls`: the field's type and default."""
    types = get_type_hints(cls)
    return {_KEY_OF.get(f.name, f.name): ({bool: _bool}.get(types[f.name], types[f.name]),
                                          f.default) for f in fields(cls)}


# key -> (converter, default); this is the whole config surface. The class fields state
# their own keys, so only the keys that set no field are written out here
_SCHEMA = {
    "context_len": (int, 168),
    **_field_keys(ModelConfig),
    **_field_keys(TrainConfig),
    "split_counts": (str, ""),  # "train,val,test" rows; empty = 60/20/20
    "stride": (int, 1),
    "horizon": (int, 96),
}

# key -> (lowest, highest) accepted value
_BOUNDS = dict.fromkeys(("context_len", "segment_len", "stride", "horizon"), (1, math.inf))


def parse_config_file(path) -> dict:
    """Flat key=value lines; blank lines and # comments are skipped, and so is a leading BOM."""
    out = {}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not UTF-8 text") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def resolve_config(config_path, overrides: dict, checkpoint=None) -> dict:
    """defaults <- config file <- flags, every key validated against the schema.

    A `checkpoint` ModelConfig sets the model keys; a file or flag that gives one of
    them another value is refused.
    """
    resolved = {key: default for key, (_, default) in _SCHEMA.items()}
    layers = []
    if config_path:
        layers.append(parse_config_file(config_path))
    layers.append(overrides)
    for layer in layers:
        for key, value in layer.items():
            if key not in _SCHEMA:
                raise ConfigError(f"unknown config key {key!r}")
            convert = _SCHEMA[key][0]
            try:
                resolved[key] = convert(value) if isinstance(value, str) else value
            except (ValueError, TypeError):
                raise ConfigError(f"config key {key!r}: cannot parse {value!r}") from None
    if checkpoint is not None:
        for key, name in _MODEL_KEYS.items():
            value = getattr(checkpoint, name)
            if any(key in layer for layer in layers) and resolved[key] != value:
                raise ConfigError(f"{key} {resolved[key]!r} != the checkpoint's {value!r}")
            resolved[key] = value
    if resolved["sparsity_mode"] not in SPARSITY_MODES:
        raise ConfigError(f"sparsity_mode must be one of {SPARSITY_MODES}, "
                          f"got {resolved['sparsity_mode']!r}")
    for key, (low, high) in _BOUNDS.items():
        if not low <= resolved[key] <= high:
            bound = f">= {low}" if resolved[key] < low else f"<= {high}"
            raise ConfigError(f"{key} must be {bound}, got {resolved[key]}")
    return resolved


def _config_from(args, checkpoint=None) -> dict:
    overrides = {}
    for key, value in vars(args).items():
        if key.startswith("cfg_") and value is not None:
            overrides[key[4:]] = value
    return resolve_config(args.config, overrides, checkpoint)


def make_run_dir(out_root, command: str, payload: dict) -> Path:
    """One directory per run, named by a hash of the resolved inputs."""
    digest = hashlib.sha256(
        json.dumps({"command": command, **payload}, sort_keys=True).encode("utf-8")
    ).hexdigest()[:12]
    run_dir = Path(out_root) / f"{command}-{digest}"
    run_dir.mkdir(parents=True, exist_ok=True)
    return run_dir


def _sha256(path) -> str:
    """The file's SHA-256, read in 64 KiB blocks so the file is never held whole."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(partial(fh.read, 1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _say(text) -> None:
    """Print one line now. Once stdout is closed, the rest goes to os.devnull."""
    try:
        print(text, flush=True)
    except BrokenPipeError:  # every artifact is written before a command's first line
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _publish(args, cfg, report: dict, name: str, render, unread=(), files=None, **inputs):
    """Write a command's JSON artifact `name`, then `files(run_dir)`, into its run directory.

    The artifact is stamped with the resolved config less the `unread` keys, which the
    command never reads or a list in `inputs` states instead, the data file as its base
    name and SHA-256 (not the path as typed, so the same run from two paths writes the same
    bytes) and the command's own `inputs`. The directory is named by the command and that
    stamp. Then prints the artifact's `render`ing, if the command has one, and its path.
    """
    cfg = {key: value for key, value in cfg.items() if key not in unread}
    stamp = {"data": Path(args.data).name, "data_sha256": _sha256(args.data)}
    report.update(resolved_config=cfg, inputs=inputs, **stamp)
    run_dir = make_run_dir(args.out_root, args.command, {"config": cfg, **stamp, **inputs})
    write_json(run_dir / name, report)
    if files is not None:
        files(run_dir)
    if render is not None:
        _say(render(report))
    _say(f"report: {run_dir / name}")


def _int_list(text, name: str, distinct=True) -> list:
    """The integers of comma-separated `text`; if `distinct`, only the first of each value."""
    try:
        values = [int(p) for p in text.split(",")]
    except ValueError:
        raise ConfigError(f"{name} needs comma-separated integers, got {text!r}") from None
    return list(dict.fromkeys(values)) if distinct else values


def _split_counts(cfg, frame) -> tuple:
    text = cfg["split_counts"]
    if text:
        parts = tuple(_int_list(text, "split_counts", distinct=False))
        if len(parts) != 3:
            raise ConfigError(f"split_counts needs 3 integers, got {text!r}")
        return parts
    n = frame.length
    train, val = int(n * 0.6), int(n * 0.2)
    return (train, val, n - train - val)


def prepare(cfg, data_path, horizon: int, splits):
    """Load, split and normalize a series; return (freq, [windows of each split]).

    Normalization stats come from the train split. The val and test splits
    borrow context from the history before them. Only the `splits` sampled must hold
    a window at `horizon`; one that does not is refused by name.
    """
    frame, c = dataio.load_csv(data_path), cfg["context_len"]
    spec = dataio.SplitSpec.from_counts(_split_counts(cfg, frame), 0)  # checks boundaries only
    ranges = dataio.make_splits(frame, spec, 1)
    norm = dataio.normalize(frame, dataio.compute_norm_stats(frame, ranges.train))
    windows = []
    for which in splits:
        own = getattr(ranges, which)
        split = own if which == "train" else dataio.extend_back(own, c)
        if split[1] - split[0] < c + horizon:
            raise SplitTooShort(f"{which} split has {own[1] - own[0]} rows and borrows "
                                f"{own[0] - split[0]} rows of context before it: too few for "
                                f"context {c} + horizon {horizon}")
        windows.append(list(dataio.sample_windows(norm, split, c, horizon, cfg["stride"])))
    return norm.freq, windows


def _model_config(cfg) -> ModelConfig:
    """The model to train; teacher forcing predicts each segment from the ones before it."""
    if cfg["context_len"] < 2 * cfg["segment_len"]:
        raise ConfigError(f"context_len must be >= 2 * segment_len = {2 * cfg['segment_len']}, "
                          f"got {cfg['context_len']}")
    return ModelConfig(**{name: cfg[key] for key, name in _MODEL_KEYS.items()})


def _train_config(cfg) -> TrainConfig:
    return TrainConfig(**{name: cfg[key] for key, name in _TRAIN_KEYS.items()})


def _fit(cfg, data_path, emb_cache=None):
    """Train one model on the train/val windows; returns (mconfig, result).

    With emb_cache, prompts are embedded from that cache file, which is built
    first if it does not exist yet: from the distinct train and val prompts, each
    encoded once in first-seen order, and written one entry per line. The text
    source, cache or encoder, is made inside train_variants and dies with assembly.
    """
    freq, (train_w, val_w) = prepare(cfg, data_path, cfg["horizon"], ("train", "val"))
    mconfig, tconfig = _model_config(cfg), _train_config(cfg)
    if not emb_cache:
        make = partial(PromptEncoder, mconfig.dim)
    elif Path(emb_cache).exists():
        def make():
            cache = load_cache(emb_cache)
            if cache.dim != mconfig.dim:
                raise ConfigError(f"cache dim {cache.dim} != hidden_dim {mconfig.dim}")
            return cache
    else:
        def make():  # builds and writes the cache, and hands it over without reading it back
            prompts = dict.fromkeys(p for w in train_w + val_w for p in window_segments(
                w.context, w.start, freq, mconfig.segment_len)[1])
            cache = precompute_cache(prompts, mconfig.dim)
            save_cache(cache, emb_cache)
            return cache
    (result,) = train_variants(train_w, val_w, freq, [(mconfig, tconfig, make)])
    return mconfig, result


def cmd_synth(args) -> int:
    spec = SynthSpec(**{f.name: getattr(args, f.name) for f in fields(SynthSpec)})
    frame = generate(spec)
    save_csv(frame, args.out, spec_comment(spec))
    _say(f"wrote {frame.length}x{frame.channels} {spec.kind} series to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _config_from(args)
    mconfig, result = _fit(cfg, args.data, args.emb_cache)
    record = {"epochs": result.curve, "best_epoch": result.best_epoch,
              "best_val_mse": result.best_val_mse, "steps": result.steps}
    cache_input = {"emb_cache_sha256": _sha256(args.emb_cache)} if args.emb_cache else {}
    _publish(args, cfg, record, "record.json", None, files=lambda run_dir: save_checkpoint(
        result.params, mconfig, run_dir / "checkpoint.json"), **cache_input)
    _say(f"best val MSE {result.best_val_mse:.6f} at epoch {result.best_epoch} "
         f"({result.steps} steps)")
    return 0


def cmd_evaluate(args) -> int:
    params, mconfig = load_checkpoint(args.checkpoint)
    cfg = _config_from(args, mconfig)
    horizons = sorted(_int_list(args.horizons, "horizons"))
    if horizons[0] < 1:
        raise ConfigError(f"horizons must be >= 1, got {horizons}")
    if args.max_windows < 0:
        raise ConfigError(f"max_windows must be >= 0 (0 = all), got {args.max_windows}")
    top = horizons[-1]
    freq, (test_w,) = prepare(cfg, args.data, top, ("test",))
    if args.max_windows:
        test_w = test_w[: args.max_windows]
    source, seg = PromptEncoder(mconfig.dim), mconfig.segment_len

    def scored(forecasts, lo, hi):  # against true values lo:hi, averaged per window
        mse, mae = zip(*(metrics(f, w.target[lo:hi]) for f, w in zip(forecasts, test_w)))
        mse, mae = float(np.mean(mse)), float(np.mean(mae))
        if not (math.isfinite(mse) and math.isfinite(mae)):  # JSON has no inf or NaN
            raise ConfigError(f"horizon {hi}: MSE {mse} and MAE {mae} are not finite")
        return {"mse": mse, "mae": mae}

    per_horizon = {}
    for h in horizons:  # ascending, so `preds` ends as the forecasts at the top horizon
        preds = forecast_windows(params, mconfig, test_w, freq, h, source)
        baselines = {"persistence": [persistence_baseline(w.context, h) for w in test_w],
                     "last_segment": [np.resize(w.context[-seg:], h) for w in test_w]}
        per_horizon[h] = {**scored(preds, 0, h),
                          **{name: scored(fc, 0, h) for name, fc in baselines.items()}}
    rolls = [scored([p[lo : lo + seg] for p in preds], lo, lo + seg)["mse"]
             for lo in range(0, top, seg)]  # each roll of the forecasts at the top horizon
    report = {"horizons": per_horizon, "roll_mse": rolls,
              "avg_mse": sum(v["mse"] for v in per_horizon.values()) / len(horizons),
              "avg_mae": sum(v["mae"] for v in per_horizon.values()) / len(horizons)}

    def showcase(run_dir):
        w, pred = test_w[0], preds[0]
        with open(run_dir / "showcase.csv", "w", encoding="utf-8") as fh:
            fh.write("t,truth,prediction\n")
            for i in range(top):
                fh.write(f"{i},{repr(float(w.target[i]))},{repr(float(pred[i]))}\n")

    unread = ("horizon", *(key for key in _TRAIN_KEYS if key not in _MODEL_KEYS))
    _publish(args, cfg, report, "report.json", render_forecast_table, unread, showcase,
             horizons=horizons, max_windows=args.max_windows,
             checkpoint_sha256=_sha256(args.checkpoint))
    return 0


def cmd_ablate(args) -> int:
    cfg = _config_from(args)
    seeds = _int_list(args.seeds, "seeds")
    freq, (train_w, val_w) = prepare(cfg, args.data, cfg["horizon"], ("train", "val"))
    report = ablation_run(train_w, val_w, freq, _model_config(cfg), _train_config(cfg), seeds)
    _publish(args, cfg, report, "ablation.json", render_ablation_table, ("seed",), seeds=seeds)
    return 0


def cmd_promote(args) -> int:
    cfg = _config_from(args)
    sizes = _int_list(args.sizes, "sizes")
    config = _model_config({**cfg, "hidden_dim": sizes[0], "gated": True})  # the rows set both
    freq, (train_w, val_w) = prepare(cfg, args.data, cfg["horizon"], ("train", "val"))
    report = promotion_run(train_w, val_w, freq, config, _train_config(cfg), sizes)
    _publish(args, cfg, report, "promotion.json", render_promotion_table,
             ("hidden_dim", "gated"), sizes=sizes)
    return 0


def cmd_sweep(args) -> int:
    cfg = _config_from(args)
    values = _int_list(args.values, "values")
    configs = [resolve_config(None, {**cfg, args.axis: value}) for value in values]
    for each in configs:  # every value's model is checked before any training
        _model_config(each)
    curve = []
    for value, each in zip(values, configs):
        _, result = _fit(each, args.data)
        curve.append({"value": value, "mse": float(result.best_val_mse),
                      "mae": float(result.best_val_mae)})
    best = min(curve, key=lambda row: row["mse"])
    report = {"curve": curve, "best_value": best["value"], "best_mse": best["mse"]}
    _publish(args, cfg, report, "sweep.json", None, (args.axis,), axis=args.axis, values=values)
    _say(f"best {args.axis}: {report['best_value']} (val MSE {report['best_mse']:.6f})")
    return 0


def cmd_gradcheck(args) -> int:
    report = gradient_check(seed=args.seed, h=args.h)
    for name in sorted(report):
        _say(f"{name:16s} max rel err {report[name]:.3e}")
    worst = max(report.values(), key=lambda err: err if err == err else float("inf"))  # NaN worst
    ok = worst <= 1e-4
    _say(f"{'PASS' if ok else 'FAIL'}: worst {worst:.3e} (tolerance 1e-4)")
    return 0 if ok else 1


def cmd_dump_prompts(args) -> int:
    cfg = _config_from(args)
    if args.windows < 0:
        raise ConfigError(f"windows must be >= 0, got {args.windows}")
    freq, (windows,) = prepare(cfg, args.data, cfg["horizon"], (args.split,))
    for i, w in enumerate(windows[: args.windows]):
        _, prompts = window_segments(w.context, w.start, freq, cfg["segment_len"])
        _say(f"window {i} channel {w.channel} starting {w.start}")
        for j, prompt in enumerate(prompts, start=1):
            _say(f"  [{j}] {prompt}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fusecast",
                                     description="prompt-fused expert forecaster")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic ETT-format CSV")
    types = get_type_hints(SynthSpec)
    for f in fields(SynthSpec):  # a field without a default is a required flag
        p.add_argument(f"--{f.name}", type=types[f.name], required=f.default is MISSING,
                       default=None if f.default is MISSING else f.default)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train one model and save its checkpoint")
    p.add_argument("--emb-cache", default=None,
                   help="embedding cache file to reuse or create")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="rolling multi-horizon test evaluation")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--horizons", default=",".join(map(str, HORIZONS)))
    p.add_argument("--max-windows", type=int, default=0)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="train the four toggle variants")
    p.add_argument("--seeds", default="0,1,2")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("promote", help="single-expert vs routed-experts comparison")
    p.add_argument("--sizes", required=True, help="comma-separated hidden sizes")
    p.set_defaults(func=cmd_promote)

    p = sub.add_parser("sweep", help="train once per value of one hyperparameter")
    p.add_argument("--axis", required=True, choices=("context_len", "hidden_dim", "segment_len"))
    p.add_argument("--values", required=True, help="comma-separated values")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gradcheck", help="finite-difference check of every gradient block")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--h", type=float, default=1e-5)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("dump-prompts", help="print rendered prompts for inspection")
    p.add_argument("--split", default="train", choices=("train", "val", "test"))
    p.add_argument("--windows", type=int, default=1)
    p.set_defaults(func=cmd_dump_prompts)

    for name, p in sub.choices.items():  # every command but these two reads data and the config
        if name not in ("synth", "gradcheck"):
            p.add_argument("--data", required=True)
            p.add_argument("--config", default=None, help="flat key=value config file")
            p.add_argument("--out-root", default="runs", help="directory holding run outputs")
            for key in _SCHEMA:
                p.add_argument(f"--{key.replace('_', '-')}", dest=f"cfg_{key}", default=None,
                               metavar="V")

    # argparse takes only -5 and -0.5 forms as negative numbers; read anything that starts
    # with a minus and a digit (-1e-3, -.5e1, -4,8), and -inf or -nan, as a value, not a flag
    for each in (parser, *sub.choices.values()):
        each._negative_number_matcher = re.compile(r"^-(\.?\d|(inf|infinity|nan)$)", re.I)
        each.exit_on_error = False  # a bad flag value raises ArgumentError, for main to report
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with np.errstate(all="ignore"):  # a diverging run reports its one JSON error, no warning
            return args.func(args)
    except (FusecastError, argparse.ArgumentError) as exc:
        if isinstance(exc, argparse.ArgumentError):  # a bad flag value, refused like a config one
            exc = ConfigError(str(exc))
        payload = {"error": type(exc).__name__, "message": str(exc)}
        for attr in ("row", "column", "param"):
            value = getattr(exc, attr, None)
            if value is not None:
                payload[attr] = value
        print(json.dumps(payload), file=sys.stderr)
        return 1
    except OSError as exc:
        print(json.dumps({"error": "OSError", "message": str(exc)}), file=sys.stderr)
        return 1
    except MemoryError as exc:  # NumPy's _ArrayMemoryError included
        print(json.dumps({"error": "MemoryError", "message": str(exc) or "out of memory"}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
