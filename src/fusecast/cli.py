"""Command-line interface: synthesis, training, evaluation, and harnesses.

Configuration is a flat key=value namespace resolved in three layers:
built-in defaults, then an optional config file, then command-line flags.
The fully resolved mapping, less a key that a command's list flag replaces,
is embedded into every artifact, and each run writes into a directory named
by a content hash of that mapping, so identical invocations land in
identical places with byte-identical artifacts.

Errors are emitted as one JSON object on stderr with a nonzero exit code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import sys
from dataclasses import MISSING, fields
from pathlib import Path
from typing import get_type_hints

from . import data as dataio
from .errors import ConfigError, FusecastError
from .evaluation import (
    HORIZONS,
    ablation_run,
    forecast_windows,
    promotion_run,
    render_ablation_table,
    render_forecast_table,
    render_promotion_table,
    train_variants,
)
from .model import ModelConfig, load_checkpoint, save_checkpoint
from .synth import SynthSpec, generate, save_csv, spec_comment
from .textenc import TEXT_MODES, load_cache, precompute_cache, save_cache, text_source
from .train import TrainConfig, gradient_check, window_segments

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _bool(text):
    lowered = text.strip().lower()
    if lowered in _TRUE:
        return True
    if lowered in _FALSE:
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


# key -> (converter, default); this is the whole config surface
_SCHEMA = {
    "context_len": (int, 168),
    "segment_len": (int, 24),
    "hidden_dim": (int, 64),
    "experts": (int, ModelConfig.experts),
    "layers": (int, ModelConfig.layers),
    "heads": (int, ModelConfig.heads),
    "gated": (_bool, ModelConfig.gated),
    "fused": (_bool, ModelConfig.fused),
    "lr": (float, TrainConfig.lr),
    "lambda": (float, TrainConfig.lam),
    "sparsity_mode": (str, TrainConfig.sparsity_mode),
    "epochs": (int, TrainConfig.epochs),
    "batch": (int, TrainConfig.batch),
    "seed": (int, ModelConfig.seed),
    "split_counts": (str, ""),  # "train,val,test" rows; empty = 60/20/20
    "stride": (int, 1),
    "horizon": (int, 96),
    "weight_decay": (float, TrainConfig.weight_decay),
    "max_steps": (int, 0),  # 0 = no cap
    "text_seed": (int, 0),
    "text_mode": (str, "builtin"),  # one of textenc.TEXT_MODES
    "decimals": (int, 4),
}

# model key -> the ModelConfig field it sets; a checkpoint's config read back as keys
_MODEL_KEYS = {"segment_len": "segment_len", "hidden_dim": "dim", "experts": "experts",
               "layers": "layers", "heads": "heads", "gated": "gated", "fused": "fused",
               "seed": "seed"}

# key -> (lowest, highest) accepted value. float64 carries 17 significant digits, so
# more decimals would only slow rendering down
_BOUNDS = {"context_len": (1, math.inf), "segment_len": (1, math.inf), "stride": (1, math.inf),
           "horizon": (1, math.inf), "decimals": (0, 17)}


def parse_config_file(path) -> dict:
    """Flat key=value lines; blank lines and # comments are skipped."""
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
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
    if resolved["text_mode"] not in TEXT_MODES:
        raise ConfigError(f"text_mode must be one of {TEXT_MODES}, got {resolved['text_mode']!r}")
    for key, (low, high) in _BOUNDS.items():
        if not low <= resolved[key] <= high:
            bound = f">= {low}" if resolved[key] < low else f"<= {high}"
            raise ConfigError(f"{key} must be {bound}, got {resolved[key]}")
    return resolved


def _add_config_flags(parser):
    parser.add_argument("--config", default=None, help="flat key=value config file")
    parser.add_argument("--out-root", default="runs", help="directory holding run outputs")
    for key in _SCHEMA:
        parser.add_argument(f"--{key.replace('_', '-')}", dest=f"cfg_{key}",
                            default=None, metavar="V")


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
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _publish(args, cfg, report: dict, name: str, render, replaced=None, **inputs) -> Path:
    """Write a command's JSON artifact `name` into its run directory; returns the directory.

    The artifact is stamped with the resolved config less the `replaced` key, which a list
    in `inputs` states instead, the data file as its base name and SHA-256 (not the path
    as typed, so the same run from two paths writes the same bytes) and the command's own
    `inputs`. The directory is named by the command and that stamp. Prints the artifact's
    path, after its `render`ing when --table is given.
    """
    cfg = {key: value for key, value in cfg.items() if key != replaced}
    stamp = {"data": Path(args.data).name, "data_sha256": _sha256(args.data)}
    report.update(resolved_config=cfg, inputs=inputs, **stamp)
    run_dir = make_run_dir(args.out_root, args.command, {"config": cfg, **stamp, **inputs})
    write_json(run_dir / name, report)
    if render is not None and args.table:
        print(render(report))
    print(f"report: {run_dir / name}")
    return run_dir


def _int_list(text, name: str) -> list:
    try:
        return [int(p) for p in text.split(",")]
    except ValueError:
        raise ConfigError(f"{name} needs comma-separated integers, got {text!r}") from None


def _split_counts(cfg, frame) -> tuple:
    text = cfg["split_counts"]
    if text:
        parts = tuple(_int_list(text, "split_counts"))
        if len(parts) != 3:
            raise ConfigError(f"split_counts needs 3 integers, got {text!r}")
        return parts
    n = frame.length
    train, val = int(n * 0.6), int(n * 0.2)
    return (train, val, n - train - val)


def prepare(cfg, data_path, horizon: int, splits):
    """Load, split and normalize a series; return (freq, [windows of each split]).

    Normalization stats come from the train split. The val and test splits
    borrow context from the history before them.
    """
    frame = dataio.load_csv(data_path)
    spec = dataio.SplitSpec.from_counts(_split_counts(cfg, frame), cfg["context_len"])
    ranges = dataio.make_splits(frame, spec, horizon)
    norm = dataio.normalize(frame, dataio.compute_norm_stats(frame, ranges.train))
    windows = []
    for which in splits:
        split = getattr(ranges, which)
        if which != "train":
            split = dataio.extend_back(split, cfg["context_len"])
        windows.append(list(dataio.sample_windows(norm, split, cfg["context_len"], horizon,
                                                  cfg["stride"])))
    return norm.freq, windows


def _model_config(cfg) -> ModelConfig:
    return ModelConfig(**{name: cfg[key] for key, name in _MODEL_KEYS.items()})


def _train_config(cfg) -> TrainConfig:
    return TrainConfig(
        lr=cfg["lr"], lam=cfg["lambda"], epochs=cfg["epochs"], batch=cfg["batch"],
        seed=cfg["seed"], sparsity_mode=cfg["sparsity_mode"],
        weight_decay=cfg["weight_decay"], max_steps=cfg["max_steps"],
    )


def _fit(cfg, data_path, emb_cache=None):
    """Train one model on the train/val windows; returns (mconfig, result).

    With emb_cache, prompts are embedded from that cache file, which is built
    from the train and val prompts first if it does not exist yet. The cache
    holds builtin-encoder vectors, so it needs text_mode=builtin.
    """
    if emb_cache and cfg["text_mode"] != "builtin":
        raise ConfigError(f"--emb-cache needs text_mode=builtin, got {cfg['text_mode']!r}")
    freq, (train_w, val_w) = prepare(cfg, data_path, cfg["horizon"], ("train", "val"))
    mconfig = _model_config(cfg)
    tconfig = _train_config(cfg)
    source = text_source(cfg["text_mode"], mconfig.dim, cfg["text_seed"])
    if emb_cache:
        cache_path = Path(emb_cache)
        if cache_path.exists():
            source = load_cache(cache_path)
            if source.dim != mconfig.dim:
                raise ConfigError(f"cache dim {source.dim} != hidden_dim {mconfig.dim}")
        else:
            prompts = []
            for w in train_w + val_w:
                prompts.extend(
                    window_segments(w.context, w.start, freq, mconfig.segment_len,
                                    cfg["decimals"])[1]
                )
            source = precompute_cache(prompts, mconfig.dim, cfg["text_seed"])
            save_cache(source, cache_path)

    (result,) = train_variants(train_w, val_w, freq, [(mconfig, tconfig, source)],
                               cfg["decimals"])
    return mconfig, result


def cmd_synth(args) -> int:
    spec = SynthSpec(**{f.name: getattr(args, f.name) for f in fields(SynthSpec)})
    frame = generate(spec)
    save_csv(frame, args.out, spec_comment(spec))
    print(f"wrote {frame.length}x{frame.channels} {spec.kind} series to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _config_from(args)
    mconfig, result = _fit(cfg, args.data, args.emb_cache)
    record = {"epochs": result.curve, "best_epoch": result.best_epoch,
              "best_val_mse": result.best_val_mse, "steps": result.steps}
    cache_input = {"emb_cache_sha256": _sha256(args.emb_cache)} if args.emb_cache else {}
    run_dir = _publish(args, cfg, record, "record.json", None, **cache_input)
    save_checkpoint(result.params, mconfig, run_dir / "checkpoint.json")
    print(f"best val MSE {result.best_val_mse:.6f} at epoch {result.best_epoch} "
          f"({result.steps} steps)")
    return 0


def cmd_evaluate(args) -> int:
    params, mconfig = load_checkpoint(args.checkpoint)
    cfg = _config_from(args, mconfig)
    horizons = sorted(set(_int_list(args.horizons, "horizons")))
    if horizons[0] < 1:
        raise ConfigError(f"horizons must be >= 1, got {horizons}")
    if args.max_windows < 0:
        raise ConfigError(f"max_windows must be >= 0 (0 = all), got {args.max_windows}")
    top = horizons[-1]
    freq, (test_w,) = prepare(cfg, args.data, top, ("test",))
    if args.max_windows:
        test_w = test_w[: args.max_windows]
    source = text_source(cfg["text_mode"], mconfig.dim, cfg["text_seed"])
    per_horizon = {}
    for h in horizons:  # ascending, so `preds` ends as the forecasts at the top horizon
        mse, mae, preds = forecast_windows(params, mconfig, test_w, freq, h, source,
                                           cfg["decimals"])
        per_horizon[h] = {"mse": mse, "mae": mae}
    report = {"horizons": per_horizon,
              "avg_mse": sum(v["mse"] for v in per_horizon.values()) / len(horizons),
              "avg_mae": sum(v["mae"] for v in per_horizon.values()) / len(horizons)}
    run_dir = _publish(args, cfg, report, "report.json", render_forecast_table, "horizon",
                       horizons=horizons, max_windows=args.max_windows,
                       checkpoint_sha256=_sha256(args.checkpoint))
    if args.plot_data:
        w, pred = test_w[0], preds[0]
        with open(run_dir / "showcase.csv", "w", encoding="utf-8") as fh:
            fh.write("t,truth,prediction\n")
            for i in range(top):
                fh.write(f"{i},{repr(float(w.target[i]))},{repr(float(pred[i]))}\n")
    return 0


def cmd_ablate(args) -> int:
    cfg = _config_from(args)
    if cfg["text_mode"] != "builtin":  # each ablation row sets its own text mode
        raise ConfigError(f"ablate needs text_mode=builtin, got {cfg['text_mode']!r}")
    seeds = _int_list(args.seeds, "seeds")
    freq, (train_w, val_w) = prepare(cfg, args.data, cfg["horizon"], ("train", "val"))
    report = ablation_run(train_w, val_w, freq, _model_config(cfg), _train_config(cfg),
                          seeds=seeds, text_seed=cfg["text_seed"], decimals=cfg["decimals"])
    _publish(args, cfg, report, "ablation.json", render_ablation_table, "seed", seeds=seeds)
    return 0


def cmd_promote(args) -> int:
    cfg = _config_from(args)
    sizes = _int_list(args.sizes, "sizes")
    config = _model_config({**cfg, "hidden_dim": sizes[0]})  # hidden_dim itself is not trained
    freq, (train_w, val_w) = prepare(cfg, args.data, cfg["horizon"], ("train", "val"))
    report = promotion_run(train_w, val_w, freq, config, _train_config(cfg),
                           sizes, text_seed=cfg["text_seed"],
                           text_mode=cfg["text_mode"], decimals=cfg["decimals"])
    _publish(args, cfg, report, "promotion.json", render_promotion_table, "hidden_dim",
             sizes=sizes)
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
    print(f"best {args.axis}: {report['best_value']} (val MSE {report['best_mse']:.6f})")
    _publish(args, cfg, report, "sweep.json", None, args.axis, axis=args.axis, values=values)
    return 0


def cmd_gradcheck(args) -> int:
    report = gradient_check(seed=args.seed, h=args.h)
    for name in sorted(report):
        print(f"{name:16s} max rel err {report[name]:.3e}")
    worst = max(report.values(), key=lambda err: err if err == err else float("inf"))  # NaN worst
    ok = worst <= 1e-4
    print(f"{'PASS' if ok else 'FAIL'}: worst {worst:.3e} (tolerance 1e-4)")
    return 0 if ok else 1


def cmd_dump_prompts(args) -> int:
    cfg = _config_from(args)
    if args.windows < 0:
        raise ConfigError(f"windows must be >= 0, got {args.windows}")
    freq, (windows,) = prepare(cfg, args.data, cfg["horizon"], (args.split,))
    for i, w in enumerate(windows[: args.windows]):
        _, prompts = window_segments(w.context, w.start, freq,
                                     cfg["segment_len"], cfg["decimals"])
        print(f"window {i} channel {w.channel} starting {w.start}")
        for j, prompt in enumerate(prompts, start=1):
            print(f"  [{j}] {prompt}")
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
    p.add_argument("--data", required=True)
    p.add_argument("--emb-cache", default=None,
                   help="embedding cache file to reuse or create")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="rolling multi-horizon test evaluation")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--horizons", default=",".join(map(str, HORIZONS)))
    p.add_argument("--max-windows", type=int, default=0)
    p.add_argument("--table", action="store_true")
    p.add_argument("--plot-data", action="store_true")
    _add_config_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="train the four toggle variants")
    p.add_argument("--data", required=True)
    p.add_argument("--seeds", default="0,1,2")
    p.add_argument("--table", action="store_true")
    _add_config_flags(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("promote", help="single-expert vs routed-experts comparison")
    p.add_argument("--data", required=True)
    p.add_argument("--sizes", required=True, help="comma-separated hidden sizes")
    p.add_argument("--table", action="store_true")
    _add_config_flags(p)
    p.set_defaults(func=cmd_promote)

    p = sub.add_parser("sweep", help="train once per value of one hyperparameter")
    p.add_argument("--data", required=True)
    p.add_argument("--axis", required=True, choices=("context_len", "hidden_dim", "segment_len"))
    p.add_argument("--values", required=True, help="comma-separated values")
    _add_config_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gradcheck", help="finite-difference check of every gradient block")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--h", type=float, default=1e-5)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("dump-prompts", help="print rendered prompts for inspection")
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="train", choices=("train", "val", "test"))
    p.add_argument("--windows", type=int, default=1)
    _add_config_flags(p)
    p.set_defaults(func=cmd_dump_prompts)

    # argparse takes only -5 and -0.5 forms as negative numbers; read anything that starts
    # with a minus and a digit (-1e-3, -.5e1, -4,8), and -inf or -nan, as a value, not a flag
    for each in (parser, *sub.choices.values()):
        each._negative_number_matcher = re.compile(r"^-(\.?\d|(inf|infinity|nan)$)", re.I)
        each.exit_on_error = False  # a bad flag value raises ArgumentError, for main to report
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
