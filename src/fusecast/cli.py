"""Command-line interface: synthesis, training, evaluation, and harnesses.

Configuration is a flat key=value namespace resolved in three layers:
built-in defaults, then an optional config file, then command-line flags.
The fully resolved mapping (plus the seed it contains) is embedded into
every artifact, and each run writes into a directory named by a content
hash of that mapping, so identical invocations land in identical places
with byte-identical artifacts.

Errors are emitted as one JSON object on stderr with a nonzero exit code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import data as dataio
from .errors import ConfigError, FusecastError
from .evaluation import (
    HORIZONS,
    ablation_run,
    forecast_report,
    forecast_windows,
    promotion_run,
    render_ablation_table,
    render_forecast_table,
    render_promotion_table,
    rolling_forecast,
    sweep_run,
)
from .model import ModelConfig, init_params, load_checkpoint, save_checkpoint
from .synth import SynthSpec, generate, save_csv, spec_comment
from .textenc import load_cache, precompute_cache, save_cache, text_source
from .train import (
    TrainConfig,
    assemble_windows,
    gradient_check,
    run_record,
    train_model,
    window_segments,
)

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _bool(text):
    if isinstance(text, bool):
        return text
    lowered = str(text).strip().lower()
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
    "experts": (int, 4),
    "layers": (int, 2),
    "heads": (int, 2),
    "gated": (_bool, True),
    "fused": (_bool, True),
    "lr": (float, 1e-3),
    "lambda": (float, 0.1),
    "sparsity_mode": (str, "literal"),
    "epochs": (int, 10),
    "batch": (int, 32),
    "seed": (int, 0),
    "split_counts": (str, ""),  # "train,val,test" rows; empty = 60/20/20
    "stride": (int, 1),
    "horizon": (int, 96),
    "weight_decay": (float, 0.0),
    "max_steps": (int, 0),  # 0 = no cap
    "text_seed": (int, 0),
    "text_mode": (str, "builtin"),  # builtin | zero
    "decimals": (int, 4),
}

# key -> smallest accepted value (max_steps 0 means no cap)
_MINIMUMS = {"context_len": 1, "segment_len": 1, "stride": 1, "horizon": 1,
             "decimals": 0, "max_steps": 0}


def parse_config_file(path) -> dict:
    """Flat key=value lines; blank lines and # comments are skipped."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def resolve_config(config_path, overrides: dict) -> dict:
    """defaults <- config file <- flags, every key validated against the schema."""
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
    if resolved["text_mode"] not in ("builtin", "zero"):
        raise ConfigError(f"text_mode must be builtin or zero, got {resolved['text_mode']!r}")
    for key, low in _MINIMUMS.items():
        if resolved[key] < low:
            raise ConfigError(f"{key} must be >= {low}, got {resolved[key]}")
    return resolved


def _add_config_flags(parser):
    parser.add_argument("--config", default=None, help="flat key=value config file")
    parser.add_argument("--out-root", default="runs", help="directory holding run outputs")
    for key in _SCHEMA:
        parser.add_argument(f"--{key.replace('_', '-')}", dest=f"cfg_{key}",
                            default=None, metavar="V")


def _config_from(args) -> dict:
    overrides = {}
    for key, value in vars(args).items():
        if key.startswith("cfg_") and value is not None:
            overrides[key[4:]] = value
    return resolve_config(args.config, overrides)


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


def _run_dir(args, cfg, **inputs) -> Path:
    """Run directory named by the command, config, data path and bytes, and `inputs`."""
    payload = {"config": cfg, "data": str(args.data), "data_sha256": _sha256(args.data),
               **inputs}
    return make_run_dir(args.out_root, args.command, payload)


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
    return ModelConfig(
        segment_len=cfg["segment_len"], dim=cfg["hidden_dim"], experts=cfg["experts"],
        layers=cfg["layers"], heads=cfg["heads"], seed=cfg["seed"],
        gated=cfg["gated"], fused=cfg["fused"],
    )


def _train_config(cfg) -> TrainConfig:
    return TrainConfig(
        lr=cfg["lr"], lam=cfg["lambda"], epochs=cfg["epochs"], batch=cfg["batch"],
        seed=cfg["seed"], sparsity_mode=cfg["sparsity_mode"],
        weight_decay=cfg["weight_decay"], max_steps=cfg["max_steps"] or None,
    )


def _fit(cfg, data_path, emb_cache=None):
    """Train one model on the train/val windows; returns (mconfig, tconfig, result).

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

    train_data = assemble_windows(train_w, freq, mconfig.segment_len, source, cfg["decimals"])
    val_data = assemble_windows(val_w, freq, mconfig.segment_len, source, cfg["decimals"])
    result = train_model(init_params(mconfig), mconfig, tconfig, train_data, val_data)
    return mconfig, tconfig, result


def cmd_synth(args) -> int:
    spec = SynthSpec(
        kind=args.kind, length=args.length, channels=args.channels, noise=args.noise,
        seed=args.seed, period=args.period, amplitude=args.amplitude,
        level=args.level, slope=args.slope,
    )
    frame = generate(spec)
    save_csv(frame, args.out, spec_comment(spec))
    print(f"wrote {frame.length}x{frame.channels} {spec.kind} series to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _config_from(args)
    mconfig, tconfig, result = _fit(cfg, args.data, args.emb_cache)
    run_dir = _run_dir(args, cfg)
    save_checkpoint(result.params, mconfig, run_dir / "checkpoint.json")
    record = run_record(mconfig, tconfig, result)
    record["resolved_config"] = cfg
    record["data"] = str(args.data)
    write_json(run_dir / "record.json", record)
    print(f"run dir: {run_dir}")
    print(f"best val MSE {result.best_val_mse:.6f} at epoch {result.best_epoch} "
          f"({result.steps} steps)")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _config_from(args)
    params, mconfig = load_checkpoint(args.checkpoint)
    horizons = sorted(_int_list(args.horizons, "horizons"))
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
    for h in horizons:
        mse, mae = forecast_windows(params, mconfig, test_w, freq, h, source, cfg["decimals"])
        per_horizon[h] = {"mse": mse, "mae": mae}
    report = forecast_report(
        Path(args.data).stem, per_horizon,
        config={"resolved": cfg, "model": asdict(mconfig)}, seeds=(mconfig.seed,),
    )
    run_dir = _run_dir(args, cfg, horizons=horizons, max_windows=args.max_windows,
                       checkpoint_sha256=_sha256(args.checkpoint))
    write_json(run_dir / "report.json", report)
    if args.table:
        print(render_forecast_table(report))
    if args.plot_data:
        w = test_w[0]
        pred = rolling_forecast(params, mconfig, w.context, w.start, freq, top,
                                source, cfg["decimals"])
        with open(run_dir / "showcase.csv", "w", encoding="utf-8") as fh:
            fh.write("t,truth,prediction\n")
            for i in range(top):
                fh.write(f"{i},{repr(float(w.target[i]))},{repr(float(pred[i]))}\n")
    print(f"report: {run_dir / 'report.json'}")
    return 0


def cmd_ablate(args) -> int:
    cfg = _config_from(args)
    seeds = _int_list(args.seeds, "seeds")
    freq, (train_w, val_w) = prepare(cfg, args.data, cfg["horizon"], ("train", "val"))
    report = ablation_run(train_w, val_w, freq, _model_config(cfg), _train_config(cfg),
                          seeds=seeds, text_seed=cfg["text_seed"], decimals=cfg["decimals"])
    report["resolved_config"] = cfg
    report["data"] = str(args.data)
    run_dir = _run_dir(args, cfg, seeds=seeds)
    write_json(run_dir / "ablation.json", report)
    if args.table:
        print(render_ablation_table(report))
    print(f"report: {run_dir / 'ablation.json'}")
    return 0


def cmd_promote(args) -> int:
    cfg = _config_from(args)
    sizes = _int_list(args.sizes, "sizes")
    freq, (train_w, val_w) = prepare(cfg, args.data, cfg["horizon"], ("train", "val"))
    report = promotion_run(train_w, val_w, freq, _model_config(cfg), _train_config(cfg),
                           sizes, text_seed=cfg["text_seed"],
                           text_mode=cfg["text_mode"], decimals=cfg["decimals"])
    report["resolved_config"] = cfg
    report["data"] = str(args.data)
    run_dir = _run_dir(args, cfg, sizes=sizes)
    write_json(run_dir / "promotion.json", report)
    if args.table:
        print(render_promotion_table(report))
    print(f"report: {run_dir / 'promotion.json'}")
    return 0


_SWEEP_AXES = {"hidden_dim": "hidden_dim", "input_len": "context_len",
               "segment_len": "segment_len"}


def cmd_sweep(args) -> int:
    cfg = _config_from(args)
    key = _SWEEP_AXES[args.axis]
    values = _int_list(args.values, "values")

    def run_one(value):
        _, _, result = _fit({**cfg, key: value}, args.data)
        return result.best_val_mse, result.best_val_mae

    report = sweep_run(values, run_one)
    report["axis"] = args.axis
    report["resolved_config"] = cfg
    report["data"] = str(args.data)
    run_dir = _run_dir(args, cfg, axis=args.axis, values=values)
    write_json(run_dir / "sweep.json", report)
    if args.plot_data:
        with open(run_dir / "sweep.csv", "w", encoding="utf-8") as fh:
            fh.write(f"{args.axis},mse,mae\n")
            for row in report["curve"]:
                fh.write(f"{row['value']},{repr(row['mse'])},{repr(row['mae'])}\n")
    print(f"best {args.axis}: {report['best_value']} (val MSE {report['best_mse']:.6f})")
    print(f"report: {run_dir / 'sweep.json'}")
    return 0


def cmd_gradcheck(args) -> int:
    report = gradient_check(seed=args.seed, h=args.h)
    worst = 0.0
    for name in sorted(report):
        print(f"{name:16s} max rel err {report[name]:.3e}")
        worst = max(worst, report[name])
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
    p.add_argument("--kind", required=True, choices=("sine", "two-regime", "constant", "linear"))
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--channels", type=int, default=1)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--period", type=int, default=24)
    p.add_argument("--amplitude", type=float, default=1.0)
    p.add_argument("--level", type=float, default=0.0)
    p.add_argument("--slope", type=float, default=0.01)
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
    p.add_argument("--axis", required=True, choices=sorted(_SWEEP_AXES))
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--plot-data", action="store_true")
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

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FusecastError as exc:
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


if __name__ == "__main__":
    sys.exit(main())
