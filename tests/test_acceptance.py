"""Acceptance gate: each test is one shipped guarantee, checked end to end.

Every test prints a single `criterion N (label): PASS|FAIL` line and then
asserts it, so a verbose run doubles as the checklist. The heavier criteria
(7, 8, 9) train real models on synthetic data with fixed seeds; their
margins were chosen wide enough that they are not flaky, but they do cost
a few seconds each.
"""

import json
import math
import time
from dataclasses import replace
from datetime import datetime, timedelta

import numpy as np
import pytest

from fusecast.data import (
    SplitSpec,
    compute_norm_stats,
    denormalize,
    extend_back,
    make_splits,
    normalize,
    sample_windows,
    window_count,
)
from fusecast.descriptors import segment_series
from fusecast.evaluation import (
    ABLATION_ROWS,
    ablation_run,
    format_promotion,
    metrics,
    persistence_baseline,
    rolling_forecast,
)
from fusecast.model import (
    ModelConfig,
    _softmax,
    backbone_forward,
    backward,
    forward,
    init_params,
    load_checkpoint,
    param_shapes,
    save_checkpoint,
    sigmoid,
    fuse,
)
from fusecast.synth import SynthSpec, generate
from fusecast.textenc import PromptEncoder, load_cache, precompute_cache, save_cache
from fusecast.train import (
    GRADCHECK_CONFIG,
    TrainConfig,
    assemble_windows,
    gradient_check,
    train_model,
)

HOURLY = timedelta(hours=1)
T0 = datetime(2020, 1, 1)


def report(n: int, label: str, ok: bool, detail: str = ""):
    line = f"criterion {n} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def prepared_splits(spec: SynthSpec, counts, context_len, horizon, stride):
    """The standard pipeline: generate, split, normalize, window."""
    frame = generate(spec)
    ranges = make_splits(frame, SplitSpec.from_counts(counts, context_len), horizon)
    norm = normalize(frame, compute_norm_stats(frame, ranges.train))
    train_w = list(sample_windows(norm, ranges.train, context_len, horizon, stride))
    val_w = list(sample_windows(norm, extend_back(ranges.val, context_len),
                                context_len, horizon, stride))
    return norm, train_w, val_w


@pytest.fixture(scope="module")
def two_regime():
    """Shared day-regime dataset for the routing and ablation criteria."""
    norm, train_w, val_w = prepared_splits(
        SynthSpec(kind="two-regime", length=4320, seed=5),
        counts=(2592, 864, 864), context_len=96, horizon=24, stride=24,
    )
    return {"freq": norm.freq, "train_w": train_w, "val_w": val_w}


def test_criterion_01_gradient_fidelity():
    started = time.monotonic()
    errors = gradient_check(seed=0, h=1e-5)
    worst = max(errors.values())
    covered = set(errors) == set(param_shapes(ModelConfig(seed=0, **GRADCHECK_CONFIG)))

    # the fusion-gate gradient also has a short closed form when the
    # backbone is off and a single expert makes the readout linear
    config = ModelConfig(segment_len=3, dim=5, experts=1, layers=0, gated=False, seed=4)
    params = init_params(config)
    params["theta"] = np.asarray(0.3)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 4, 3))
    te = rng.normal(size=(2, 4, 5))
    trace = forward(params, config, x, te)
    d_pred = rng.normal(size=trace.pred.shape)
    grads = backward(params, config, trace, d_pred)
    alpha = sigmoid(0.3)
    d_e = (d_pred @ params["out_W"].T) @ params["experts_W"][0].T
    closed = alpha * (1 - alpha) * (d_e * (trace.se - trace.te)).sum()
    theta_err = abs(float(grads["theta"]) - closed) / max(1.0, abs(closed))

    elapsed = time.monotonic() - started
    ok = worst <= 1e-4 and covered and theta_err <= 1e-10 and elapsed <= 60
    report(1, "gradient fidelity", ok,
           f"worst block err {worst:.2e}, theta closed-form err {theta_err:.2e}, "
           f"{elapsed:.1f}s")


def test_criterion_02_gate_invariants():
    config = ModelConfig(segment_len=4, dim=8, experts=3, layers=1, heads=1, seed=1)
    params = init_params(config)
    rng = np.random.default_rng(2024)
    worst_row = worst_total = 0.0
    for _ in range(1000):
        b, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        x = rng.normal(size=(b, n, 4))
        te = rng.normal(size=(b, n, 8))
        rows = forward(params, config, x, te).gate.reshape(-1, 3)
        worst_row = max(worst_row, float(np.abs(rows.sum(axis=1) - 1.0).max()))
        worst_total = max(worst_total, abs(float(np.abs(rows).sum()) - rows.shape[0]))

    # the absolute-value penalty on a row-stochastic gate is constant, so
    # its finite-difference gradient in the logits is numerical dust
    lam, h, worst_fd = 0.5, 1e-4, 0.0
    for _ in range(20):
        logits = rng.normal(size=(6, 3)) * 3.0
        for i in range(6):
            for j in range(3):
                up, down = logits.copy(), logits.copy()
                up[i, j] += h
                down[i, j] -= h
                diff = lam * np.abs(_softmax(up)).sum() - lam * np.abs(_softmax(down)).sum()
                worst_fd = max(worst_fd, abs(diff / (2 * h)))

    ok = worst_row <= 1e-9 and worst_total <= 1e-9 and worst_fd <= 1e-9
    report(2, "gate invariants", ok,
           f"row sum err {worst_row:.1e}, total err {worst_total:.1e}, "
           f"penalty fd {worst_fd:.1e} over 1000 passes")


def test_criterion_03_structural_equivalences():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(3, 4, 4))
    te = rng.normal(size=(3, 4, 8))

    single = ModelConfig(segment_len=4, dim=8, experts=1, layers=1, heads=1,
                         gated=False, seed=2)
    p1 = init_params(single)
    trace = forward(p1, single, x, te)
    linear = (trace.e_hat @ p1["experts_W"][0]) @ p1["out_W"] + p1["out_b"]
    single_ok = float(np.abs(trace.pred - linear).max()) <= 1e-12

    clones = ModelConfig(segment_len=4, dim=8, experts=3, layers=1, heads=1, seed=2)
    pk = init_params(clones)
    pk["experts_W"] = np.repeat(pk["experts_W"][:1], 3, axis=0)
    base = forward(pk, clones, x, te).pred
    clones_ok = True
    for s in range(3):
        shuffled = dict(pk)
        gate_rng = np.random.default_rng(s)
        shuffled["gate_W"] = gate_rng.normal(size=(8, 3)) * 2.0
        shuffled["gate_b"] = gate_rng.normal(size=3)
        diff = np.abs(forward(shuffled, clones, x, te).pred - base).max()
        clones_ok = clones_ok and float(diff) <= 1e-12

    flat = ModelConfig(segment_len=4, dim=8, experts=2, layers=0, heads=1, seed=0)
    e = rng.normal(size=(3, 4, 8))
    identity_ok = np.array_equal(backbone_forward(e, init_params(flat), flat), e)

    deep = ModelConfig(segment_len=4, dim=8, experts=2, layers=2, heads=2, seed=1)
    p2 = init_params(deep)
    x2 = rng.normal(size=(1, 6, 4))
    te2 = rng.normal(size=(1, 6, 8))
    clean = forward(p2, deep, x2, te2).pred
    causal_ok = True
    for j in range(1, 6):
        bumped_x, bumped_te = x2.copy(), te2.copy()
        bumped_x[0, j] += 1.0
        bumped_te[0, j] -= 0.5
        pred = forward(p2, deep, bumped_x, bumped_te).pred
        causal_ok = causal_ok and np.array_equal(pred[0, :j], clean[0, :j])
        causal_ok = causal_ok and not np.allclose(pred[0, j], clean[0, j])

    ok = single_ok and clones_ok and identity_ok and causal_ok
    report(3, "structural equivalences", ok,
           f"single-expert linear {single_ok}, gate-blind clones {clones_ok}, "
           f"depth-0 identity {identity_ok}, causality {causal_ok}")


def test_criterion_04_fusion_limits():
    rng = np.random.default_rng(4)
    se = rng.normal(size=(5, 8))
    te = rng.normal(size=(5, 8))
    spread = float(np.abs(se - te).max())
    hi, _ = fuse(se, te, 20.0)
    lo, _ = fuse(se, te, -20.0)
    saturation_ok = (float(np.abs(hi - se).max()) <= 1e-6 * spread
                     and float(np.abs(lo - te).max()) <= 1e-6 * spread)

    mid, alpha = fuse(se, te, 0.0)
    midpoint_ok = alpha == 0.5 and np.array_equal(mid, 0.5 * se + 0.5 * te)

    hull_ok = True
    for _ in range(1000):
        a = rng.normal(size=7)
        b = rng.normal(size=7)
        theta = float(rng.uniform(-30, 30))
        e, _ = fuse(a, b, theta)
        hull_ok = hull_ok and bool(
            np.all(e >= np.minimum(a, b) - 1e-12) and np.all(e <= np.maximum(a, b) + 1e-12)
        )

    ok = saturation_ok and midpoint_ok and hull_ok
    report(4, "fusion limits", ok,
           f"saturation {saturation_ok}, exact midpoint {midpoint_ok}, "
           f"convex hull on 1000 triples {hull_ok}")


def test_criterion_05_roundtrips(tmp_path):
    frame = generate(SynthSpec(kind="sine", length=200, channels=3, noise=0.1, seed=2))
    stats = compute_norm_stats(frame, (0, 120))
    back = denormalize(normalize(frame, stats), stats)
    norm_ok = float(np.abs(back.values - frame.values).max()) <= 1e-9

    values = np.random.default_rng(5).normal(size=48)
    segments = segment_series(values, T0, 8, HOURLY)
    seg_ok = np.array_equal(np.concatenate([s.values for s in segments]), values)

    config = ModelConfig(segment_len=4, dim=8, experts=2, layers=1, heads=2, seed=6)
    params = init_params(config)
    ckpt = tmp_path / "model.json"
    save_checkpoint(params, config, ckpt)
    loaded, loaded_config = load_checkpoint(ckpt)
    ckpt_ok = loaded_config == config and all(
        np.array_equal(loaded[k], params[k]) for k in params
    )
    resaved = tmp_path / "model2.json"
    save_checkpoint(loaded, loaded_config, resaved)
    ckpt_ok = ckpt_ok and ckpt.read_bytes() == resaved.read_bytes()

    prompts = [f"Mean is {v:.4f}, standard deviation is 1.0000." for v in range(10)]
    cache = precompute_cache(prompts, 12, seed=0)
    cache_path = tmp_path / "emb.jsonl"
    save_cache(cache, cache_path)
    reloaded = load_cache(cache_path)
    cache_ok = all(
        np.array_equal(reloaded.lookup(p).vector, cache.lookup(p).vector) for p in prompts
    )
    cache_resaved = tmp_path / "emb2.jsonl"
    save_cache(reloaded, cache_resaved)
    cache_ok = cache_ok and cache_path.read_bytes() == cache_resaved.read_bytes()

    ok = norm_ok and seg_ok and ckpt_ok and cache_ok
    report(5, "roundtrips", ok,
           f"normalize {norm_ok}, segment {seg_ok}, checkpoint {ckpt_ok}, cache {cache_ok}")


def test_criterion_06_data_protocol():
    spec = SplitSpec.from_counts((8545, 2881, 2881), 168)
    bounds_ok = (spec.train_end, spec.val_end, spec.test_end) == (8545, 11426, 14307)

    frame = generate(SynthSpec(kind="sine", length=17420, channels=7))
    ranges = make_splits(frame, spec, horizon=96)
    ranges_ok = (ranges.train, ranges.val, ranges.test) == (
        (0, 8545), (8545, 11426), (11426, 14307)
    )

    grid_ok = True
    for split_len in range(1, 51):
        for c in range(1, 17):
            for f in range(1, 9):
                for stride in range(1, 9):
                    brute = len(range(0, split_len - c - f + 1, stride))
                    if window_count(split_len, c, f, stride) != brute:
                        grid_ok = False

    frame_ok = True
    for c, f, stride in ((168, 96, 1), (96, 24, 24), (336, 720, 168)):
        split_len = ranges.val[1] - ranges.val[0]
        expected = window_count(split_len, c, f, stride) * frame.channels
        actual = len(list(sample_windows(frame, ranges.val, c, f, stride)))
        frame_ok = frame_ok and actual == expected

    ok = bounds_ok and ranges_ok and grid_ok and frame_ok
    report(6, "data protocol", ok,
           f"boundaries {bounds_ok}, ranges {ranges_ok}, "
           f"count formula over full small grid {grid_ok}, frame windows {frame_ok}")


def test_criterion_07_end_to_end_learning():
    started = time.monotonic()
    norm, train_w, val_w = prepared_splits(
        SynthSpec(kind="sine", length=2000, seed=7, period=24, amplitude=1.0),
        counts=(1200, 400, 400), context_len=168, horizon=96, stride=8,
    )
    encoder = PromptEncoder(64, 0)
    config = ModelConfig(segment_len=24, dim=64, experts=4, layers=2, heads=2)
    tconfig = TrainConfig(lr=1e-3, lam=0.01, epochs=100, batch=32,
                          sparsity_mode="literal", max_steps=200)
    train_data = assemble_windows(train_w, norm.freq, 24, encoder)
    val_data = assemble_windows(val_w, norm.freq, 24, encoder)
    result = train_model(init_params(config), config, tconfig, train_data, val_data)

    model_errs, baseline_errs = [], []
    for w in val_w[:30]:
        pred = rolling_forecast(result.params, config, w.context, w.start,
                                norm.freq, 96, encoder)
        base = persistence_baseline(w.context, 96)
        assert np.array_equal(base, np.full(96, w.context[-1]))  # oracle check
        model_errs.append(metrics(pred, w.target)[0])
        baseline_errs.append(metrics(base, w.target)[0])
    model_mse = float(np.mean(model_errs))
    base_mse = float(np.mean(baseline_errs))
    improvement = 1.0 - model_mse / base_mse
    elapsed = time.monotonic() - started

    ok = result.steps <= 200 and improvement >= 0.20 and elapsed <= 300
    report(7, "end-to-end learning", ok,
           f"model MSE {model_mse:.4f} vs persistence {base_mse:.4f} "
           f"({improvement:.0%} better, bar 20%), {result.steps} steps, {elapsed:.1f}s")


def test_criterion_08_expert_routing_pays(two_regime):
    encoder = PromptEncoder(32, 0)
    train_data = assemble_windows(two_regime["train_w"], two_regime["freq"], 24, encoder)
    val_data = assemble_windows(two_regime["val_w"], two_regime["freq"], 24, encoder)
    routed = ModelConfig(segment_len=24, dim=32, experts=4, layers=0, heads=2)
    single = replace(routed, experts=1, gated=False)

    wins, pairs = 0, []
    for seed in (0, 1, 2):
        scores = {}
        for tag, config in (("K4", routed), ("K1", single)):
            seeded = replace(config, seed=seed)
            tconfig = TrainConfig(lr=1e-2, lam=0.01, epochs=60, batch=32,
                                  seed=seed, sparsity_mode="literal")
            result = train_model(init_params(seeded), seeded, tconfig, train_data, val_data)
            scores[tag] = result.best_val_mse
        wins += scores["K4"] <= scores["K1"]
        pairs.append(f"seed {seed}: {scores['K4']:.4f} vs {scores['K1']:.4f}")

    arithmetic_ok = format_promotion(0.269, 0.239) == "+11.1%"
    ok = wins >= 2 and arithmetic_ok
    report(8, "expert routing pays", ok,
           f"4-expert wins {wins}/3 ({'; '.join(pairs)}), "
           f"promotion arithmetic 0.269->0.239 = {format_promotion(0.269, 0.239)}")


def test_criterion_09_ablation_ordering(two_regime, tmp_path):
    config = ModelConfig(segment_len=24, dim=32, experts=4, layers=0, heads=2)
    tconfig = TrainConfig(lr=1e-2, lam=0.01, epochs=60, batch=32, sparsity_mode="literal")
    result = ablation_run(two_regime["train_w"], two_regime["val_w"], two_regime["freq"],
                          config, tconfig, seeds=(0, 1, 2))

    shape_ok = tuple(result["rows"]) == ABLATION_ROWS
    original = result["rows"]["Original"]["per_seed_mse"]
    ordering_ok, margins = True, []
    for name in ABLATION_ROWS[1:]:
        variant = result["rows"][name]["per_seed_mse"]
        row_wins = sum(o <= v for o, v in zip(original, variant))
        ordering_ok = ordering_ok and row_wins >= 2
        margins.append(f"{name} {row_wins}/3")

    # a routing-free model's checkpoint must carry no gate parameters
    plain = replace(config, experts=1, gated=False, seed=0)
    encoder = PromptEncoder(32, 0)
    train_data = assemble_windows(two_regime["train_w"], two_regime["freq"], 24, encoder)
    val_data = assemble_windows(two_regime["val_w"], two_regime["freq"], 24, encoder)
    trained = train_model(init_params(plain), plain,
                          replace(tconfig, epochs=5), train_data, val_data)
    ckpt = tmp_path / "plain.json"
    save_checkpoint(trained.params, plain, ckpt)
    blob = json.loads(ckpt.read_text())
    gate_free = not any("gate" in name for name in blob["params"])
    reloaded_config = load_checkpoint(ckpt)[1]
    gate_free = gate_free and reloaded_config.gated is False

    ok = shape_ok and ordering_ok and gate_free
    report(9, "ablation ordering", ok,
           f"4-row report {shape_ok}, Original wins {'; '.join(margins)}, "
           f"gate-free checkpoint {gate_free}")


class CountingSource:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def embed(self, prompt: str):
        self.calls += 1
        return self.inner.embed(prompt)


def test_criterion_10_rolling_consistency():
    config = ModelConfig(segment_len=96, dim=8, experts=2, layers=0, heads=1, seed=0)
    params = init_params(config)
    encoder = PromptEncoder(8, 0)
    rng = np.random.default_rng(10)

    prefix_ok, length_ok = True, True
    for _ in range(100):
        context = rng.normal(size=192)
        start = T0 + int(rng.integers(0, 5000)) * HOURLY
        short = rolling_forecast(params, config, context, start, HOURLY, 96, encoder)
        long = rolling_forecast(params, config, context, start, HOURLY, 720, encoder)
        prefix_ok = prefix_ok and np.array_equal(long[:96], short)
        length_ok = length_ok and long.shape == (720,) and short.shape == (96,)

    counter = CountingSource(encoder)
    rolled = rolling_forecast(params, config, rng.normal(size=192), T0, HOURLY, 720, counter)
    rolls = counter.calls // 2  # two segments re-rendered per roll
    rolls_ok = math.ceil(720 / 96) == 8 and rolls == 8 and rolled.shape == (720,)

    ok = prefix_ok and length_ok and rolls_ok
    report(10, "rolling consistency", ok,
           f"96-of-720 prefix bitwise on 100 contexts {prefix_ok}, "
           f"exact lengths {length_ok}, 720 values in {rolls} rolls {rolls_ok}")


def test_criterion_11_determinism(tmp_path):
    norm, train_w, val_w = prepared_splits(
        SynthSpec(kind="sine", length=400, seed=1, noise=0.05),
        counts=(240, 80, 80), context_len=24, horizon=8, stride=4,
    )
    encoder = PromptEncoder(8, 3)
    config = ModelConfig(segment_len=8, dim=8, experts=2, layers=1, heads=2, seed=9)
    tconfig = TrainConfig(lr=1e-2, lam=0.1, epochs=5, batch=16, seed=9)
    train_data = assemble_windows(train_w, norm.freq, 8, encoder)
    val_data = assemble_windows(val_w, norm.freq, 8, encoder)

    outputs = []
    for run in range(2):
        result = train_model(init_params(config), config, tconfig, train_data, val_data)
        path = tmp_path / f"run{run}.json"
        save_checkpoint(result.params, config, path)
        outputs.append((path.read_bytes(), result.curve))

    ckpt_ok = outputs[0][0] == outputs[1][0]
    curve_ok = outputs[0][1] == outputs[1][1]
    ok = ckpt_ok and curve_ok
    report(11, "determinism", ok,
           f"bitwise checkpoints {ckpt_ok}, identical loss curves {curve_ok}")
