"""End-to-end benchmark of the fusecast CLI, with an optional traced run.

Usage (from the root of a fusecast checkout):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: one closed-loop client. Each CLI command is a fresh process that
the benchmark starts and waits for before it starts the next one. BLAS
threads stay at the library default; no CPU is pinned and no setting of the
machine is changed.

The workload seed drives ``fusecast synth --kind two-regime --length 4320
--noise 0.1`` and the model ``--seed``. The program receives only the
generated CSV and its flags. One repetition runs the workload's command
sequence once. A run makes at least three repetitions and goes on until
about ``--seconds`` have passed. It reports the sequence's wall time and
set-up time, each summed over the commands from every command's fastest
repetition, the peak memory and the validation MSE. Loop throughputs
(optimizer steps and forecast values per second of loop time) go to the
details line and to the traced run. Every command's artifacts
must be byte-identical across repetitions.

Workloads (why each exists is in BENCHMARK.json):
    default      train with the default model (2 epochs) on the encoder path,
                 then evaluate at horizons 96,192,336,720 over the first 32
                 of the 145 test windows.
    cache_small  the quick-start model at stride 1: a train that writes the
                 embedding cache, the same train reading it, then the README
                 quick-start evaluate (stride 24, horizons 24,48,96).
    smoke        a tiny config for perfbench/smoke.py; not a benchmark.

Before the timed repetitions every run checks prompt bytes, cache bytes and
MSEs on a fixed small series against perfbench/reference.json; at seed 0 it
also checks the workload's own MSEs and cache file.

With ``--trace 0`` the result holds the end-to-end metrics. With
``--trace 1`` the run makes an untraced, a traced and another untraced
repetition (every public fusecast function wrapped in the traced one, see
probe.py) and reports the per-layer metrics; its counts must equal the
ones reference.json records for the workload. ``attempted`` counts
commands; ``failed`` counts commands that exited non-zero plus failed output
checks. The last line of standard output
is the result object; the line before it holds the machine, the
per-repetition figures and every output check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
PROBE = HERE / "probe.py"
REFERENCE = HERE / "reference.json"
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

DEADLINE_S = 170.0  # the whole invocation must end within 180 s
MIN_REPS = 3
SPLIT = ["--split-counts", "2592,864,864"]
TEST_ROWS = 864
SYNTH = ["synth", "--kind", "two-regime", "--length", "4320", "--noise", "0.1"]
DEFAULT_SEED = 0  # the seed whose MSEs and cache bytes reference.json records
MSE_RTOL = 1e-6

QUICK_MODEL = ["--context-len", "96", "--segment-len", "24", "--hidden-dim", "32",
               "--experts", "4", "--layers", "0", "--heads", "2", "--lr", "1e-2",
               "--lambda", "0.01", "--horizon", "24"]
QUICK_EVAL = ["--context-len", "96", "--segment-len", "24", "--stride", "24"]

WORKLOADS = {
    "default": {
        "train": ["--epochs", "2"], "eval": [], "horizons": [96, 192, 336, 720],
        "stride": 1, "max_windows": 32, "cache": False,
    },
    "cache_small": {
        "train": QUICK_MODEL + ["--stride", "1"], "eval": QUICK_EVAL,
        "horizons": [24, 48, 96], "stride": 24, "max_windows": 0, "cache": True,
    },
    "smoke": {
        "train": ["--context-len", "48", "--segment-len", "24", "--hidden-dim", "8",
                  "--experts", "2", "--layers", "1", "--heads", "1", "--epochs", "1",
                  "--max-steps", "3", "--stride", "48", "--horizon", "24"],
        "eval": ["--context-len", "48", "--segment-len", "24", "--stride", "96"],
        "horizons": [24, 48], "stride": 96, "max_windows": 0, "cache": True,
    },
}

# The fixed-input checks: prompt bytes, cache bytes and MSEs on a small
# series that does not depend on the workload seed.
REF_SYNTH = ["synth", "--kind", "two-regime", "--length", "720", "--noise", "0.1",
             "--seed", "0"]
REF_FLAGS = ["--split-counts", "432,144,144", "--context-len", "96", "--segment-len", "24",
             "--hidden-dim", "8", "--experts", "2", "--layers", "0", "--horizon", "24",
             "--stride", "24"]

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "val_mse": "mse"}

MODULES = ("cli", "data", "descriptors", "textenc", "model", "train", "evaluation")
PER_LAYER = {
    "train.steps_per_s": "1/s", "evaluation.values_per_s": "1/s",
    "cli.import_s": "s", "data.load_csv_s": "s", "data.windows": "count",
    "descriptors.render_calls": "count", "descriptors.render_s": "s",
    "textenc.embed_calls": "count", "textenc.embed_distinct": "count",
    "textenc.embed_useful_ratio": "ratio", "textenc.embed_s": "s",
    "textenc.cache_build_s": "s", "textenc.cache_save_s": "s", "textenc.cache_load_s": "s",
    "textenc.cache_lookups": "count", "textenc.cache_bytes": "bytes",
    "train.assemble_s": "s", "train.steps": "count", "train.loop_s": "s",
    "train.adamw_s": "s", "train.val_s": "s",
    "model.forward_calls": "count", "model.forward_s": "s", "model.backward_s": "s",
    "model.moe_forward_s": "s", "model.train_step_gflop": "GFLOP",
    "model.backward_gflops": "GFLOP/s", "model.checkpoint_save_s": "s",
    "model.checkpoint_load_s": "s", "model.checkpoint_bytes": "bytes",
    "evaluation.rolls": "count", "evaluation.roll_useful_ratio": "ratio",
    "evaluation.rolling_s": "s",
    **{f"{m}.self_s": "s" for m in MODULES},
    "trace.overhead_s": "s", "trace.spans": "count",
}
# Counts that every traced run of a workload must repeat exactly, at any
# seed; reference.json records them, and a change that moves one updates it.
REPEATED_COUNTS = ("descriptors.render_calls", "textenc.embed_calls", "textenc.embed_distinct",
                   "evaluation.rolls", "train.steps", "model.train_step_gflop",
                   "data.windows", "model.forward_calls", "textenc.cache_lookups")
# Figures a workload must exercise; zero means a wrapper missed its binding.
REQUIRED_NONZERO = ("data.windows", "descriptors.render_calls", "textenc.embed_calls",
                   "textenc.embed_distinct", "train.steps", "model.forward_calls",
                   "evaluation.rolls", "model.checkpoint_bytes", "model.train_step_gflop",
                   "train.assemble_s", "model.backward_s")
REQUIRED_CACHE_NONZERO = ("textenc.cache_lookups", "textenc.cache_bytes")


class CommandFailed(Exception):
    pass


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


class Runner:
    """Starts fusecast commands one at a time and keeps the output checks."""

    def __init__(self, work: Path, deadline: float, run_id: str):
        self.work = work
        self.deadline = deadline
        self.env = {**os.environ, "PYTHONPATH": str(SRC), "PERFBENCH_RUN_ID": run_id}
        self.attempted = 0
        self.failed = 0
        self.checks = []
        self.count = 0

    def run(self, args, trace_path=None) -> dict:
        """Run one command; return its marks plus wall time and stdout."""
        self.count += 1
        stem = self.work / f"cmd{self.count:03d}"
        marks_path = stem.with_suffix(".marks.json")
        cmd = [sys.executable, str(PROBE), str(marks_path), str(trace_path or "-"), "--", *args]
        self.attempted += 1
        with open(stem.with_suffix(".out"), "wb") as out, open(stem.with_suffix(".err"), "wb") as err:
            launch = time.monotonic_ns()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                code = None
            done = time.monotonic_ns()
        stdout = stem.with_suffix(".out").read_text(encoding="utf-8", errors="replace")
        if code != 0:
            stderr = stem.with_suffix(".err").read_text(encoding="utf-8", errors="replace")
            self.fail_command(f"{args[0]} exits 0", False, {"code": code, "stderr": stderr[-400:]})
            raise CommandFailed(f"{' '.join(args)} exited with {code}")
        marks = read_json(marks_path)
        if not marks["fusecast"].startswith(str(SRC)):
            self.fail_command("fusecast imported from this checkout", False, marks["fusecast"])
            raise CommandFailed("fusecast was not imported from ./src")
        marks["wall_s"] = (done - launch) / 1e9
        first = marks.get("first_forward_ns")
        marks["setup_s"] = (first - launch) / 1e9 if first else marks["wall_s"]
        marks["import_s"] = (marks["import_end_ns"] - marks["import_start_ns"]) / 1e9
        marks["stdout"] = stdout
        marks["trace"] = trace_path
        return marks

    def fail_command(self, name: str, ok: bool, detail=None) -> None:
        """Record an output check; a failed check counts as a failed command."""
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})
        if not ok:
            self.failed += 1


def run_dir_of(marks: dict) -> Path:
    for line in marks["stdout"].splitlines():
        if line.startswith("run dir: "):
            return ROOT / line[len("run dir: "):].strip()
        if line.startswith("report: "):
            return (ROOT / line[len("report: "):].strip()).parent
    raise CommandFailed("command printed no run directory")


def fixed_input_checks(runner: Runner, ref: dict) -> None:
    """Prompt bytes, cache bytes and MSEs on a fixed small series, every run."""
    fixed = ref["fixed"]
    data = runner.work / "ref.csv"
    runner.run([*REF_SYNTH, "--out", str(data)])
    dump = runner.run(["dump-prompts", "--data", str(data), "--split", "test", "--windows", "3",
                       *REF_FLAGS])
    digest = hashlib.sha256(dump["stdout"].encode("utf-8")).hexdigest()
    runner.fail_command("dump-prompts sample matches recorded SHA-256",
                        digest == fixed["prompts_sha256"], digest)
    cache = runner.work / "ref_emb.txt"
    train = runner.run(["train", "--data", str(data), *REF_FLAGS, "--epochs", "2",
                        "--emb-cache", str(cache), "--out-root", str(runner.work / "ref_runs")])
    digest = sha256(cache)
    runner.fail_command("fixed cache file matches recorded SHA-256",
                        digest == fixed["cache_sha256"], digest)
    ckpt = run_dir_of(train) / "checkpoint.json"
    evaluate = runner.run(["evaluate", "--checkpoint", str(ckpt), "--data", str(data),
                           "--horizons", "24,48", *REF_FLAGS,
                           "--out-root", str(runner.work / "ref_runs")])
    observed = {
        "val_mse": read_json(ckpt.parent / "record.json")["best_val_mse"],
        "test_mse": read_json(run_dir_of(evaluate) / "report.json")["avg_mse"],
    }
    for key, value in observed.items():
        runner.fail_command(f"fixed {key} within {MSE_RTOL:g} of the reference",
                            math.isclose(value, fixed[key], rel_tol=MSE_RTOL), [value, fixed[key]])


def run_rep(runner: Runner, wl: dict, data: Path, seed: int, rep_dir: Path,
            trace_dir: Path | None) -> dict:
    """One pass over the workload's command sequence."""
    rep_dir.mkdir(parents=True)
    train_args = ["train", "--data", str(data), *SPLIT, "--seed", str(seed), *wl["train"]]

    def traced(name):
        return None if trace_dir is None else trace_dir / f"{rep_dir.name}-{name}.npz"

    trains = []
    if wl["cache"]:
        cache = rep_dir / "emb.txt"
        for name in ("write", "read"):
            trains.append(runner.run([*train_args, "--emb-cache", str(cache),
                                      "--out-root", str(rep_dir / name)], traced(name)))
            if name == "write":
                cache_sha = sha256(cache)
    else:
        trains.append(runner.run([*train_args, "--out-root", str(rep_dir / "train")],
                                 traced("train")))
    ckpt = run_dir_of(trains[-1]) / "checkpoint.json"
    horizons = wl["horizons"]
    evaluate = runner.run(["evaluate", "--checkpoint", str(ckpt), "--data", str(data), *SPLIT,
                           "--horizons", ",".join(map(str, horizons)), *wl["eval"],
                           "--max-windows", str(wl["max_windows"]),
                           "--out-root", str(rep_dir / "eval")], traced("eval"))
    record = read_json(run_dir_of(trains[-1]) / "record.json")
    report_path = run_dir_of(evaluate) / "report.json"
    report = read_json(report_path)
    commands = trains + [evaluate]
    artifacts = {
        "checkpoint.json": sha256(ckpt),
        "record.json": sha256(run_dir_of(trains[-1]) / "record.json"),
        "report.json": sha256(report_path),
    }
    if wl["cache"]:
        artifacts["emb.txt"] = cache_sha
        write_ckpt = sha256(run_dir_of(trains[0]) / "checkpoint.json")
        runner.fail_command("cache-writing and cache-reading trains give identical checkpoints",
                            write_ckpt == artifacts["checkpoint.json"],
                            [write_ckpt, artifacts["checkpoint.json"]])
    windows = (TEST_ROWS - max(horizons)) // wl["stride"] + 1
    if wl["max_windows"]:
        windows = min(windows, wl["max_windows"])
    return {
        "wall_s": sum(c["wall_s"] for c in commands),
        "setup_s": sum(c["setup_s"] for c in commands),
        "steps": record["steps"] * len(trains),
        "train_loop_s": sum(c["wall_s"] - c["setup_s"] for c in trains),
        "forecast_values": windows * sum(horizons),
        "evaluate_loop_s": evaluate["wall_s"] - evaluate["setup_s"],
        "peak_rss_mb": max(c["maxrss_kb"] for c in commands) / 1024.0,
        "val_mse": record["best_val_mse"],
        "test_mse": report["avg_mse"],
        "import_s": [c["import_s"] for c in commands],
        "commands": [{"wall_s": c["wall_s"], "setup_s": c["setup_s"]} for c in commands],
        "traces": [c["trace"] for c in commands if c["trace"]],
        "artifacts": artifacts,
    }


def output_checks(runner: Runner, name: str, reps: list, seed: int, ref: dict) -> None:
    first = reps[0]
    for key in ("val_mse", "test_mse"):
        runner.fail_command(f"{key} is finite and positive",
                            math.isfinite(first[key]) and first[key] > 0, first[key])
    for i, rep in enumerate(reps[1:], start=1):
        same = {k: rep["artifacts"][k] == v for k, v in first["artifacts"].items()}
        runner.fail_command(f"repetition {i} gives byte-identical artifacts", all(same.values()),
                            same)
    expected = ref.get(f"seed{DEFAULT_SEED}", {}).get(name) if seed == DEFAULT_SEED else None
    if expected is None:
        return
    for key in ("val_mse", "test_mse"):
        ok = math.isclose(first[key], expected[key], rel_tol=MSE_RTOL)
        runner.fail_command(f"{key} within {MSE_RTOL:g} of the seed-{DEFAULT_SEED} reference",
                            ok, [first[key], expected[key]])
    if "cache_sha256" in expected:
        runner.fail_command("cache file matches the recorded SHA-256",
                            first["artifacts"]["emb.txt"] == expected["cache_sha256"],
                            first["artifacts"]["emb.txt"])


def throughputs(reps: list) -> dict:
    """Optimizer steps and forecast values per second of loop time, over all reps.

    Loop time is a command's wall time minus its set-up time.
    """
    def total(key):
        return sum(rep[key] for rep in reps)

    return {"train.steps_per_s": total("steps") / total("train_loop_s"),
            "evaluation.values_per_s": total("forecast_values") / total("evaluate_loop_s")}


def fastest(reps: list, key: str) -> float:
    """Each command's fastest ``key`` over the repetitions, summed over the commands.

    On a shared host the slow repetitions measure the neighbours' load rather
    than the program, and the host's speed can change between two commands of
    one repetition, so the minimum is taken per command.
    """
    per_command = zip(*(rep["commands"] for rep in reps))
    return sum(min(c[key] for c in runs) for runs in per_command)


def end_to_end(reps: list) -> dict:
    """Wall and set-up time of the sequence, peak memory, validation MSE."""
    values = {
        "wall_s": fastest(reps, "wall_s"),
        "setup_s": fastest(reps, "setup_s"),
        "peak_rss_mb": max(rep["peak_rss_mb"] for rep in reps),
        "val_mse": reps[0]["val_mse"],
    }
    return {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END.items()}


def trace_metrics(paths: list, import_s: float, run_id: str) -> dict:
    """Per-layer figures of one traced repetition, from its span files."""
    import numpy as np

    total, calls, counters = {}, {}, {}
    module_self = dict.fromkeys(MODULES, 0.0)
    rolls = useful = spans = 0
    for path in paths:
        z = np.load(path)
        if str(z["run_id"]) != run_id:
            raise CommandFailed(f"{path} holds the spans of run {z['run_id']}, not {run_id}")
        names = [str(n) for n in z["names"]]
        name, parent = z["name"], z["parent"]
        dur = (z["end"] - z["start"]) / 1e9
        spans += len(dur)
        has_parent = parent >= 0
        parent_idx = np.where(has_parent, parent, 0)
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - children
        by_name = np.bincount(name, weights=dur, minlength=len(names))
        own_by_name = np.bincount(name, weights=own, minlength=len(names))
        n_by_name = np.bincount(name, minlength=len(names))
        for i, qual in enumerate(names):
            total[qual] = total.get(qual, 0.0) + float(by_name[i])
            calls[qual] = calls.get(qual, 0) + int(n_by_name[i])
            module = qual.split(".")[0]
            if module in module_self:
                module_self[module] += float(own_by_name[i])
        for key, value in json.loads(str(z["counters"])).items():
            previous = counters.get(key, 0)
            counters[key] = max(previous, value) if key == "train_step_flop" else previous + value
        if "model.forward" in names and "evaluation.rolling_forecast" in names:
            fwd = names.index("model.forward")
            roll = names.index("evaluation.rolling_forecast")
            is_roll = (name == fwd) & has_parent & (name[parent_idx] == roll)
            rolls += int(is_roll.sum())
            per_call = np.bincount(parent_idx[parent_idx[is_roll]])  # grouped by forecast_windows
            useful += int(per_call.max()) if per_call.size else 0

    def t(qual):
        return total.get(qual, 0.0)

    def n(qual):
        return calls.get(qual, 0)

    embeds = [q for q in calls if q.startswith("textenc.") and q.endswith(".embed")]
    embed_calls = sum(n(q) for q in embeds)
    backward_s = t("model.backward")
    return {
        "cli.import_s": import_s,
        "data.load_csv_s": t("data.load_csv"),
        "data.windows": counters.get("data.sample_windows:yielded", 0),
        "descriptors.render_calls": n("descriptors.render_prompt"),
        "descriptors.render_s": t("descriptors.render_prompt"),
        "textenc.embed_calls": embed_calls,
        "textenc.embed_distinct": counters.get("embed_distinct", 0),
        "textenc.embed_useful_ratio": counters.get("embed_distinct", 0) / max(embed_calls, 1),
        "textenc.embed_s": sum(t(q) for q in embeds),
        "textenc.cache_build_s": t("textenc.precompute_cache"),
        "textenc.cache_save_s": t("textenc.save_cache"),
        "textenc.cache_load_s": t("textenc.load_cache"),
        "textenc.cache_lookups": n("textenc.EmbeddingCache.lookup"),
        "textenc.cache_bytes": counters.get("cache_bytes", 0),
        "train.assemble_s": t("train.assemble_windows"),
        "train.steps": n("train.adamw_step"),
        "train.loop_s": t("train.train_model"),
        "train.adamw_s": t("train.adamw_step"),
        "train.val_s": t("train.evaluate_windows"),
        "model.forward_calls": n("model.forward"),
        "model.forward_s": t("model.forward"),
        "model.backward_s": backward_s,
        "model.moe_forward_s": t("model.moe_forward"),
        "model.train_step_gflop": counters.get("train_step_flop", 0) / 1e9,
        "model.backward_gflops":
            counters.get("backward_flop", 0) / 1e9 / backward_s if backward_s else 0.0,
        "model.checkpoint_save_s": t("model.save_checkpoint"),
        "model.checkpoint_load_s": t("model.load_checkpoint"),
        "model.checkpoint_bytes": counters.get("checkpoint_bytes", 0),
        "evaluation.rolls": rolls,
        "evaluation.roll_useful_ratio": useful / rolls if rolls else 0.0,
        "evaluation.rolling_s": t("evaluation.forecast_windows"),
        **{f"{m}.self_s": module_self[m] for m in MODULES},
        "trace.spans": spans,
    }


def traced_run(runner: Runner, name: str, wl: dict, reps: list, ref: dict) -> dict:
    """Per-layer metrics of the traced repetition, after its self-checks."""
    traced = next(rep for rep in reps if rep["traces"])
    untraced = [rep for rep in reps if not rep["traces"]]
    figures = trace_metrics(traced["traces"], sum(traced["import_s"]),
                            runner.env["PERFBENCH_RUN_ID"])
    required = REQUIRED_NONZERO + (REQUIRED_CACHE_NONZERO if wl["cache"] else ())
    for key in required:
        runner.fail_command(f"traced count {key} is not zero", figures[key] > 0, figures[key])
    # Names bound by ``from ... import`` are looked up in the importing module;
    # a binding the tracer missed shows as calls missing from these totals.
    runner.fail_command("traced AdamW steps equal the steps in record.json",
                        figures["train.steps"] == traced["steps"],
                        [figures["train.steps"], traced["steps"]])
    runner.fail_command("every training step and roll reached the traced forward",
                        figures["model.forward_calls"]
                        >= figures["train.steps"] + figures["evaluation.rolls"],
                        figures["model.forward_calls"])
    runner.fail_command("every embedded prompt reached the traced renderer",
                        figures["descriptors.render_calls"] >= figures["textenc.embed_calls"],
                        [figures["descriptors.render_calls"], figures["textenc.embed_calls"]])
    expected = ref["counts"].get(name, {})
    for key in REPEATED_COUNTS:
        runner.fail_command(f"traced count {key} equals the recorded count",
                            figures[key] == expected.get(key), [figures[key], expected.get(key)])
    figures["trace.overhead_s"] = traced["wall_s"] - fastest(untraced, "wall_s")
    figures.update(throughputs(untraced))
    return {key: {"value": figures[key], "unit": unit} for key, unit in PER_LAYER.items()}


def cgroup_cpu_max() -> str:
    """The CPU limit of this process's cgroup, read only."""
    try:
        lines = Path("/proc/self/cgroup").read_text(encoding="utf-8").splitlines()
    except OSError:
        return "unavailable"
    for line in lines:
        hier, controllers, path = line.split(":", 2)
        if hier == "0":
            candidate = Path("/sys/fs/cgroup") / path.lstrip("/") / "cpu.max"
        elif "cpu" in controllers.split(","):
            base = Path("/sys/fs/cgroup") / controllers / path.lstrip("/")
            try:
                quota = (base / "cpu.cfs_quota_us").read_text(encoding="utf-8").strip()
                period = (base / "cpu.cfs_period_us").read_text(encoding="utf-8").strip()
                return f"{'max' if quota == '-1' else quota} {period} (cgroup v1)"
            except OSError:
                continue
        else:
            continue
        try:
            return candidate.read_text(encoding="utf-8").strip()
        except OSError:
            continue
    return "unavailable"


def machine(runner: Runner) -> dict:
    proc = subprocess.run([sys.executable, str(PROBE), "--machine"], cwd=ROOT, env=runner.env,
                          capture_output=True, text=True, timeout=60)
    info = json.loads(proc.stdout) if proc.returncode == 0 else {"error": proc.stderr[-400:]}
    info["nproc"] = len(os.sched_getaffinity(0))
    info["cpu.max"] = cgroup_cpu_max()
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (SRC / "fusecast" / "cli.py").is_file():
        print(f"no fusecast sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    trace_dir = None
    if args.trace:
        trace_dir = WORK / "trace" / args.workload
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
    runner = Runner(work, started + DEADLINE_S, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    load_before = os.getloadavg()
    details = {"workload": args.workload, "seed": args.seed, "machine": machine(runner)}
    reps, metrics = [], {}
    try:
        ref = read_json(REFERENCE)
        fixed_input_checks(runner, ref)
        data = work / "data.csv"
        runner.run([*SYNTH, "--seed", str(args.seed), "--out", str(data)])
        if args.trace:
            for i in range(3):
                reps.append(run_rep(runner, wl, data, args.seed, work / f"rep{i}",
                                    trace_dir if i == 1 else None))
        else:
            measure_start = time.monotonic()
            while True:
                reps.append(run_rep(runner, wl, data, args.seed, work / f"rep{len(reps)}", None))
                elapsed = time.monotonic() - measure_start
                if len(reps) >= MIN_REPS and elapsed + elapsed / len(reps) / 2 >= args.seconds:
                    break
                if time.monotonic() + elapsed / len(reps) > started + DEADLINE_S - 10:
                    break
        output_checks(runner, args.workload, reps, args.seed, ref)
        metrics = (traced_run(runner, args.workload, wl, reps, ref) if args.trace
                   else end_to_end(reps))
    except CommandFailed as exc:
        details["error"] = str(exc)
    details["machine"]["loadavg_before"] = load_before
    details["machine"]["loadavg_after"] = os.getloadavg()
    details["reps"] = [{k: v for k, v in rep.items() if k != "traces"} for rep in reps]
    if reps and not args.trace:
        details["throughputs"] = throughputs(reps)
    details["checks"] = runner.checks
    shutil.rmtree(work, ignore_errors=True)
    correct = runner.failed == 0 and bool(metrics)
    print(json.dumps(details))
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": min(runner.failed, runner.attempted), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
