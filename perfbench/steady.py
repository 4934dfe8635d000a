"""Steadiness check: run each workload once per seed and report the spreads.

Usage (from the root of a fusecast checkout):
    python3 perfbench/steady.py [--workloads default,cache_small] [--seeds 1-10] \
        [--out perfbench/baseline.json]

Each workload runs in two rounds: once per seed, then once per seed of the
next block (11-20 after 1-10). For every end-to-end metric of BENCHMARK.json
this prints, per round, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the
distance between the quartiles as a share of the median, and how far the
second round's median moved from the first's. A metric is steady when both
spreads stay below a third of its bound and its median moves by less than
its bound; a spread or a move above the bound itself is marked FAIL.
``--out`` also makes one traced run per workload at seed 0 and appends the
figures, the per-layer metrics, the machine, the per-run values and the
per-run loop throughputs to a JSON list, so the file keeps a trajectory of
baselines.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
ROUNDS = 2  # the second round, on fresh seeds, shows whether the medians repeat


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, trace: int = 0) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    details, result = json.loads(lines[-2]), json.loads(lines[-1])
    if not result["correct"]:
        failed = [c for c in details["checks"] if not c["ok"]]
        raise SystemExit(f"{workload} seed {seed}: incorrect: {failed} {details.get('error')}")
    return details, result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    metrics = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    record = {"seeds": seeds, "rounds": ROUNDS, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        rounds = []
        for r in range(ROUNDS):
            values = {name: [] for name in metrics}
            for seed in (s + r * len(seeds) for s in seeds):
                details, result = run_once(workload, seed)
                record.setdefault("machine", details["machine"])
                for name in metrics:
                    values[name].append(result["metrics"][name]["value"])
                record.setdefault("throughputs", {}).setdefault(workload, []).append(
                    details["throughputs"])
                print(f"{workload} seed {seed}: " + " ".join(
                    f"{n}={result['metrics'][n]['value']:.6g}" for n in metrics) + " " + " ".join(
                    f"{n}={v:.6g}" for n, v in details["throughputs"].items()), flush=True)
            rounds.append({name: {"values": v, **summary(v)} for name, v in values.items()})
        record["workloads"][workload] = rounds
        for name, spec in metrics.items():
            bound = spec["bound"]
            spreads = [r[name]["spread"] for r in rounds]
            first, second = rounds[0][name]["median"], rounds[1][name]["median"]
            drift = (second - first if spec["better"] == "lower" else first - second) / first
            if max(spreads) > bound or drift > bound:
                verdict = "FAIL"
            else:
                verdict = "ok" if max(spreads) < bound / 3 else "NOT STEADY"
            ok &= verdict != "FAIL"
            print(f"{workload:12s} {name:22s} median {rounds[0][name]['median']:<12.6g} "
                  f"spread {' '.join(f'{s:.3f}' for s in spreads)} drift {drift:+.3f} "
                  f"bound {bound} {verdict}", flush=True)
    if args.out:
        for workload in record["workloads"]:
            _, result = run_once(workload, 0, trace=1)
            record.setdefault("traced_seed0", {})[workload] = result["metrics"]
        path = Path(args.out)
        history = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
        history.append(record)
        path.write_text(json.dumps(history, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
