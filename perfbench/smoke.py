"""Smoke check of the benchmark itself, on a tiny config, with no timing bound.

Usage (from the root of a fusecast checkout):
    python3 perfbench/smoke.py

Runs the ``smoke`` workload untraced and traced and checks that the last
line of each run is the result object, that every output check passed, and
that it names every metric of BENCHMARK.json with its unit: the end-to-end
metrics untraced, the per-layer ones traced. It then copies BENCHMARK.json
and perfbench/ into a directory with nothing else and checks that the
benchmark refuses to run there. Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = run(ROOT, trace)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        problems = []
        if proc.returncode != 0:
            problems.append(f"exit code {proc.returncode}")
        if set(result) != KEYS:
            problems.append(f"result keys {sorted(result)}")
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            problems.append(f"incorrect run: {proc.stdout.strip().splitlines()[-2][:2000]}")
        if got != expected:
            problems.append(f"metrics {got} != {expected}")
        if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
            problems.append("a metric value is not a number")
        print(f"trace {trace}: {'ok' if not problems else problems}")
        if problems:
            return 1

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, 0)
    shutil.rmtree(bare)
    refused = proc.returncode != 0 and not proc.stdout.strip()
    print(f"bare directory: {'refused' if refused else 'NOT refused'} (exit {proc.returncode})")
    return 0 if refused else 1


if __name__ == "__main__":
    sys.exit(main())
