"""The benchmark's own output checks, run on a copy of this checkout."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_smoke_workload_passes_its_output_checks(tmp_path):
    # One traced run checks the pinned prompt and cache SHA-256s, the fixed val
    # and test MSEs, smoke's traced counts against perfbench/reference.json, and
    # that every traced wrapper fires.
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    *_, details, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    failed = [check for check in json.loads(details)["checks"] if not check["ok"]]
    assert result["correct"] is True and result["failed"] == 0, (failed, details[-2000:])
