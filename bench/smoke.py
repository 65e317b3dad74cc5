"""Smoke check of the benchmark harness on a tiny input.

    python3 bench/smoke.py

Runs bench/run.py on the two-video "smoke" workload in both modes and
checks the shape of the result line: exactly the keys the benchmark
contract names, every metric BENCHMARK.json lists with its unit, a
correct result and no failures. Then copies BENCHMARK.json and bench/
alone into bench/out/bare and checks that the benchmark refuses to run
there: with no package to build, it must exit nonzero without a result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", "smoke", "--seed", "0",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180, check=False)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = run(ROOT, trace)
        if proc.returncode != 0:
            errors.append(f"trace {trace}: exit {proc.returncode}: {proc.stderr.strip()}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            errors.append(f"trace {trace}: result keys {sorted(result)}")
        if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
            errors.append(f"trace {trace}: correct={result['correct']} failed={result['failed']}")
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {k: m["unit"] for k, m in result["metrics"].items()}
        if got != want:
            errors.append(f"trace {trace}: metrics {got} != {want}")

    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, 0)
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append(f"bare copy: exit {proc.returncode}, stdout {proc.stdout.strip()!r}")
    shutil.rmtree(bare)

    for e in errors:
        print("FAIL", e)
    print("smoke:", "ok" if not errors else f"{len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
