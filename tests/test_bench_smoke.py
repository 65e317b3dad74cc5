"""The benchmark harness still runs against this checkout's package."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke():
    proc = subprocess.run(
        [sys.executable, "bench/smoke.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
