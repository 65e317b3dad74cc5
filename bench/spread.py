"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload noisy --seeds 0-9 --seconds 30 [--trace 0]

Runs bench/run.py once per seed, one run at a time, and prints for each
metric the median, the quartiles (statistics.quantiles, n=4) and the
spread: the distance between the quartiles as a share of the median.
With --json PATH the values, medians and spreads are also written there,
with the environment they were measured in.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_pools": "OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=MKL_NUM_THREADS=1, set by run.py",
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("0-9"))
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", type=Path)
    args = ap.parse_args()

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    failed = 0
    for seed in args.seeds:
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=False)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed += result["failed"] + (not result["correct"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + " ".join(f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()),
              proc.stdout.splitlines()[0].rpartition(";")[2].strip(), flush=True)

    summary = {"workload": args.workload, "seeds": args.seeds, "seconds": args.seconds,
               "trace": args.trace, "environment": environment(), "metrics": {}}
    print(f"{args.workload}: {len(args.seeds)} runs, {failed} failures")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        summary["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "unit": units[name],
                         "values": vals}
        print(f"  {name:36s} median {med:.6g} {units[name]}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.3f}")
    if args.json:
        args.json.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
