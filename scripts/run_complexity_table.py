#!/usr/bin/env python3
"""Measured against predicted search-space growth, and growth with N0.

Runs the velocity model at delta 1, 2, 3 over crowded videos (N0=50)
and prints the ratio of total stage-score evaluations between
consecutive deltas next to the ((delta+1/2)/(delta-1/2))^2 prediction.
The full sweep takes a few minutes per replicate.

Then, for each N0 of SCALING_N0 (40, 80, ..., 200), it tracks one
closed-view video (the window is the whole region, sigma 1, f=4, seed
0, space_cap raised) in a fresh process and prints track()'s seconds,
its sweep lap (TrackDiagnostics.layer_seconds["sweep"]), its
tracemalloc peak, the total rows of its candidate spaces and the cells
its DP scored (sum of dp_cells). The peak comes from a first, traced
call; the seconds and the sweep lap from a second, untraced one.
"""

import argparse
import csv
import json
import multiprocessing
import os
import sys
import tempfile
import time
import tracemalloc

from velotrack import SimConfig, TrackerConfig, simulate, track
from velotrack.cli import main as cli_main

SCALING_N0 = (40, 80, 120, 160, 200)


def scaling_row(n0: int) -> tuple[float, float, int, int, int]:
    """track() seconds, sweep seconds, tracemalloc peak bytes, space rows
    and DP cells of one closed-view video of n0 objects per frame."""
    seq = simulate(SimConfig(W=680.0, H=512.0, N0=n0, sigma=1.0, f=4, seed=0)).seq
    cfg = TrackerConfig(space_cap=10**9)
    tracemalloc.start()
    try:
        res = track(seq, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    t = time.perf_counter()
    sweep = track(seq, cfg).diagnostics.layer_seconds["sweep"]
    seconds = time.perf_counter() - t
    d = res.diagnostics
    return seconds, sweep, peak, sum(d.space_sizes), sum(d.dp_cells)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--output", default="results/complexity", help="output directory")
    ap.add_argument("--replicates", type=int, default=3)
    ap.add_argument("--frames", type=int, default=25)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--jobs", type=int, help="worker processes (default: all cores)")
    args = ap.parse_args()

    grid = {
        "N0": [50],
        "sigma": [1.0],
        "f": args.frames,
        "replicates": args.replicates,
        "methods": ["tri"],
        "deltas": [1, 2, 3],
        "seed": args.seed,
    }
    fd, cfg_path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(grid, fh)
        argv = ["experiment", "--config", cfg_path, "--output", args.output]
        if args.jobs is not None:
            argv += ["--jobs", str(args.jobs)]
        code = cli_main(argv)
    finally:
        os.unlink(cfg_path)
    if code != 0:
        return code

    with open(os.path.join(args.output, "aggregate.csv"), newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["method"] == "tri"]
    print(f"{'delta':>5} {'evals/video':>14} {'ratio':>8} {'predicted':>10}")
    for r in sorted(rows, key=lambda r: int(r["delta"])):
        ratio = r["eval_ratio"] or "-"
        theory = r["eval_ratio_theory"] or "-"
        if ratio != "-":
            ratio = f"{float(ratio):.3f}"
        if theory != "-":
            theory = f"{float(theory):.3f}"
        print(
            f"{r['delta']:>5} {float(r['eval_count_mean']):>14.0f} {ratio:>8} {theory:>10}"
        )

    # one fresh process per row, so no row inherits another's heap
    with multiprocessing.get_context("spawn").Pool(1, maxtasksperchild=1) as pool:
        scaling = pool.map(scaling_row, SCALING_N0, chunksize=1)
    print(
        f"{'N0':>5} {'track_s':>9} {'sweep_s':>9} {'peak_mb':>9} {'space_rows':>11} {'dp_cells':>12}"
    )
    for n0, (seconds, sweep, peak, rows, cells) in zip(SCALING_N0, scaling):
        print(
            f"{n0:>5} {seconds:>9.4f} {sweep:>9.4f} {peak / 1e6:>9.2f} {rows:>11} {cells:>12}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
