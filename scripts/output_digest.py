#!/usr/bin/env python3
"""Digests of track()'s outputs on the benchmark's seed-0 videos.

    python3 scripts/output_digest.py [--workload NAME ...]

Tracks every seed-0 video of each workload in bench/run.py's WORKLOADS
(long, crowded and noisy by default), simulated with its
simulate_video, and prints one line per workload:

    <workload> outputs <sha256> dp_cells <sha256> bipartite <sha256>

The first digest covers each video's matchings, score.hex(), sigmas,
space sizes, stage_runs, pruned_rows and tie_refinements; the second
its dp_cells, which a change to the fold's cell count may move while
every output stays the same; the third the bipartite pass's outputs:
gate_cost.hex(), d_star, the gated matchings, sweep_steps and
lambda_event.hex(). Run it at two commits to check that a
change keeps track()'s outputs bit for bit. The package and the bench
are imported from the checkout this script lives in.
"""

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import run as bench  # noqa: E402  (bench/run.py imports velotrack from ROOT/src)

MEASURED = ("long", "crowded", "noisy")


def video_outputs(res) -> tuple[str, str, str]:
    """The outputs of one track() result as text, then its dp_cells, then
    its bipartite outputs."""
    d = res.diagnostics
    outputs = [
        "|".join(" ".join(map(str, m.entries)) for m in res.matchings),
        res.score.hex(),
        " ".join(s.hex() for s in d.sigma.sigmas),
        repr(d.space_sizes),
        repr(d.stage_runs),
        repr(d.pruned_rows),
        repr(d.tie_refinements),
    ]
    bipartite = [
        d.gate_cost.hex(),
        repr(d.d_star),
        "|".join(" ".join(map(str, m.entries)) for m in d.bmcf_matchings),
        repr(d.sweep_steps),
        d.lambda_event.hex(),
    ]
    return "\n".join(outputs), repr(d.dp_cells), "\n".join(bipartite)


def workload_digests(name: str) -> tuple[str, str, str]:
    w = bench.WORKLOADS[name]
    outputs, cells, bipartite = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for i in range(w.videos):
        res = bench.vt.track(bench.simulate_video(w, 0, i).seq)
        text, dp_cells, bip = video_outputs(res)
        outputs.update(f"{i}\n{text}\n".encode())
        cells.update(f"{i} {dp_cells}\n".encode())
        bipartite.update(f"{i}\n{bip}\n".encode())
    return outputs.hexdigest(), cells.hexdigest(), bipartite.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--workload", action="append", choices=sorted(bench.WORKLOADS),
        help="a workload to digest (repeatable; default: long, crowded and noisy)",
    )
    args = ap.parse_args(argv)
    for name in args.workload or MEASURED:
        outputs, cells, bipartite = workload_digests(name)
        print(f"{name} outputs {outputs} dp_cells {cells} bipartite {bipartite}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
