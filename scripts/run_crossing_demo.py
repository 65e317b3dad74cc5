#!/usr/bin/env python3
"""Two crossing paths, resolved by both association models.

Builds a three-frame video of two constant-velocity objects whose
paths cross in the middle frame interval. The nearest-position model
swaps the labels at the crossing; the velocity model keeps them.
"""

import argparse
import math
import sys

import numpy as np

from velotrack import BipartiteConfig, TrackerConfig, solve_bmcf_sequence, track
from velotrack.core import FrameSequence


def crossing_instance(rng):
    c = rng.uniform(-5.0, 5.0, size=2)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    psi = rng.uniform(math.radians(45.0), math.radians(135.0))
    if rng.random() < 0.5:
        psi = -psi
    speeds = rng.uniform(1.0, 3.0, size=2)
    taus = rng.uniform(0.35, 0.65, size=2)
    v = np.array(
        [
            speeds[0] * np.array([math.cos(phi), math.sin(phi)]),
            speeds[1] * np.array([math.cos(phi + psi), math.sin(phi + psi)]),
        ]
    )
    p0 = np.array([c - taus[0] * v[0], c - taus[1] * v[1]])
    return p0, v


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trials", type=int, default=1)
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)

    swapped = recovered = 0
    for trial in range(args.trials):
        p0, v = crossing_instance(rng)
        frames = (p0 - v, p0, p0 + v)
        seq = FrameSequence(frames)

        _, bmcf = solve_bmcf_sequence(seq, BipartiteConfig(gate_cost=math.inf))
        res = track(seq, TrackerConfig(delta=1))
        swapped += bmcf[1].entries == (1, 0)
        recovered += all(m.entries == (0, 1) for m in res.matchings)

        if args.trials == 1:
            for k, f in enumerate(frames):
                print(f"frame {k}: obj0 ({f[0][0]:+7.3f}, {f[0][1]:+7.3f})"
                      f"   obj1 ({f[1][0]:+7.3f}, {f[1][1]:+7.3f})")
            print(f"position model:  {[m.entries for m in bmcf]}")
            print(f"velocity model:  {[m.entries for m in res.matchings]}")

    if args.trials > 1:
        print(f"position model swapped the crossing pair {swapped}/{args.trials}")
        print(f"velocity model kept the true labels      {recovered}/{args.trials}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
