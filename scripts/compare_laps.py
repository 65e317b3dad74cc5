#!/usr/bin/env python3
"""track()'s per-layer laps at this checkout against another one, in one process.

    python3 scripts/compare_laps.py --parent DIR [--workload NAME ...]
        [--regime N0,SIGMA,F,REGION[,VIDEOS] ...] [--rounds N]

DIR is another source checkout of velotrack, for example a git worktree
of the parent commit. The src/velotrack packages of both checkouts are
copied to a temporary directory under their own names and imported side
by side. Every seed-0 video of each workload in bench/run.py's
WORKLOADS (long, crowded and noisy by default), simulated with its
simulate_video, is tracked once by each side untimed, which also checks
that both return the same matchings, scores, trajectories and gated
bipartite matchings, and the same work counters (COUNTERS) in the
diagnostics. Each --regime adds a simulator setting that no
workload covers, as a workload of VIDEOS videos (default 5) of N0
objects, sigma SIGMA and F frames in a region REGION times the
window's side (1 closes the view); with a --regime
and no --workload, only the regimes are timed. Then each round tracks
all the videos with one side and then the other, the first side
alternating from round to round; after each track() call it times
evaluate(seq, res.matchings, truth, spaces=res.spaces), as the bench
does, with the simulation's truth matchings, and then simulate on the
video's SimConfig. Per workload, for each layer of
TrackDiagnostics.layer_seconds, for the whole track() call, for
evaluate and for simulate, it prints the median ms per video on each
side and the median over rounds of the change/parent ratio of the
round's totals, with its min and max.

Processes on a shared machine run at speeds that drift by tens of
percent from one to the next; within one process, the two sides of a
round see the same machine, so the ratios are much steadier than any
comparison of two separate runs. But the two sides also share one
allocator: the arrays one side frees or keeps mapped change the page
faults the other side takes, so a layer can read a few percent off
with no change to its code. Before reading a bound as tight as x1.03
on a layer, run a session of this checkout against a copy of itself
(--parent a second checkout of the same commit); the spread of its
ratios around 1 is the noise floor.
"""

import argparse
import dataclasses
import importlib
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import run as bench  # noqa: E402  (bench/run.py imports velotrack from ROOT/src)

MEASURED = ("long", "crowded", "noisy")
SIDES = ("parent", "change")
# the diagnostics' deterministic work counts, which a change that keeps
# the work the same keeps bit for bit
COUNTERS = (
    "dp_cells",
    "pruned_rows",
    "stage_runs",
    "sweep_steps",
    "sweep_one_step",
    "tie_refinements",
)


def import_side(checkout: Path, name: str, tmp: Path):
    """checkout's src/velotrack, imported as the package `name`."""
    src = checkout / "src" / "velotrack"
    if not (src / "__init__.py").is_file():
        sys.exit(f"error: no velotrack package under {checkout / 'src'}")
    shutil.copytree(src, tmp / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def laps(pkg, videos) -> dict[str, float]:
    """Seconds per layer, for track() as a whole, for evaluate and for
    simulate, summed over videos."""
    total = dict.fromkeys(pkg.tripartite.TRACK_LAYERS, 0.0)
    total["track()"] = total["evaluate"] = total["simulate"] = 0.0
    for seq, truth, cfg in videos:
        t = time.perf_counter()
        res = pkg.track(seq)
        total["track()"] += time.perf_counter() - t
        for layer, s in res.diagnostics.layer_seconds.items():
            total[layer] += s
        t = time.perf_counter()
        pkg.evaluate(seq, res.matchings, truth, spaces=res.spaces)
        total["evaluate"] += time.perf_counter() - t
        t = time.perf_counter()
        pkg.simulate(cfg)
        total["simulate"] += time.perf_counter() - t
    return total


def outputs(pkg, videos) -> list[tuple[tuple, tuple]]:
    """Per video, what track() returns that both sides must agree on: its
    outputs (the matchings, the score's hex, the trajectories' tracks and
    the gated bipartite matchings of the diagnostics), then its work
    counters."""
    return [
        (
            (
                tuple(m.entries for m in res.matchings),
                res.score.hex(),
                res.trajectories.tracks,
                tuple(m.entries for m in res.diagnostics.bmcf_matchings),
            ),
            tuple(getattr(res.diagnostics, c) for c in COUNTERS),
        )
        for res in (pkg.track(seq) for seq, _, _ in videos)
    ]


def regime(text: str) -> tuple[str, "bench.Workload"]:
    """A --regime argument, N0,SIGMA,F,REGION[,VIDEOS], as a named workload."""
    fields = text.split(",")
    if len(fields) not in (4, 5):
        raise argparse.ArgumentTypeError(f"want N0,SIGMA,F,REGION[,VIDEOS], got {text!r}")
    try:
        n0, sigma, f, region = int(fields[0]), float(fields[1]), int(fields[2]), float(fields[3])
        videos = int(fields[4]) if len(fields) == 5 else 5
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad number in {text!r}") from None
    if videos < 1:
        raise argparse.ArgumentTypeError(f"want at least one video, got {text!r}")
    w = bench.Workload(N0=n0, sigma=sigma, f=f, region=region, videos=videos)
    try:
        w.sim_config(0)
    except bench.vt.InvalidConfigError as e:
        raise argparse.ArgumentTypeError(f"{text!r}: {e}") from None
    return f"N0={n0} sigma={sigma:g} f={f} region={region:g}", w


def compare(name: str, w: "bench.Workload", pkgs: dict, rounds: int) -> None:
    sims = [bench.simulate_video(w, 0, i) for i in range(w.videos)]
    # each side's own types: evaluate compares matchings by class too
    videos = {
        side: [
            (
                pkg.FrameSequence(tuple(s.seq.frames), dt=s.seq.dt),
                [pkg.MatchingVector(m.entries, n_next=m.n_next) for m in s.matchings],
                pkg.SimConfig(**dataclasses.asdict(s.config)),
            )
            for s in sims
        ]
        for side, pkg in pkgs.items()
    }
    # one untimed pass per side: warms both up and checks the outputs
    got = {side: outputs(pkg, videos[side]) for side, pkg in pkgs.items()}
    pairs = list(zip(got["parent"], got["change"]))
    differ = sum(a[0] != b[0] for a, b in pairs)
    work = sum(a[1] != b[1] for a, b in pairs)
    samples = {side: [] for side in SIDES}
    for r in range(rounds):
        for side in SIDES[::-1] if r % 2 else SIDES:
            samples[side].append(laps(pkgs[side], videos[side]))
    print(
        f"{name}: {len(sims)} videos, {rounds} rounds, "
        f"outputs differ on {differ} videos, work counters differ on {work} videos"
    )
    print(f"  {'layer':<16} {'parent ms':>10} {'change ms':>10} {'ratio':>7}  min - max")
    for layer in samples["parent"][0]:
        ms = {
            side: statistics.median(s[layer] for s in samples[side]) * 1e3 / len(sims)
            for side in SIDES
        }
        ratios = [
            c[layer] / p[layer]
            for p, c in zip(samples["parent"], samples["change"])
            if p[layer] > 0
        ]
        spread = (
            f"{statistics.median(ratios):7.3f}  {min(ratios):.3f} - {max(ratios):.3f}"
            if ratios
            else f"{'-':>7}"
        )
        print(f"  {layer:<16} {ms['parent']:10.3f} {ms['change']:10.3f} {spread}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path, help="the checkout to compare against")
    ap.add_argument(
        "--workload", action="append", choices=sorted(bench.WORKLOADS),
        help="a workload to time (repeatable; default: long, crowded and noisy)",
    )
    ap.add_argument(
        "--regime", action="append", type=regime, default=[],
        help="a simulator setting N0,SIGMA,F,REGION[,VIDEOS] to time (repeatable)",
    )
    ap.add_argument("--rounds", type=int, default=10, help="timed rounds (default 10)")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        pkgs = {
            "parent": import_side(args.parent.resolve(), "velotrack_parent", Path(tmp)),
            "change": import_side(ROOT, "velotrack_change", Path(tmp)),
        }
        names = args.workload or ([] if args.regime else MEASURED)
        for name, w in [(n, bench.WORKLOADS[n]) for n in names] + args.regime:
            compare(name, w, pkgs, args.rounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
