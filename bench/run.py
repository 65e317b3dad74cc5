"""velotrack benchmark: fixed-seed workloads, end to end or traced per layer.

    python3 bench/run.py --workload crowded --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. One process runs one workload as a closed loop: the videos are
simulated from ``--seed`` during set-up, then ``track()`` and
``evaluate()`` run on one video at a time, in passes over the whole
set, until ``--seconds`` have passed (at least one full pass). Every
output is checked (see ``check_video``). The last stdout line is one
JSON object: end-to-end metrics with ``--trace 0``, per-layer metrics
from the traced recomposition in ``spans.py`` with ``--trace 1``.
Seconds are reported at a reference machine speed (see ``speed.py``).

Workloads, and why each was chosen (all at delta = 1, the default
TrackerConfig):

- ``long``: long sparse videos. ``evaluate`` rebuilds every prefix,
  O(f^2 n), so ``metrics.cumulative_path_accuracy`` dominates and the
  DP is light; objects cross the window's edge, so appearance and
  disappearance events keep F1 below 1 at sigma = 1.
- ``crowded``: 40 objects per frame, so candidate spaces have thousands
  of rows and the DP fold dominates ``track()`` and memory.
- ``noisy``: sigma = 6 makes the exact lexicographic refinement of
  fixed-d bipartite ties dominate ``track()``, and F1 is well below 1,
  so an accuracy change shows.

crowded and noisy close the field of view (every frame holds exactly N0
objects): with objects entering and leaving, the cost of a video varies
so much with its object counts that 30-second medians moved by 40 %
from seed to seed. long keeps a margin around the window for its events;
with 6 objects per frame its cost varies little with their number. In a
closed view the simulator lists objects in the same order in every
frame, so the true matchings are identities and every video tracked
without error has the same digest.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported: one video at a time
# on one core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED = BENCH_DIR / "expected.json"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 5
DEFAULT_SEED = 0


def _import_package():
    """Import velotrack from this checkout's src/, or exit nonzero."""
    src = ROOT / "src"
    if not (src / "velotrack" / "__init__.py").is_file():
        sys.exit(f"error: no velotrack package under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import velotrack

    return velotrack


_t0 = time.perf_counter()
vt = _import_package()
IMPORT_S = time.perf_counter() - _t0

from spans import LAYERS, PROBES, VIDEO, Tracer, traced_track_evaluate  # noqa: E402
from speed import SpeedReference  # noqa: E402


@dataclass(frozen=True)
class Workload:
    """Simulator settings and the number of videos a run tracks.

    region is the side of the simulated region as a multiple of the
    visible window's side: 1.0 closes the field of view, so every frame
    holds exactly N0 objects and nothing enters or leaves.
    """

    N0: int
    sigma: float
    f: int
    region: float
    videos: int

    def sim_config(self, seed: int):
        w, h = 680.0, 512.0
        return vt.SimConfig(
            W=w * self.region, H=h * self.region, w=w, h=h,
            N0=self.N0, sigma=self.sigma, f=self.f, seed=seed,
        )


# A pass over a workload's videos takes about 20 s on the 2-core machine
# the benchmark was built on, so a 30-second run makes one full pass
# and part of a second.
WORKLOADS = {
    "long": Workload(N0=6, sigma=1.0, f=160, region=1.2, videos=40),
    "crowded": Workload(N0=40, sigma=1.0, f=4, region=1.0, videos=40),
    "noisy": Workload(N0=12, sigma=6.0, f=20, region=1.0, videos=48),
    # tiny input for bench/smoke.py, not a measured workload
    "smoke": Workload(N0=8, sigma=1.0, f=5, region=1.2, videos=2),
}


def video_seed(seed: int, i: int) -> int:
    return seed * 10_000 + i


def simulate_video(w: Workload, seed: int, i: int):
    return vt.simulate(w.sim_config(video_seed(seed, i)))


def digest(matchings) -> str:
    text = "|".join(" ".join(str(e) for e in m.entries) for m in matchings)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_expected(workload: str) -> list[str]:
    """Recorded matchings digests of the workload's default-seed videos."""
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)["digests"][workload]


def chain_score(seq, matchings, noise) -> float:
    """The chain objective recomputed term by term with the public scorers."""
    fr = seq.frames
    total = vt.pair_log_likelihood_first(fr[0], fr[1], matchings[0], noise, dt=seq.dt)
    for t in range(1, len(matchings)):
        total += vt.triple_log_likelihood(
            fr[t - 1], fr[t], fr[t + 1], matchings[t - 1], matchings[t], noise,
            dt=seq.dt, pair_index=t,
        )
    return total


def check_video(seq, res, cfg, expected: str | None) -> list[str]:
    """Problems with one track() result; empty when it passes."""
    problems = []
    d = res.diagnostics
    noise = vt.NoiseModel(d.sigma.sigmas, d.lambda_event, sigma_floor=cfg.sigma_floor)
    tol = 1e-9 * max(1.0, abs(res.score))
    recomputed = chain_score(seq, res.matchings, noise)
    if abs(recomputed - res.score) > tol:
        problems.append(f"score {res.score!r} != recomputed chain score {recomputed!r}")
    baseline = chain_score(seq, d.bmcf_matchings, noise)
    if res.score < baseline - tol:
        problems.append(f"score {res.score!r} below the bipartite chain score {baseline!r}")
    covered = sorted(fi for tr in res.trajectories.tracks for fi in tr)
    every = [(k, i) for k in range(len(seq)) for i in range(seq.n_objects(k))]
    if covered != every:
        problems.append("detections not covered exactly once by the tracks")
    if expected is not None and digest(res.matchings) != expected:
        problems.append(f"matchings digest {digest(res.matchings)} != expected {expected}")
    return problems


class Tally:
    """Attempts and failures; a failure is a raise or a failed check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAIL {what}: {p}", file=sys.stderr)


def setup(w: Workload, seed: int, cfg, canary_digest: str, tally: Tally):
    """Simulate the workload's videos and warm up on the canary video.

    The canary is video 0 of the default seed, and its matchings are
    checked against the recorded digest, so every run checks one
    recorded output whatever its seed. Repeated SETUP_REPEATS times;
    returns the videos, the set-up reference seconds (the import plus
    the median repeat) and the mean simulate reference seconds per
    video. Set-up is scaled by the speed measured during set-up, since
    it lasts only a few seconds.
    """
    speed = SpeedReference()
    totals, sim_times = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        videos, times = [], []
        for i in range(w.videos):
            s0 = time.perf_counter()
            videos.append(simulate_video(w, seed, i))
            times.append(time.perf_counter() - s0)
        canary = simulate_video(w, DEFAULT_SEED, 0)
        try:
            res = vt.track(canary.seq, cfg)
            vt.evaluate(canary.seq, res.matchings, canary.matchings, spaces=res.spaces)
            problems = check_video(canary.seq, res, cfg, canary_digest)
        except Exception as e:  # noqa: BLE001 - a raising track() is a counted failure
            problems = [f"{type(e).__name__}: {e}"]
        tally.record("canary", problems)
        totals.append(time.perf_counter() - t0)
        sim_times.append(times)
        speed.sample()
    scale = speed.scale()
    simulate_s = statistics.fmean(
        statistics.median(rep[i] for rep in sim_times) for i in range(w.videos)
    )
    return videos, (IMPORT_S + statistics.median(totals)) * scale, simulate_s * scale


def passes(n_videos: int, seconds: float):
    """Yield (pass, video) until the deadline, finishing at least one pass."""
    deadline = time.perf_counter() + seconds
    p = 0
    while True:
        for v in range(n_videos):
            if p > 0 and time.perf_counter() >= deadline:
                return
            yield p, v
        p += 1


def succeeded(samples: list[list[float]]) -> list[int]:
    """Videos whose first pass returned; exits nonzero when none did."""
    ok = [v for v, t in enumerate(samples) if t]
    if not ok:
        sys.exit("error: track() raised on every video")
    return ok


def run_untraced(name: str, w: Workload, seed: int, seconds: float) -> dict:
    cfg = vt.TrackerConfig()
    tally = Tally()
    speed = SpeedReference()
    expected = load_expected(name)
    videos, setup_s, _ = setup(w, seed, cfg, expected[0], tally)
    if seed != DEFAULT_SEED:
        expected = []
    track_t = [[] for _ in videos]
    eval_t = [[] for _ in videos]
    f1 = [math.nan] * len(videos)
    first_digest: list[str | None] = [None] * len(videos)
    for p, v in passes(len(videos), seconds):
        out = videos[v]
        try:
            t0 = time.perf_counter()
            res = vt.track(out.seq, cfg)
            t1 = time.perf_counter()
            rep = vt.evaluate(out.seq, res.matchings, out.matchings, spaces=res.spaces)
            t2 = time.perf_counter()
        except Exception as e:  # noqa: BLE001 - a raising track() is a counted failure
            tally.record(f"video {v} pass {p}", [f"{type(e).__name__}: {e}"])
            continue
        speed.sample()
        track_t[v].append(t1 - t0)
        eval_t[v].append(t2 - t1)
        if p == 0:
            problems = check_video(out.seq, res, cfg, expected[v] if v < len(expected) else None)
            first_digest[v] = digest(res.matchings)
            f1[v] = rep.whole_fbeta
        elif digest(res.matchings) != first_digest[v]:
            problems = ["output changed between passes"]
        else:
            problems = []
        tally.record(f"video {v} pass {p}", problems)

    ok = succeeded(track_t)
    scale = speed.scale()
    per_video_track = [statistics.median(track_t[v]) * scale for v in ok]
    per_video_eval = [statistics.median(eval_t[v]) * scale for v in ok]
    # median per-video throughput: a ratio of totals would follow the few
    # slowest videos
    rates = [videos[v].seq.total_detections / t for v, t in zip(ok, per_video_track)]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "track_s": (statistics.median(per_video_track), "s"),
        "detections_per_s": (statistics.median(rates), "1/s"),
        "evaluate_s": (statistics.median(per_video_eval), "s"),
        "whole_f1": (statistics.fmean(f1[v] for v in ok), "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    summary = (
        f"{name} seed {seed}: {len(videos)} videos, {max(len(t) for t in track_t)} passes, "
        f"{tally.attempted} attempts; reference seconds = wall seconds x {scale:.4f}"
    )
    extra = {
        "failed_frac": (tally.failed / tally.attempted, "ratio"),
        "track_s, wall": (metrics["track_s"][0] / scale, "s"),
        "evaluate_s, wall": (metrics["evaluate_s"][0] / scale, "s"),
    }
    return finish(summary, metrics, extra, tally)


def run_traced(name: str, w: Workload, seed: int, seconds: float) -> dict:
    cfg = vt.TrackerConfig()
    tally = Tally()
    speed = SpeedReference()
    videos, _, simulate_s = setup(w, seed, cfg, load_expected(name)[0], tally)
    # A traced pass costs about 2.5 untraced ones (untraced reference,
    # traced recomposition, probes), so it covers the first half.
    videos = videos[: max(1, len(videos) // 2)]
    tracer = Tracer()
    untraced = [[] for _ in videos]
    counts = [None] * len(videos)
    bmcf_f1 = [math.nan] * len(videos)
    for p, v in passes(len(videos), seconds):
        out = videos[v]
        try:
            t0 = time.perf_counter()
            res = vt.track(out.seq, cfg)
            vt.evaluate(out.seq, res.matchings, out.matchings, spaces=res.spaces)
            t1 = time.perf_counter()
            matchings, score, spaces = traced_track_evaluate(
                tracer, p * len(videos) + v, out.seq, out.matchings, cfg
            )
        except Exception as e:  # noqa: BLE001 - a raising track() is a counted failure
            tally.record(f"video {v} pass {p}", [f"{type(e).__name__}: {e}"])
            continue
        speed.sample()
        untraced[v].append(t1 - t0)
        problems = []
        if tuple(matchings) != res.matchings or score != res.score:
            problems.append("traced recomposition differs from track()")
        if p == 0:
            problems += check_video(out.seq, res, cfg, None)
            sizes = [len(s) for s in spaces]
            counts[v] = (vt.evaluation_count(sizes), sum(sizes), max(sizes))
            bmcf = vt.assemble_trajectories(out.seq, res.diagnostics.bmcf_matchings)
            bmcf_f1[v] = vt.path_accuracy(bmcf, out.trajectories)[2]
        tally.record(f"video {v} pass {p}", problems)

    ok = succeeded(untraced)
    scale = speed.scale()
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace_{name}_seed{seed}.json"
    tracer.write(trace_path, workload=name, seed=seed, speed_scale=scale)

    # Per video: median over its passes of each span's self seconds; then
    # the mean over videos, so the layers add up to the video span.
    by_vid = tracer.per_video()
    layer = {}
    for n in LAYERS + PROBES + (VIDEO,):
        layer[n] = scale * statistics.fmean(
            statistics.median(by_vid[p * len(videos) + v].get(n, 0.0) for p in range(len(untraced[v])))
            for v in ok
        )
    traced_s = sum(layer[n] for n in LAYERS) + layer[VIDEO]
    untraced_s = scale * statistics.fmean(statistics.median(untraced[v]) for v in ok)
    counts = [counts[v] for v in ok]
    evals = sum(c[0] for c in counts)
    metrics = {
        "assignment.gate_s": (layer["assignment.gate"], "s"),
        "assignment.solve_bmcf_s": (layer["assignment.solve_bmcf"], "s"),
        "assignment.fixed_d_matchings_s": (layer["assignment.fixed_d_matchings"], "s"),
        "assignment.bmcf_f1": (statistics.fmean(bmcf_f1[v] for v in ok), "ratio"),
        "tripartite.estimate_sigma_s": (layer["tripartite.estimate_sigma"], "s"),
        "tripartite.build_reduced_space_s": (layer["tripartite.build_reduced_space"], "s"),
        "tripartite.space_assembly_s": (
            layer["tripartite.build_reduced_space"] - layer["assignment.fixed_d_matchings"], "s"
        ),
        "tripartite.solve_dp_s": (layer["tripartite.solve_dp"], "s"),
        "tripartite.dp_evals_per_s": (evals / (len(ok) * layer["tripartite.solve_dp"]), "1/s"),
        "tripartite.eval_count": (evals, "count"),
        "tripartite.space_rows": (sum(c[1] for c in counts), "count"),
        "tripartite.max_space_rows": (max(c[2] for c in counts), "count"),
        "core.assemble_trajectories_s": (layer["core.assemble_trajectories"], "s"),
        "metrics.evaluate_s": (layer["metrics.evaluate"], "s"),
        "metrics.cumulative_path_accuracy_s": (layer["metrics.cumulative_path_accuracy"], "s"),
        "simulator.simulate_s": (simulate_s, "s"),
        "trace.overhead_frac": ((traced_s - untraced_s) / untraced_s, "ratio"),
    }
    summary = (
        f"{name} seed {seed} traced: {len(videos)} videos, {tally.attempted} attempts, "
        f"spans in {trace_path.relative_to(ROOT)}; "
        f"reference seconds = wall seconds x {scale:.4f}\n"
        f"  per video: layer self times {traced_s - layer[VIDEO]:.4f} s + glue "
        f"{layer[VIDEO]:.4f} s = traced {traced_s:.4f} s; untraced track+evaluate "
        f"{untraced_s:.4f} s\n"
        "  space_assembly_s is build_reduced_space_s - fixed_d_matchings_s, by difference"
    )
    return finish(summary, metrics, {}, tally)


def finish(summary: str, metrics: dict, extra: dict, tally: Tally) -> dict:
    print(summary)
    for key, (value, unit) in {**metrics, **extra}.items():
        print(f"  {key:36s} {value:.6g} {unit}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    run = run_traced if args.trace else run_untraced
    result = run(args.workload, WORKLOADS[args.workload], args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
