"""Command-line front end: track, simulate, evaluate, experiment.

Exit codes: 0 success, 2 malformed data file, 3 bad configuration,
4 runtime failure (inconsistent inputs, exceeded caps, IO).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import statistics
import sys
import time
from bisect import bisect_left
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .assignment import BipartiteConfig, solve_bmcf_sequence
from .core import (
    FrameSequence,
    InvalidConfigError,
    InvalidInputError,
    JsonConfig,
    ParseError,
    SpaceCapError,
    TrajectorySet,
    assemble_trajectories,
    matchings_from_trajectories,
    read_detections,
    read_tracks,
    write_detections,
    write_matchings,
    write_tracks,
)
from .metrics import evaluate, write_report_csv, write_report_json
from .simulator import SimConfig, simulate
from .tripartite import TrackerConfig, track

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONFIG = 3
EXIT_RUNTIME = 4

RESULT_COLUMNS = (
    "N0", "sigma", "f", "replicate", "seed", "method", "delta",
    "whole_path_precision", "whole_path_recall", "whole_path_f1",
    "mean_pair_identity", "path_identity", "mean_coverage", "eval_count",
)

AGGREGATE_COLUMNS = (
    "N0", "sigma", "method", "delta", "n_replicates",
    "f1_mean", "f1_err", "coverage_mean", "coverage_err",
    "pair_identity_mean", "pair_identity_err",
    "eval_count_mean", "eval_ratio", "eval_ratio_theory",
)

TIMING_COLUMNS = ("N0", "sigma", "f", "replicate", "method", "delta", "wall_seconds")


@dataclass(frozen=True)
class ExperimentConfig(JsonConfig):
    """Grid of simulation settings and solver variants to sweep.

    N0, sigma and seed span the grid of runs. W, H, w, h, f and dt
    (SimConfig's fields) and sigma_mode, lambda_event and gate_quantile
    (TrackerConfig's) pass to every run unchanged, with those configs'
    defaults.
    """

    N0: tuple[int, ...] = (SimConfig.N0,)
    sigma: tuple[float, ...] = (SimConfig.sigma,)
    f: int = SimConfig.f
    replicates: int = 20
    methods: tuple[str, ...] = ("bmcf", "tri")
    deltas: tuple[int, ...] = (0, 1, 2, 3)
    seed: int = SimConfig.seed
    W: float = SimConfig.W
    H: float = SimConfig.H
    w: float = SimConfig.w
    h: float = SimConfig.h
    dt: float = SimConfig.dt
    sigma_mode: str = TrackerConfig.sigma_mode
    lambda_event: float | str = TrackerConfig.lambda_event
    gate_quantile: float = TrackerConfig.gate_quantile

    def __post_init__(self):
        if any(int(v) != v for v in (*self.N0, *self.deltas)):
            raise InvalidConfigError("N0 and deltas must hold integers")
        object.__setattr__(self, "N0", tuple(int(v) for v in self.N0))
        object.__setattr__(self, "sigma", tuple(float(v) for v in self.sigma))
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "deltas", tuple(int(v) for v in self.deltas))
        # a repeated value would run its settings twice and pool them in one aggregate row
        for name in ("N0", "sigma", "methods", "deltas"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise InvalidConfigError(f"{name} holds a repeated value: {list(values)}")
        if not self.N0 or not self.sigma:
            raise InvalidConfigError("N0 and sigma lists must be nonempty")
        if int(self.replicates) != self.replicates or self.replicates < 1:
            raise InvalidConfigError("replicates must be a positive integer")
        object.__setattr__(self, "replicates", int(self.replicates))
        bad = set(self.methods) - {"bmcf", "tri"}
        if bad or not self.methods:
            raise InvalidConfigError("methods must be a nonempty subset of {'bmcf', 'tri'}")
        if "tri" in self.methods and not self.deltas:
            raise InvalidConfigError("deltas must be nonempty when running 'tri'")
        if any(d < 0 for d in self.deltas):
            raise InvalidConfigError("deltas must be nonnegative")
        # build each derived config once, so bad values fail here and not in a worker
        for n0 in self.N0:
            for sig in self.sigma:
                self.sim_config(n0, sig, self.seed)
        if "tri" in self.methods:
            for d in self.deltas:
                self.tracker_config(d)

    def _derive(self, cls, **values):
        """cls from this grid's fields of the same name, overridden by values."""
        own = {f.name for f in fields(self)}
        shared = {f.name: getattr(self, f.name) for f in fields(cls) if f.name in own}
        return cls(**(shared | values))

    def sim_config(self, n0: int, sigma: float, seed: int) -> SimConfig:
        return self._derive(SimConfig, N0=n0, sigma=sigma, seed=seed)

    def tracker_config(self, delta: int) -> TrackerConfig:
        return self._derive(TrackerConfig, delta=delta)


def _fmt(v) -> str:
    """Stable cell formatting: repr for floats, empty for None."""
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(float(v))  # plain float repr even for numpy scalars
    return str(v)


# ---------------------------------------------------------------------------
# track
# ---------------------------------------------------------------------------


def _diagnostics_path(output: str) -> str:
    return os.path.splitext(output)[0] + ".diagnostics.json"


def cmd_track(args) -> int:
    if not (math.isfinite(args.dt) and args.dt > 0):
        raise InvalidConfigError("--dt must be a positive finite number")
    seq = read_detections(args.input, dt=args.dt)
    cfg = TrackerConfig.from_json(args.config) if args.config else TrackerConfig()
    if args.delta is not None:
        cfg = replace(cfg, delta=args.delta)
    if args.sigma_mode is not None:
        cfg = replace(cfg, sigma_mode=args.sigma_mode)

    if args.method == "bmcf":
        gate, matchings = solve_bmcf_sequence(
            seq, BipartiteConfig(gate_quantile=cfg.gate_quantile)
        )
        trajs = assemble_trajectories(seq, matchings)
        diag = {
            "method": "bmcf",
            "dt": seq.dt,
            "gate_cost": gate,
            "d_star": [m.n_disappeared for m in matchings],
        }
    else:
        res = track(seq, cfg)
        trajs = res.trajectories
        d = res.diagnostics
        diag = {
            "method": "tri",
            "dt": seq.dt,
            "delta": cfg.delta,
            "gate_cost": d.gate_cost,
            "d_star": list(d.d_star),
            "sigma_per_pair": list(d.sigma.sigmas),
            "sigma_pooled": d.sigma.pooled,
            "sigma_chain_counts": list(d.sigma.counts),
            "sigma_fallback": d.sigma.used_fallback,
            "lambda_event": d.lambda_event,
            "space_sizes": list(d.space_sizes),
            "eval_count": d.eval_count,
            "tie_refinements": list(d.tie_refinements),
            "sweep_steps": list(d.sweep_steps),
            "dp_cells": list(d.dp_cells),
            "stage_runs": [list(r) for r in d.stage_runs],
            "layer_seconds": d.layer_seconds,
            "score": res.score,
        }
    write_tracks(args.output, trajs, seq)
    with open(_diagnostics_path(args.output), "w", encoding="utf-8") as fh:
        json.dump(diag, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.output} ({len(trajs)} tracks)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    cfg = SimConfig.from_json(args.config) if args.config else SimConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    out = simulate(cfg)
    os.makedirs(args.output, exist_ok=True)
    write_detections(os.path.join(args.output, "detections.csv"), out.seq)
    write_tracks(os.path.join(args.output, "truth_tracks.csv"), out.trajectories, out.seq)
    write_matchings(os.path.join(args.output, "truth_matchings.txt"), out.matchings)
    cfg.to_json(os.path.join(args.output, "metadata.json"))
    print(f"wrote {args.output} ({cfg.n_cells} cells, {cfg.f} frames)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def _tracks_to_trajectories(
    pred_rows: list[list[tuple[int, float, float]]],
    truth_rows: list[list[tuple[int, float, float]]],
) -> tuple[FrameSequence, TrajectorySet, TrajectorySet]:
    """Rebuild a common detection universe from two track files.

    Detections are keyed by occurrence: frame k of the universe holds
    each coordinate as many times as the file holding more copies of it
    there, in sorted order. Each file hands out its copies in the order
    of its tracks sorted by coordinate sequence, so identical points get
    identical indices on both sides, also where a frame holds one point
    twice, and a file scores perfectly against itself whatever its row
    order and track ids.
    """
    all_rows = pred_rows + truth_rows
    if not all_rows:
        raise InvalidInputError("no tracks to evaluate")
    pred_frames = {k for tr in pred_rows for k, _, _ in tr}
    truth_frames = {k for tr in truth_rows for k, _, _ in tr}
    missing = sorted(truth_frames - pred_frames)
    if missing:
        raise InvalidInputError(f"prediction has no detections at frames {missing}")
    f = max(max(k for tr in all_rows for k, _, _ in tr) + 1, 1)
    copies: list[Counter] = [Counter() for _ in range(f)]
    for rows in (pred_rows, truth_rows):
        counts = Counter((k, x, y) for tr in rows for k, x, y in tr)
        for (k, x, y), n in counts.items():
            copies[k][x, y] = max(copies[k][x, y], n)
    ordered = [sorted(c.elements()) for c in copies]
    seq = FrameSequence(tuple(np.array(o, dtype=np.float64).reshape(-1, 2) for o in ordered))

    def convert(rows) -> TrajectorySet:
        handed = Counter()
        tracks = []
        for tr in sorted(rows):
            path = []
            for k, x, y in tr:
                # the coordinate's first copy, then the copies handed out
                path.append((k, bisect_left(ordered[k], (x, y)) + handed[k, x, y]))
                handed[k, x, y] += 1
            tracks.append(tuple(path))
        return TrajectorySet(tuple(tracks))

    return seq, convert(pred_rows), convert(truth_rows)


def cmd_evaluate(args) -> int:
    if not (math.isfinite(args.beta) and args.beta > 0):
        raise InvalidConfigError("--beta must be a positive finite number")
    summary = os.path.splitext(args.output)[0] + ".json"
    if os.path.abspath(summary) == os.path.abspath(args.output):
        raise InvalidConfigError(f"--output {args.output!r} is also the JSON summary's path")
    pred_rows = read_tracks(args.input)
    truth_rows = read_tracks(args.truth)
    seq, pred, truth = _tracks_to_trajectories(pred_rows, truth_rows)
    pred_m = matchings_from_trajectories(seq, pred)
    truth_m = matchings_from_trajectories(seq, truth)
    report = evaluate(seq, pred_m, truth_m, beta=args.beta)
    write_report_csv(report, args.output)
    write_report_json(report, summary)
    print(
        f"whole-path F{args.beta:g} = {report.whole_fbeta:.4f}, "
        f"path identity = {report.path_identity}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------


def _result_row(base: dict, report, eval_count: int) -> dict:
    """One results.csv row from an evaluation report.

    A report without candidate spaces (bmcf) scores a single-candidate
    space, which covers truth iff it equals it, so its coverage is its
    pair identity.
    """
    cov = report.pair_identity if report.coverage is None else report.coverage
    return base | {
        "whole_path_precision": report.whole_precision,
        "whole_path_recall": report.whole_recall,
        "whole_path_f1": report.whole_fbeta,
        "mean_pair_identity": sum(report.pair_identity) / len(report.pair_identity),
        "path_identity": report.path_identity,
        "mean_coverage": sum(cov) / len(cov),
        "eval_count": eval_count,
    }


def _experiment_job(job):
    """One (setting, replicate): simulate once, run every method on it."""
    setting_index, replicate, sim_cfg, grid = job
    sim = simulate(sim_cfg)
    truth = list(sim.matchings)
    base = {
        "N0": sim_cfg.N0,
        "sigma": sim_cfg.sigma,
        "f": sim_cfg.f,
        "replicate": replicate,
        "seed": sim_cfg.seed,
    }
    rows = []
    times = []
    for method in grid.methods:
        for delta in (None,) if method == "bmcf" else grid.deltas:
            t0 = time.perf_counter()
            if method == "bmcf":
                _, pred = solve_bmcf_sequence(
                    sim.seq, BipartiteConfig(gate_quantile=grid.gate_quantile)
                )
                spaces, eval_count = None, 0
            else:
                res = track(sim.seq, grid.tracker_config(delta))
                pred, spaces, eval_count = res.matchings, res.spaces, res.diagnostics.eval_count
            wall = time.perf_counter() - t0
            report = evaluate(sim.seq, pred, truth, spaces=spaces)
            run = base | {"method": method, "delta": delta}
            rows.append(_result_row(run, report, eval_count))
            times.append(run | {"wall_seconds": wall})
    return (setting_index, replicate), rows, times


def _aggregate(rows: list[dict], grid: ExperimentConfig) -> list[dict]:
    out = []
    settings = [(n0, s) for n0 in grid.N0 for s in grid.sigma]
    variants: list[tuple[str, int | None]] = []
    if "bmcf" in grid.methods:
        variants.append(("bmcf", None))
    if "tri" in grid.methods:
        variants.extend(("tri", d) for d in sorted(grid.deltas))
    for n0, sig in settings:
        eval_means: dict[int, float] = {}
        for method, delta in variants:
            group = [
                r for r in rows
                if r["N0"] == n0 and r["sigma"] == sig
                and r["method"] == method and r["delta"] == delta
            ]
            if not group:
                continue

            def stats(key):
                vals = [float(r[key]) for r in group]
                mean = sum(vals) / len(vals)
                err = 1.96 * statistics.stdev(vals) if len(vals) > 1 else 0.0
                return mean, err

            f1_mean, f1_err = stats("whole_path_f1")
            cov_mean, cov_err = stats("mean_coverage")
            pi_mean, pi_err = stats("mean_pair_identity")
            ev_mean = sum(float(r["eval_count"]) for r in group) / len(group)
            ratio = None
            theory = None
            if method == "tri":
                eval_means[delta] = ev_mean
                if delta - 1 in eval_means and eval_means[delta - 1] > 0:
                    ratio = ev_mean / eval_means[delta - 1]
                if delta >= 1:
                    theory = ((delta + 0.5) / (delta - 0.5)) ** 2
            out.append(
                {
                    "N0": n0,
                    "sigma": sig,
                    "method": method,
                    "delta": delta,
                    "n_replicates": len(group),
                    "f1_mean": f1_mean,
                    "f1_err": f1_err,
                    "coverage_mean": cov_mean,
                    "coverage_err": cov_err,
                    "pair_identity_mean": pi_mean,
                    "pair_identity_err": pi_err,
                    "eval_count_mean": ev_mean,
                    "eval_ratio": ratio,
                    "eval_ratio_theory": theory,
                }
            )
    return out


def _write_csv(path, columns, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for r in rows:
            writer.writerow([_fmt(r[c]) for c in columns])


def cmd_experiment(args) -> int:
    if args.jobs is not None and args.jobs < 1:
        raise InvalidConfigError("--jobs must be a positive integer")
    grid = ExperimentConfig.from_json(args.config)
    if args.replicates is not None:
        grid = replace(grid, replicates=args.replicates)
    if args.seed is not None:
        grid = replace(grid, seed=args.seed)
    os.makedirs(args.output, exist_ok=True)

    settings = [(n0, s) for n0 in grid.N0 for s in grid.sigma]
    jobs = []
    for si, (n0, sig) in enumerate(settings):
        for rep in range(grid.replicates):
            sim_cfg = grid.sim_config(n0, sig, grid.seed + 1000003 * si + rep)
            jobs.append((si, rep, sim_cfg, grid))

    workers = min(len(jobs), args.jobs or (os.cpu_count() or 1))
    collected: dict[tuple[int, int], tuple[list[dict], list[dict]]] = {}
    if workers <= 1:
        for job in jobs:
            key, rows, times = _experiment_job(job)
            collected[key] = (rows, times)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for key, rows, times in pool.map(_experiment_job, jobs):
                collected[key] = (rows, times)

    all_rows: list[dict] = []
    all_times: list[dict] = []
    for key in sorted(collected):
        rows, times = collected[key]
        all_rows.extend(rows)
        all_times.extend(times)

    _write_csv(os.path.join(args.output, "results.csv"), RESULT_COLUMNS, all_rows)
    _write_csv(
        os.path.join(args.output, "aggregate.csv"), AGGREGATE_COLUMNS, _aggregate(all_rows, grid)
    )
    _write_csv(os.path.join(args.output, "timings.csv"), TIMING_COLUMNS, all_times)
    print(f"wrote {args.output} ({len(all_rows)} result rows)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="velotrack",
        description="Multi-object association by velocity-smoothness maximization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("track", help="link a detection file into tracks")
    p.add_argument("--input", required=True, help="detection CSV (frame_index,x,y)")
    p.add_argument("--output", required=True, help="track CSV to write")
    p.add_argument("--config", help="tracker config JSON")
    p.add_argument("--method", choices=("bmcf", "tri"), default="tri")
    p.add_argument("--delta", type=int, help="override the config's delta")
    p.add_argument(
        "--dt", type=float, default=1.0,
        help="frame interval of the detections (default 1.0; simulate records it in metadata.json)",
    )
    p.add_argument(
        "--sigma-mode", dest="sigma_mode",
        help="per-frame, pooled, or fixed:<value>",
    )
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("simulate", help="generate a synthetic video with ground truth")
    p.add_argument("--config", help="simulation config JSON")
    p.add_argument("--seed", type=int, help="override the config's seed")
    p.add_argument("--output", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("evaluate", help="score a predicted track file against truth")
    p.add_argument("--input", required=True, help="predicted track CSV")
    p.add_argument("--truth", required=True, help="ground-truth track CSV")
    p.add_argument("--output", required=True, help="report CSV to write")
    p.add_argument(
        "--beta", type=float, default=1.0,
        help="F-score weight of recall (default 1.0; must be positive and finite)",
    )
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("experiment", help="run a seeded grid of simulations and methods")
    p.add_argument("--config", required=True, help="experiment grid JSON")
    p.add_argument("--output", required=True, help="output directory")
    p.add_argument("--replicates", type=int, help="override the grid's replicate count")
    p.add_argument("--seed", type=int, help="override the grid's base seed")
    p.add_argument("--jobs", type=int, help="worker processes (default: all cores)")
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except InvalidConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (InvalidInputError, SpaceCapError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
