"""Traced recomposition of ``track()`` + ``evaluate()`` for the benchmark.

The package has no internal timers yet, so the traced run rebuilds the
pipeline from the package's public functions, in the order ``track()``
calls them, and wraps each call in a span. Spans are kept in memory and
written out once at the end of the run.

Two extra calls are timed as *probes*: ``fixed_d_matchings`` with the
same d-values ``build_reduced_space`` uses internally, and
``cumulative_path_accuracy`` as ``evaluate`` runs it. They repeat work
the pipeline already did, so they sit outside the video span and are
excluded from the overhead accounting.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

from velotrack import (
    BipartiteConfig,
    NoiseModel,
    SigmaEstimate,
    SpaceCapError,
    TrackerConfig,
    assemble_trajectories,
    auto_lambda,
    build_reduced_space,
    cumulative_path_accuracy,
    estimate_sigma,
    evaluate,
    fixed_d_matchings,
    neighborhood,
    resolve_gate_cost,
    solve_bmcf,
    solve_dp,
)

VIDEO = "video"

# Layer spans of the recomposed pipeline; their self times account for
# track() + evaluate().
LAYERS = (
    "assignment.gate",
    "assignment.solve_bmcf",
    "tripartite.estimate_sigma",
    "tripartite.build_reduced_space",
    "tripartite.solve_dp",
    "core.assemble_trajectories",
    "metrics.evaluate",
)
PROBES = ("assignment.fixed_d_matchings", "metrics.cumulative_path_accuracy")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    video: int


class Tracer:
    """In-memory span recorder; spans of one video share its id."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, video: int):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, video))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its children cover.

        Children run sequentially inside their parent, so the covered
        time is the sum of their durations.
        """
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.end - s.start
        return out

    def per_video(self) -> dict[int, dict[str, float]]:
        """Self seconds per span name, summed within each video."""
        out: dict[int, dict[str, float]] = {}
        for s, own in zip(self.spans, self.self_times()):
            acc = out.setdefault(s.video, {})
            acc[s.name] = acc.get(s.name, 0.0) + own
        return out

    def write(self, path, **extra) -> None:
        """Write the spans (raw perf_counter seconds) and any extra fields."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [asdict(s) for s in self.spans], **extra}, fh)
            fh.write("\n")


def traced_track_evaluate(tracer: Tracer, video: int, seq, truth, cfg: TrackerConfig):
    """track() then evaluate(), one span per public call.

    Mirrors ``velotrack.track`` step for step; the benchmark checks that
    both return the same matchings and score. The reduced spaces are
    built with the package's default delta, which is the TrackerConfig
    default the workloads use. Returns the matchings, the score and the
    spaces.
    """
    f = len(seq)
    with tracer.span(VIDEO, video):
        with tracer.span("assignment.gate", video):
            gate = resolve_gate_cost(seq, BipartiteConfig(gate_quantile=cfg.gate_quantile))
        gated = BipartiteConfig(gate_cost=gate)
        bmcf = []
        for k in range(f - 1):
            with tracer.span("assignment.solve_bmcf", video):
                bmcf.append(solve_bmcf(seq.frames[k], seq.frames[k + 1], gated))
        d_star = [m.n_disappeared for m in bmcf]

        fixed = cfg.fixed_sigma()
        if fixed is not None:
            sig = SigmaEstimate((fixed,) * (f - 1), fixed, (0,) * (f - 1), False)
        else:
            with tracer.span("tripartite.estimate_sigma", video):
                sig = estimate_sigma(seq, bmcf, mode=cfg.sigma_mode, sigma_floor=cfg.sigma_floor)
        lam = cfg.lambda_event
        if lam == "auto":
            lam = auto_lambda(gate, sig.pooled, seq.dt)
        noise = NoiseModel(sigmas=sig.sigmas, lambda_event=lam, sigma_floor=cfg.sigma_floor)

        spaces = []
        for k in range(f - 1):
            with tracer.span("tripartite.build_reduced_space", video):
                sp = build_reduced_space(seq.frames[k], seq.frames[k + 1], d_star[k])
            if len(sp) > cfg.space_cap:
                raise SpaceCapError(f"space at pair {k} has {len(sp)} vectors")
            spaces.append(sp)

        with tracer.span("tripartite.solve_dp", video):
            matchings, score = solve_dp(seq, spaces, noise)
        with tracer.span("core.assemble_trajectories", video):
            assemble_trajectories(seq, matchings)
        with tracer.span("metrics.evaluate", video):
            evaluate(seq, matchings, truth, spaces=spaces)

    for k in range(f - 1):
        a, b = seq.frames[k], seq.frames[k + 1]
        ds = neighborhood(d_star[k], cfg.delta, a.shape[0], b.shape[0])
        with tracer.span("assignment.fixed_d_matchings", video):
            fixed_d_matchings(a, b, ds)
    with tracer.span("metrics.cumulative_path_accuracy", video):
        cumulative_path_accuracy(seq, matchings, truth)
    return matchings, score, spaces
