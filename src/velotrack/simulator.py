"""Synthetic videos: velocity random walks in a box with a visible window.

Cells are seeded uniformly in a closed W x H region and never leave it;
each step adds Gaussian noise to the velocity and reflects overshoot
off the walls. Only the centered w x h window is observed, so cells
wander in and out of view, which is what creates appearance and
disappearance events for the tracker. Ground truth comes from the
hidden cell identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DISAPPEAR,
    FrameSequence,
    InvalidConfigError,
    JsonConfig,
    MatchingVector,
    TrajectorySet,
    assemble_trajectories,
)


@dataclass(frozen=True)
class SimConfig(JsonConfig):
    """Closed-region dimensions, window dimensions, and motion model.

    N0 is the expected number of visible cells; the closed region is
    seeded with round((W*H)/(w*h) * N0) cells so the window holds N0 on
    average. Defaults follow the reference setup: a 680 x 512 window
    inside a region five times larger per axis.
    """

    W: float = 3400.0
    H: float = 2560.0
    w: float = 680.0
    h: float = 512.0
    N0: int = 15
    sigma: float = 1.0
    f: int = 50
    dt: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.W, self.H, self.w, self.h)):
            raise InvalidConfigError("W, H, w and h must be finite")
        if not (self.W >= self.w > 0 and self.H >= self.h > 0):
            raise InvalidConfigError("need W >= w > 0 and H >= h > 0")
        if int(self.N0) != self.N0 or self.N0 < 1:
            raise InvalidConfigError("N0 must be a positive integer")
        # n_cells's quotient, which overflows for a large enough region
        area = self.w * self.h
        if not (area > 0 and math.isfinite((self.W * self.H) / area * self.N0)):
            raise InvalidConfigError("the region's cell count is not finite")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise InvalidConfigError("sigma must be positive and finite")
        if int(self.f) != self.f or self.f < 2:
            raise InvalidConfigError("need at least 2 frames")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise InvalidConfigError("dt must be positive and finite")
        if int(self.seed) != self.seed or self.seed < 0:
            raise InvalidConfigError("seed must be a nonnegative integer")
        object.__setattr__(self, "N0", int(self.N0))
        object.__setattr__(self, "f", int(self.f))
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def n_cells(self) -> int:
        return round((self.W * self.H) / (self.w * self.h) * self.N0)


@dataclass(frozen=True)
class SimOutput:
    """Visible sequence with its ground truth and the hidden states.

    matchings and trajectories are derived from hidden cell identities;
    hidden_positions has one (n_cells, 2) array per frame and
    visible_ids the ascending cell ids seen in each frame, which is also
    the object order of the visible sequence.
    """

    config: SimConfig
    seq: FrameSequence
    matchings: tuple[MatchingVector, ...]
    trajectories: TrajectorySet
    hidden_positions: tuple[np.ndarray, ...]
    visible_ids: tuple[np.ndarray, ...]


def reflect(x: np.ndarray, length: float) -> np.ndarray:
    """Fold coordinates into [0, length] by mirror reflection.

    The fold has period 2*length, so arbitrarily large overshoot lands
    correctly; reflect(-1, L) = 1.
    """
    y = np.mod(x, 2.0 * length)
    return np.where(y > length, 2.0 * length - y, y)


def simulate(cfg: SimConfig) -> SimOutput:
    """Run the generative model and observe it through the window."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_cells
    pos = rng.uniform(0.0, 1.0, size=(n, 2)) * np.array([cfg.W, cfg.H])
    vel = np.zeros((n, 2))  # cells in the first frame are still
    hidden = [pos]
    for _ in range(cfg.f - 1):
        eps = rng.normal(0.0, cfg.sigma, size=(n, 2))
        raw = pos + (vel + eps) * cfg.dt
        new = np.column_stack([reflect(raw[:, 0], cfg.W), reflect(raw[:, 1], cfg.H)])
        # realized velocity, so the state stays consistent after reflection
        vel = (new - pos) / cfg.dt
        pos = new
        hidden.append(pos)

    x0 = (cfg.W - cfg.w) / 2.0
    y0 = (cfg.H - cfg.h) / 2.0
    ids = []
    for p in hidden:
        inside = (
            (p[:, 0] >= x0) & (p[:, 0] < x0 + cfg.w) & (p[:, 1] >= y0) & (p[:, 1] < y0 + cfg.h)
        )
        ids.append(np.flatnonzero(inside))
    frames = tuple(hidden[k][ids[k]] for k in range(cfg.f))
    seq = FrameSequence(frames, dt=cfg.dt)

    matchings = []
    for k in range(cfg.f - 1):
        lookup = {int(c): j for j, c in enumerate(ids[k + 1])}
        entries = tuple(lookup.get(int(c), DISAPPEAR) for c in ids[k])
        matchings.append(MatchingVector(entries, n_next=len(ids[k + 1])))
    trajs = assemble_trajectories(seq, matchings)
    return SimOutput(
        config=cfg,
        seq=seq,
        matchings=tuple(matchings),
        trajectories=trajs,
        hidden_positions=tuple(hidden),
        visible_ids=tuple(ids),
    )
