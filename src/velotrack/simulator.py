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
from itertools import accumulate

import numpy as np

from .core import (
    DISAPPEAR,
    FrameSequence,
    InvalidConfigError,
    JsonConfig,
    MatchingVector,
    SpaceCapError,
    TrajectorySet,
    _config_float,
    _config_int,
    assemble_trajectories,
)

# hidden cell positions (cells times frames) simulate may hold; each is
# two float64s, plus a byte of the window mask and a few int64s while
# the window's view is read
_POINT_CAP = 10_000_000
# the most normal draws in one block of frames, unless one frame needs more
_DRAW_BLOCK = 1 << 16


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
        # checked, not converted: metadata.json records the values as given
        for name in ("W", "H", "w", "h", "sigma", "dt"):
            _config_float(getattr(self, name), name)
        if not (self.W >= self.w and self.H >= self.h):
            raise InvalidConfigError("need W >= w and H >= h")
        object.__setattr__(self, "N0", _config_int(self.N0, "N0", 1))
        # n_cells's quotient, which overflows for a large enough region or N0
        area = self.w * self.h
        try:
            finite = area > 0 and math.isfinite((self.W * self.H) / area * self.N0)
        except OverflowError:  # an N0 past the float range
            finite = False
        if not finite:
            raise InvalidConfigError("the region's cell count is not finite")
        object.__setattr__(self, "f", _config_int(self.f, "f", 2))
        object.__setattr__(self, "seed", _config_int(self.seed, "seed", 0))

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


def reflect(x: np.ndarray, length: float | np.ndarray) -> np.ndarray:
    """Fold coordinates into [0, length] by mirror reflection.

    The fold has period 2*length, so arbitrarily large overshoot lands
    correctly; reflect(-1, L) = 1. length may be an array that
    broadcasts against x, one length per axis.
    """
    period = 2.0 * length
    y = np.mod(x, period)
    return np.where(y > length, period - y, y)


def simulate(cfg: SimConfig) -> SimOutput:
    """Run the generative model and observe it through the window.

    The hidden positions of every cell in every frame are checked
    against a fixed cap before anything is allocated. They are one
    (f, n_cells, 2) array, written frame by frame in place; the noise is
    drawn in blocks of frames, which consumes the generator's stream
    exactly as one draw per frame would.
    """
    n, f = cfg.n_cells, cfg.f
    if n * f > _POINT_CAP:
        raise SpaceCapError(
            f"{n} cells over {f} frames are {n * f} hidden positions, cap is {_POINT_CAP}"
        )
    rng = np.random.default_rng(cfg.seed)
    size = np.array([cfg.W, cfg.H])
    hidden = np.empty((f, n, 2))
    hidden[0] = rng.uniform(0.0, 1.0, size=(n, 2)) * size
    vel = np.zeros((n, 2))  # cells in the first frame are still
    step = np.empty((n, 2))
    block = max(1, _DRAW_BLOCK // (2 * n))
    for b in range(1, f, block):
        noise = rng.normal(0.0, cfg.sigma, size=(min(block, f - b), n, 2))
        for k, eps in enumerate(noise, b):
            pos = hidden[k - 1]
            # pos + (vel + eps) * dt
            np.add(vel, eps, out=step)
            step *= cfg.dt
            step += pos
            hidden[k] = reflect(step, size)
            # realized velocity, so the state stays consistent after reflection
            np.subtract(hidden[k], pos, out=vel)
            vel /= cfg.dt

    seq, ids, matchings = _observe(cfg, hidden)
    return SimOutput(
        config=cfg,
        seq=seq,
        matchings=matchings,
        trajectories=assemble_trajectories(seq, matchings),
        hidden_positions=tuple(hidden),
        visible_ids=tuple(ids),
    )


def _observe(cfg: SimConfig, hidden: np.ndarray):
    """The window's view of the (f, n_cells, 2) hidden positions: the
    visible sequence, each frame's visible cell ids and the true
    matchings, all read from one mask of the cells inside the window."""
    x0 = (cfg.W - cfg.w) / 2.0
    y0 = (cfg.H - cfg.h) / 2.0
    x, y = hidden[..., 0], hidden[..., 1]
    inside = (x >= x0) & (x < x0 + cfg.w) & (y >= y0) & (y < y0 + cfg.h)
    # frame by frame, cells ascending
    frame, cell = np.divmod(np.flatnonzero(inside), hidden.shape[1])
    counts = np.count_nonzero(inside, axis=1).tolist()
    ends = list(accumulate(counts))
    cuts = list(zip([0, *ends], ends))  # each frame's slice of frame and cell
    visible = hidden[frame, cell]
    seq = FrameSequence(tuple(visible[a:b] for a, b in cuts), dt=cfg.dt)
    # each cell's index among the visible cells of its frame, or DISAPPEAR
    target = np.where(inside, np.cumsum(inside, axis=1) - 1, DISAPPEAR)
    m = cuts[-1][0]  # the detections of frames 0 .. f - 2
    entries = target[frame[:m] + 1, cell[:m]].tolist()
    matchings = tuple(
        MatchingVector(tuple(entries[a:b]), n_next=n) for (a, b), n in zip(cuts, counts[1:])
    )
    return seq, [cell[a:b] for a, b in cuts], matchings
