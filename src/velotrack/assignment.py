"""Bipartite association between two frames by minimum-cost flow.

Edge costs are squared Euclidean distances. The solver runs successive
shortest augmenting paths on the dense bipartite graph with dual
potentials, so every path search is a Dijkstra over nonnegative reduced
costs. After the k-th augmentation the matched edges form the cheapest
matching of cardinality k; one sweep therefore yields every fixed-d
matching (d = n_a - k unmatched rows) and, by charging the gate cost T
per unmatched row and column, the gated matching as well.

Ties are broken by the lexicographically smallest matching vector. An
alternative optimum can only exist when some unmatched edge has zero
reduced cost under the final potentials (or when two cardinalities give
the same gated total), so an exact lexicographic refinement runs only
when that cheap test fires.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import (
    DISAPPEAR,
    FrameSequence,
    InvalidConfigError,
    InvalidInputError,
    MatchingVector,
)

# relative slack for cost-tie detection and refinement comparisons
_TIE_RTOL = 1e-9


@dataclass(frozen=True)
class BipartiteConfig:
    """Gating setup for the bipartite solver.

    gate_cost charges T per unmatched row (disappearance) and per
    unmatched column (appearance); math.inf disables gating so the
    matching has maximum cardinality. gate_cost None selects quantile
    mode: T is the gate_quantile of forward nearest-neighbour squared
    distances. Edge costs are always squared Euclidean distances.
    """

    gate_cost: float | None = None
    gate_quantile: float = 0.99

    def __post_init__(self):
        if self.gate_cost is not None:
            if not self.gate_cost >= 0:
                raise InvalidConfigError("gate cost must be nonnegative")
        elif not 0.0 < self.gate_quantile < 1.0:
            raise InvalidConfigError("gate quantile must lie strictly between 0 and 1")


def _as_frame(x) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.size == 0:
        a = a.reshape(0, 2)
    if a.ndim != 2 or a.shape[1] != 2:
        raise InvalidInputError("frame must be an (n, 2) array of positions")
    if not np.isfinite(a).all():
        raise InvalidInputError("non-finite coordinates")
    return a


def _cost_matrix(frame_a: np.ndarray, frame_b: np.ndarray) -> np.ndarray:
    diff = frame_a[:, None, :] - frame_b[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


@dataclass
class _SweepState:
    """Solver state after each augmentation of one SSP sweep."""

    row_to: list[np.ndarray]
    cost: list[float]
    u: list[np.ndarray]
    v: list[np.ndarray]


def _sweep(cost: np.ndarray, k_stop: int) -> _SweepState:
    """Successive shortest augmenting paths up to cardinality k_stop."""
    n_a, n_b = cost.shape
    u = np.zeros(n_a)
    v = np.zeros(n_b)
    row_to = np.full(n_a, -1, dtype=np.int64)
    col_to = np.full(n_b, -1, dtype=np.int64)
    out = _SweepState([], [], [], [])
    for _ in range(k_stop):
        free_rows = np.flatnonzero(row_to == -1)
        # seed tentative column distances from every free row at distance 0
        rc = cost[free_rows] - u[free_rows, None] - v[None, :]
        src = np.argmin(rc, axis=0)
        dist = rc[src, np.arange(n_b)]
        pred = free_rows[src]
        done = np.zeros(n_b, dtype=bool)
        row_dist = np.full(n_a, np.inf)
        while True:
            dd = np.where(done, np.inf, dist)
            j = int(np.argmin(dd))
            if col_to[j] == -1:
                break
            done[j] = True
            i = int(col_to[j])
            row_dist[i] = dist[j]  # matched row settles with its column
            nd = dist[j] + cost[i] - u[i] - v
            better = ~done & (nd < dist)
            dist[better] = nd[better]
            pred[better] = i
        big = dist[j]
        # dual update keeps reduced costs nonnegative and path edges tight
        u[free_rows] += big
        settled_rows = np.isfinite(row_dist)
        u[settled_rows] += big - row_dist[settled_rows]
        v[done] += dist[done] - big
        # flip matched edges along the augmenting path
        while True:
            i = int(pred[j])
            prev = int(row_to[i])
            row_to[i] = j
            col_to[j] = i
            if prev == -1:
                break
            j = prev
        matched = np.flatnonzero(row_to >= 0)
        out.row_to.append(row_to.copy())
        out.cost.append(float(cost[matched, row_to[matched]].sum()))
        out.u.append(u.copy())
        out.v.append(v.copy())
    return out


def _tie_possible(cost: np.ndarray, row_to: np.ndarray, u: np.ndarray, v: np.ndarray) -> bool:
    """True when an alternative equal-cost matching may exist.

    Any alternative optimum uses only edges of zero reduced cost, so a
    strictly positive minimum over unmatched edges certifies uniqueness.
    The tolerance covers accumulated float error in the potentials (a
    few n ulps of the cost scale); genuine crafted ties sit at exactly
    zero, while near-ties on continuous data below this scale are
    indistinguishable from ties anyway.
    """
    if cost.size == 0:
        return False
    rc = cost - u[:, None] - v[None, :]
    matched = row_to >= 0
    if matched.any():
        rc[np.flatnonzero(matched), row_to[matched]] = np.inf
    n = max(cost.shape)
    tol = 64.0 * n * np.finfo(np.float64).eps * (1.0 + float(np.abs(cost).max()))
    return bool(rc.min() <= tol)


def _min_cost_of_cardinality(cost: np.ndarray, k: int) -> float:
    if k == 0:
        return 0.0
    return _sweep(cost, k).cost[k - 1]


def _lex_fixed_k(cost: np.ndarray, k: int) -> np.ndarray:
    """Lexicographically smallest min-cost matching of cardinality k.

    Fixes entries row by row, preferring -1 and then ascending columns,
    keeping a choice iff its completion cost ties the row minimum.
    """
    n_a, n_b = cost.shape
    chosen = np.full(n_a, -1, dtype=np.int64)
    avail = list(range(n_b))
    kr = k
    for i in range(n_a):
        rows_after = n_a - i - 1
        cands: list[int] = []
        if rows_after >= kr:
            cands.append(-1)
        if kr >= 1:
            cands.extend(avail)
        if len(cands) == 1:
            pick = 0
        else:
            # Min completion cost from this row on; candidates are scanned
            # in lex order and the first one attaining it wins, so the
            # remaining candidates never need their sub-sweeps.
            row_min = _min_cost_of_cardinality(
                cost[np.ix_(range(i, n_a), avail)], kr
            )
            tol = _TIE_RTOL * (1.0 + abs(row_min))
            vals = []
            pick = -1
            for idx, j in enumerate(cands):
                if j == -1:
                    rest_cols = avail
                    need = kr
                    base = 0.0
                else:
                    rest_cols = [c for c in avail if c != j]
                    need = kr - 1
                    base = float(cost[i, j])
                sub = cost[np.ix_(range(i + 1, n_a), rest_cols)]
                vals.append(base + _min_cost_of_cardinality(sub, need))
                if vals[-1] <= row_min + tol:
                    pick = idx
                    break
            if pick < 0:
                # Summation-order drift pushed every candidate past the
                # tolerance; fall back to the scanned minimum.
                pick = int(np.argmin(vals))
        j = cands[pick]
        chosen[i] = j
        if j != -1:
            avail.remove(j)
            kr -= 1
    return chosen


def _vector_for_k(
    cost: np.ndarray, sweep: _SweepState, k: int, n_b: int
) -> MatchingVector:
    """Matching vector for cardinality k with the lexicographic tie rule."""
    n_a = cost.shape[0]
    if k == 0:
        return MatchingVector((DISAPPEAR,) * n_a, n_next=n_b)
    row_to = sweep.row_to[k - 1]
    if _tie_possible(cost, row_to, sweep.u[k - 1], sweep.v[k - 1]):
        row_to = _lex_fixed_k(cost, k)
    return MatchingVector(tuple(int(t) for t in row_to), n_next=n_b)


def fixed_d_matchings(
    frame_a, frame_b, ds: Iterable[int]
) -> dict[int, MatchingVector]:
    """Cheapest matchings with exactly d unmatched rows, one SSP sweep.

    Feeding several d values shares the sweep; this is what the reduced
    space construction uses.
    """
    a = _as_frame(frame_a)
    b = _as_frame(frame_b)
    n_a, n_b = a.shape[0], b.shape[0]
    d_list = sorted(set(int(d) for d in ds))
    lo = max(0, n_a - n_b)
    for d in d_list:
        if not lo <= d <= n_a:
            raise InvalidInputError(
                f"d={d} infeasible for frame sizes ({n_a}, {n_b})"
            )
    cost = _cost_matrix(a, b)
    k_needed = max(n_a - d for d in d_list) if d_list else 0
    sweep = _sweep(cost, k_needed)
    return {d: _vector_for_k(cost, sweep, n_a - d, n_b) for d in d_list}


def solve_bmcf(
    frame_a, frame_b, cfg: BipartiteConfig | None = None
) -> MatchingVector:
    """Gated bipartite matching.

    Minimizes the sum of matched squared distances plus T per unmatched
    row and column. With T = inf the matching has maximum cardinality.
    Ties are broken by the lexicographically smallest vector, comparing
    across tied cardinalities as well.
    """
    cfg = cfg or BipartiteConfig()
    a = _as_frame(frame_a)
    b = _as_frame(frame_b)
    n_a, n_b = a.shape[0], b.shape[0]
    if cfg.gate_cost is not None:
        gate = float(cfg.gate_cost)
    else:
        gate = gate_cost_from_pair(a, b, cfg.gate_quantile)
    cost = _cost_matrix(a, b)
    kmax = min(n_a, n_b)
    sweep = _sweep(cost, kmax)
    card_costs = np.array([0.0] + sweep.cost)
    events = np.array([(n_a - k) + (n_b - k) for k in range(kmax + 1)], dtype=np.float64)
    if np.isinf(gate):
        ks = [kmax]
    else:
        totals = card_costs + gate * events
        best = float(totals.min())
        tol = _TIE_RTOL * (1.0 + abs(best))
        ks = [k for k in range(kmax + 1) if totals[k] <= best + tol]
    return min(
        (_vector_for_k(cost, sweep, k, n_b) for k in ks),
        key=lambda m: m.entries,
    )


def gate_cost_from_pair(frame_a, frame_b, quantile: float = 0.99) -> float:
    """Quantile of forward nearest-neighbour squared distances of one pair."""
    a = _as_frame(frame_a)
    b = _as_frame(frame_b)
    if a.shape[0] == 0 or b.shape[0] == 0:
        warnings.warn("no distance samples to set the gate cost, using 1.0")
        return 1.0
    d2 = _cost_matrix(a, b)
    return float(np.quantile(d2.min(axis=1), quantile))


def gate_cost_from_sequence(seq: FrameSequence, quantile: float = 0.99) -> float:
    """Quantile of forward nearest-neighbour squared distances of a video.

    For each object of frame k the squared distance to its nearest
    neighbour in frame k+1 enters the pool; the returned gate cost is
    the requested quantile of that pool.
    """
    samples = []
    for t in range(len(seq) - 1):
        a, b = seq.frames[t], seq.frames[t + 1]
        if a.shape[0] and b.shape[0]:
            samples.append(_cost_matrix(a, b).min(axis=1))
    if not samples:
        warnings.warn("no distance samples to set the gate cost, using 1.0")
        return 1.0
    return float(np.quantile(np.concatenate(samples), quantile))


def resolve_gate_cost(seq: FrameSequence, cfg: BipartiteConfig) -> float:
    """Concrete gate cost for a sequence under the given config."""
    if cfg.gate_cost is not None:
        return float(cfg.gate_cost)
    return gate_cost_from_sequence(seq, cfg.gate_quantile)


def solve_bmcf_sequence(
    seq: FrameSequence, cfg: BipartiteConfig | None = None
) -> tuple[float, list[MatchingVector]]:
    """Gated bipartite matching of every frame pair of a video.

    The gate cost is resolved once from the whole sequence and then
    charged on every pair. Returns the gate cost and one matching vector
    per consecutive frame pair.
    """
    gated = BipartiteConfig(gate_cost=resolve_gate_cost(seq, cfg or BipartiteConfig()))
    matchings = [
        solve_bmcf(seq.frames[k], seq.frames[k + 1], gated) for k in range(len(seq) - 1)
    ]
    return gated.gate_cost, matchings
