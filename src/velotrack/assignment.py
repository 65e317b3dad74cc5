"""Bipartite association between two frames by minimum-cost flow.

Edge costs are squared Euclidean distances. The solver runs successive
shortest augmenting paths on the dense bipartite graph with dual
potentials, so every path search is a Dijkstra over nonnegative reduced
costs. After the k-th augmentation the matched edges form the cheapest
matching of cardinality k; one sweep therefore yields every fixed-d
matching (d = n_a - k unmatched rows) and, by charging the gate cost T
per unmatched row and column, the gated matching as well.

Ties are broken by the lexicographically smallest matching vector. The
potentials after k augmentations are an optimal dual of the fixed-k
matching LP: every free row carries the same row potential U, every
free column has v = 0, matched columns have v <= 0, so
(alpha_i = u_i - U, beta_j = v_j, lambda = U) is feasible and
complementary to the matching. Every other min-cost k-matching is
complementary to that same dual, so it uses only tight edges (zero
reduced cost) and leaves unmatched only vertices of zero dual. Its
symmetric difference with the sweep's matching therefore lies in the
tight subgraph and holds an alternating cycle, an even alternating path
from an exposed vertex to a matched zero-dual vertex, or a tight
augmenting path. _tie_possible searches for these in O(n^2); only when
it finds one does the exact lexicographic refinement run. Ties between
cardinalities of equal gated total are compared separately.

track() holds one _PairSweep per frame pair, so the gated matching and
the fixed-d seeds of its reduced space read one sweep and share each
refinement.
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


def _reach(adj: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Rows reachable from start (included) along the row graph adj."""
    reach = start.copy()
    frontier = start
    while frontier.any():
        frontier = adj[frontier].any(axis=0) & ~reach
        reach |= frontier
    return reach


def _has_cycle(adj: np.ndarray) -> bool:
    """True when the directed graph adj has a cycle (Kahn's peeling)."""
    alive = np.ones(adj.shape[0], dtype=bool)
    indeg = adj.sum(axis=0)
    while True:
        drop = alive & (indeg == 0)
        if not drop.any():
            return bool(alive.any())
        alive &= ~drop
        indeg -= adj[drop].sum(axis=0)


def _tie_possible(cost: np.ndarray, row_to: np.ndarray, u: np.ndarray, v: np.ndarray) -> bool:
    """True unless the tight subgraph certifies the k-matching unique.

    (u, v) are the potentials of the sweep after k augmentations. With U
    the common potential of the free rows, (alpha = u - U, beta = v,
    lambda = U) is an optimal dual of the fixed-k LP, and any other
    min-cost k-matching M' is complementary to it: M' uses only tight
    edges and leaves unmatched only rows with u_i = U and columns with
    v_j = 0. Each component of M' xor M is then, in the tight subgraph,
    - an alternating cycle,
    - an even alternating path from an exposed row (column) to a matched
      row with u = U (a matched column with v = 0), or
    - an augmenting or a reducing path; the two come in pairs, and
      only the augmenting one is searched for, which fires
      conservatively (the last augmentation is usually reducible).
    Alternating paths are walks in the row graph i -> col_to[j] over the
    tight non-matching edges (i, j), so all three checks are
    reachability or cycle tests on an n_a x n_a graph, O(n^2).

    The tolerance, a few n ulps of the cost scale, covers accumulated
    float error in the potentials and applies both to tightness and to
    the zero-dual tests; a dual infeasible beyond it also fires.
    Genuine crafted ties sit at exactly zero, while near-ties on
    continuous data below this scale are indistinguishable from ties.
    """
    if cost.size == 0:
        return False
    n = max(cost.shape)
    tol = 64.0 * n * np.finfo(np.float64).eps * (1.0 + float(np.abs(cost).max()))
    rc = cost - u[:, None] - v[None, :]
    matched = row_to >= 0
    m_rows = np.flatnonzero(matched)
    m_cols = row_to[m_rows]
    rc[m_rows, m_cols] = np.inf
    rc_min = float(rc.min())
    if rc_min > tol:
        return False
    if rc_min < -tol:
        return True
    tight = rc <= tol
    col_free = np.ones(cost.shape[1], dtype=bool)
    col_free[m_cols] = False
    adj = np.zeros((cost.shape[0], cost.shape[0]), dtype=bool)
    adj[:, m_rows] = tight[:, m_cols]
    to_free_col = tight[:, col_free].any(axis=1)
    free = ~matched
    if free.any():
        # paths from exposed rows run forward: r -> col_to[j] for tight (r, j)
        from_free_row = _reach(adj, free)
        if to_free_col[from_free_row].any():
            return True
        top = float(u[free].min())
        if (u[from_free_row & matched] >= top - tol).any():
            return True
    # paths from exposed columns enter a matched row i, leave by its column
    # row_to[i] and continue to rows with a tight edge into it: backward
    from_free_col = _reach(adj.T, to_free_col & matched)
    zero_col = np.zeros(cost.shape[0], dtype=bool)
    zero_col[m_rows] = v[m_cols] >= -tol
    if (from_free_col & zero_col).any():
        return True
    return _has_cycle(adj)


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


class _PairSweep:
    """One frame pair's cost matrix and SSP sweep, read at any cardinality.

    Matching vectors are memoized per cardinality k, so the gated
    matching and the fixed-d seeds of the pair's reduced space share one
    sweep and each tie refinement runs at most once per k.
    tie_refinements counts the cardinalities whose certificate fired.
    """

    def __init__(self, frame_a, frame_b, k_stop: int | None = None):
        a = _as_frame(frame_a)
        b = _as_frame(frame_b)
        self.n_a, self.n_b = a.shape[0], b.shape[0]
        self.kmax = min(self.n_a, self.n_b)
        self.cost = _cost_matrix(a, b)
        self.sweep = _sweep(self.cost, self.kmax if k_stop is None else k_stop)
        self.tie_refinements = 0
        self._vectors: dict[int, MatchingVector] = {}

    def vector(self, k: int) -> MatchingVector:
        """Min-cost matching of cardinality k with the lexicographic tie rule."""
        if k not in self._vectors:
            if k == 0:
                row_to = np.full(self.n_a, DISAPPEAR)
            else:
                s = self.sweep
                row_to = s.row_to[k - 1]
                if _tie_possible(self.cost, row_to, s.u[k - 1], s.v[k - 1]):
                    self.tie_refinements += 1
                    row_to = _lex_fixed_k(self.cost, k)
            self._vectors[k] = MatchingVector(tuple(int(t) for t in row_to), n_next=self.n_b)
        return self._vectors[k]

    def fixed_d(self, ds: Iterable[int]) -> dict[int, MatchingVector]:
        """Cheapest matching with exactly d unmatched rows, for each d."""
        return {d: self.vector(self.n_a - d) for d in ds}

    def gated(self, gate: float) -> MatchingVector:
        """Cheapest matching charging gate per unmatched row and column.

        Cardinalities whose gated totals tie are compared by their
        vectors, so the lexicographic rule holds across them too.
        """
        if np.isinf(gate):
            ks = [self.kmax]
        else:
            card_costs = np.array([0.0] + self.sweep.cost)
            events = np.array(
                [(self.n_a - k) + (self.n_b - k) for k in range(self.kmax + 1)],
                dtype=np.float64,
            )
            totals = card_costs + gate * events
            best = float(totals.min())
            tol = _TIE_RTOL * (1.0 + abs(best))
            ks = [k for k in range(self.kmax + 1) if totals[k] <= best + tol]
        return min((self.vector(k) for k in ks), key=lambda m: m.entries)


def fixed_d_matchings(
    frame_a, frame_b, ds: Iterable[int]
) -> dict[int, MatchingVector]:
    """Cheapest matchings with exactly d unmatched rows, one SSP sweep.

    Feeding several d values shares the sweep.
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
    k_needed = max(n_a - d for d in d_list) if d_list else 0
    return _PairSweep(a, b, k_needed).fixed_d(d_list)


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
    if cfg.gate_cost is not None:
        gate = float(cfg.gate_cost)
    else:
        gate = gate_cost_from_pair(a, b, cfg.gate_quantile)
    return _PairSweep(a, b).gated(gate)


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


def _gated_pairs(
    seq: FrameSequence, cfg: BipartiteConfig | None = None
) -> tuple[float, list[_PairSweep], list[MatchingVector]]:
    """Resolve the gate once, sweep every frame pair, read the gated matchings."""
    gate = resolve_gate_cost(seq, cfg or BipartiteConfig())
    pairs = [_PairSweep(seq.frames[k], seq.frames[k + 1]) for k in range(len(seq) - 1)]
    return gate, pairs, [p.gated(gate) for p in pairs]


def solve_bmcf_sequence(
    seq: FrameSequence, cfg: BipartiteConfig | None = None
) -> tuple[float, list[MatchingVector]]:
    """Gated bipartite matching of every frame pair of a video.

    The gate cost is resolved once from the whole sequence and then
    charged on every pair. Returns the gate cost and one matching vector
    per consecutive frame pair.
    """
    gate, _, matchings = _gated_pairs(seq, cfg)
    return gate, matchings
