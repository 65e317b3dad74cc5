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

_sweep runs the sweeps of many pairs in lockstep, one padded batch
with a vectorized Dijkstra step, and keeps each pair's snapshots bit
for bit as a sweep of that pair alone would (oracle.reference_sweep).
track() sweeps all frame pairs of a video in one batch; the gated
choice of every pair and the fixed-d seeds of every reduced space are
then read from that one _Sweep, which shares each refinement between
them. The certificate's first test, the smallest reduced cost off the
matching, runs for all the matchings read in one batch, so
_tie_possible runs only for those that test does not clear.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import (
    COORD_LIMIT,
    FrameSequence,
    InvalidConfigError,
    InvalidInputError,
    MatchingVector,
    _coords_in_range,
)

# relative slack for cost-tie detection and refinement comparisons
_TIE_RTOL = 1e-9
# padded cells per chunk of the batched sweep: bounds its temporary arrays
_SWEEP_CELLS = 1 << 16


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
    if not _coords_in_range(a):
        raise InvalidInputError(f"coordinates must be finite and within +-{COORD_LIMIT:g}")
    return a


def _cost_matrix(frame_a: np.ndarray, frame_b: np.ndarray) -> np.ndarray:
    diff = frame_a[:, None, :] - frame_b[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


@dataclass
class _SweepState:
    """Solver state of one SSP sweep, entry k - 1 after k augmentations.

    steps counts the columns its Dijkstra searches settled, the free
    column that ends each search included.
    """

    row_to: Sequence[np.ndarray]
    cost: Sequence[float]
    u: Sequence[np.ndarray]
    v: Sequence[np.ndarray]
    steps: int = 0


@dataclass
class _Chunk:
    """One padded chunk of a batched sweep and its snapshots.

    Position q holds pair order[q] of the chunk; cost[q] is its cost
    matrix padded with +inf and tol[q] its tolerance in _tie_possible.
    row_to, u and v are indexed [k - 1, q, i] after k augmentations
    (padded rows hold row_to = -2); card_cost is indexed [k - 1, q] and
    is +inf past the pair's k_stop.
    """

    order: np.ndarray
    cost: np.ndarray
    tol: np.ndarray
    row_to: np.ndarray
    u: np.ndarray
    v: np.ndarray
    card_cost: np.ndarray
    steps: np.ndarray


def _sweep(costs: list[np.ndarray], k_stops: list[int] | None = None) -> "_Sweep":
    """Successive shortest augmenting paths for many pairs in lockstep.

    Pair p is augmented up to cardinality k_stops[p] (default: its
    kmax). The pairs are padded into (pairs, rows, columns) chunks of at
    most _SWEEP_CELLS cells (a larger pair goes alone) and each chunk is
    swept by _sweep_chunk.
    """
    if k_stops is None:
        k_stops = [min(c.shape) for c in costs]
    chunks: list[tuple[int, _Chunk]] = []
    p0 = 0
    while p0 < len(costs):
        p1 = p0 + 1
        rows, cols = costs[p0].shape
        while p1 < len(costs):
            r, c = max(rows, costs[p1].shape[0]), max(cols, costs[p1].shape[1])
            if (p1 - p0 + 1) * r * c > _SWEEP_CELLS:
                break
            rows, cols, p1 = r, c, p1 + 1
        chunks.append((p0, _sweep_chunk(costs[p0:p1], k_stops[p0:p1])))
        p0 = p1
    return _Sweep(costs, k_stops, chunks)


def _sweep_chunk(costs: list[np.ndarray], k_stops: list[int]) -> _Chunk:
    """_sweep on one padded chunk of pairs.

    Padded cells cost +inf, so padded columns are never reached, and
    padded rows hold row_to = -2, never free and never matched. The
    pairs are ordered by k_stop, largest first, so the pairs augmenting
    in round k are a prefix. Each round augments them in lockstep: one
    Dijkstra step is one argmin and one relaxation over the pairs still
    searching, and a pair drops out of the search when it reaches a
    free column. Every element sees the float operations of a sweep of
    its pair alone (oracle.reference_sweep), so every snapshot is bit
    for bit the same; the matched costs of each pair are summed in row
    order like a single pair's. Arrays are indexed flat, pair * width +
    position.
    """
    n_p = len(costs)
    order = np.argsort([-k for k in k_stops], kind="stable")
    n_a = np.array([costs[p].shape[0] for p in order], dtype=np.int64)
    n_b = np.array([costs[p].shape[1] for p in order], dtype=np.int64)
    k_stop = np.array([k_stops[p] for p in order], dtype=np.int64)
    rows, cols = int(n_a.max()), int(n_b.max())
    n_k = int(k_stop[0])
    cost = np.full((n_p, rows, cols), np.inf)
    for q, p in enumerate(order):
        cost[q, : n_a[q], : n_b[q]] = costs[p]
    # _tie_possible's tolerance: a few n ulps of each pair's cost scale
    real = (np.arange(rows) < n_a[:, None])[:, :, None]
    real = real & (np.arange(cols) < n_b[:, None])[:, None, :]
    scale = np.where(real, np.abs(cost), 0.0).max(axis=(1, 2), initial=0.0)
    tol = 64.0 * np.maximum(n_a, n_b) * np.finfo(np.float64).eps * (1.0 + scale)
    cost_rows = cost.reshape(n_p * rows, cols)
    u = np.zeros((n_p, rows))
    v = np.zeros((n_p, cols))
    row_to = np.where(np.arange(rows) < n_a[:, None], -1, -2)
    col_to = np.full((n_p, cols), -1, dtype=np.int64)
    uf, row_tof, col_tof = u.reshape(-1), row_to.reshape(-1), col_to.reshape(-1)
    pair = np.arange(n_p)
    pair_c, pair_r = pair * cols, pair * rows
    steps = np.zeros(n_p, dtype=np.int64)
    # filled in per pair when its search ends
    big = np.empty((n_p, 1))
    row_dist = np.empty((n_p, rows))
    preds = np.empty((n_p, cols), dtype=np.int64)
    ends = np.empty(n_p, dtype=np.int64)
    row_distf, predsf = row_dist.reshape(-1), preds.reshape(-1)
    snap_row_to = np.empty((n_k, n_p, rows), dtype=np.int64)
    snap_u = np.empty((n_k, n_p, rows))
    snap_v = np.empty((n_k, n_p, cols))
    snap_cost = np.full((n_k, n_p), np.inf)
    # the pairs making augmentation k + 1
    n_live = np.count_nonzero(k_stop > np.arange(n_k)[:, None], axis=1)
    for k in range(n_k):
        m = int(n_live[k])
        um, vm = u[:m], v[:m]
        free = row_to[:m] == -1
        row_dist[:m] = np.inf
        # seed tentative column distances from every free row at distance 0
        rc = np.where(free[:, :, None], cost[:m] - um[:, :, None] - vm[:, None, :], np.inf)
        pred = rc.argmin(axis=1)
        dist = rc.min(axis=1)
        open_ = np.ones((m, cols), dtype=bool)
        # search state of the pairs at still searching
        at, at_c, at_r, own_c, vc = pair[:m], pair_c[:m], pair_r[:m], pair_c[:m], vm
        n_iter = 0
        while True:
            n_iter += 1
            j = dist.argmin(axis=1)
            fj = own_c + j
            dj = dist.reshape(-1)[fj]
            i = col_tof[at_c + j]
            reached = i < 0
            if reached.any():
                out = at[reached]
                steps[out] += n_iter
                big[out, 0] = dj[reached]
                preds[out] = pred[reached]
                ends[out] = j[reached]
                if reached.all():
                    break
                keep = ~reached
                at, dist, pred, open_, vc = at[keep], dist[keep], pred[keep], open_[keep], vc[keep]
                at_c, at_r, own_c = at_c[keep], at_r[keep], own_c[: at.shape[0]]
                j, i, dj = j[keep], i[keep], dj[keep]
                fj = own_c + j
            dist.reshape(-1)[fj] = np.inf
            open_.reshape(-1)[fj] = False
            fi = at_r + i
            row_distf[fi] = dj  # the matched row settles with its column
            nd = dj[:, None] + cost_rows[fi] - uf[fi][:, None] - vc
            better = nd < dist
            better &= open_
            np.copyto(dist, nd, where=better)
            np.copyto(pred, i[:, None], where=better)
        # dual update keeps reduced costs nonnegative and path edges
        # tight; a settled column's distance is its matched row's
        bm, rd = big[:m], row_dist[:m]
        col_dist = row_distf[pair_r[:m, None] + np.maximum(col_to[:m], 0)]
        np.add(um, bm, out=um, where=free)
        np.add(um, bm - rd, out=um, where=np.isfinite(rd))
        np.add(vm, col_dist - bm, out=vm, where=(col_to[:m] >= 0) & np.isfinite(col_dist))
        # flip matched edges along the augmenting paths
        walk, j = pair[:m], ends[:m]
        while True:
            i = predsf[walk * cols + j]
            fi = walk * rows + i
            prev = row_tof[fi]
            row_tof[fi] = j
            col_tof[walk * cols + j] = i
            more = prev >= 0
            if not more.any():
                break
            walk, j = walk[more], prev[more]
        snap_row_to[k] = row_to
        snap_u[k] = u
        snap_v[k] = v
        # each pair has k + 1 matched rows: one row-order sum per pair
        lp, li = np.nonzero(row_to[:m] >= 0)
        snap_cost[k, :m] = cost[lp, li, row_to[lp, li]].reshape(m, k + 1).sum(axis=1)
    return _Chunk(order, cost, tol, snap_row_to, snap_u, snap_v, snap_cost, steps)


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


def _min_costs(costs: list[np.ndarray], ks: list[int]) -> list[float]:
    """Min cost of a cardinality-k matching of each matrix, one batched sweep."""
    sw = _sweep(costs, ks)
    return [float(sw.card_cost[p, k]) for p, k in enumerate(ks)]


def _lex_fixed_k(cost: np.ndarray, k: int) -> np.ndarray:
    """Lexicographically smallest min-cost matching of cardinality k.

    Fixes entries row by row, preferring -1 and then ascending columns,
    keeping the first choice whose completion cost ties the row minimum.
    Each row sweeps its minimum and every candidate's completion in one
    batch.
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
            rest = range(i + 1, n_a)
            subs = [cost[np.ix_(range(i, n_a), avail)]]
            needs = [kr]
            for j in cands:
                subs.append(cost[np.ix_(rest, [c for c in avail if c != j])])
                needs.append(kr if j == -1 else kr - 1)
            row_min, *completions = _min_costs(subs, needs)
            tol = _TIE_RTOL * (1.0 + abs(row_min))
            vals = [
                (0.0 if j == -1 else float(cost[i, j])) + m
                for j, m in zip(cands, completions)
            ]
            hits = [idx for idx, val in enumerate(vals) if val <= row_min + tol]
            # Summation-order drift can push every candidate past the
            # tolerance; fall back to the minimum then.
            pick = hits[0] if hits else int(np.argmin(vals))
        j = cands[pick]
        chosen[i] = j
        if j != -1:
            avail.remove(j)
            kr -= 1
    return chosen


class _Sweep:
    """A batched SSP sweep of many pairs and the matchings read from it.

    card_cost[p, k] is the min cost of a cardinality-k matching of pair
    p (0 at k = 0, +inf past the pair's k_stop). rows() reads many
    (pair, k) matchings at once and memoizes them, so the gated matching
    and the fixed-d seeds of a pair share each tie refinement. It runs
    the certificate's first test for all of them in one batch per chunk
    (_pre_test) and calls _tie_possible only where that test does not
    clear; tie_refinements[p] counts the cardinalities of pair p whose
    certificate fired.
    """

    def __init__(
        self, costs: list[np.ndarray], k_stops: list[int], chunks: list[tuple[int, _Chunk]]
    ):
        n_p = len(costs)
        self.costs = costs
        self.n_a = np.array([c.shape[0] for c in costs], dtype=np.int64)
        self.n_b = np.array([c.shape[1] for c in costs], dtype=np.int64)
        self.k_stop = np.array(k_stops, dtype=np.int64)
        n_k = int(self.k_stop.max(initial=0))
        self.card_cost = np.full((n_p, n_k + 1), np.inf)
        self.card_cost[:, 0] = 0.0
        self.steps = np.zeros(n_p, dtype=np.int64)
        self.tie_refinements = np.zeros(n_p, dtype=np.int64)
        self._chunks = [ch for _, ch in chunks]
        self._chunk_of = np.empty(n_p, dtype=np.int64)
        self._pos = np.empty(n_p, dtype=np.int64)
        for c, (p0, ch) in enumerate(chunks):
            p = p0 + ch.order
            self._chunk_of[p] = c
            self._pos[p] = np.arange(p.shape[0])
            k = ch.card_cost.shape[0]
            self.card_cost[p, 1 : k + 1] = ch.card_cost.T
            self.steps[p] = ch.steps
        # memo of rows(): _slot[p, k] indexes _rows, -1 when not read yet
        self._slot = np.full((n_p, n_k + 1), -1, dtype=np.int64)
        self._rows = np.empty((0, int(self.n_a.max(initial=0))), dtype=np.int64)

    def state(self, p: int) -> _SweepState:
        """Pair p's snapshots, as a sweep of that pair alone returns them."""
        ch, q, k = self._chunks[self._chunk_of[p]], self._pos[p], self.k_stop[p]
        n_a, n_b = self.n_a[p], self.n_b[p]
        return _SweepState(
            ch.row_to[:k, q, :n_a],
            self.card_cost[p, 1 : k + 1],
            ch.u[:k, q, :n_a],
            ch.v[:k, q, :n_b],
            int(self.steps[p]),
        )

    def _pre_test(self, pairs: np.ndarray, ks: np.ndarray) -> np.ndarray:
        """_tie_possible's first test for many (pair, k), one batch per
        chunk: True where the smallest reduced cost off the sweep's
        k-matching clears the pair's tolerance, so that no other min-cost
        k-matching exists. k = 0 is never cleared (nothing to test)."""
        out = np.zeros(pairs.shape, dtype=bool)
        for c, ch in enumerate(self._chunks):
            sel = np.flatnonzero((self._chunk_of[pairs] == c) & (ks > 0))
            if sel.shape[0]:
                q, k = self._pos[pairs[sel]], ks[sel] - 1
                row_to = ch.row_to[k, q]
                # padded cells stay +inf, matched cells are taken out
                rc = ch.cost[q] - ch.u[k, q][:, :, None] - ch.v[k, q][:, None, :]
                i, r = np.nonzero(row_to >= 0)
                rc[i, r, row_to[i, r]] = np.inf
                out[sel] = rc.min(axis=(1, 2), initial=np.inf) > ch.tol[q]
        return out

    def rows(self, pairs, ks) -> np.ndarray:
        """Min-cost matchings of cardinality ks[i] of pairs[i] with the
        lexicographic tie rule, one row each, padded with -1 to the
        widest pair."""
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1)
        ks = np.asarray(ks, dtype=np.int64).reshape(-1)
        new = self._slot[pairs, ks] < 0
        if new.any():
            n_k1 = self._slot.shape[1]
            key = np.unique(pairs[new] * n_k1 + ks[new])
            p_new, k_new = np.divmod(key, n_k1)
            block = np.full((key.shape[0], self._rows.shape[1]), -1, dtype=np.int64)
            for c, ch in enumerate(self._chunks):
                sel = np.flatnonzero((self._chunk_of[p_new] == c) & (k_new > 0))
                if sel.shape[0]:
                    q = self._pos[p_new[sel]]
                    block[sel, : ch.row_to.shape[2]] = ch.row_to[k_new[sel] - 1, q]
            np.maximum(block, -1, out=block)  # padded rows hold -2
            for i in np.flatnonzero((k_new > 0) & ~self._pre_test(p_new, k_new)):
                p, k = int(p_new[i]), int(k_new[i])
                ch, q = self._chunks[self._chunk_of[p]], self._pos[p]
                n_a, n_b = self.n_a[p], self.n_b[p]
                cost, u, v = self.costs[p], ch.u[k - 1, q, :n_a], ch.v[k - 1, q, :n_b]
                if _tie_possible(cost, block[i, :n_a], u, v):
                    self.tie_refinements[p] += 1
                    block[i, :n_a] = _lex_fixed_k(cost, k)
            self._slot[p_new, k_new] = self._rows.shape[0] + np.arange(key.shape[0])
            self._rows = np.concatenate([self._rows, block])
        return self._rows[self._slot[pairs, ks]]

    def vectors(self, pairs, ks) -> list[MatchingVector]:
        """rows() as matching vectors."""
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1)
        return [
            MatchingVector(tuple(r[:n].tolist()), n_next=m)
            for r, n, m in zip(self.rows(pairs, ks), self.n_a[pairs], self.n_b[pairs])
        ]

    def gated(self, gate: float) -> np.ndarray:
        """Each pair's cardinality of the cheapest matching charging gate
        per unmatched row and column; the sweep must reach every kmax.

        Cardinalities whose gated totals tie are compared by their
        vectors, so the lexicographic rule holds across them too.
        """
        kmax = np.minimum(self.n_a, self.n_b)
        if np.isinf(gate):
            return kmax
        ks = np.arange(self.card_cost.shape[1])
        # unmatched rows plus unmatched columns at each cardinality
        events = ((self.n_a + self.n_b)[:, None] - 2 * ks).astype(np.float64)
        totals = self.card_cost + gate * events
        best = totals.min(axis=1)
        tied = totals <= (best + _TIE_RTOL * (1.0 + np.abs(best)))[:, None]
        tied &= ks <= kmax[:, None]
        k = tied.argmax(axis=1)
        for p in np.flatnonzero(tied.sum(axis=1) > 1):
            cands = np.flatnonzero(tied[p])
            rows = self.rows(np.full(cands.shape, p), cands)[:, : self.n_a[p]]
            k[p] = cands[min(range(cands.shape[0]), key=lambda i: tuple(rows[i]))]
        return k


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
    sw = _sweep([_cost_matrix(a, b)], [k_needed])
    return dict(zip(d_list, sw.vectors([0] * len(d_list), [n_a - d for d in d_list])))


def solve_bmcf(
    frame_a, frame_b, cfg: BipartiteConfig | None = None
) -> MatchingVector:
    """Gated bipartite matching.

    Minimizes the sum of matched squared distances plus T per unmatched
    row and column. With T = inf the matching has maximum cardinality.
    Ties are broken by the lexicographically smallest vector, comparing
    across tied cardinalities as well.
    """
    cost = _cost_matrix(_as_frame(frame_a), _as_frame(frame_b))
    sw = _sweep([cost])
    return sw.vectors([0], sw.gated(_gate_from_costs([cost], cfg or BipartiteConfig())))[0]


def _gate_from_costs(costs: list[np.ndarray], cfg: BipartiteConfig) -> float:
    """cfg's fixed gate cost, or the quantile of the row minima of the
    nonempty cost matrices (1.0, with a warning, when there are none)."""
    if cfg.gate_cost is not None:
        return float(cfg.gate_cost)
    samples = [c.min(axis=1) for c in costs if c.size]
    if not samples:
        warnings.warn("no distance samples to set the gate cost, using 1.0")
        return 1.0
    return float(np.quantile(np.concatenate(samples), cfg.gate_quantile))


def _pair_costs(seq: FrameSequence) -> list[np.ndarray]:
    return [_cost_matrix(seq.frames[k], seq.frames[k + 1]) for k in range(len(seq) - 1)]


def resolve_gate_cost(seq: FrameSequence, cfg: BipartiteConfig) -> float:
    """Concrete gate cost for a sequence under the given config.

    In quantile mode, for each object of frame k the squared distance to
    its nearest neighbour in frame k+1 enters the pool, and the gate
    cost is the requested quantile of that pool.
    """
    return _gate_from_costs(_pair_costs(seq), cfg)


def solve_bmcf_sequence(
    seq: FrameSequence, cfg: BipartiteConfig | None = None
) -> tuple[float, list[MatchingVector]]:
    """Gated bipartite matching of every frame pair of a video.

    The gate cost is resolved once from the whole sequence and then
    charged on every pair, and all pairs are swept in one batch.
    Returns the gate cost and one matching vector per consecutive frame
    pair.
    """
    costs = _pair_costs(seq)
    gate = _gate_from_costs(costs, cfg or BipartiteConfig())
    sw = _sweep(costs)
    return gate, sw.vectors(range(len(costs)), sw.gated(gate))
