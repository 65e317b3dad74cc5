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
reduced cost) and leaves unmatched only vertices of zero dual, and
every k-matching that does so costs the minimum. They differ from the
sweep's matching by cycles of one directed graph (_exchange_graph), so
the certificate is a cycle test, O(n^2); only when it finds one does
_lex_walk refine the matching, row by row, on the same graph. Ties
between cardinalities of equal gated total are compared separately.

_sweep runs the sweeps of many pairs of point sets in padded chunks
and keeps each pair's snapshots bit for bit as a sweep of that pair
alone would (oracle.reference_sweep). Most augmentations settle a free
column in their first Dijkstra step. Until one settles a matched
column, every v is 0 and the free rows share one potential U, so such
an augmentation matches the free row of smallest minimum c to its
cheapest column and adds fl(c - U) to every free row's potential.
_one_step_prefix computes each pair's leading run of them in closed
form, up to the first cheapest column already taken or the first tie,
exact or after rounding, that leaves the step in doubt. Each pair
then makes the augmentations after it on its own, with the Dijkstra
steps of a sweep of that pair alone. Only the chunks compute costs,
and each records its rows' minima, from which _Sweep.gate reads the
gate.
track() sweeps all frame pairs of a video in one batch and reads from
that one _Sweep the gate, every pair's gated cardinality and, in one
read, the fixed-d seeds of every reduced space, the gated matchings
among them. The certificate's first test, the smallest reduced cost
off the matching, runs for all the matchings of a read in one batch
per chunk, and the cycle test decides those it leaves open. The sweep
keeps only refined rows, each refined once from its snapshot.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import (
    FrameSequence,
    InvalidInputError,
    MatchingVector,
    _FRACTION,
    _config_float,
    _config_int,
)

# relative slack for ties between the gated totals of two cardinalities
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
            _config_float(self.gate_cost, "gate_cost", ("nonnegative", lambda x: x >= 0.0))
        else:
            _config_float(self.gate_quantile, "gate_quantile", _FRACTION)


def _cuts(cells, cap: int) -> list[tuple[int, int]]:
    """Consecutive ranges of items whose cells sum to at most cap; an
    item larger than cap goes alone."""
    bounds, total = [0], 0
    for i, c in enumerate(cells):
        if total + c > cap and i > bounds[-1]:
            bounds.append(i)
            total = 0
        total += c
    bounds.append(len(cells))
    return list(zip(bounds[:-1], bounds[1:]))


def _sq_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances of broadcast points (last axis x, y): the edge costs."""
    dx = a[..., 0] - b[..., 0]
    dy = a[..., 1] - b[..., 1]
    return dx * dx + dy * dy


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

    Position q holds the chunk's q-th pair; cost[q] is its cost matrix
    padded with +inf and tol[q] its certificate tolerance; row_min
    holds the minima of the real rows of pairs with n_b > 0. row_to, u
    and v are indexed [k, q, i] after k augmentations, k from 0 up to
    the pair's k_stop (padded rows hold row_to = -2 and u = 0; entries
    past k_stop are not read); card_cost is indexed [k, q] and is +inf
    past the pair's k_stop. one_step[q] counts the pair's leading
    augmentations that _one_step_prefix settled without a Dijkstra
    search.
    """

    cost: np.ndarray
    tol: np.ndarray
    row_min: np.ndarray
    row_to: np.ndarray
    u: np.ndarray
    v: np.ndarray
    card_cost: np.ndarray
    steps: np.ndarray
    one_step: np.ndarray


def _sweep(a: Sequence[np.ndarray], b: Sequence[np.ndarray], k_stops=None) -> "_Sweep":
    """Successive shortest augmenting paths for many pairs in one batch.

    Pair p matches the (n, 2) points a[p] to b[p] up to cardinality
    k_stops[p] (default: its kmax). The pairs are grouped into chunks of
    at most _SWEEP_CELLS padded (pairs, rows, columns) cells (a larger
    pair goes alone), and _sweep_chunk computes and sweeps each chunk.
    """
    if k_stops is None:
        k_stops = [min(len(x), len(y)) for x, y in zip(a, b)]
    chunks: list[tuple[int, _Chunk]] = []
    p0 = 0
    while p0 < len(a):
        p1 = p0 + 1
        rows, cols = len(a[p0]), len(b[p0])
        while p1 < len(a):
            r, c = max(rows, len(a[p1])), max(cols, len(b[p1]))
            if (p1 - p0 + 1) * r * c > _SWEEP_CELLS:
                break
            rows, cols, p1 = r, c, p1 + 1
        chunks.append((p0, _sweep_chunk(a[p0:p1], b[p0:p1], k_stops[p0:p1])))
        p0 = p1
    return _Sweep([len(x) for x in a], [len(y) for y in b], k_stops, chunks)


def _one_step_prefix(cost, col, c_min, real_a, k_stop):
    """Each pair's one-step prefix in closed form: its leading
    augmentations whose first Dijkstra step settles a free column.

    Until an augmentation settles a matched column, v stays 0 and every
    free row has the same potential U, so the reduced cost of a free
    row's cell is fl(c - U), which is monotone in c. If the cheapest
    free-row cell (r, j) is the only cell at the smallest fl(c - U) and
    j is free, the augmentation settles j alone: r takes j and every
    free row, r included, gains d = fl(c - U). Row minima do not move,
    so augmentation k matches the row of the k-th smallest minimum c_k
    (in the stable order) to its cheapest column, and U_k = U_{k-1} +
    fl(c_k - U_{k-1}), which rounding can leave off c_k. The prefix ends
    at k_stop, at the first row whose cheapest column an earlier row
    took, or at the first d that the next row's minimum or the row's own
    second-cheapest cell ties, exactly or after rounding. Every cell of
    a later row costs at least the next minimum, and every other cell of
    the row at least its second-cheapest, so short of those ties the
    step is the one described.

    Returns (n_one, rank, col, pot): n_one[q] augmentations of pair q
    settle in one step; row i is matched in augmentation rank[q, i] + 1,
    when that is at most n_one[q], to column col[q, i] (padded rows
    hold rank -1 and col -2); pot[q, k] is the free rows' U after k
    augmentations, for k <= n_one[q].
    """
    n_p, rows, cols = cost.shape
    n_k = int(k_stop.max())
    pq = np.arange(n_p)[:, None]
    # the second-cheapest cell of each row: hide the cheapest, look again
    flat = cost.reshape(-1)
    base = np.arange(0, flat.shape[0], cols)
    cheapest = base + col.reshape(-1)
    flat[cheapest] = np.inf
    second = flat[base + cost.argmin(axis=2).reshape(-1)].reshape(n_p, rows)
    flat[cheapest] = c_min.reshape(-1)
    order = np.argsort(c_min, axis=1, kind="stable")
    lead = order[:, :n_k]
    sweeping = np.arange(n_k) < k_stop[:, None]
    # the rows' minima in match order, and 0 where the sweep stops, so
    # that U stays finite
    srt = c_min[pq, order]
    c = np.where(sweeping, srt[:, :n_k], 0.0)
    # columns that an earlier row of the order takes first
    j = col[pq, lead]
    by_col = np.argsort(j, axis=1, kind="stable")
    j_sorted = j[pq, by_col]
    taken = np.zeros((n_p, n_k), dtype=bool)
    taken[pq, by_col[:, 1:]] = j_sorted[:, 1:] == j_sorted[:, :-1]
    # pot[:, k] = U_k = U_{k-1} + fl(c[:, k-1] - U_{k-1}) by fixed-point
    # iteration from the guess U_k = c[:, k-1], exact whenever the
    # subtraction is: each pass fixes at least one more entry, and it
    # rarely takes more than two
    pot = np.zeros((n_p, n_k + 1))
    pot[:, 1:] = c
    while True:
        d = c - pot[:, :-1]
        step = pot[:, :-1] + d
        if (step == pot[:, 1:]).all():
            break
        pot[:, 1:] = step
    u = pot[:, :-1]
    ok = sweeping & ~taken
    ok &= second[pq, lead] - u > d
    # the next row's minimum is the smallest cell of every later row;
    # the last row has no later one
    w = max(min(n_k, rows - 1), 0)
    ok[:, :w] &= srt[:, 1 : w + 1] - u[:, :w] > d[:, :w]
    n_one = np.logical_and.accumulate(ok, axis=1).sum(axis=1)
    rank = np.empty_like(order)
    rank[pq, order] = np.arange(rows)
    return n_one, np.where(real_a, rank, -1), np.where(real_a, col, -2), pot


def _sweep_chunk(a: Sequence[np.ndarray], b: Sequence[np.ndarray], k_stops) -> _Chunk:
    """_sweep on one padded chunk of pairs.

    The costs are one broadcast over points padded with one scatter.
    Padded cells cost +inf, so padded columns are never reached, and
    padded rows hold row_to = -2, never free and never matched.

    _one_step_prefix settles each pair's leading one-step augmentations,
    and a few vector operations fill their snapshots. _finish_pairs then
    makes the rest of each pair whose prefix ends before its k_stop,
    one pair at a time, with the float operations of a sweep of that
    pair alone (oracle.reference_sweep), so every snapshot is bit for
    bit the same. Then the matched costs of each pair and cardinality
    are summed in row order like a single pair's.

    tol is the tie certificate's tolerance, a few n ulps of each pair's
    cost scale. It covers accumulated float error in the potentials and
    applies to tightness, to the zero-dual tests and to dual
    feasibility. Genuine crafted ties sit at exactly zero, while
    near-ties on continuous data below this scale are indistinguishable
    from ties.
    """
    n_p = len(a)
    n_a = np.array([len(x) for x in a], dtype=np.int64)
    n_b = np.array([len(x) for x in b], dtype=np.int64)
    k_stop = np.array(k_stops, dtype=np.int64)
    # at least one column, all +inf when no pair has one, so that every
    # row has a cheapest cell
    rows, cols = int(n_a.max()), max(int(n_b.max()), 1)
    n_k = int(k_stop.max())
    real_a = np.arange(rows) < n_a[:, None]
    real_b = np.arange(cols) < n_b[:, None]
    # the masks run pair by pair, so the points fill them in order
    pa, pb = np.zeros((n_p, rows, 2)), np.zeros((n_p, cols, 2))
    pa[real_a] = np.concatenate(a)
    pb[real_b] = np.concatenate(b)
    real = real_a[:, :, None] & real_b[:, None, :]
    cost = np.where(real, _sq_dist(pa[:, :, None], pb[:, None]), np.inf)
    col = cost.argmin(axis=2)
    c_min = cost.reshape(-1)[np.arange(0, cost.size, cols) + col.reshape(-1)].reshape(n_p, rows)
    row_min = c_min[real_a & (n_b > 0)[:, None]]
    scale = np.where(real, cost, 0.0).max(axis=(1, 2), initial=0.0)
    tol = 64.0 * np.maximum(n_a, n_b) * np.finfo(np.float64).eps * (1.0 + scale)
    n_one, rank, col, pot = _one_step_prefix(cost, col, c_min, real_a, k_stop)
    # a row is matched after k one-step augmentations when rank < k,
    # padded rows always (to -2, at u = 0); a matched row keeps the U of
    # its own augmentation
    ks = np.arange(n_k + 1)
    done = rank < ks[:, None, None]
    u_done = pot[np.arange(n_p)[:, None], np.minimum(rank + 1, n_k)]
    snap_row_to = np.where(done, col, -1)
    snap_u = np.where(done, u_done, pot.T[:, :, None])
    snap_v = np.zeros((n_k + 1, n_p, cols))
    steps = n_one.copy()
    _finish_pairs(cost, n_a, n_b, n_one, k_stop, steps, snap_row_to, snap_u, snap_v)
    # the pairs with k matched rows
    sweeping = ks[:, None] <= k_stop
    # k matched rows in each pair still sweeping at k: one row-order sum
    # per pair and k, from one gather per batch of k of at most
    # _SWEEP_CELLS / 4 matched cells
    cells = (sweeping.sum(axis=1) * ks).tolist()
    sums = []
    for c0, c1 in _cuts(cells[1:], _SWEEP_CELLS // 4):
        k0, k1 = c0 + 1, c1 + 1
        rt = snap_row_to[k0:k1]
        kq, q, i = np.nonzero((rt >= 0) & sweeping[k0:k1, :, None])
        matched = cost[q, i, rt[kq, q, i]]
        o = 0
        for k in range(k0, k1):
            sums.append(np.add.reduce(matched[o : o + cells[k]].reshape(-1, k), axis=1))
            o += cells[k]
    card_cost = np.where(sweeping, 0.0, np.inf)
    if sums:
        card_cost[1:][sweeping[1:]] = np.concatenate(sums)
    return _Chunk(cost, tol, row_min, snap_row_to, snap_u, snap_v, card_cost, steps, n_one)


def _finish_pairs(cost, n_a, n_b, n_one, k_stop, steps, snap_row_to, snap_u, snap_v):
    """The augmentations of _sweep_chunk after each pair's one-step
    prefix, one pair at a time, in place.

    Pair q resumes from its snapshot after its n_one[q] one-step
    augmentations, where v is 0, and makes the rest up to k_stop[q] with
    the float operations of oracle.reference_sweep on its own block of
    cost: one argmin and one relaxation per Dijkstra step. Each search
    adds its settled columns to steps[q] and writes the snapshots at the
    cardinality it reaches.
    """
    for q in np.flatnonzero(n_one < k_stop).tolist():
        na, nb, k0 = int(n_a[q]), int(n_b[q]), int(n_one[q])
        c = cost[q, :na, :nb]
        row_to, u = snap_row_to[k0, q, :na].copy(), snap_u[k0, q, :na].copy()
        v = np.zeros(nb)
        col_to = np.full(nb, -1, dtype=np.int64)
        matched = np.flatnonzero(row_to >= 0)
        col_to[row_to[matched]] = matched
        for k in range(k0 + 1, int(k_stop[q]) + 1):
            free = row_to == -1
            rows = np.flatnonzero(free)
            # seed tentative column distances from every free row at
            # distance 0, built (columns, free rows) so that both
            # reductions run along the last axis without a copy
            rc = c.T[:, rows]
            rc -= u[rows]
            rc -= v[:, None]
            pred = rows[rc.argmin(axis=1)]
            dist = rc.min(axis=1)
            # a settled column gets v = -inf here, so it never relaxes again
            v_open = v.copy()
            settled, row_dist = [], []
            while True:
                j = int(dist.argmin())
                i = int(col_to[j])
                if i < 0:
                    break
                # the matched row settles with its column
                settled.append(i)
                row_dist.append(dist[j])
                v_open[j] = -np.inf
                nd = dist[j] + c[i] - u[i] - v_open
                dist[j] = np.inf
                better = nd < dist
                np.copyto(dist, nd, where=better)
                np.copyto(pred, i, where=better)
            steps[q] += len(settled) + 1
            # dual update keeps reduced costs nonnegative and path edges
            # tight; a settled column's distance is its matched row's
            big = dist[j]
            np.add(u, big, out=u, where=free)
            if settled:
                rd = np.array(row_dist)
                u[settled] += big - rd
                v[row_to[settled]] += rd - big
            # flip matched edges along the augmenting path
            while j >= 0:
                i = pred[j]
                prev = row_to[i]
                row_to[i], col_to[j] = j, i
                j = prev
            snap_row_to[k, q, :na] = row_to
            snap_u[k, q, :na] = u
            snap_v[k, q, :nb] = v


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


def _exposable(row_to: np.ndarray, u: np.ndarray, v: np.ndarray, tol: float):
    """The rows and columns a min-cost k-matching may leave unmatched,
    from the sweep's potentials after k augmentations: rows with
    u >= U - tol, U the free rows' potential, and columns with v >= -tol."""
    top = u[row_to == -1].min(initial=np.inf)
    return u >= top - tol, v >= -tol


def _exchange_graph(tight, row_to, row_exp, col_exp) -> np.ndarray:
    """The exchange graph of the k-matching row_to (-1 for a free row,
    -2 for one that takes no part): its rows, then D (an exposed row)
    and E (a free column), with row_exp and col_exp from _exposable. An
    arc x -> y means x can take what y holds:
    - row r -> matched row r' when (r, row_to[r']) is tight;
    - a matched row of row_exp -> D, and D -> every free row;
    - a row with a tight edge to a free column -> E, and E -> every
      matched row whose column is in col_exp.
    Turning the matching along a cycle, each row taking what the next
    holds, gives another min-cost k-matching, and every other one
    differs from it by such cycles.
    """
    n = row_to.shape[0]
    m_rows = np.flatnonzero(row_to >= 0)
    m_cols = row_to[m_rows]
    adj = np.zeros((n + 2, n + 2), dtype=bool)
    adj[:n, m_rows] = tight[:, m_cols]
    free_row = row_to == -1
    if free_row.any():
        adj[m_rows, n] = row_exp[m_rows]
        adj[n, :n] = free_row
    free_col = np.ones(tight.shape[1], dtype=bool)
    free_col[m_cols] = False
    if free_col.any():
        adj[:n, n + 1] = tight[:, free_col].any(axis=1)
        adj[n + 1, m_rows] = col_exp[m_cols]
    return adj


def _lex_walk(tight, row_to, row_exp, col_exp) -> np.ndarray:
    """The lexicographically smallest min-cost k-matching, refined from
    the sweep's own (row_to) on its exchange graph (_exchange_graph).

    Fixes the rows in order. Row i's options are -1, when i is in
    row_exp, then its tight columns in ascending order; an option's
    holder is D for -1, E for a free column and otherwise the row that
    holds the column. Row i takes the first option whose holder reaches
    i in the graph of the rows not yet fixed, the matching turns along
    that cycle, and row i leaves the graph with its column. One graph
    and one search, O(n_a (n_a + n_b)), per row whose first option is
    not the one it holds.
    """
    n = row_to.shape[0]
    out = np.empty(n, dtype=np.int64)
    row_to, tight = row_to.copy(), tight.copy()
    m = np.flatnonzero(row_to >= 0)
    tight[m, row_to[m]] = True
    for i in range(n):
        opts = [-1] * bool(row_exp[i]) + np.flatnonzero(tight[i]).tolist()
        if opts[0] != row_to[i]:
            # one breadth-first search toward i along reversed arcs: nxt[x]
            # is the node after x on a shortest path from x to i
            adj = _exchange_graph(tight, row_to, row_exp, col_exp)
            nxt = np.full(n + 2, -1, dtype=np.int64)
            nxt[i], frontier = i, np.array([i])
            while frontier.shape[0]:
                into = adj[:, frontier] & (nxt < 0)[:, None]
                new = np.flatnonzero(into.any(axis=1))
                nxt[new] = frontier[into[new].argmax(axis=1)]
                frontier = new
            held = np.full(tight.shape[1], -1, dtype=np.int64)
            m = np.flatnonzero(row_to >= 0)
            held[row_to[m]] = m
            for o in opts:
                h = n if o == -1 else n + 1 if held[o] < 0 else int(held[o])
                if nxt[h] >= 0:
                    break
            # turn along the cycle, each row taking what the next holds
            # before it changes; D and E hold nothing of their own
            x = h
            while x != i:
                y = int(nxt[x])
                if x < n:
                    free = tight[x] & (held < 0)
                    row_to[x] = row_to[y] if y < n else -1 if y == n else free.argmax()
                x = y
            row_to[i] = o
        # row i keeps its choice: it leaves the graph, and no other row
        # may take its column
        out[i] = row_to[i]
        if out[i] >= 0:
            tight[:, out[i]] = False
        tight[i] = False
        row_to[i] = -2
    return out


class _Sweep:
    """A batched SSP sweep of many pairs and the matchings read from it.

    Pair p matches n_a[p] points to n_b[p]; card_cost[p, k] is the min
    cost of its cardinality-k matching (0 at k = 0, +inf past its
    k_stop). rows() reads many (pair, k) matchings at once, gathered
    from the snapshots; where _certify fires, _lex_walk refines the
    snapshot once per (pair, k), whose row is kept for later reads;
    tie_refinements[p] counts the cardinalities of pair p whose
    certificate fired.
    """

    def __init__(self, n_a, n_b, k_stops, chunks: list[tuple[int, _Chunk]]):
        n_p = len(n_a)
        self.n_a = np.array(n_a, dtype=np.int64)
        self.n_b = np.array(n_b, dtype=np.int64)
        self.k_stop = np.array(k_stops, dtype=np.int64)
        n_k = int(self.k_stop.max(initial=0))
        self.card_cost = np.full((n_p, n_k + 1), np.inf)
        self.steps = np.zeros(n_p, dtype=np.int64)
        self.tie_refinements = np.zeros(n_p, dtype=np.int64)
        self._chunks = [ch for _, ch in chunks]
        self._chunk_of = np.empty(n_p, dtype=np.int64)
        self._pos = np.empty(n_p, dtype=np.int64)
        self.one_step = np.zeros(n_p, dtype=np.int64)
        for c, (p0, ch) in enumerate(chunks):
            p = slice(p0, p0 + ch.steps.shape[0])
            self._chunk_of[p] = c
            self._pos[p] = np.arange(ch.steps.shape[0])
            self.card_cost[p, : ch.card_cost.shape[0]] = ch.card_cost.T
            self.steps[p] = ch.steps
            self.one_step[p] = ch.one_step
        # rows() refines a (pair, k) once, however often it is read
        self._refined: dict[tuple[int, int], np.ndarray] = {}

    def gate(self, cfg: BipartiteConfig) -> float:
        """cfg's fixed gate cost, or the quantile of the row minima of
        the pairs with both frames nonempty (1.0, with a warning, when
        there are none)."""
        if cfg.gate_cost is not None:
            return float(cfg.gate_cost)
        samples = [ch.row_min for ch in self._chunks if ch.row_min.size]
        if not samples:
            warnings.warn("no distance samples to set the gate cost, using 1.0")
            return 1.0
        return _quantile(np.concatenate(samples), cfg.gate_quantile)

    def state(self, p: int) -> _SweepState:
        """Pair p's snapshots, as a sweep of that pair alone returns them."""
        ch, q, k = self._chunks[self._chunk_of[p]], self._pos[p], self.k_stop[p]
        n_a, n_b = self.n_a[p], self.n_b[p]
        return _SweepState(
            ch.row_to[1 : k + 1, q, :n_a],
            self.card_cost[p, 1 : k + 1],
            ch.u[1 : k + 1, q, :n_a],
            ch.v[1 : k + 1, q, :n_b],
            int(self.steps[p]),
        )

    def _certify(self, pairs: np.ndarray, ks: np.ndarray) -> np.ndarray:
        """The tie certificate of the sweep's k-matching for many
        (pair, k), one batch per chunk: True where it must be refined.

        A matching whose smallest reduced cost off the matching clears
        the pair's tolerance is unique; one below -tol fires, its dual
        being infeasible; any other fires when its exchange graph has a
        cycle. k = 0 never fires (nothing to test).
        """
        out = np.zeros(pairs.shape, dtype=bool)
        for c, ch in enumerate(self._chunks):
            sel = np.flatnonzero((self._chunk_of[pairs] == c) & (ks > 0))
            if sel.shape[0]:
                q, k = self._pos[pairs[sel]], ks[sel]
                row_to, u, v, tol = ch.row_to[k, q], ch.u[k, q], ch.v[k, q], ch.tol[q]
                # padded cells stay +inf, matched cells are taken out
                rc = ch.cost[q] - u[:, :, None] - v[:, None, :]
                i, r = np.nonzero(row_to >= 0)
                rc[i, r, row_to[i, r]] = np.inf
                rc_min = rc.min(axis=(1, 2), initial=np.inf)
                out[sel] = rc_min < -tol
                for s in np.flatnonzero(np.abs(rc_min) <= tol):
                    n_a, n_b, t = self.n_a[pairs[sel[s]]], self.n_b[pairs[sel[s]]], tol[s]
                    r_t = row_to[s, :n_a]
                    exposable = _exposable(r_t, u[s, :n_a], v[s, :n_b], t)
                    adj = _exchange_graph(rc[s, :n_a, :n_b] <= t, r_t, *exposable)
                    out[sel[s]] = _has_cycle(adj)
        return out

    def rows(self, pairs, ks) -> np.ndarray:
        """Min-cost matchings of cardinality ks[i] of pairs[i] with the
        lexicographic tie rule, one row each, padded with -1 to the
        widest pair."""
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1)
        ks = np.asarray(ks, dtype=np.int64).reshape(-1)
        out = np.full((pairs.shape[0], int(self.n_a.max(initial=0))), -1, dtype=np.int64)
        for c, ch in enumerate(self._chunks):
            sel = np.flatnonzero(self._chunk_of[pairs] == c)
            if sel.shape[0]:
                out[sel, : ch.row_to.shape[2]] = ch.row_to[ks[sel], self._pos[pairs[sel]]]
        np.maximum(out, -1, out=out)  # padded rows hold -2
        for i in np.flatnonzero(self._certify(pairs, ks)):
            p, k = int(pairs[i]), int(ks[i])
            if (p, k) not in self._refined:
                self.tie_refinements[p] += 1
                ch, q = self._chunks[self._chunk_of[p]], self._pos[p]
                n_a, n_b, tol = self.n_a[p], self.n_b[p], ch.tol[q]
                row_to, u, v = ch.row_to[k, q, :n_a], ch.u[k, q, :n_a], ch.v[k, q, :n_b]
                tight = ch.cost[q, :n_a, :n_b] - u[:, None] - v <= tol
                self._refined[p, k] = _lex_walk(tight, row_to, *_exposable(row_to, u, v, tol))
            out[i, : self.n_a[p]] = self._refined[p, k]
        return out

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


def _matching_vectors(rows: np.ndarray, n_a, n_b) -> list[MatchingVector]:
    """Rows padded with -1, as _Sweep.rows reads them, as matching
    vectors: row i keeps its first n_a[i] entries, onto n_b[i] targets."""
    return [
        MatchingVector(tuple(r[:n].tolist()), n_next=m)
        for r, n, m in zip(rows, n_a.tolist(), n_b.tolist())
    ]


def fixed_d_matchings(
    frame_a, frame_b, ds: Iterable[int]
) -> dict[int, MatchingVector]:
    """Cheapest matchings with exactly d unmatched rows, one SSP sweep.

    Feeding several d values shares the sweep.
    """
    seq = FrameSequence((frame_a, frame_b))
    n_a, n_b = seq.counts
    d_list = sorted(set(_config_int(d, "d", 0) for d in ds))
    lo = max(0, n_a - n_b)
    for d in d_list:
        if not lo <= d <= n_a:
            raise InvalidInputError(
                f"d={d} infeasible for frame sizes ({n_a}, {n_b})"
            )
    k_needed = max(n_a - d for d in d_list) if d_list else 0
    sw = _sweep(seq.frames[:1], seq.frames[1:], [k_needed])
    pair = np.zeros(len(d_list), dtype=np.int64)
    rows = sw.rows(pair, [n_a - d for d in d_list])
    return dict(zip(d_list, _matching_vectors(rows, sw.n_a[pair], sw.n_b[pair])))


def solve_bmcf(
    frame_a, frame_b, cfg: BipartiteConfig | None = None
) -> MatchingVector:
    """Gated bipartite matching.

    Minimizes the sum of matched squared distances plus T per unmatched
    row and column. With T = inf the matching has maximum cardinality.
    Ties are broken by the lexicographically smallest vector, comparing
    across tied cardinalities as well.
    """
    return solve_bmcf_sequence(FrameSequence((frame_a, frame_b)), cfg)[1][0]


# np.quantile imports numpy.ma on its first call in a process (NumPy
# 2.4), which costs more than tracking a small video; _quantile stands
# in for it.


def _quantile(values: np.ndarray, q: float) -> float:
    """np.quantile(values, q) bit for bit, for finite nonempty 1-D values
    and 0 <= q <= 1: numpy's default linear method, a lerp between the
    two order statistics around (n - 1) q."""
    v = np.sort(values)
    n = v.shape[0]
    h = (n - 1) * q
    # past the last index numpy takes index -1 on both sides
    lo = math.floor(h) if h < n - 1 else -1
    a, b = v[lo], v[lo + 1 if lo >= 0 else -1]
    t = h - lo
    d = b - a
    return float(b - d * (1 - t) if t >= 0.5 else a + d * t)


def resolve_gate_cost(seq: FrameSequence, cfg: BipartiteConfig) -> float:
    """Concrete gate cost for a sequence under the given config.

    In quantile mode, for each object of frame k the squared distance to
    its nearest neighbour in frame k+1 enters the pool, and the gate
    cost is the requested quantile of that pool.
    """
    return _sweep(seq.frames[:-1], seq.frames[1:], [0] * (len(seq) - 1)).gate(cfg)


def solve_bmcf_sequence(
    seq: FrameSequence, cfg: BipartiteConfig | None = None
) -> tuple[float, list[MatchingVector]]:
    """Gated bipartite matching of every frame pair of a video.

    The gate cost is resolved once from the whole sequence and then
    charged on every pair, and all pairs are swept in one batch.
    Returns the gate cost and one matching vector per consecutive frame
    pair.
    """
    sw = _sweep(seq.frames[:-1], seq.frames[1:])
    gate = sw.gate(cfg or BipartiteConfig())
    rows = sw.rows(np.arange(len(seq) - 1), sw.gated(gate))
    return gate, _matching_vectors(rows, sw.n_a, sw.n_b)
