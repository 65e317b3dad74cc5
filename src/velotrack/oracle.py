"""Brute-force and reference solvers for testing.

enumerate_space is the package's one full-space builder. It is built
from itertools primitives (choose the disappearing subset, then an
ordered arrangement of targets for the survivors) and must not share
code with the production constructions (the reduced spaces and the
closed-form full_space_size), so a bug in one cannot confirm itself
through the other. The likelihood
functions are shared on purpose: they are the single source of truth
for what is being maximized. reference_solve_dp is the production DP's
plain-Python counterpart: it scores every stage cell one at a time.
reference_fold_stage is the dense vectorized fold that
tripartite._fold_stage must reproduce bit for bit on every row it does
not prune (given the same g_next, pruned columns at -inf),
reference_cumulative_path_accuracy rebuilds every prefix that
metrics.cumulative_path_accuracy scores in one pass, and
reference_sweep is the one-pair SSP sweep that the batched
assignment._sweep must reproduce bit for bit. track() does its per-pair
set-up once per video; reference_seeded_space, reference_stage_terms
and reference_estimate_sigma are the one-pair, one-stage and
one-object-at-a-time forms that tripartite._assemble_spaces,
tripartite._stages and tripartite.estimate_sigma must reproduce bit for
bit.
"""

from __future__ import annotations

import math
import warnings
from itertools import combinations, permutations, product

import numpy as np

from .assignment import _SweepState
from .core import (
    DISAPPEAR,
    CandidateSpace,
    FrameSequence,
    InvalidInputError,
    MatchingVector,
    SpaceCapError,
    _lex_order,
    assemble_trajectories,
)
from .metrics import path_accuracy
from .tripartite import (
    NoiseModel,
    SigmaEstimate,
    _triple_term_fn,
    pair_log_likelihood_first,
    triple_log_likelihood,
)


def enumerate_space(n_k: int, n_next: int, cap: int = 100_000) -> CandidateSpace:
    """All matching vectors for an (n_k, n_next) pair, by construction.

    For each disappearance count d, each d-subset of objects disappears
    and the rest take an ordered selection of distinct targets, so every
    row is emitted once.
    """
    if n_k < 0 or n_next < 0:
        raise InvalidInputError("object counts must be nonnegative")
    rows: list[list[int]] = []
    for d in range(max(0, n_k - n_next), n_k + 1):
        for gone in combinations(range(n_k), d):
            linked = [i for i in range(n_k) if i not in gone]
            for targets in permutations(range(n_next), len(linked)):
                row = [DISAPPEAR] * n_k
                for i, t in zip(linked, targets):
                    row[i] = t
                rows.append(row)
                if len(rows) > cap:
                    raise SpaceCapError(f"space exceeds cap {cap}")
    mat = np.array(rows, dtype=np.int64).reshape(len(rows), n_k)
    return CandidateSpace.build(mat, n_next=n_next)


def exhaustive_chain_argmax(
    seq: FrameSequence,
    noise: NoiseModel,
    spaces: list[CandidateSpace] | None = None,
    cap: int = 2_000_000,
) -> tuple[list[MatchingVector], float]:
    """Global argmax of the chain score by scanning the product space.

    Candidates are visited in lexicographic order of the matching-vector
    sequence and only a strictly better score replaces the incumbent, so
    ties resolve to the lexicographically smallest sequence.
    """
    f = len(seq)
    if f < 2:
        raise InvalidInputError("need at least 2 frames")
    if spaces is None:
        spaces = [enumerate_space(seq.n_objects(k), seq.n_objects(k + 1)) for k in range(f - 1)]
    if len(spaces) != f - 1:
        raise InvalidInputError(f"need {f - 1} candidate spaces, got {len(spaces)}")
    total = 1
    for sp in spaces:
        if len(sp) == 0:
            raise InvalidInputError("empty candidate space")
        total *= len(sp)
    if total > cap:
        raise SpaceCapError(f"product space has {total} sequences, cap is {cap}")

    vectors = [list(sp.vectors()) for sp in spaces]
    h1 = [
        pair_log_likelihood_first(seq.frames[0], seq.frames[1], m, noise, dt=seq.dt)
        for m in vectors[0]
    ]
    stage: list[np.ndarray] = []
    for t in range(1, f - 1):
        h = np.empty((len(vectors[t - 1]), len(vectors[t])))
        for r, m_prev in enumerate(vectors[t - 1]):
            for c, m_next in enumerate(vectors[t]):
                h[r, c] = triple_log_likelihood(
                    seq.frames[t - 1], seq.frames[t], seq.frames[t + 1],
                    m_prev, m_next, noise, dt=seq.dt, pair_index=t,
                )
        stage.append(h)

    best_idx: tuple[int, ...] | None = None
    best = -math.inf
    for idx in product(*(range(len(v)) for v in vectors)):
        s = h1[idx[0]]
        for t in range(1, f - 1):
            s += stage[t - 1][idx[t - 1], idx[t]]
        if s > best:
            best = s
            best_idx = idx
    assert best_idx is not None
    return [vectors[t][r] for t, r in enumerate(best_idx)], float(best)


def reference_sweep(cost: np.ndarray, k_stop: int) -> _SweepState:
    """Successive shortest augmenting paths up to cardinality k_stop.

    One pair at a time, every augmentation by a Dijkstra search;
    assignment._sweep settles most augmentations of many pairs in closed
    form and must return equal snapshots and step counts for each.
    """
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
            out.steps += 1
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


def exhaustive_bipartite_min(
    frame_a, frame_b, gate_cost: float = math.inf, d: int | None = None
) -> tuple[MatchingVector, float]:
    """Cheapest matching by enumeration, for checking the flow solver.

    Cost is the sum of matched squared distances plus gate_cost per
    unmatched object on either side. With d given, only vectors with
    exactly d disappearances compete and the reported cost is the pure
    matched-distance sum (the event term is constant there). Ties
    resolve to the lexicographically smallest vector.
    """
    a = np.asarray(frame_a, dtype=np.float64).reshape(-1, 2)
    b = np.asarray(frame_b, dtype=np.float64).reshape(-1, 2)
    n_a, n_b = a.shape[0], b.shape[0]
    fixed_d = d
    if fixed_d is None and math.isinf(gate_cost):
        # an infinite gate forces maximum cardinality
        fixed_d = n_a - min(n_a, n_b)
    best_m: MatchingVector | None = None
    best = math.inf
    for m in enumerate_space(n_a, n_b).vectors():
        if fixed_d is not None and m.n_disappeared != fixed_d:
            continue
        cost = 0.0
        for i, j in enumerate(m.entries):
            if j != DISAPPEAR:
                diff = b[j] - a[i]
                cost += float(diff @ diff)
        if fixed_d is None:
            # within a fixed d the event term is constant and left out
            cost += gate_cost * (m.n_disappeared + m.n_appeared)
        if cost < best:
            best = cost
            best_m = m
    if best_m is None:
        raise InvalidInputError("no feasible matching under the given constraints")
    return best_m, best


def incremental_triple_score(
    frame_prev,
    frame_mid,
    frame_next,
    m_prev: MatchingVector,
    base: MatchingVector,
    base_score: float,
    swap: tuple[int, int],
    noise: NoiseModel,
    dt: float = 1.0,
    pair_index: int = 1,
) -> float:
    """Stage score of base with entries swap=(i, j) exchanged.

    The exchange keeps the matched-target set, so event penalties are
    unchanged and only the two affected objects are rescored.
    """
    i, j = swap
    ti, tj = base.entries[i], base.entries[j]
    if ti == tj:
        # injectivity forces both entries DISAPPEAR: identity exchange
        return float(base_score)
    prev_f = np.asarray(frame_prev, dtype=np.float64).reshape(-1, 2)
    mid_f = np.asarray(frame_mid, dtype=np.float64).reshape(-1, 2)
    next_f = np.asarray(frame_next, dtype=np.float64).reshape(-1, 2)
    term = _triple_term_fn(prev_f, mid_f, next_f, m_prev, noise, dt, pair_index)
    delta = term(i, tj) + term(j, ti) - term(i, ti) - term(j, tj)
    return float(base_score + delta)


def _stage_matrix(seq, sp_prev, sp_next, noise, t, incremental) -> np.ndarray:
    """Dense stage matrix h_t by per-cell scoring.

    With incremental=True, seed columns are scored in full and every
    swap column as a delta on its seed.
    """
    prev_f, mid_f, next_f = seq.frames[t - 1], seq.frames[t], seq.frames[t + 1]
    dt = seq.dt
    info = sp_next.swap_info
    seed_cols = np.flatnonzero(info[:, 1] == -1)
    nexts = list(sp_next.vectors())
    h = np.empty((len(sp_prev), len(sp_next)))
    for r, m_prev in enumerate(sp_prev.vectors()):
        if not incremental:
            for c, m_next in enumerate(nexts):
                h[r, c] = triple_log_likelihood(
                    prev_f, mid_f, next_f, m_prev, m_next, noise, dt=dt, pair_index=t
                )
            continue
        for c in seed_cols:
            h[r, c] = triple_log_likelihood(
                prev_f, mid_f, next_f, m_prev, nexts[c], noise, dt=dt, pair_index=t
            )
        for c in range(len(nexts)):
            q, i, j = info[c]
            if i == -1:
                continue
            s = seed_cols[q]
            h[r, c] = incremental_triple_score(
                prev_f, mid_f, next_f, m_prev, nexts[s], h[r, s], (i, j),
                noise, dt=dt, pair_index=t,
            )
    return h


def reference_solve_dp(
    seq: FrameSequence,
    spaces: list[CandidateSpace],
    noise: NoiseModel,
    incremental: bool = False,
) -> tuple[list[MatchingVector], float]:
    """solve_dp over dense, cell-by-cell stage matrices.

    Same backward pass, first-argmax tie rule and forward walk as the
    production solver, so both must return identical matchings.
    """
    f = len(seq)
    if f < 2:
        raise InvalidInputError("need at least 2 frames")
    if len(spaces) != f - 1:
        raise InvalidInputError(f"need {f - 1} candidate spaces, got {len(spaces)}")
    g = np.zeros(len(spaces[-1]))
    backs = []
    for t in range(f - 2, 0, -1):
        vals = _stage_matrix(seq, spaces[t - 1], spaces[t], noise, t, incremental) + g[None, :]
        bp = np.argmax(vals, axis=1)
        g = vals[np.arange(vals.shape[0]), bp]
        backs.insert(0, bp)
    h1 = np.array(
        [
            pair_log_likelihood_first(seq.frames[0], seq.frames[1], m, noise, dt=seq.dt)
            for m in spaces[0].vectors()
        ]
    )
    totals = h1 + g
    idxs = [int(np.argmax(totals))]
    for bp in backs:
        idxs.append(int(bp[idxs[-1]]))
    return [spaces[t].vector_at(r) for t, r in enumerate(idxs)], float(totals[idxs[0]])


def reference_fold_stage(
    seq, sp_prev, sp_next, g_next, noise, t, chunk=256
) -> tuple[np.ndarray, np.ndarray]:
    """One backward DP step over every cell, g_prev(x) = max_y h_t(x, y) + g_next(y).

    Each predecessor chunk takes its stage terms from
    reference_stage_terms through its mid objects' predecessors. Each
    swap column of the successor space is scored from its seed column
    plus the terms of the two exchanged entries. Returns g_prev and the
    first argmax successor row per predecessor row;
    tripartite._fold_stage must return equal values on the rows it
    does not prune.
    """
    tab = reference_stage_terms(seq, noise, t)  # (n_prev + 1, n_mid, n_next + 1)
    n_mid, n_next = tab.shape[1], tab.shape[2] - 1

    x = sp_next.matrix  # (C, n_mid)
    y = sp_prev.matrix  # (R, n_prev)
    n_rows, n_cols = y.shape[0], x.shape[0]
    xc = x + 1  # shift targets so column 0 is the DISAPPEAR penalty
    appear = noise.lambda_event * (n_next - (x >= 0).sum(axis=1))  # (C,)

    info = sp_next.swap_info
    seed_cols = np.flatnonzero(info[:, 1] == -1)
    swap_cols = np.flatnonzero(info[:, 1] >= 0)
    base_of = info[swap_cols, 0]
    s_of = seed_cols[base_of]
    i_of = info[swap_cols, 1]
    j_of = info[swap_cols, 2]
    # exchanged targets, in the swapped vector and in its seed
    xi_new = xc[swap_cols, i_of]
    xj_new = xc[swap_cols, j_of]
    xi_old = xc[s_of, i_of]
    xj_old = xc[s_of, j_of]

    g_prev = np.empty(n_rows)
    back = np.empty(n_rows, dtype=np.int64)
    for r0 in range(0, n_rows, chunk):
        yb = y[r0 : r0 + chunk]
        nb = yb.shape[0]
        # pred[b, j]: mid object j's predecessor in row b, -1 when none
        pred = np.full((nb, n_mid), -1, dtype=np.int64)
        bi, pi = np.nonzero(yb >= 0)
        pred[bi, yb[bi, pi]] = pi
        full = tab[pred + 1, np.arange(n_mid)]  # (nb, n_mid, n_next + 1)
        seeds = np.zeros((nb, seed_cols.shape[0]))
        for j in range(n_mid):
            seeds += full[:, j, xc[seed_cols, j]]
        acc = np.empty((nb, n_cols))
        acc[:, seed_cols] = seeds
        acc[:, swap_cols] = (
            seeds[:, base_of]
            + full[:, i_of, xi_new] + full[:, j_of, xj_new]
            - full[:, i_of, xi_old] - full[:, j_of, xj_old]
        )
        vals = acc + appear[None, :] + g_next[None, :]
        bp = np.argmax(vals, axis=1)
        back[r0 : r0 + nb] = bp
        g_prev[r0 : r0 + nb] = vals[np.arange(nb), bp]
    return g_prev, back


def reference_cumulative_path_accuracy(
    seq: FrameSequence,
    pred_matchings,
    truth_matchings,
    beta: float = 1.0,
) -> list[tuple[float, float, float]]:
    """metrics.cumulative_path_accuracy by rebuilding every prefix.

    Assembles both trajectory sets of each prefix sub-video k = 2..f and
    scores them with path_accuracy, O(f^2 n).
    """
    f = len(seq)
    if len(pred_matchings) != f - 1 or len(truth_matchings) != f - 1:
        raise InvalidInputError("matching sequences inconsistent with the video length")
    out = []
    for k in range(2, f + 1):
        sub = FrameSequence(seq.frames[:k], dt=seq.dt)
        pred = assemble_trajectories(sub, pred_matchings[: k - 1])
        truth = assemble_trajectories(sub, truth_matchings[: k - 1])
        out.append(path_accuracy(pred, truth, beta))
    return out


def reference_seeded_space(seeds, n_a: int, n_b: int) -> CandidateSpace:
    """Each seed vector followed by all its single-pair entry exchanges,
    sorted into one space.

    Exchanging two DISAPPEAR entries is the identity and is skipped.
    The rows are sorted by core._lex_order, and each row names its
    seed's rank among the sorted seeds.
    """
    idx = np.arange(n_a)
    iu, ju = np.nonzero(idx[:, None] < idx)
    n_p = iu.shape[0]
    # perm[p]: the entry order of exchange p; row 0 keeps the seed
    perm = np.repeat(idx[None, :], n_p + 1, axis=0)
    p = np.arange(1, n_p + 1)
    perm[p, iu] = ju
    perm[p, ju] = iu
    rows = [m.entries for m in seeds]
    s = np.array(rows, dtype=np.int64).reshape(len(rows), n_a)
    mat = s[:, perm]
    keep = (mat != s[:, None, :]).any(axis=2)
    keep[:, 0] = True
    by_rank = _lex_order(s)
    info = np.empty(keep.shape + (3,), dtype=np.int64)
    info[by_rank, :, 0] = np.arange(len(rows))[:, None]
    info[:, 0, 1:] = -1
    info[:, 1:, 1] = iu
    info[:, 1:, 2] = ju
    order = _lex_order(mat[keep])
    return CandidateSpace(n_next=n_b, seeds=s[by_rank], swap_info=info[keep][order])


def reference_stage_terms(seq: FrameSequence, noise: NoiseModel, t: int) -> np.ndarray:
    """Per-object terms of stage t, one table for every predecessor.

    tab[i + 1, j, k + 1] is mid object j's term when its predecessor is
    previous object i and its target is next object k; i = -1 means j
    appeared at the mid frame (position Gaussian), k = -1 is DISAPPEAR
    (lambda_event).
    """
    prev_f, mid_f, next_f = seq.frames[t - 1], seq.frames[t], seq.frames[t + 1]
    dt = seq.dt
    sigma = noise.sigma_for_pair(t)
    v_scale2 = sigma * sigma
    p_scale2 = (dt * sigma) ** 2
    v_const = -math.log(2.0 * math.pi * v_scale2)
    p_const = -math.log(2.0 * math.pi * p_scale2)
    disp = next_f[None, :, :] - mid_f[:, None, :]  # (n_mid, n_next, 2)
    v2 = disp / dt
    q2 = np.einsum("jld,jld->jl", v2, v2)
    v1 = (mid_f[None, :, :] - prev_f[:, None, :]) / dt  # (n_prev, n_mid, 2)
    q1 = np.einsum("ijd,ijd->ij", v1, v1)
    dot = np.einsum("ijd,jld->ijl", v1, v2)
    tab = np.empty((prev_f.shape[0] + 1, mid_f.shape[0], next_f.shape[0] + 1))
    tab[:, :, 0] = noise.lambda_event
    tab[0, :, 1:] = p_const - np.einsum("jld,jld->jl", disp, disp) / (2.0 * p_scale2)
    tab[1:, :, 1:] = v_const - (q2[None, :, :] - 2.0 * dot + q1[:, :, None]) / (2.0 * v_scale2)
    return tab


def reference_estimate_sigma(
    seq: FrameSequence, matchings, mode: str = "per-frame", sigma_floor: float = 1e-6
) -> SigmaEstimate:
    """tripartite.estimate_sigma one chained object at a time."""
    f = len(seq)
    ss = [0.0] * (f - 1)
    cnt = [0] * (f - 1)
    for k in range(1, f - 1):
        m_prev, m_next = matchings[k - 1], matchings[k]
        prev_f, mid_f, next_f = seq.frames[k - 1], seq.frames[k], seq.frames[k + 1]
        inv = m_prev.inverse()
        for j, target in enumerate(m_next.entries):
            if target == DISAPPEAR:
                continue
            i = inv.get(j)
            if i is None:
                continue
            dv = (next_f[target] - mid_f[j]) / seq.dt - (mid_f[j] - prev_f[i]) / seq.dt
            ss[k] += float(dv @ dv)
            cnt[k] += 1
    total_cnt = sum(cnt)
    used_fallback = total_cnt == 0
    if used_fallback:
        warnings.warn("no 3-frame chains to estimate sigma from; using 1.0")
        pooled = max(1.0, sigma_floor)
    else:
        pooled = max(math.sqrt(sum(ss) / (2.0 * total_cnt)), sigma_floor)
    if mode == "pooled" or used_fallback:
        sigmas = (pooled,) * (f - 1)
    else:
        sigmas = tuple(
            max(math.sqrt(ss[k] / (2.0 * cnt[k])), sigma_floor) if cnt[k] else pooled
            for k in range(f - 1)
        )
    return SigmaEstimate(sigmas=sigmas, pooled=pooled, counts=tuple(cnt), used_fallback=used_fallback)
