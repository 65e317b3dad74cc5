"""Velocity-model association over whole videos.

The chain objective scores a sequence of matching vectors M_0..M_{f-2}
as h1(M_0) + sum over t of h_t(M_{t-1}, M_t), where h1 scores the first
pair under a zero-prior-velocity position model and each later stage t
scores the triple of frames (t-1, t, t+1): objects chained through all
three frames pay a Gaussian on their velocity change, objects that
appeared at frame t pay a position Gaussian on their displacement, and
every appearance or disappearance pays lambda_event.

The maximizer over the full matching spaces is exponential, so the
solver works on reduced candidate spaces: for each disappearance count
d near the bipartite solution's d*, the cheapest fixed-d matching and
all its single-pair entry exchanges. A backward dynamic program over
those spaces followed by a forward walk returns the exact optimum of
the restricted problem, with ties broken toward the lexicographically
smallest sequence of matching vectors.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from math import comb, perm

import numpy as np

from .assignment import BipartiteConfig, _cuts, _matching_vectors, _sweep
from .core import (
    DISAPPEAR,
    CandidateSpace,
    FrameSequence,
    InvalidConfigError,
    InvalidInputError,
    JsonConfig,
    MatchingVector,
    SpaceCapError,
    TrajectorySet,
    _FRACTION,
    _NONPOSITIVE,
    _config_float,
    _config_int,
    _lex_keys,
    assemble_trajectories,
)


@dataclass(frozen=True)
class NoiseModel:
    """Isotropic Gaussian noise scales plus the per-event log penalty.

    sigmas holds one value per frame pair, or a single pooled value that
    applies everywhere. lambda_event is the log penalty charged once per
    appearance and once per disappearance; it must be nonpositive.
    """

    sigmas: tuple[float, ...]
    lambda_event: float
    sigma_floor: float = 1e-6

    def __post_init__(self):
        raw = self.sigmas if isinstance(self.sigmas, (tuple, list, np.ndarray)) else (self.sigmas,)
        floor = _config_float(self.sigma_floor, "sigma_floor")
        rule = (f"finite and not below the floor {floor}", lambda x: floor <= x < math.inf)
        sig = tuple(_config_float(s, "sigma", rule) for s in raw)
        if not sig:
            raise InvalidConfigError("at least one sigma is required")
        lam = _config_float(self.lambda_event, "lambda_event", _NONPOSITIVE)
        object.__setattr__(self, "sigmas", sig)
        object.__setattr__(self, "lambda_event", lam)
        object.__setattr__(self, "sigma_floor", floor)

    @classmethod
    def pooled(cls, sigma: float, lambda_event: float, sigma_floor: float = 1e-6) -> "NoiseModel":
        return cls(sigmas=(float(sigma),), lambda_event=lambda_event, sigma_floor=sigma_floor)

    def sigma_for_pair(self, k: int) -> float:
        if len(self.sigmas) == 1:
            return self.sigmas[0]
        return self.sigmas[k]


def _log_gauss2(d2: float, scale2: float) -> float:
    """Log density of a 2D centered isotropic Gaussian at squared radius d2."""
    return -math.log(2.0 * math.pi * scale2) - d2 / (2.0 * scale2)


def pair_log_likelihood_first(
    frame_a, frame_b, m12: MatchingVector, noise: NoiseModel, dt: float = 1.0
) -> float:
    """Score of the first frame pair under the position model.

    Objects in the first frame carry no velocity history, so each
    matched pair pays a Gaussian on its raw displacement at scale
    dt*sigma, and every appearance and disappearance pays lambda_event.
    """
    a = np.asarray(frame_a, dtype=np.float64).reshape(-1, 2)
    b = np.asarray(frame_b, dtype=np.float64).reshape(-1, 2)
    if len(m12) != a.shape[0] or m12.n_next != b.shape[0]:
        raise InvalidInputError("matching vector inconsistent with the frame pair")
    scale2 = (dt * noise.sigma_for_pair(0)) ** 2
    total = noise.lambda_event * (m12.n_disappeared + m12.n_appeared)
    for i, j in enumerate(m12.entries):
        if j == DISAPPEAR:
            continue
        dx = b[j, 0] - a[i, 0]
        dy = b[j, 1] - a[i, 1]
        total += _log_gauss2(dx * dx + dy * dy, scale2)
    return float(total)


def _triple_term_fn(prev_f, mid_f, next_f, m_prev, noise, dt, pair_index):
    """Per-object scorer for the second matching of a triple.

    term(j, target) is object j's contribution when sent to target:
    lambda_event on DISAPPEAR, a velocity Gaussian when j is chained
    from the previous frame, a position Gaussian when j appeared at the
    middle frame.
    """
    sigma = noise.sigma_for_pair(pair_index)
    v_scale2 = sigma * sigma
    p_scale2 = (dt * sigma) ** 2
    lam = noise.lambda_event
    inv = m_prev.inverse()

    def term(j: int, target: int) -> float:
        if target == DISAPPEAR:
            return lam
        disp = next_f[target] - mid_f[j]
        i = inv.get(j)
        if i is None:
            return _log_gauss2(float(disp @ disp), p_scale2)
        dv = disp / dt - (mid_f[j] - prev_f[i]) / dt
        return _log_gauss2(float(dv @ dv), v_scale2)

    return term


def triple_log_likelihood(
    frame_prev,
    frame_mid,
    frame_next,
    m_prev: MatchingVector,
    m_next: MatchingVector,
    noise: NoiseModel,
    dt: float = 1.0,
    pair_index: int = 1,
) -> float:
    """Stage score h_t(m_prev, m_next) over three consecutive frames.

    pair_index selects the sigma of the (mid, next) pair when the noise
    model carries per-pair values.
    """
    prev_f = np.asarray(frame_prev, dtype=np.float64).reshape(-1, 2)
    mid_f = np.asarray(frame_mid, dtype=np.float64).reshape(-1, 2)
    next_f = np.asarray(frame_next, dtype=np.float64).reshape(-1, 2)
    if len(m_prev) != prev_f.shape[0] or m_prev.n_next != mid_f.shape[0]:
        raise InvalidInputError("m_prev inconsistent with the first frame pair")
    if len(m_next) != mid_f.shape[0] or m_next.n_next != next_f.shape[0]:
        raise InvalidInputError("m_next inconsistent with the second frame pair")
    term = _triple_term_fn(prev_f, mid_f, next_f, m_prev, noise, dt, pair_index)
    total = noise.lambda_event * m_next.n_appeared
    for j, target in enumerate(m_next.entries):
        total += term(j, target)
    return float(total)


# ---------------------------------------------------------------------------
# Candidate spaces.
# ---------------------------------------------------------------------------


def full_space_size(n_k: int, n_next: int) -> int:
    """Closed-form size of the full matching-vector space.

    Sum over feasible disappearance counts d of C(n_k, d) choices of
    disappearing objects times n_next!/(n_next - n_k + d)! injections of
    the survivors.
    """
    if n_k < 0 or n_next < 0:
        raise InvalidInputError("object counts must be nonnegative")
    lo = max(0, n_k - n_next)
    return sum(comb(n_k, d) * perm(n_next, n_k - d) for d in range(lo, n_k + 1))


def neighborhood(d_star: int, delta: int, n_a: int, n_b: int) -> range:
    """Feasible disappearance counts within delta of d_star."""
    lo = max(max(0, n_a - n_b), d_star - delta)
    hi = min(n_a, d_star + delta)
    return range(lo, hi + 1)


def build_reduced_space(frame_a, frame_b, d_star: int, delta: int = 1) -> CandidateSpace:
    """Candidate space around the fixed-d bipartite optima.

    For each feasible d within delta of d_star: the cheapest matching
    with exactly d disappearances plus every vector obtained from it by
    exchanging one pair of entry positions. Exchanging two DISAPPEAR
    entries is the identity and is skipped. Blocks for different d are
    disjoint because their disappearance counts differ.
    """
    delta = _config_int(delta, "delta", 0)
    d_star = _config_int(d_star, "d_star", 0)
    seq = FrameSequence((frame_a, frame_b))
    n_a, n_b = seq.counts
    if not max(0, n_a - n_b) <= d_star <= n_a:
        raise InvalidInputError(f"d*={d_star} infeasible for frame sizes ({n_a}, {n_b})")
    pair, ks, _ = _seed_cardinalities(*(np.array([x]) for x in (n_a, n_b, d_star)), delta)
    # the sweep stops at the largest cardinality the window needs
    sw = _sweep(seq.frames[:1], seq.frames[1:], [int(ks.max())])
    return _assemble_spaces(pair, sw.rows(pair, ks), sw.n_a, sw.n_b)[0]


def _seed_cardinalities(n_a, n_b, d_star, delta: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each pair's d-window: the pair and cardinality n_a - d of every
    fixed-d seed, for each feasible d within delta of d*, pair by pair in
    ascending d, and each pair's space size (int64), summed over its
    seeds: the seed plus one vector per pair of entry positions, less
    the C(d, 2) pairs of two DISAPPEARs.

    Every feasible d lies in [0, n_a], so delta is first clipped to the
    farthest such d from d*: the windows stay the same, and a huge delta
    allocates nothing and overflows no int64. A pair whose window is
    empty gets no seeds and size 0.
    """
    far = np.maximum(np.abs(d_star), np.abs(n_a - d_star))
    delta = min(int(delta), int(np.max(far, initial=0)))
    d_lo = np.maximum(np.maximum(n_a - n_b, 0), d_star - delta)
    d_hi = np.minimum(n_a, d_star + delta)
    counts = np.maximum(d_hi - d_lo + 1, 0)
    pair = np.repeat(np.arange(n_a.shape[0]), counts)
    d = d_lo[pair] + np.arange(pair.shape[0]) - np.repeat(np.cumsum(counts) - counts, counts)
    n = n_a[pair]
    sizes = np.zeros(n_a.shape[0], dtype=np.int64)
    np.add.at(sizes, pair, 1 + n * (n - 1) // 2 - d * (d - 1) // 2)
    return pair, n - d, sizes


def _assemble_spaces(seed_pair, seeds, n_a, n_b) -> list[CandidateSpace]:
    """Reduced spaces of many pairs from their fixed-d seeds.

    seeds[g] is a seed of pair seed_pair[g] (ascending), padded with -1;
    the seeds of one pair differ in their disappearance counts. Each
    space holds its seeds and all their single-pair entry exchanges,
    skipping exchanges of two DISAPPEAR entries (the identity), with
    rows sorted and swap_info as CandidateSpace documents them
    (oracle.reference_seeded_space builds one space at a time). The
    pairs of one n_a are assembled together, in runs of at most
    _FOLD_CELLS row cells, counting every exchange of every seed.

    Only the seeds are packed into sort keys (core._lex_keys). An
    exchange row holds its seed's entries, so it takes the seed's radix:
    exchanging entries i and j of seed s adds (s[j] - s[i]) place[i] to
    key i // per_key and subtracts (s[j] - s[i]) place[j] from key j //
    per_key. The keys, behind the pair as the leading key, give
    np.lexsort's order of the rows. No row is written: each space stores
    its pair's seeds in that order and, per row, its seed's rank among
    them and its two exchanged entries.
    """
    spaces: list[CandidateSpace | None] = [None] * n_a.shape[0]
    width = n_a[seed_pair]
    for n in sorted(set(width.tolist())):
        idx = np.arange(n)
        iu, ju = np.nonzero(idx[:, None] < idx)  # np.triu_indices(n, 1), without its cost
        g_all = np.flatnonzero(width == n)
        p_all = seed_pair[g_all]
        first = np.flatnonzero(np.concatenate(([True], p_all[1:] != p_all[:-1])))
        n_seeds = np.diff(np.append(first, g_all.shape[0]))
        for c0, c1 in _cuts((n_seeds * (iu.shape[0] + 1) * max(n, 1)).tolist(), _FOLD_CELLS):
            g = g_all[first[c0] : first[c1] if c1 < first.shape[0] else g_all.shape[0]]
            s = seeds[g, :n]
            n_s = g.shape[0]
            # the kept exchanges: entries i and j of seed q are not both DISAPPEAR
            s_i, s_j = s[:, iu], s[:, ju]
            keep = s_i != s_j
            q, e = np.nonzero(keep)
            i, j, s_i, s_j = iu[e], ju[e], s_i[keep], s_j[keep]
            keys, place, per_key = _lex_keys(s)
            ex_keys = keys[:, q]
            change = s_j - s_i
            ex = np.arange(q.shape[0])
            ex_keys[i // per_key, ex] += change * place[i]
            ex_keys[j // per_key, ex] -= change * place[j]
            # rows 0 .. n_s - 1 are the seeds, then the exchanges
            lead = seed_pair[g]
            row_pair = np.concatenate((lead, lead[q]))
            order = np.lexsort((*np.concatenate([keys, ex_keys], axis=1)[::-1], row_pair))
            del keys, ex_keys
            # the seeds in sorted order, pair by pair as in g, whose pairs
            # start at seeds p0; rank[q] is seed q's place in its pair
            by_rank = order[order < n_s]
            p0 = first[c0:c1] - first[c0]
            rank = np.empty(n_s, dtype=np.int64)
            rank[by_rank] = np.arange(n_s) - np.repeat(p0, n_seeds[c0:c1])
            sorted_seeds = s[by_rank]
            at = np.flatnonzero(order >= n_s)
            info = np.full((order.shape[0], 3), -1, dtype=np.int64)
            info[:, 0] = rank[np.concatenate((np.arange(n_s), q))[order]]  # each sorted row's seed
            info[at, 1] = i[order[at] - n_s]
            info[at, 2] = j[order[at] - n_s]
            row_pair = row_pair[order]
            starts = np.flatnonzero(np.concatenate(([True], row_pair[1:] != row_pair[:-1])))
            ends = np.append(starts[1:], order.shape[0])
            sorted_seeds.flags.writeable = False
            info.flags.writeable = False
            cuts = (starts, ends, row_pair[starts], p0, p0 + n_seeds[c0:c1])
            for r0, r1, p, q0, q1 in zip(*(x.tolist() for x in cuts)):
                spaces[p] = CandidateSpace(
                    n_next=int(n_b[p]), seeds=sorted_seeds[q0:q1], swap_info=info[r0:r1]
                )
    return spaces


# ---------------------------------------------------------------------------
# Dynamic program.
# ---------------------------------------------------------------------------


def _pair_scores_vectorized(frame_a, frame_b, sp, noise, dt) -> np.ndarray:
    """pair_log_likelihood_first for every row of the candidate space sp.

    terms[i, k] is object i's position term when sent to object k of
    frame_b, and terms[i, n_b] = 0.0 its DISAPPEAR term, which entry -1
    reads as the last column. Each row's terms are its seed's, taken
    whole, with its two exchanged entries' terms written over them, and
    are summed in object order; an exchange keeps its seed's events.
    """
    a = np.asarray(frame_a, dtype=np.float64)
    b = np.asarray(frame_b, dtype=np.float64)
    n_b = b.shape[0]
    scale2 = (dt * noise.sigma_for_pair(0)) ** 2
    const = -math.log(2.0 * math.pi * scale2)
    disp = b[None, :, :] - a[:, None, :]
    terms = np.zeros((a.shape[0], n_b + 1))
    terms[:, :n_b] = const - np.einsum("ikd,ikd->ik", disp, disp) / (2.0 * scale2)
    seeds = sp.seeds
    q, i, j = sp.swap_info.T
    rows = terms[np.arange(a.shape[0]), seeds][q]
    at = np.flatnonzero(i >= 0)
    q, i, j = q[at], i[at], j[at]
    rows[at, i] = terms[i, seeds[q, j]]
    rows[at, j] = terms[j, seeds[q, i]]
    n_dis = (seeds < 0).sum(axis=1)
    n_app = n_b - (seeds.shape[1] - n_dis)
    return rows.sum(axis=1) + (noise.lambda_event * (n_dis + n_app))[sp.swap_info[:, 0]]


# cells per row chunk of the fold, per run of stage set-up and per run of
# space assembly: bounds their temporary arrays. A dense chunk counts, per
# row, its row table, seed terms, (4, C) exchange terms and C values; the
# chunking changes no value, as _Run.dense scores each row on its own
_FOLD_CELLS = 1 << 18
# the fixed cost _prune_pays adds before it lets a stage prune, kept with
# its formula from the exchange shortlist that the prune replaced
_PRUNE_SETUP_CELLS = 1 << 14


@dataclass(eq=False)
class _Run:
    """Stages t0 .. t1 - 1 of the fold, set up together; stage k is t0 + k.

    counts holds the frame counts t0 - 1 .. t1, so stage k scores
    frames of counts[k], counts[k + 1] and counts[k + 2] objects
    (n_prev, n_mid and n_next). The term tables are laid out with the
    run's own extent on each axis (_extents): p, the largest n_prev + 1,
    m, the largest n_mid, and nt = tables.shape[1], the largest n_next +
    1. Stage k's rows, from row k * p * m, are its padded table
    tab[i + 1, j, x] of shape (p, m, nt): mid object j's term when its
    predecessor is previous object i and its shifted target is x (0 is
    DISAPPEAR, lambda_event; x = l + 1 is next object l); i = -1 means j
    appeared at the mid frame (position Gaussian). table(k) views the
    stage's own entries; the padding is never read. The last row is
    zeros. Row rowtab[r, j] holds mid object j's terms in predecessor
    row r, and rowtab[r, n_mid] is the zero row: rows enter only
    through each mid object's predecessor.

    The arrays stack every stage: stage k owns rowtab rows r_off[k] ..
    r_off[k + 1] (its predecessor space), columns c_off[k] .. c_off[k +
    1] and seeds s_off[k] .. s_off[k + 1] (its successor space and that
    space's seed rows); seed_pos counts seeds within the stage. Column
    c is its seed seed_pos[c] with entries i and j exchanged, where a
    seed column exchanges the padding entry n_mid with itself.

    The entry lists are the run's only description of a column. A
    cell's entries are numbered j * nt + x over the n_mid + 1 rows
    rowtab[r, :n_mid + 1], so n_mid * nt is a zero. seed_idx lists each
    seed's entries j * nt + x in j order (x its shifted target of j),
    ending at that zero (the padding target 0 of j = n_mid);
    swap_idx[:, c] lists column c's two new terms and its two old
    ones, i * nt + x_j, j * nt + x_i, i * nt + x_i and j * nt + x_j,
    all four the zero for a seed column. cells reads these lists and
    adds the entries in this order for every cell. prunes[k] says
    whether _fold_stage prunes stage k's rows (_prune_pays).
    """

    t0: int
    counts: list[int]
    p: int
    m: int
    tables: np.ndarray
    r_off: list[int]
    c_off: list[int]
    s_off: list[int]
    rowtab: np.ndarray
    seed_pos: np.ndarray
    seed_idx: np.ndarray
    swap_idx: np.ndarray
    appear: np.ndarray
    prunes: list[bool]

    def table(self, k: int) -> np.ndarray:
        """Stage k's own term table, tab[i + 1, j, x], as a view."""
        p, m, nt = self.p, self.m, self.tables.shape[1]
        tab = self.tables[k * p * m : (k + 1) * p * m].reshape(p, m, nt)
        return tab[: self.counts[k] + 1, : self.counts[k + 1], : self.counts[k + 2] + 1]

    def dense(self, k: int, rows, g_next, cols=None) -> np.ndarray:
        """cells for stage k's predecessor rows `rows` (indices or a slice)
        over their term tables, transposed to shape (rows, cols). One
        table entry of all the rows is one contiguous array row, so each
        take copies one run over all rows, however few rows there are."""
        n_mid, nt = self.counts[k + 1], self.tables.shape[1]
        rowtab = self.rowtab[self.r_off[k] : self.r_off[k + 1], : n_mid + 1][rows]
        n_r = rowtab.shape[0]
        rt = self.tables[rowtab].reshape(n_r, (n_mid + 1) * nt).T.copy()
        return self.cells(k, rt, g_next, cols).T

    def cells(self, k: int, rt, g_next, cols=None) -> np.ndarray:
        """Values of the columns `cols` (indices; all when None) of stage
        k, shape (cols, rows), for rows whose entries j * nt + x are
        rt[j * nt + x, q]. Each row is scored on its own, so its values
        do not depend on which other rows are scored with it. The cumsum
        adds a seed's terms in j order, then its zero, so a seed sum is
        never -0.0, and the +-0.0 a seed column's swap_idx entries add
        leaves it as it is."""
        n_mid = self.counts[k + 1]
        c0, c1 = self.c_off[k], self.c_off[k + 1]
        c, g = (slice(c0, c1), g_next) if cols is None else (cols + c0, g_next[cols])
        seed_idx = self.seed_idx[self.s_off[k] : self.s_off[k + 1], : n_mid + 1]
        seed_val = rt.take(seed_idx, axis=0).cumsum(axis=1)[:, -1]
        e = seed_val.take(self.seed_pos[c], axis=0)
        d = rt.take(self.swap_idx[:, c], axis=0)
        e += d[0]
        e += d[1]
        e -= d[2]
        e -= d[3]
        e += self.appear[c, None]
        e += g[:, None]
        return e

    def fold_dense(self, k: int, g_next, g_prev, back, rows=None, cols=None) -> int:
        """First argmax over the columns `cols` of stage k for the rows
        `rows` (indices; all of either when None); returns cells scored."""
        n_mid, nt = self.counts[k + 1], self.tables.shape[1]
        n_rows = g_prev.shape[0] if rows is None else rows.shape[0]
        n_cols = self.c_off[k + 1] - self.c_off[k] if cols is None else cols.shape[0]
        # per row: rt, the seed terms, the exchange terms and the values
        n_seed = self.s_off[k + 1] - self.s_off[k]
        per_row = (n_mid + 1) * (nt + n_seed) + 5 * n_cols
        step = max(1, _FOLD_CELLS // per_row)
        for k0 in range(0, n_rows, step):
            q = slice(k0, k0 + step) if rows is None else rows[k0 : k0 + step]
            vals = self.dense(k, q, g_next, cols)
            bp = vals.argmax(axis=1)
            back[q] = bp if cols is None else cols[bp]
            g_prev[q] = vals[np.arange(bp.shape[0]), bp]
        return n_rows * n_cols


def _prune_pays(n_rows, n_seed_rows, n_cols, n_seed_cols, n_mid):
    """Whether _fold_stage prunes a stage's predecessor rows, elementwise,
    from closed-form cell counts.

    The formula is the cost model of the exchange shortlist that the
    prune replaced, kept so that the same stages prune: each non-seed
    row is charged the S (2n + 1) + n columns its exchange could move
    (S column seeds, n mid objects), each seed row all n_cols, and that
    total plus _PRUNE_SETUP_CELLS must stay below the stage's R C cells.
    Small stages, and spaces whose rows are all seeds, fold densely with
    no bounds. A pruning stage scores its seed rows over every column,
    then only the rows that survive the prune, over the live columns.
    """
    per_row = n_seed_cols * (2 * n_mid + 1) + n_mid
    cells = n_seed_rows * n_cols + (n_rows - n_seed_rows) * per_row
    return cells + _PRUNE_SETUP_CELLS < n_rows * n_cols


@dataclass(eq=False)
class _Bounds:
    """The prune's forward bounds over spaces 0 .. len(uf) - 1.

    uf[s][r] is UF, an upper bound on the score of every chain prefix
    that ends in row r of space s: the exact first-pair score for s =
    0, then max uf[s - 1] plus, per mid object of stage s, its best term
    over all possible predecessors (colmax), plus r's appearances.
    seed_prefix[s][q] is the best prefix into the q-th seed row of
    space s through seed rows only, the score of a real prefix. Both
    are _Run.cells of stage s: of its seed rows, and of colmax. A chain
    sum through space s adds at most terms[s] roundings of values whose
    magnitudes sum to at most scale[s]. pruned[s] counts the rows of
    space s that _fold_stage dropped.
    """

    uf: list[np.ndarray]
    seed_prefix: list[np.ndarray]
    terms: list[int]
    scale: list[float]
    pruned: list[int]

    def step(self, run: _Run, k: int, sp_prev, sp, lam: float) -> None:
        """Extend the bounds over stage s = len(uf), stage k of run, from
        space s - 1 (sp_prev) to space s (sp)."""
        n_mid, n_next, nt = run.counts[k + 1], run.counts[k + 2], run.tables.shape[1]
        tab, zeros = run.table(k), np.zeros(len(sp))
        # seed rows come in seed order, as seed_prefix[s - 1] holds them
        seed_rows, seed_cols = (np.flatnonzero(x.swap_info[:, 1] < 0) for x in (sp_prev, sp))
        h = run.dense(k, seed_rows, zeros, seed_cols)
        self.seed_prefix.append((self.seed_prefix[-1][:, None] + h).max(axis=0))
        # one entry table of colmax; its last row holds the zero entry
        colmax = np.zeros((n_mid + 1, nt))
        colmax[:n_mid, : n_next + 1] = tab.max(axis=0)
        col = run.cells(k, colmax.reshape(-1, 1), zeros)[:, 0]
        self.uf.append(self.uf[-1].max() + col)
        self.terms.append(self.terms[-1] + n_mid + 16)
        mag = (n_mid + 8) * float(np.abs(tab).max(initial=0.0)) + abs(lam) * n_next
        self.scale.append(self.scale[-1] + mag)

    def floor(self, run: _Run, k: int, g_seed, g_next) -> float | None:
        """LB - margin for stage k, or None where it cannot be trusted.

        g_seed holds the exact values of the seed rows of the stage's
        predecessor space. LB, the best seed-only prefix into a seed row
        plus that row's value, is a real chain's score. Each chain sum
        through the stage adds at most terms roundings of values whose
        magnitudes sum to at most scale, so it lies within terms * eps *
        scale of its real value; UF + UG, LB and the fold's values of
        the two chains _fold_stage compares are such sums, and the
        margin, 8 times that bound, covers all their roundings.
        """
        t = run.t0 + k
        n_mid = run.counts[k + 1]
        appear = run.appear[run.c_off[k] : run.c_off[k + 1]]
        lb = float((self.seed_prefix[t - 1] + g_seed).max())
        scale = (
            self.scale[t - 1]
            + (n_mid + 8) * float(np.abs(run.table(k)).max(initial=0.0))
            + float(np.abs(appear).max())
            + float(np.abs(g_next).max(where=g_next > -np.inf, initial=0.0))
        )
        margin = 8.0 * (self.terms[t - 1] + n_mid + 17) * np.finfo(np.float64).eps * scale
        return lb - margin if math.isfinite(lb) and math.isfinite(margin) else None

    @staticmethod
    def ug(run: _Run, k: int, sp_prev, seed_rows, swap_rows, g_next) -> np.ndarray:
        """UG of the swap rows of stage k's predecessor space sp_prev.

        UG bounds a row's value: the sum of each mid object's best term
        in its term-table row (rowmax), plus the best appearances and
        g_next of any column. A swap row's sum is its seed's plus the
        changes of its two moved mid objects.
        """
        n_mid, n_next, m = run.counts[k + 1], run.counts[k + 2], run.m
        # rowmax over the stage's table rows (i + 1) m + j, then a 0.0 that
        # stands for a moved DISAPPEAR entry
        n_tab = run.p * m
        g0 = k * n_tab
        rowmax = np.append(run.tables[g0 : g0 + n_tab, : n_next + 1].max(axis=1), 0.0)
        rowtab = run.rowtab[run.r_off[k] : run.r_off[k + 1], :n_mid][seed_rows]
        ug_seed = rowmax[rowtab - g0].sum(axis=1)
        # seed_rows are the seeds in order, so q indexes ug_seed too
        q, i, j = sp_prev.swap_info[swap_rows].T
        ug = ug_seed[q]
        # mid object a moves from predecessor i to j, b from j to i
        for obj, old, new in ((sp_prev.seeds[q, i], i, j), (sp_prev.seeds[q, j], j, i)):
            ug += rowmax[np.where(obj >= 0, (new + 1) * m + obj, n_tab)]
            ug -= rowmax[np.where(obj >= 0, (old + 1) * m + obj, n_tab)]
        appear = run.appear[run.c_off[k] : run.c_off[k + 1]]
        return ug + float((appear + g_next).max())

    def prune(self, run: _Run, k: int, sp_prev, seed_rows, swap_rows, g_seed, g_next):
        """The swap rows of stage k's predecessor space sp_prev whose UF +
        UG reaches floor, so that they may lie on an optimal chain, or
        None where the floor cannot be trusted."""
        floor = self.floor(run, k, g_seed, g_next)
        if floor is None:
            return None
        ug = self.ug(run, k, sp_prev, seed_rows, swap_rows, g_next)
        keep = self.uf[run.t0 + k - 1][swap_rows] + ug >= floor
        self.pruned[run.t0 + k - 1] = int(swap_rows.shape[0] - np.count_nonzero(keep))
        return swap_rows[keep]


def _forward_bounds(seq, spaces, noise, h1, runs, run: _Run, t_end: int):
    """_Bounds over spaces 0 .. t_end - 1, from the first-pair scores h1.

    Each stage steps through its own _Run: stages run.t0 .. t_end - 1
    through run, and the stages before run through the runs set up
    after it, which _stages sets up here once more, in time order. The
    last of them, the run set up next, is returned with the bounds for
    the fold to take as it is (None when run is the first).
    """
    lam = noise.lambda_event
    seeds = spaces[0].swap_info[:, 1] < 0
    bounds = _Bounds(
        uf=[h1],
        seed_prefix=[h1[seeds]],
        terms=[1],
        scale=[float(np.abs(h1).max())],
        pruned=[0] * len(spaces),
    )
    ahead = None
    for t0, t1 in reversed(runs):
        if t0 >= run.t0:
            break
        ahead = _stages(seq, spaces, noise, t0, t1)
        for t in range(t0, t1):
            bounds.step(ahead, t - t0, spaces[t - 1], spaces[t], lam)
    for t in range(run.t0, t_end):
        bounds.step(run, t - run.t0, spaces[t - 1], spaces[t], lam)
    return bounds, ahead


def _extents(counts) -> tuple[int, int]:
    """The first two axes of a run's term-table layout (_Run), from the
    run's frame counts: the largest n_prev + 1 and the largest n_mid."""
    return int(counts[:-2].max()) + 1, int(counts[1:-1].max())


def _term_tables(seq, noise, t0: int, t1: int):
    """Term tables of stages t0 .. t1 - 1, as _Run holds them.

    Returns the frame counts t0 - 1 .. t1 and the run's tables, with
    zero padding. The frames are padded with one scatter, and the stages
    of one width (their widest frame) are computed at once, each axis
    over frames padded to that axis's largest count in the group, and
    written into their blocks; every table entry sees the float
    operations of oracle.reference_stage_terms for its stage alone.
    """
    n_st = t1 - t0
    counts = np.array(seq.counts[t0 - 1 : t1 + 1], dtype=np.int64)
    n = int(counts.max())
    p, m = _extents(counts)
    dt, lam = seq.dt, noise.lambda_event
    sig = [noise.sigma_for_pair(t) for t in range(t0, t1)]
    v_scale2 = np.array([s * s for s in sig])
    p_scale2 = np.array([(dt * s) ** 2 for s in sig])
    v_const = np.array([-math.log(2.0 * math.pi * x) for x in v_scale2.tolist()])
    p_const = np.array([-math.log(2.0 * math.pi * x) for x in p_scale2.tolist()])
    # frames[axis, frame, object]; the mask runs frame by frame, so the
    # points fill it in order
    frames = np.zeros((2, n_st + 2, n))
    frames.transpose(1, 2, 0)[np.arange(n) < counts[:, None]] = np.concatenate(
        seq.frames[t0 - 1 : t1 + 1]
    )
    tables = np.zeros((n_st * p * m + 1, int(counts[2:].max()) + 1))
    blocks = tables[:-1].reshape(n_st, p, m, tables.shape[1])
    width = np.maximum(np.maximum(counts[:-2], counts[1:-1]), counts[2:])
    for w in sorted(set(width.tolist())):
        g = np.flatnonzero(width == w)
        a, b, c = (int(counts[g + d].max()) for d in range(3))
        prev_f, mid_f, next_f = frames[:, g, :a], frames[:, g + 1, :b], frames[:, g + 2, :c]
        # dot products and squared norms are written out: x term plus y
        # term, the order in which oracle.reference_stage_terms's einsum
        # adds them, with no fused multiply-add
        disp = next_f[:, :, None, :] - mid_f[:, :, :, None]  # (axis, stage, mid, next)
        v2 = disp / dt
        v1 = (mid_f[:, :, None, :] - prev_f[:, :, :, None]) / dt  # (axis, stage, prev, mid)
        blocks[g, : a + 1, :b, 0] = lam
        blocks[g, 0, :b, 1 : c + 1] = p_const[g, None, None] - (
            disp[0] * disp[0] + disp[1] * disp[1]
        ) / (2.0 * p_scale2[g, None, None])
        # v_const - (|v2|^2 - 2 v1.v2 + |v1|^2) / (2 v_scale2), in place
        vel = v1[0][..., None] * v2[0][:, None]
        vel += v1[1][..., None] * v2[1][:, None]
        vel *= 2.0
        np.subtract((v2[0] * v2[0] + v2[1] * v2[1])[:, None], vel, out=vel)
        vel += (v1[0] * v1[0] + v1[1] * v1[1])[..., None]
        vel /= 2.0 * v_scale2[g, None, None, None]
        np.subtract(v_const[g, None, None, None], vel, out=vel)
        blocks[g, 1 : a + 1, :b, 1 : c + 1] = vel
    return counts, tables


def _stages(seq, spaces, noise, t0: int, t1: int) -> _Run:
    """Stages t0 .. t1 - 1 of the fold, set up together in one _Run.

    Besides listing the spaces' arrays and _term_tables's few per width,
    the work is a fixed number of array operations per run. The seeds
    the run's spaces store are stacked, padded with DISAPPEAR: seed_idx
    is one take of the successor seeds, and rowtab one scatter of the
    predecessor seeds, which every predecessor row then copies from its
    seed with its two exchanged entries' terms moved (an exchange
    changes the predecessors of two mid objects only). Whether each
    stage prunes (_fold_stage) is decided here from the closed-form
    cell counts. _forward_bounds sets up the runs before the first
    pruning run once more, and hands the last of them on to the fold.
    """
    counts, tables = _term_tables(seq, noise, t0, t1)
    n_st = t1 - t0
    n_mid, n_next = counts[1:-1], counts[2:]
    p, m = _extents(counts)
    nt = tables.shape[1]
    lam = noise.lambda_event

    # the spaces t0 - 1 .. t1 - 1: rows [off[k], off[k + 1]) are space
    # t0 - 1 + k, of counts[k] entries, and its seeds are stacked seeds
    # sd_off[k] .. sd_off[k + 1] - 1, padded with DISAPPEAR, taken from
    # one concatenation of the spaces' seeds and one DISAPPEAR
    sps = spaces[t0 - 1 : t1]
    sizes = np.array([len(sp) for sp in sps], dtype=np.int64)
    n_seeds = np.array([sp.seeds.shape[0] for sp in sps], dtype=np.int64)
    off, sd_off = (np.concatenate(([0], np.cumsum(x))) for x in (sizes, n_seeds))
    info = np.concatenate([sp.swap_info for sp in sps])
    n_rows, n_pred = int(off[-2]), int(sd_off[-2])
    flat = np.concatenate([sp.seeds.reshape(-1) for sp in sps] + [[DISAPPEAR]])
    n_of = np.repeat(counts[:-1], n_seeds)
    start = np.cumsum(n_of) - n_of
    # one more padding column, so that entry -1 of a seed reads DISAPPEAR
    ent = np.arange(counts[:-1].max() + 1)
    seeds = flat[np.where(ent < n_of[:, None], start[:, None] + ent, flat.shape[0] - 1)]

    # columns: the successor spaces; only their seeds are read, as
    # shifted targets seed_xc (0 is DISAPPEAR, and so is the padding,
    # with one padding column more), since an exchange keeps its seed's
    # matched set
    c_off = off[1:] - off[1]
    s_off = sd_off[1:] - sd_off[1]
    c_sizes, s_sizes = sizes[1:], n_seeds[1:]
    col_stage = np.repeat(np.arange(n_st), c_sizes)
    cinfo = info[off[1] :]
    col_seed = cinfo[:, 1] < 0
    seed_xc = np.zeros((seeds.shape[0] - n_seeds[0], m + 1), dtype=np.int64)
    np.add(seeds[n_seeds[0] :, :m], 1, out=seed_xc[:, :m])
    # each column's seed, counted within its stage and over the run
    seed_pos = cinfo[:, 0]
    seed_of = s_off[col_stage] + seed_pos
    # the exchanged entries; a seed column exchanges the padding entry
    # n_mid with itself
    pad = n_mid[col_stage]
    i_of, j_of = np.where(col_seed, pad, cinfo[:, 1]), np.where(col_seed, pad, cinfo[:, 2])
    x_i, x_j = seed_xc[seed_of, i_of], seed_xc[seed_of, j_of]
    # entry lists (_Run): the padding target 0 at j = n_mid reads the zero
    # row, which ends each seed's list and is all four of a seed column's
    seed_idx = seed_xc + np.arange(m + 1) * nt
    i_t, j_t = i_of * nt, j_of * nt
    swap_idx = np.stack([i_t + x_j, j_t + x_i, i_t + x_i, j_t + x_j])
    matched = (seed_xc > 0).sum(axis=1)
    appear = lam * (n_next[col_stage] - matched[seed_of])

    # rows: the predecessor spaces. Column j + 1 of a seed's seed_tab[q]
    # starts as 1 + the predecessor of mid object j in seed q, 0 when
    # none: entry i of seed q goes to flat position q * (m + 2) + 1 + its
    # target, so DISAPPEAR entries and the padding all land in column 0,
    # which is dropped at the end. Then it becomes the table row ((k p +
    # i + 1) m + j), and column n_mid + 1 the zero row
    seed_tab = np.zeros((n_pred, m + 2), dtype=np.int64)
    at = seeds[:n_pred] + np.arange(1, n_pred * (m + 2) + 1, m + 2)[:, None]
    seed_tab.reshape(-1)[at] = np.arange(1, at.shape[1] + 1)
    seed_tab *= m
    seed_tab += np.repeat(np.arange(n_st) * p * m - 1, n_seeds[:-1])[:, None]
    seed_tab += np.arange(m + 2)
    seed_tab[np.arange(n_pred), np.repeat(n_mid, n_seeds[:-1]) + 1] = tables.shape[0] - 1
    # every row copies its seed's; exchanging entries i and j moves mid
    # object s[i] from predecessor i to j and s[j] from j to i, each a
    # shift of (j - i) m table rows. A seed row (i = j = -1) shifts by 0,
    # and a moved DISAPPEAR entry lands in column 0, dropped with the rest
    rinfo = info[:n_rows]
    row_seed = np.repeat(sd_off[:-2], sizes[:-1]) + rinfo[:, 0]
    rowtab = seed_tab.take(row_seed, axis=0)
    i, j = rinfo[:, 1], rinfo[:, 2]
    shift = (j - i) * m
    at = row_seed * seeds.shape[1]
    first = np.arange(1, n_rows * (m + 2) + 1, m + 2)
    flat_tab = rowtab.reshape(-1)
    flat_tab[first + seeds.reshape(-1)[at + i]] += shift
    flat_tab[first + seeds.reshape(-1)[at + j]] -= shift
    rowtab = rowtab[:, 1:]

    prunes = _prune_pays(sizes[:-1], n_seeds[:-1], c_sizes, s_sizes, n_mid)
    return _Run(
        t0=t0,
        counts=counts.tolist(),
        p=p,
        m=m,
        tables=tables,
        r_off=off[:-1].tolist(),
        c_off=c_off.tolist(),
        s_off=s_off.tolist(),
        rowtab=rowtab,
        seed_pos=seed_pos,
        seed_idx=seed_idx,
        swap_idx=swap_idx,
        appear=appear,
        prunes=prunes.tolist(),
    )


def _stage_runs(counts, sizes) -> list[tuple[int, int]]:
    """Stage ranges [t0, t1) for _stages, last stage first.

    A run grows while its term tables, counted as if padded to the
    run's widest frame on every axis, plus its spaces' cells stay within
    _FOLD_CELLS; a larger stage goes alone.
    """
    runs = []
    t1 = len(sizes)
    while t1 > 1:
        t0 = t1 - 1
        n = max(counts[t0 - 1 : t1 + 1])
        rows = sizes[t0 - 1] + sizes[t0]
        while t0 > 1:
            n2 = max(n, counts[t0 - 2])
            rows2 = rows + sizes[t0 - 2]
            if (t1 - t0 + 1) * (n2 + 1) ** 2 * n2 + rows2 * n2 > _FOLD_CELLS:
                break
            t0, n, rows = t0 - 1, n2, rows2
        runs.append((t0, t1))
        t1 = t0
    return runs


def _fold_stage(run: _Run, k: int, sp_prev, g_next, bounds=None):
    """One backward DP step for stage k of a run, g_prev(x) = max_y h_t(x, y) + g_next(y).

    sp_prev is the stage's predecessor space. Returns g_prev, the first
    argmax successor of every predecessor row and the number of cells
    scored. Every cell value comes from _Run.dense, which scores each
    row on its own.

    A stage with run.prunes[k] set, given bounds, prunes its
    predecessor rows first (bound-and-prune, as CarpeDiem or A* do over
    a chain). It scores its seed rows (swap_info's rows with no
    exchange) over every column, then drops every other row r whose
    bound on the best chain through it, UF(r) + UG(r), falls below LB,
    a real chain's score, less a margin that covers the rounding of the
    bounds and of the fold (_Bounds.prune). A pruned row gets g = -inf
    and back pointer 0, as a row whose every cell is -inf, so it drops
    out of the next stage's columns too. The survivors fold densely
    over the columns whose g_next is finite. This is exact. A row on
    an optimal chain, tied ones included, has UF + UG >= OPT >= LB up
    to rounding, so it stays. By backward induction every row of the
    chain the walk returns keeps its exact value and first argmax
    successor: that successor lies on the same chain, and any other
    column's value can only fall. So the matchings and the score are
    those of the unpruned fold. Every other stage, and a stage whose
    floor cannot be trusted (prune returns None), scores every cell of
    every row.
    """
    n_rows = len(sp_prev)
    g_prev = np.empty(n_rows)
    back = np.empty(n_rows, dtype=np.int64)
    if bounds is None or not run.prunes[k]:
        return g_prev, back, run.fold_dense(k, g_next, g_prev, back)
    rinfo = sp_prev.swap_info
    seed_rows = np.flatnonzero(rinfo[:, 1] == -1)
    swap_rows = np.flatnonzero(rinfo[:, 1] >= 0)
    cells = run.fold_dense(k, g_next, g_prev, back, seed_rows)
    kept = bounds.prune(run, k, sp_prev, seed_rows, swap_rows, g_prev[seed_rows], g_next)
    if kept is None:
        return g_prev, back, cells + run.fold_dense(k, g_next, g_prev, back, swap_rows)
    g_prev[swap_rows] = -np.inf
    back[swap_rows] = 0
    live = np.flatnonzero(g_next > -np.inf)
    return g_prev, back, cells + run.fold_dense(k, g_next, g_prev, back, kept, live)


# the layers of track(), in order, that TrackDiagnostics.layer_seconds times
TRACK_LAYERS = (
    "sweep",
    "gate",
    "tie_certificate",
    "sigma",
    "spaces",
    "stage_setup",
    "fold",
    "walk",
    "trajectories",
)


class _Laps:
    """Wall-clock laps of track(): each call charges the time since the
    previous call (or since construction) to one layer."""

    def __init__(self):
        self.seconds = dict.fromkeys(TRACK_LAYERS, 0.0)
        self._last = time.perf_counter()

    def __call__(self, layer: str) -> None:
        now = time.perf_counter()
        self.seconds[layer] += now - self._last
        self._last = now


@np.errstate(over="ignore")
def _solve_dp(seq, spaces, noise, lap=None):
    """solve_dp without its input checks, since track() passes the
    spaces it built for seq; plus the cells scored per stage (stage 0:
    first-pair scores), the stage runs in set-up order and the rows
    pruned per space (_fold_stage).

    Stages are set up a run at a time (_stage_runs), last run first, and
    folded sequentially in t; lap, when given, is charged per layer. A
    sum of terms that overflows is -inf; an optimum that is not finite
    ties every candidate, so it raises InvalidConfigError.
    """
    lap = lap or _Laps()
    n_pairs = len(seq) - 1
    # the walk's first-pair scores, and the prune's first forward bound
    h1 = _pair_scores_vectorized(seq.frames[0], seq.frames[1], spaces[0], noise, seq.dt)
    lap("walk")
    g = np.zeros(len(spaces[-1]))
    backs: list[np.ndarray | None] = [None] * (n_pairs - 1)
    cells = [len(spaces[0])] + [0] * (n_pairs - 1)
    runs = _stage_runs(seq.counts, [len(sp) for sp in spaces])
    bounds, ahead = None, None
    for t0, t1 in runs:
        run = ahead or _stages(seq, spaces, noise, t0, t1)
        ahead = None
        if bounds is None and any(run.prunes):
            # once per video, up to the last stage that prunes
            t_end = t0 + max(k for k, p in enumerate(run.prunes) if p)
            bounds, ahead = _forward_bounds(seq, spaces, noise, h1, runs, run, t_end)
        lap("stage_setup")
        for t in range(t1 - 1, t0 - 1, -1):
            g, backs[t - 1], cells[t] = _fold_stage(run, t - t0, spaces[t - 1], g, bounds)
        del run
        lap("fold")

    totals = h1 + g
    start = int(np.argmax(totals))
    score = float(totals[start])
    if not math.isfinite(score):
        raise InvalidConfigError(
            f"the optimal chain score is {score}: lambda_event or the detections overflow it"
        )
    idxs = [start]
    for t in range(1, n_pairs):
        idxs.append(int(backs[t - 1][idxs[-1]]))
    matchings = [spaces[t].vector_at(r) for t, r in enumerate(idxs)]
    lap("walk")
    pruned = (0,) * n_pairs if bounds is None else tuple(bounds.pruned)
    return matchings, score, tuple(cells), tuple(runs), pruned


def solve_dp(
    seq: FrameSequence,
    spaces: list[CandidateSpace],
    noise: NoiseModel,
) -> tuple[list[MatchingVector], float]:
    """Maximize the chain score over the product of candidate spaces.

    A backward value pass computes the best continuation of every
    candidate, storing argmax successors; the forward walk from the best
    first-pair candidate then reads off the optimal sequence. Spaces are
    lexicographically sorted and every stage keeps its first maximizer,
    so the walk returns the lexicographically smallest optimal sequence.
    """
    f = len(seq)
    if f < 2:
        raise InvalidInputError("need at least 2 frames")
    if len(spaces) != f - 1:
        raise InvalidInputError(f"need {f - 1} candidate spaces, got {len(spaces)}")
    for k, sp in enumerate(spaces):
        if len(sp) == 0:
            raise InvalidInputError(f"empty candidate space at pair {k}")
        if sp.n_from != seq.n_objects(k) or sp.n_next != seq.n_objects(k + 1):
            raise InvalidInputError(f"space {k} inconsistent with frame sizes")
    matchings, score, _, _, _ = _solve_dp(seq, spaces, noise)
    return matchings, score


# ---------------------------------------------------------------------------
# Sigma estimation.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SigmaEstimate:
    """Per-pair sigma estimates plus the pooled value.

    counts[k] is the number of 3-frame chained objects that informed
    pair k; pairs with no chains (always pair 0) inherit the pooled
    value. used_fallback marks the no-chains-anywhere case where sigma
    fell back to 1.0.
    """

    sigmas: tuple[float, ...]
    pooled: float
    counts: tuple[int, ...]
    used_fallback: bool


def estimate_sigma(
    seq: FrameSequence,
    matchings,
    mode: str = "per-frame",
    sigma_floor: float = 1e-6,
) -> SigmaEstimate:
    """Velocity-difference noise scale from a matching sequence.

    For every object chained through frames k-1, k, k+1 the velocity
    difference contributes its x and y squares; sigma_hat_k is the root
    mean of those squares (zero-mean convention). Pooled mode, and any
    pair without chains, uses the pool over all stages. With no chains
    anywhere sigma falls back to 1.0 and a warning is emitted.
    """
    f = len(seq)
    if len(matchings) != f - 1:
        raise InvalidInputError(f"need {f - 1} matching vectors, got {len(matchings)}")
    if mode not in ("per-frame", "pooled"):
        raise InvalidConfigError(f"unknown sigma mode {mode!r}")
    rows = np.full((f - 1, max(seq.counts[:-1], default=0)), DISAPPEAR, dtype=np.int64)
    for k, m in enumerate(matchings):
        if len(m) != seq.n_objects(k) or m.n_next != seq.n_objects(k + 1):
            raise InvalidInputError(f"matching {k} inconsistent with frame sizes")
        rows[k, : len(m)] = m.entries
    return _sigma_from_rows(seq, rows, mode, sigma_floor)


def _sigma_from_rows(
    seq: FrameSequence, rows: np.ndarray, mode: str, sigma_floor: float
) -> SigmaEstimate:
    """estimate_sigma over matchings given as rows padded with DISAPPEAR.

    Every chained object of every stage is scored at once; each stage's
    squares are summed in object order from zero, and the pool over
    stages with the builtin sum, as oracle.reference_estimate_sigma
    does one object at a time.
    """
    f = len(seq)
    counts = np.array(seq.counts, dtype=np.int64)
    start = np.cumsum(counts) - counts  # each frame's first detection in pts
    pts = np.concatenate(seq.frames)
    kk, jj = np.nonzero(rows >= 0)
    src = start[kk] + jj
    dst = start[kk + 1] + rows[kk, jj]
    # pred[x]: the detection linked into detection x, -1 when none
    pred = np.full(pts.shape[0], -1, dtype=np.int64)
    pred[dst] = src
    chained = pred[src] >= 0
    k = kk[chained]
    prev, mid, nxt = pred[src[chained]], src[chained], dst[chained]
    # an overflow shows as an infinite sigma, which track() rejects
    with np.errstate(over="ignore"):
        dv = (pts[nxt] - pts[mid]) / seq.dt - (pts[mid] - pts[prev]) / seq.dt
        # bincount adds its weights in input order from zero: stage by
        # stage, in object order
        ss = np.bincount(k, weights=np.vecdot(dv, dv), minlength=f - 1)
    cnt = np.bincount(k, minlength=f - 1)
    total_cnt = int(cnt.sum())
    used_fallback = total_cnt == 0
    if used_fallback:
        warnings.warn("no 3-frame chains to estimate sigma from; using 1.0")
        pooled = max(1.0, sigma_floor)
    else:
        pooled = max(math.sqrt(sum(ss.tolist()) / (2.0 * total_cnt)), sigma_floor)
    if mode == "pooled" or used_fallback:
        sigmas = (pooled,) * (f - 1)
    else:
        per = np.full(f - 1, pooled)
        has = cnt > 0
        per[has] = np.maximum(np.sqrt(ss[has] / (2.0 * cnt[has])), sigma_floor)
        sigmas = tuple(per.tolist())
    return SigmaEstimate(
        sigmas=sigmas, pooled=pooled, counts=tuple(cnt.tolist()), used_fallback=used_fallback
    )


# ---------------------------------------------------------------------------
# Pipeline.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrackerConfig(JsonConfig):
    """End-to-end tracking knobs; serializable as a flat JSON object.

    sigma_mode is per-frame, pooled, or fixed:<value>. lambda_event is a
    nonpositive float or "auto", which charges events the position-model
    log density at the gate distance.
    """

    delta: int = 1
    sigma_mode: str = "per-frame"
    sigma_floor: float = 1e-6
    lambda_event: float | str = "auto"
    gate_quantile: float = 0.99
    space_cap: int = 1_000_000

    def __post_init__(self):
        object.__setattr__(self, "delta", _config_int(self.delta, "delta", 0))
        fixed = self.fixed_sigma()
        if fixed is None and self.sigma_mode not in ("per-frame", "pooled"):
            raise InvalidConfigError(f"unknown sigma mode {self.sigma_mode!r}")
        floor = _config_float(self.sigma_floor, "sigma_floor")
        if fixed is not None and fixed < floor:
            raise InvalidConfigError(f"fixed sigma {fixed} below the floor {floor}")
        object.__setattr__(self, "sigma_floor", floor)
        if self.lambda_event != "auto":
            lam = _config_float(self.lambda_event, "lambda_event", _NONPOSITIVE)
            object.__setattr__(self, "lambda_event", lam)
        q = _config_float(self.gate_quantile, "gate_quantile", _FRACTION)
        object.__setattr__(self, "gate_quantile", q)
        object.__setattr__(self, "space_cap", _config_int(self.space_cap, "space_cap", 1))

    def fixed_sigma(self) -> float | None:
        """The fixed sigma value, or None for estimating modes."""
        if isinstance(self.sigma_mode, str) and self.sigma_mode.startswith("fixed:"):
            try:
                value = float(self.sigma_mode[len("fixed:") :])
            except ValueError:
                raise InvalidConfigError(f"bad fixed sigma in {self.sigma_mode!r}") from None
            return _config_float(value, "fixed sigma")
        return None


def _check_scales(dt: float, sigmas) -> None:
    """Reject noise scales whose squares leave the float range: the
    likelihoods take the log of sigma**2 and of (dt*sigma)**2."""
    for s in (min(sigmas), max(sigmas)):
        for scale in (s, dt * s):
            if not 0.0 < scale * scale < math.inf:
                raise InvalidConfigError(
                    f"noise scale {scale!r} (sigma {s!r}, dt {dt!r}) has no finite positive square"
                )


def auto_lambda(gate_cost: float, pooled_sigma: float, dt: float = 1.0) -> float:
    """Default event penalty: position-model log density at the gate
    distance, clamped to be nonpositive."""
    _check_scales(dt, (pooled_sigma,))
    scale2 = (dt * pooled_sigma) ** 2
    return min(0.0, -math.log(2.0 * math.pi * scale2) - gate_cost / (2.0 * scale2))


@dataclass(frozen=True)
class TrackDiagnostics:
    gate_cost: float
    d_star: tuple[int, ...]
    sigma: SigmaEstimate
    lambda_event: float
    space_sizes: tuple[int, ...]
    eval_count: int
    bmcf_matchings: tuple[MatchingVector, ...]
    # per frame pair, the cardinalities whose exact tie refinement ran
    tie_refinements: tuple[int, ...]
    # per frame pair, the columns its SSP sweep's Dijkstra searches
    # settled, the free column ending each search included
    sweep_steps: tuple[int, ...]
    # per frame pair, the leading augmentations of its sweep settled in
    # closed form, each a single step, without a Dijkstra round
    sweep_one_step: tuple[int, ...]
    # per stage, the cells the DP scored: first-pair scores at stage 0,
    # then R C for a stage that folds every row, or, for one that
    # prunes, its seed rows times C plus its surviving rows times the
    # columns with a finite value (eval_count is the closed form for a
    # dense DP)
    dp_cells: tuple[int, ...]
    # the stage ranges [t0, t1) set up together ahead of the fold, in
    # set-up order (last run first); stage t scores frames t - 1, t, t + 1
    stage_runs: tuple[tuple[int, int], ...]
    # per frame pair, the rows of its candidate space that the fold
    # pruned as unable to reach the optimum (0 where no pruning stage
    # reads the space); pruned rows score no cells
    pruned_rows: tuple[int, ...]
    # wall-clock seconds per layer of track(), keyed by TRACK_LAYERS;
    # left out of equality, since timings differ from run to run
    layer_seconds: dict[str, float] = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class TrackResult:
    trajectories: TrajectorySet
    matchings: tuple[MatchingVector, ...]
    score: float
    spaces: tuple[CandidateSpace, ...]
    diagnostics: TrackDiagnostics


def evaluation_count(space_sizes) -> int:
    """Number of stage-score evaluations a DP over these spaces needs:
    |S_0| first-pair scores plus |S_{t-1}|*|S_t| per later stage."""
    sizes = list(space_sizes)
    return sum(sizes[:1]) + sum(a * b for a, b in zip(sizes, sizes[1:]))


def track(
    seq: FrameSequence,
    cfg: TrackerConfig | None = None,
) -> TrackResult:
    """Full pipeline: bipartite seeding, sigma estimation, reduced
    spaces, dynamic program, trajectory assembly.

    The bipartite pass fixes the gate cost and each pair's d*; its
    matchings also feed the sigma estimate (unless a fixed sigma mode
    bypasses estimation). Every job runs once per video over all frame
    pairs: one batched sweep, one read of its fixed-d seeds (the gated
    matchings among them), one sigma pass, one space assembly, and
    stage set-up in runs ahead of the sequential fold. Space sizes are
    checked against space_cap from their closed form before any space
    is built. The diagnostics carry one wall-clock lap per layer.
    """
    cfg = cfg or TrackerConfig()
    if len(seq) < 2:
        raise InvalidInputError("need at least 2 frames")
    lap = _Laps()
    f = len(seq)
    sw = _sweep(seq.frames[:-1], seq.frames[1:])
    lap("sweep")
    gate = sw.gate(BipartiteConfig(gate_quantile=cfg.gate_quantile))
    lap("gate")
    n_a, n_b = sw.n_a, sw.n_b
    k_star = sw.gated(gate)
    d_star = n_a - k_star
    seed_pair, seed_k, space_sizes = _seed_cardinalities(n_a, n_b, d_star, cfg.delta)
    over = np.flatnonzero(space_sizes > cfg.space_cap)
    if over.shape[0]:
        k = int(over[0])
        raise SpaceCapError(
            f"candidate space at pair {k} has {space_sizes[k]} vectors, cap is {cfg.space_cap}"
        )
    seeds = sw.rows(seed_pair, seed_k)
    # d* lies in its own neighborhood, so each pair has one gated seed
    bmcf_rows = seeds[seed_k == k_star[seed_pair]]
    bmcf = _matching_vectors(bmcf_rows, n_a, n_b)
    tie_refinements = tuple(sw.tie_refinements.tolist())
    sweep_steps = tuple(sw.steps.tolist())
    sweep_one_step = tuple(sw.one_step.tolist())
    del sw  # the DP needs no sweep; free its cost matrices and snapshots
    lap("tie_certificate")

    fixed = cfg.fixed_sigma()
    if fixed is not None:
        sig = SigmaEstimate(
            sigmas=(fixed,) * (f - 1), pooled=fixed, counts=(0,) * (f - 1), used_fallback=False
        )
    else:
        sig = _sigma_from_rows(seq, bmcf_rows, cfg.sigma_mode, cfg.sigma_floor)
    _check_scales(seq.dt, sig.sigmas)
    lam = cfg.lambda_event
    if lam == "auto":
        lam = auto_lambda(gate, sig.pooled, seq.dt)
    noise = NoiseModel(sigmas=sig.sigmas, lambda_event=lam, sigma_floor=cfg.sigma_floor)
    lap("sigma")

    spaces = _assemble_spaces(seed_pair, seeds, n_a, n_b)
    lap("spaces")
    matchings, score, dp_cells, stage_runs, pruned_rows = _solve_dp(seq, spaces, noise, lap)
    trajs = assemble_trajectories(seq, matchings)
    lap("trajectories")
    sizes = tuple(len(s) for s in spaces)
    diags = TrackDiagnostics(
        gate_cost=float(gate),
        d_star=tuple(d_star.tolist()),
        sigma=sig,
        lambda_event=float(lam),
        space_sizes=sizes,
        eval_count=evaluation_count(sizes),
        bmcf_matchings=tuple(bmcf),
        tie_refinements=tie_refinements,
        sweep_steps=sweep_steps,
        sweep_one_step=sweep_one_step,
        dp_cells=dp_cells,
        stage_runs=stage_runs,
        pruned_rows=pruned_rows,
        layer_seconds=lap.seconds,
    )
    return TrackResult(
        trajectories=trajs,
        matchings=tuple(matchings),
        score=float(score),
        spaces=tuple(spaces),
        diagnostics=diags,
    )
