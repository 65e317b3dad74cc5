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

from .assignment import (
    BipartiteConfig,
    _gate_from_costs,
    _pair_costs,
    _sorted_unique,
    _sweep,
)
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
    _lex_order,
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
        sig = tuple(float(s) for s in raw)
        if not sig:
            raise InvalidConfigError("at least one sigma is required")
        floor = float(self.sigma_floor)
        if not math.isfinite(floor) or floor <= 0:
            raise InvalidConfigError("sigma_floor must be positive and finite")
        for s in sig:
            if not math.isfinite(s) or s < floor:
                raise InvalidConfigError(f"sigma {s} below the floor {floor}")
        lam = float(self.lambda_event)
        if not math.isfinite(lam) or lam > 0:
            raise InvalidConfigError("lambda_event must be finite and nonpositive")
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


def reduced_space_size(n_a, n_b, d_star, delta: int = 1):
    """Closed-form size of build_reduced_space's output, elementwise.

    Each d in the neighborhood contributes its seed plus one vector per
    pair of entry positions, less the C(d, 2) pairs of two DISAPPEARs.
    The counts may be arrays of many pairs (int64 in, int64 out), so
    track() checks every pair at once; plain ints give an int.
    """
    n_a, n_b, d_star = (np.asarray(x, dtype=np.int64) for x in (n_a, n_b, d_star))
    # d[s]: the s-th of the 2 delta + 1 counts around d_star, kept when feasible
    d = d_star + np.arange(-delta, delta + 1).reshape((-1,) + (1,) * d_star.ndim)
    keep = (d >= np.maximum(n_a - n_b, 0)) & (d <= n_a)
    size = (keep * (1 + n_a * (n_a - 1) // 2 - d * (d - 1) // 2)).sum(axis=0)
    return size if size.ndim else int(size)


def build_reduced_space(frame_a, frame_b, d_star: int, delta: int = 1) -> CandidateSpace:
    """Candidate space around the fixed-d bipartite optima.

    For each feasible d within delta of d_star: the cheapest matching
    with exactly d disappearances plus every vector obtained from it by
    exchanging one pair of entry positions. Exchanging two DISAPPEAR
    entries is the identity and is skipped. Blocks for different d are
    disjoint because their disappearance counts differ.
    """
    if int(delta) != delta or delta < 0:
        raise InvalidConfigError("delta must be a nonnegative integer")
    (cost,) = _pair_costs(FrameSequence((frame_a, frame_b)))
    n_a, n_b = cost.shape
    if not max(0, n_a - n_b) <= d_star <= n_a:
        raise InvalidInputError(f"d*={d_star} infeasible for frame sizes ({n_a}, {n_b})")
    # the sweep stops at the largest cardinality the neighborhood needs
    d_lo = neighborhood(d_star, int(delta), n_a, n_b)[0]
    sw = _sweep([cost], [n_a - d_lo])
    pair, ks = _seed_cardinalities(sw.n_a, sw.n_b, np.array([d_star]), int(delta))
    return _assemble_spaces(pair, sw.rows(pair, ks), sw.n_a, sw.n_b)[0]


def _seed_cardinalities(n_a, n_b, d_star, delta: int) -> tuple[np.ndarray, np.ndarray]:
    """Pair and cardinality n_a - d of every fixed-d seed, for each d in
    each pair's neighborhood, pair by pair in ascending d."""
    d_lo = np.maximum(np.maximum(n_a - n_b, 0), d_star - delta)
    d_hi = np.minimum(n_a, d_star + delta)
    counts = d_hi - d_lo + 1
    pair = np.repeat(np.arange(n_a.shape[0]), counts)
    d = d_lo[pair] + np.arange(pair.shape[0]) - np.repeat(np.cumsum(counts) - counts, counts)
    return pair, n_a[pair] - d


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


def _assemble_spaces(seed_pair, seeds, n_a, n_b) -> list[CandidateSpace]:
    """Reduced spaces of many pairs from their fixed-d seeds.

    seeds[g] is a seed of pair seed_pair[g] (ascending), padded with -1;
    the seeds of one pair differ in their disappearance counts. Each
    space holds its seeds and all their single-pair entry exchanges,
    skipping exchanges of two DISAPPEAR entries (the identity), with
    rows sorted and swap_info as CandidateSpace.build gives them
    (oracle.reference_seeded_space builds one space at a time). The
    pairs of one n_a are gathered through one exchange permutation, in
    runs of at most _FOLD_CELLS gathered cells, and sorted together with
    the pair as the leading key (_lex_order), then cut into spaces.
    """
    spaces: list[CandidateSpace | None] = [None] * n_a.shape[0]
    width = n_a[seed_pair]
    for n in sorted(set(width.tolist())):
        idx = np.arange(n)
        iu, ju = np.nonzero(idx[:, None] < idx)  # np.triu_indices(n, 1), without its cost
        n_ex = iu.shape[0]
        # perm[e]: the entry order of exchange e; row 0 keeps the seed
        perm = np.repeat(idx[None, :], n_ex + 1, axis=0)
        e = np.arange(1, n_ex + 1)
        perm[e, iu] = ju
        perm[e, ju] = iu
        ex_i, ex_j = np.r_[-1, iu], np.r_[-1, ju]
        g_all = np.flatnonzero(width == n)
        p_all = seed_pair[g_all]
        first = np.flatnonzero(np.r_[True, p_all[1:] != p_all[:-1]])
        n_seeds = np.diff(np.r_[first, g_all.shape[0]])
        for c0, c1 in _cuts((n_seeds * (n_ex + 1) * max(n, 1)).tolist(), _FOLD_CELLS):
            g = g_all[first[c0] : first[c1] if c1 < first.shape[0] else g_all.shape[0]]
            s = seeds[g, :n]
            mat = s[:, perm]
            keep = (mat != s[:, None, :]).any(axis=2)
            keep[:, 0] = True
            sizes = keep.sum(axis=1)
            rows = mat[keep]
            row_pair = np.repeat(seed_pair[g], sizes)
            ex = np.nonzero(keep)[1]
            del mat, keep  # free the gathered exchanges before the sort
            info = np.empty((rows.shape[0], 3), dtype=np.int64)
            # seed rows numbered over the whole run until the sort
            info[:, 0] = np.repeat(np.cumsum(sizes) - sizes, sizes)
            info[:, 1] = ex_i[ex]
            info[:, 2] = ex_j[ex]
            order = _lex_order(rows, row_pair)
            new_pos = np.empty_like(order)
            new_pos[order] = np.arange(order.shape[0])
            rows, info, row_pair = rows[order], info[order], row_pair[order]
            starts = np.flatnonzero(np.r_[True, row_pair[1:] != row_pair[:-1]])
            ends = np.r_[starts[1:], rows.shape[0]]
            info[:, 0] = new_pos[info[:, 0]] - np.repeat(starts, ends - starts)
            rows.flags.writeable = False
            info.flags.writeable = False
            for r0, r1, p in zip(starts.tolist(), ends.tolist(), row_pair[starts].tolist()):
                spaces[p] = CandidateSpace(
                    n_next=int(n_b[p]), matrix=rows[r0:r1], swap_info=info[r0:r1]
                )
    return spaces


# ---------------------------------------------------------------------------
# Dynamic program.
# ---------------------------------------------------------------------------


def _pair_scores_vectorized(frame_a, frame_b, matrix, noise, dt) -> np.ndarray:
    """pair_log_likelihood_first for every row of a candidate matrix.

    terms[i, k + 1] is object i's position term when sent to object k of
    frame_b, and terms[i, 0] = 0.0 its DISAPPEAR term; each row gathers
    its entries' terms through matrix + 1 and sums them in object order.
    """
    a = np.asarray(frame_a, dtype=np.float64)
    b = np.asarray(frame_b, dtype=np.float64)
    n_b = b.shape[0]
    scale2 = (dt * noise.sigma_for_pair(0)) ** 2
    const = -math.log(2.0 * math.pi * scale2)
    disp = b[None, :, :] - a[:, None, :]
    terms = np.zeros((a.shape[0], n_b + 1))
    terms[:, 1:] = const - np.einsum("ikd,ikd->ik", disp, disp) / (2.0 * scale2)
    n_dis = (matrix < 0).sum(axis=1)
    n_app = n_b - (matrix.shape[1] - n_dis)
    rows = terms[np.arange(a.shape[0]), matrix + 1]
    return rows.sum(axis=1) + noise.lambda_event * (n_dis + n_app)


# cells per row chunk of the fold, per run of stage set-up and per run of
# space assembly: bounds their temporary arrays. A dense chunk counts, per
# row, its row table, seed terms, (4, C) exchange terms and C values; the
# chunking changes no value, as both cell forms of _Run read the same
# entries in the same order
_FOLD_CELLS = 1 << 18
# the exchange-structured fold's fixed cost, in dense cells (about 0.5 ms)
_EXCHANGE_SETUP_CELLS = 1 << 14


@dataclass(eq=False)
class _Run:
    """Stages t0 .. t1 - 1 of the fold, set up together; stage k is t0 + k.

    Term tables: the stages whose widest frame holds m objects share one
    table of rows of nt = m + 1 entries, tables[k]. Stage k's rows are
    its padded table tab[i + 1, j, x] of shape (m + 1, m, m + 1), the
    group's in_group[k]-th: mid object j's term when its predecessor is
    previous object i and its shifted target is x (0 is DISAPPEAR,
    lambda_event; x = l + 1 is next object l); i = -1 means j appeared
    at the mid frame (position Gaussian). table(k) views the stage's
    own entries. One row of zeros closes each group's table. Row
    rowtab[r, j] holds mid object j's terms in predecessor row r, and
    rowtab[r, n_mid[k]] is the zero row: rows enter only through each
    mid object's predecessor.

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
    all four the zero for a seed column. Both forms, dense and cells,
    read these lists and add the entries in the same order, so they
    agree bit for bit. exchange[k] is the way _fold_stage folds stage k.
    """

    n_prev: list[int]
    n_mid: list[int]
    n_next: list[int]
    tables: list[np.ndarray]
    in_group: list[int]
    r_off: list[int]
    c_off: list[int]
    s_off: list[int]
    rowtab: np.ndarray
    seed_pos: np.ndarray
    seed_idx: np.ndarray
    swap_idx: np.ndarray
    appear: np.ndarray
    exchange: list[bool]

    def table(self, k: int) -> np.ndarray:
        """Stage k's own term table, tab[i + 1, j, x], as a view."""
        nt = self.tables[k].shape[1]
        n_tab = nt * (nt - 1)
        g0 = self.in_group[k] * n_tab
        tab = self.tables[k][g0 : g0 + n_tab].reshape(nt, nt - 1, nt)
        return tab[: self.n_prev[k] + 1, : self.n_mid[k], : self.n_next[k] + 1]

    def cells(self, k: int, r, c, g_next) -> np.ndarray:
        """Values of the cells (r[q], c[q]) of stage k: h_t(r, c) + g_next[c].

        The sparse form, for the exchange fold's exact rescoring: it
        gathers each cell's entries, seed_idx's and swap_idx's, from the
        table itself, then adds the appearances and g_next as dense does.
        Entry e of row r is tabf[(rowtab[r, e // nt] - e // nt) * nt + e],
        and a seed's j-th entry has e // nt = j.
        """
        n_mid, nt = self.n_mid[k], self.tables[k].shape[1]
        tabf = self.tables[k].reshape(-1)
        base = self.rowtab[self.r_off[k] : self.r_off[k + 1], : n_mid + 1][r]
        base -= np.arange(n_mid + 1)
        base *= nt
        cg = c + self.c_off[k]
        s = self.seed_pos[cg] + self.s_off[k]
        e = np.cumsum(tabf[base + self.seed_idx[s, : n_mid + 1]], axis=1)[:, -1]
        idx = self.swap_idx[:, cg]
        d = tabf[base[np.arange(r.shape[0]), idx // nt] + idx]
        e += d[0]
        e += d[1]
        e -= d[2]
        e -= d[3]
        return e + self.appear[cg] + g_next[c]

    def dense(self, k: int, rows, g_next) -> np.ndarray:
        """Values of every column of stage k for its predecessor rows
        `rows` (indices or a slice), shape (rows, n_cols).

        The dense form: takes from the rows' term tables, rt[j * nt + x,
        q] for row q. The cumsum adds a seed's terms in j order, then
        its zero, so a seed sum is never -0.0, and the +-0.0 a seed
        column's swap_idx entries add leaves it as it is. One table
        entry of all the rows is one contiguous array row, so each take
        copies one run over all rows, however few rows there are; the
        values come out column by column and are returned transposed.
        """
        n_mid, nt = self.n_mid[k], self.tables[k].shape[1]
        c0, c1 = self.c_off[k], self.c_off[k + 1]
        rowtab = self.rowtab[self.r_off[k] : self.r_off[k + 1], : n_mid + 1][rows]
        n_r = rowtab.shape[0]
        rt = self.tables[k][rowtab].reshape(n_r, (n_mid + 1) * nt).T.copy()
        seed_idx = self.seed_idx[self.s_off[k] : self.s_off[k + 1], : n_mid + 1]
        seed_val = np.cumsum(np.take(rt, seed_idx, axis=0), axis=1)[:, -1]
        e = np.take(seed_val, self.seed_pos[c0:c1], axis=0)
        d = np.take(rt, self.swap_idx[:, c0:c1], axis=0)
        e += d[0]
        e += d[1]
        e -= d[2]
        e -= d[3]
        e += self.appear[c0:c1, None]
        e += g_next[:, None]
        return e.T

    def fold_dense(self, k: int, g_next, g_prev, back) -> int:
        """First argmax over all columns of stage k for every row; returns cells scored."""
        n_mid, nt = self.n_mid[k], self.tables[k].shape[1]
        n_rows, n_cols = g_prev.shape[0], self.c_off[k + 1] - self.c_off[k]
        # per row: rt, the seed terms, the exchange terms and the values
        n_seed = self.s_off[k + 1] - self.s_off[k]
        per_row = (n_mid + 1) * (nt + n_seed) + 5 * n_cols
        step = max(1, _FOLD_CELLS // per_row)
        for k0 in range(0, n_rows, step):
            vals = self.dense(k, slice(k0, k0 + step), g_next)
            bp = np.argmax(vals, axis=1)
            back[k0 : k0 + step] = bp
            g_prev[k0 : k0 + step] = vals[np.arange(bp.shape[0]), bp]
        return n_rows * n_cols

    def margin(self, k: int, g_next) -> float:
        """Shortlist margin of stage k: covers twice the rounding error of both sums.

        An exact cell value (cells or dense) and a decomposed one (base_s
        plus two term changes) each add at most n_mid + 8 table terms, one
        appearance term and one g_next value in at most n_mid + 16
        roundings, so each lies within (n_mid + 16) eps B of the real
        cell value, B the sum of those magnitudes. A row's exact
        maximizers then lie within twice both bounds of its decomposed
        maximum. Only the stage's own table entries count, not the
        padding of its group.
        """
        n_mid, c0, c1 = self.n_mid[k], self.c_off[k], self.c_off[k + 1]
        if n_mid == 0 or c1 == c0:
            return 0.0
        bound = (
            (n_mid + 8) * float(np.abs(self.table(k)).max())
            + float(np.abs(self.appear[c0:c1]).max())
            + float(np.abs(g_next).max())
        )
        return 4.0 * (n_mid + 16) * np.finfo(np.float64).eps * bound


def _fold_exchange(run: _Run, k: int, sp_prev, margin, g_next, g_prev, back) -> int:
    """The exchange-structured fold of _fold_stage; returns cells scored."""
    n_mid, nt = run.n_mid[k], run.tables[k].shape[1]
    c0, c1, s0, s1 = run.c_off[k], run.c_off[k + 1], run.s_off[k], run.s_off[k + 1]
    n_cols, n_seed = c1 - c0, s1 - s0
    # each column's exchanged entries (n_mid for a seed column) and each
    # seed's shifted targets, read from the entry lists
    seed_pos, (i_of, j_of) = run.seed_pos[c0:c1], run.swap_idx[2:, c0:c1] // nt
    is_swap = i_of < n_mid
    seed_cols, seed_xc = np.flatnonzero(~is_swap), run.seed_idx[s0:s1, :n_mid] % nt
    rowtab = run.rowtab[run.r_off[k] : run.r_off[k + 1], :n_mid]
    rinfo = sp_prev.swap_info
    seed_rows = np.flatnonzero(rinfo[:, 1] == -1)
    swap_rows = np.flatnonzero(rinfo[:, 1] >= 0)
    n_row_seed = seed_rows.shape[0]
    # a row seed's own values are exact: they are base_s
    base = run.dense(k, seed_rows, g_next)
    bp = np.argmax(base, axis=1)
    back[seed_rows] = bp
    g_prev[seed_rows] = base[np.arange(n_row_seed), bp]
    cells = base.size
    if swap_rows.shape[0] == 0:
        return cells

    # columns of each column seed in index order, padded with the seed column
    sizes = np.bincount(seed_pos, minlength=n_seed)
    by_seed = np.argsort(seed_pos, kind="stable")
    within = np.arange(n_cols) - (np.cumsum(sizes) - sizes)[seed_pos[by_seed]]
    block = np.repeat(seed_cols[:, None], sizes.max(), axis=1)
    block[seed_pos[by_seed], within] = by_seed
    # cut lists, per (row seed, column seed): the first `cut` columns by
    # (-base_s, index), their base_s (-inf past the block and in one
    # extra slot) and exch[r, u, s, k], whether entry k exchanges object u
    cut = min(2 * n_mid - 1, block.shape[1])
    keys = np.where(np.arange(block.shape[1]) < sizes[:, None], -base[:, block], np.inf)
    order = np.argsort(keys, axis=2, kind="stable")[:, :, :cut]
    top = block[np.arange(n_seed)[:, None], order]  # (row seeds, n_seed, cut)
    top_base = np.full(top.shape[:2] + (cut + 1,), -np.inf)
    top_base[:, :, :cut] = -np.take_along_axis(keys, order, axis=2)
    exch = np.zeros((n_row_seed, n_mid, n_seed, cut), dtype=bool)
    ri, si, ki = np.nonzero(is_swap[top])
    exch[ri, i_of[top[ri, si, ki]], si, ki] = True
    exch[ri, j_of[top[ri, si, ki]], si, ki] = True
    # touch[u, s, v]: column seed s with entries u and v exchanged (else s
    # itself), where u's target is seed s's target of v
    touch = np.repeat(seed_cols[None, :, None], n_mid, axis=0).repeat(n_mid, axis=2)
    sw = np.flatnonzero(is_swap)
    touch[i_of[sw], seed_pos[sw], j_of[sw]] = sw
    touch[j_of[sw], seed_pos[sw], i_of[sw]] = sw
    base_touch = base[:, touch]  # (row seeds, n_mid, n_seed, n_mid)

    s_all = rinfo[swap_rows, 0]
    sr_all = np.searchsorted(seed_rows, s_all)  # row seed ranks
    # the two moved mid objects; a DISAPPEAR side stands in as the other
    m_all = sp_prev.matrix[s_all[:, None], rinfo[swap_rows, 1:]]
    gone_all = m_all < 0
    m_all = np.where(gone_all, m_all[:, ::-1], m_all)
    tab_rows = run.tables[k]
    sides = np.arange(2)
    sidx = np.arange(n_seed)
    n_blk = 2 * n_seed * n_mid
    step = max(1, _FOLD_CELLS // (n_blk + n_seed * (cut + 1)))
    seed_terms = tab_rows[rowtab[seed_rows]]  # (row seeds, n_mid, nt)
    for k0 in range(0, swap_rows.shape[0], step):
        q = slice(k0, k0 + step)
        x, m, gone, r = swap_rows[q], m_all[q], gone_all[q], sr_all[q]
        r1 = r[:, None]
        nb = x.shape[0]
        ar = np.arange(nb)
        # dc[:, side]: the change of that side's terms per target; c_at
        # reads it at seed s's target of v, which column touch[m, s, v]
        # gives m, and c_seed at m's own seed target
        dc = tab_rows[rowtab[x[:, None], m]] - seed_terms[r1, m]
        dc[gone] = 0.0
        c_at = dc[:, :, seed_xc]  # (nb, 2, n_seed, n_mid)
        c_seed = c_at[ar[:, None], sides, :, m]  # (nb, 2, n_seed)
        seed_val = c_seed[:, 0] + c_seed[:, 1]
        # touch blocks: each column keeps the other side's seed target,
        # but for the a-b exchange itself
        blk = base_touch[r1, m]  # (nb, 2, n_seed, n_mid)
        blk += c_at
        blk += c_seed[:, ::-1, :, None]
        a, b = m[:, 0], m[:, 1]
        blk[ar, 0, :, b] = blk[ar, 1, :, a] = (
            base_touch[r, a, :, b] + c_at[ar, 0, :, b] + c_at[ar, 1, :, a]
        )
        blk[gone] = -np.inf  # a stand-in's block is the other side's
        blk = blk.reshape(nb, n_blk)
        # untouched columns keep both seed targets: the first entry of
        # each cut list that exchanges neither a nor b is their best (at
        # most 2n - 3 columns of a block touch a or b)
        first = np.argmin(exch[r, a] | exch[r, b], axis=2)  # (nb, n_seed)
        free = top_base[r1, sidx, first] + seed_val
        thr = np.maximum(blk.max(axis=1), free.max(axis=1))[:, None] - margin
        # the next base_s in the list bounds every other untouched
        # column; a list that might hide a shortlisted one adds its block
        ro, so = np.nonzero(top_base[r1, sidx, first + 1] + seed_val >= thr)
        br, bk = np.divmod(np.flatnonzero(blk >= thr), n_blk)
        side, pos = np.divmod(bk, n_seed * n_mid)
        fr, fs = np.nonzero(free >= thr)
        key = _sorted_unique(
            np.concatenate([
                x[br] * n_cols + touch.reshape(n_mid, -1)[m[br, side], pos],
                x[fr] * n_cols + top[r[fr], fs, first[fr, fs]],
                (x[ro, None] * n_cols + block[so]).ravel(),
            ])
        )
        cells += blk.size + free.size + key.shape[0]
        rr, c = np.divmod(key, n_cols)
        vals = run.cells(k, rr, c, g_next)
        # cells run by row then column: keep each row's first maximum
        start = np.flatnonzero(np.r_[True, rr[1:] != rr[:-1]])
        best = np.maximum.reduceat(vals, start)
        hit = np.flatnonzero(vals == np.repeat(best, np.diff(np.r_[start, rr.shape[0]])))
        win = hit[np.r_[True, rr[hit][1:] != rr[hit][:-1]]]
        back[rr[win]] = c[win]
        g_prev[rr[win]] = vals[win]
    return cells


def _stages(seq, spaces, noise, t0: int, t1: int) -> _Run:
    """Stages t0 .. t1 - 1 of the fold, set up together in one _Run.

    Besides listing the spaces' arrays, the work is a fixed number of
    array operations per run, plus a few per width group: the frames are
    padded with one scatter, the term tables of the stages of one width
    (their widest frame) are computed at once over frames padded to it,
    and the run's spaces are stacked, padded with DISAPPEAR, so rowtab
    is one scatter of the predecessor rows and seed_idx one take of the
    successor seeds. Every table entry sees the float operations of
    oracle.reference_stage_terms for its stage alone. Each stage's way
    of folding (_fold_stage) is decided here from the closed-form cell
    counts.
    """
    n_st = t1 - t0
    counts = np.array(seq.counts[t0 - 1 : t1 + 1], dtype=np.int64)
    n = int(counts.max())
    n_prev, n_mid, n_next = counts[:-2], counts[1:-1], counts[2:]
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
    width = np.maximum(np.maximum(n_prev, n_mid), n_next)
    in_group = np.empty(n_st, dtype=np.int64)
    zero_row = np.empty(n_st, dtype=np.int64)
    tables_of = {}
    for m in sorted(set(width.tolist())):
        g = np.flatnonzero(width == m)
        in_group[g] = np.arange(g.shape[0])
        # the group's padded tables as rows of m + 1 entries, then a zero row
        n_tab = g.shape[0] * (m + 1) * m
        zero_row[g] = n_tab
        rows = np.empty((n_tab + 1, m + 1))
        rows[n_tab] = 0.0
        padded = rows[:n_tab].reshape(g.shape[0], m + 1, m, m + 1)
        prev_f, mid_f, next_f = frames[:, g, :m], frames[:, g + 1, :m], frames[:, g + 2, :m]
        # dot products and squared norms are written out: x term plus y
        # term, the order in which oracle.reference_stage_terms's einsum
        # adds them, with no fused multiply-add
        disp = next_f[:, :, None, :] - mid_f[:, :, :, None]  # (axis, stage, mid, next)
        v2 = disp / dt
        v1 = (mid_f[:, :, None, :] - prev_f[:, :, :, None]) / dt  # (axis, stage, prev, mid)
        padded[:, :, :, 0] = lam
        padded[:, 0, :, 1:] = p_const[g, None, None] - (
            disp[0] * disp[0] + disp[1] * disp[1]
        ) / (2.0 * p_scale2[g, None, None])
        # v_const - (|v2|^2 - 2 v1.v2 + |v1|^2) / (2 v_scale2), in place
        vel = v1[0][..., None] * v2[0][:, None]
        vel += v1[1][..., None] * v2[1][:, None]
        vel *= 2.0
        np.subtract((v2[0] * v2[0] + v2[1] * v2[1])[:, None], vel, out=vel)
        vel += (v1[0] * v1[0] + v1[1] * v1[1])[..., None]
        vel /= 2.0 * v_scale2[g, None, None, None]
        np.subtract(v_const[g, None, None, None], vel, out=padded[:, 1:, :, 1:])
        tables_of[m] = rows

    # the spaces t0 - 1 .. t1 - 1: rows [off[k], off[k + 1]) are space
    # t0 - 1 + k. Only the seeds of the successor spaces are read, so
    # stacked holds the predecessor spaces, then the last space's seeds,
    # padded with DISAPPEAR
    sps = spaces[t0 - 1 : t1]
    sizes = np.array([len(sp) for sp in sps], dtype=np.int64)
    off = np.r_[0, np.cumsum(sizes)]
    info = np.concatenate([sp.swap_info for sp in sps])
    is_seed = info[:, 1] < 0
    seed_cum = np.r_[0, np.cumsum(is_seed)]
    n_seeds = np.diff(seed_cum[off])
    n_rows = int(off[-2])
    stacked = np.full((n_rows + int(n_seeds[-1]), n), DISAPPEAR, dtype=np.int64)
    stacked[:n_rows][np.arange(n) < np.repeat(n_prev, sizes[:-1])[:, None]] = np.concatenate(
        [sp.matrix.reshape(-1) for sp in sps[:-1]]
    )
    stacked[n_rows:, : sps[-1].n_from] = sps[-1].matrix[is_seed[n_rows:]]

    # columns: the successor spaces; only their seeds are read, as
    # shifted targets seed_xc (0 is DISAPPEAR, and so is the padding,
    # with one padding column more), since an exchange keeps its seed's
    # matched set
    c_off = off[1:] - off[1]
    s_off = seed_cum[off[1:]] - seed_cum[off[1]]
    c_sizes, s_sizes = sizes[1:], n_seeds[1:]
    col_stage = np.repeat(np.arange(n_st), c_sizes)
    cinfo, col_seed = info[off[1] :], is_seed[off[1] :]
    seed_cols = np.flatnonzero(col_seed)
    seed_xc = np.zeros((seed_cols.shape[0], n + 1), dtype=np.int64)
    seed_rows = seed_cols + off[1]  # in stacked; the last space's come last
    seed_rows[s_off[-2] :] = np.arange(n_rows, stacked.shape[0])
    np.add(stacked[seed_rows], 1, out=seed_xc[:, :n])
    # each column's seed, counted over the run and within its stage
    seed_of = seed_cum[off[1] + c_off[col_stage] + cinfo[:, 0]] - seed_cum[off[1]]
    seed_pos = seed_of - s_off[col_stage]
    # the exchanged entries; a seed column exchanges the padding entry
    # n_mid with itself
    pad = n_mid[col_stage]
    i_of, j_of = np.where(col_seed, pad, cinfo[:, 1]), np.where(col_seed, pad, cinfo[:, 2])
    x_i, x_j = seed_xc[seed_of, i_of], seed_xc[seed_of, j_of]
    # entry lists (_Run): the padding target 0 at j = n_mid reads the zero
    # row, which ends each seed's list and is all four of a seed column's
    nt = width + 1
    seed_idx = seed_xc + np.arange(n + 1) * np.repeat(nt, s_sizes)[:, None]
    nt_c = nt[col_stage]
    i_t, j_t = i_of * nt_c, j_of * nt_c
    swap_idx = np.stack([i_t + x_j, j_t + x_i, i_t + x_i, j_t + x_j])
    matched = (seed_xc > 0).sum(axis=1)
    appear = lam * (n_next[col_stage] - matched[seed_of])

    # rows: the predecessor spaces. rowtab[r, j] starts as 1 + the
    # predecessor of mid object j in row r, 0 when none: entry i of row r
    # goes to flat position r * (n + 2) + 1 + its target, computed in
    # place in stacked, so DISAPPEAR entries and the padding all land in
    # column 0, which is dropped. Then it becomes the table row
    # ((in_group * (m + 1) + i + 1) * m + j), and column n_mid the zero row
    rowtab = np.zeros((n_rows, n + 2), dtype=np.int64)
    at = stacked[:n_rows]
    at += np.arange(1, n_rows * (n + 2) + 1, n + 2)[:, None]
    rowtab.reshape(-1)[at] = np.arange(1, n + 1)
    rowtab *= np.repeat(width, sizes[:-1])[:, None]
    rowtab += np.repeat(in_group * (width + 1) * width - 1, sizes[:-1])[:, None]
    rowtab += np.arange(n + 2)
    rowtab = rowtab[:, 1:]
    rowtab[np.arange(n_rows), np.repeat(n_mid, sizes[:-1])] = np.repeat(zero_row, sizes[:-1])

    # _fold_stage's closed form: a row seed scores C cells, any other row
    # S (2n + 1) decomposed ones plus n for its exact rescoring (S column
    # seeds, n mid objects), and the exchange way adds _EXCHANGE_SETUP_CELLS
    r_sizes, r_seeds = sizes[:-1], n_seeds[:-1]
    per_row = s_sizes * (2 * n_mid + 1) + n_mid
    cells = r_seeds * c_sizes + (r_sizes - r_seeds) * per_row
    exchange = cells + _EXCHANGE_SETUP_CELLS < r_sizes * c_sizes

    return _Run(
        n_prev=n_prev.tolist(),
        n_mid=n_mid.tolist(),
        n_next=n_next.tolist(),
        tables=[tables_of[m] for m in width.tolist()],
        in_group=in_group.tolist(),
        r_off=off[:-1].tolist(),
        c_off=c_off.tolist(),
        s_off=s_off.tolist(),
        rowtab=rowtab,
        seed_pos=seed_pos,
        seed_idx=seed_idx,
        swap_idx=swap_idx,
        appear=appear,
        exchange=exchange.tolist(),
    )


def _stage_runs(counts, sizes) -> list[tuple[int, int]]:
    """Stage ranges [t0, t1) for _stages, last stage first.

    A run grows while its padded term tables plus its stacked space
    cells stay within _FOLD_CELLS; a larger stage goes alone.
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


def _fold_stage(run: _Run, k: int, sp_prev, g_next):
    """One backward DP step for stage k of a run, g_prev(x) = max_y h_t(x, y) + g_next(y).

    sp_prev is the stage's predecessor space. Returns g_prev, the first
    argmax successor of every predecessor row and the number of cells
    scored. Every cell value comes from _Run.dense or _Run.cells, which
    agree bit for bit, so both ways of folding return the same arrays:

    - dense: every cell of every row;
    - exchange-structured, from both spaces' swap provenance. A
      row x is its seed s with entries p and q exchanged, which moves
      the predecessors of at most two mid objects a = s[p] and b = s[q],
      so h(x, y) + g(y) = base_s(y) + c_a[y_a] + c_b[y_b], with base_s
      scored densely once per row seed. Per column seed, a row scores
      2n + 1 columns. The 2n that exchange a or b with some entry
      (touch blocks) come from per-stage tables of base_s. Every other
      column keeps the seed's targets of a and b, so the best of them
      is the first entry of the seed's cut list (its columns sorted by
      (-base_s, index), cut after 2n - 1) that exchanges neither a nor
      b: an integer test on the list's exchanged entries, no value
      gathers. Decomposed values only shortlist the columns within a
      rounding margin of the row's decomposed maximum (_Run.margin);
      the shortlist is scored exactly and its first argmax taken. The
      list's next entry bounds every other untouched column; where that
      bound reaches the margin, the seed's whole block of columns joins
      the row's shortlist. Work per stage falls from O(R C) to
      O(R delta n).

    The way is run.exchange[k], which _stages sets to the one with
    fewer closed-form cells. Spaces whose rows are all seeds, such as
    full spaces, always cost R C cells, so the closed form folds them
    densely.
    """
    n_rows = len(sp_prev)
    g_prev = np.empty(n_rows)
    back = np.empty(n_rows, dtype=np.int64)
    if run.exchange[k]:
        margin = run.margin(k, g_next)
        if math.isfinite(margin):
            return g_prev, back, _fold_exchange(run, k, sp_prev, margin, g_next, g_prev, back)
    return g_prev, back, run.fold_dense(k, g_next, g_prev, back)


# the layers of track(), in order, that TrackDiagnostics.layer_seconds times
TRACK_LAYERS = (
    "gate",
    "sweep",
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
    """solve_dp, plus the cells scored per stage (stage 0: first-pair
    scores) and the stage runs in set-up order.

    Stages are set up a run at a time (_stage_runs), last run first, and
    folded sequentially in t; lap, when given, is charged per layer. A
    sum of terms that overflows is -inf; an optimum that is not finite
    ties every candidate, so it raises InvalidConfigError.
    """
    lap = lap or _Laps()
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

    n_pairs = f - 1
    g = np.zeros(len(spaces[-1]))
    backs: list[np.ndarray | None] = [None] * (n_pairs - 1)
    cells = [len(spaces[0])] + [0] * (n_pairs - 1)
    runs = _stage_runs(seq.counts, [len(sp) for sp in spaces])
    for t0, t1 in runs:
        run = _stages(seq, spaces, noise, t0, t1)
        lap("stage_setup")
        for t in range(t1 - 1, t0 - 1, -1):
            g, backs[t - 1], cells[t] = _fold_stage(run, t - t0, spaces[t - 1], g)
        del run
        lap("fold")

    h1 = _pair_scores_vectorized(seq.frames[0], seq.frames[1], spaces[0].matrix, noise, seq.dt)
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
    return matchings, score, tuple(cells), tuple(runs)


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
    matchings, score, _, _ = _solve_dp(seq, spaces, noise)
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
    k, j = kk[chained], jj[chained]
    prev, mid, nxt = pred[src[chained]], src[chained], dst[chained]
    sq = np.zeros(rows.shape)
    # an overflow shows as an infinite sigma, which track() rejects
    with np.errstate(over="ignore"):
        dv = (pts[nxt] - pts[mid]) / seq.dt - (pts[mid] - pts[prev]) / seq.dt
        sq[k, j] = np.vecdot(dv, dv)
    # cumsum adds in object order; the padding adds exact zeros
    ss = np.cumsum(sq, axis=1)[:, -1] if rows.shape[1] else np.zeros(f - 1)
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
        if int(self.delta) != self.delta or self.delta < 0:
            raise InvalidConfigError("delta must be a nonnegative integer")
        object.__setattr__(self, "delta", int(self.delta))
        fixed = self.fixed_sigma()
        if fixed is None and self.sigma_mode not in ("per-frame", "pooled"):
            raise InvalidConfigError(f"unknown sigma mode {self.sigma_mode!r}")
        floor = float(self.sigma_floor)
        if not math.isfinite(floor) or floor <= 0:
            raise InvalidConfigError("sigma_floor must be positive and finite")
        if fixed is not None and fixed < floor:
            raise InvalidConfigError(f"fixed sigma {fixed} below the floor {floor}")
        object.__setattr__(self, "sigma_floor", floor)
        if self.lambda_event != "auto":
            lam = float(self.lambda_event)
            if not math.isfinite(lam) or lam > 0:
                raise InvalidConfigError("lambda_event must be 'auto' or a nonpositive float")
            object.__setattr__(self, "lambda_event", lam)
        if not 0.0 < float(self.gate_quantile) < 1.0:
            raise InvalidConfigError("gate quantile must lie strictly between 0 and 1")
        object.__setattr__(self, "gate_quantile", float(self.gate_quantile))
        if int(self.space_cap) != self.space_cap or self.space_cap < 1:
            raise InvalidConfigError("space_cap must be a positive integer")
        object.__setattr__(self, "space_cap", int(self.space_cap))

    def fixed_sigma(self) -> float | None:
        """The fixed sigma value, or None for estimating modes."""
        if isinstance(self.sigma_mode, str) and self.sigma_mode.startswith("fixed:"):
            try:
                value = float(self.sigma_mode[len("fixed:") :])
            except ValueError:
                raise InvalidConfigError(f"bad fixed sigma in {self.sigma_mode!r}") from None
            if not math.isfinite(value) or value <= 0:
                raise InvalidConfigError("fixed sigma must be positive and finite")
            return value
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
    # per stage, the cells the DP scored: first-pair scores at stage 0,
    # then the fold's decomposed and exact cell scores (eval_count is
    # the closed form for a dense DP)
    dp_cells: tuple[int, ...]
    # the stage ranges [t0, t1) set up together ahead of the fold, in
    # set-up order (last run first); stage t scores frames t - 1, t, t + 1
    stage_runs: tuple[tuple[int, int], ...]
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
    return sizes[0] + sum(sizes[t - 1] * sizes[t] for t in range(1, len(sizes)))


def track(
    seq: FrameSequence,
    cfg: TrackerConfig | None = None,
) -> TrackResult:
    """Full pipeline: bipartite seeding, sigma estimation, reduced
    spaces, dynamic program, trajectory assembly.

    The bipartite pass fixes the gate cost and each pair's d*; its
    matchings also feed the sigma estimate (unless a fixed sigma mode
    bypasses estimation). Every job runs once per video over all frame
    pairs: one batched sweep, from which the gated matchings and the
    fixed-d seeds are read, one sigma pass, one space assembly, and
    stage set-up in runs ahead of the sequential fold. Space sizes are
    checked against space_cap from their closed form before any space
    is built. The diagnostics carry one wall-clock lap per layer.
    """
    cfg = cfg or TrackerConfig()
    if len(seq) < 2:
        raise InvalidInputError("need at least 2 frames")
    lap = _Laps()
    f = len(seq)
    costs = _pair_costs(seq)
    gate = _gate_from_costs(costs, BipartiteConfig(gate_quantile=cfg.gate_quantile))
    lap("gate")
    sw = _sweep(costs)
    lap("sweep")
    pairs = np.arange(f - 1)
    n_a, n_b = sw.n_a, sw.n_b
    k_star = sw.gated(gate)
    d_star = n_a - k_star
    space_sizes = reduced_space_size(n_a, n_b, d_star, cfg.delta)
    over = np.flatnonzero(space_sizes > cfg.space_cap)
    if over.shape[0]:
        k = int(over[0])
        raise SpaceCapError(
            f"candidate space at pair {k} has {space_sizes[k]} vectors, cap is {cfg.space_cap}"
        )
    bmcf_rows = sw.rows(pairs, k_star)
    bmcf = sw.vectors(pairs, k_star)
    seed_pair, seed_k = _seed_cardinalities(n_a, n_b, d_star, cfg.delta)
    seeds = sw.rows(seed_pair, seed_k)
    tie_refinements = tuple(sw.tie_refinements.tolist())
    sweep_steps = tuple(sw.steps.tolist())
    del sw, costs  # the DP needs no sweep; free the cost matrices and snapshots
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
    matchings, score, dp_cells, stage_runs = _solve_dp(seq, spaces, noise, lap)
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
        dp_cells=dp_cells,
        stage_runs=stage_runs,
        layer_seconds=lap.seconds,
    )
    return TrackResult(
        trajectories=trajs,
        matchings=tuple(matchings),
        score=float(score),
        spaces=tuple(spaces),
        diagnostics=diags,
    )
