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
import warnings
from dataclasses import dataclass
from math import comb, perm

import numpy as np

from .assignment import BipartiteConfig, _gated_pairs, _pair_sweep, _PairSweep
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


def reduced_space_size(n_a: int, n_b: int, d_star: int, delta: int = 1) -> int:
    """Closed-form size of build_reduced_space's output.

    Each d in the neighborhood contributes its seed plus one vector per
    pair of entry positions, less the C(d, 2) pairs of two DISAPPEARs.
    """
    return sum(
        1 + comb(n_a, 2) - comb(d, 2) for d in neighborhood(d_star, delta, n_a, n_b)
    )


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
    a = np.asarray(frame_a, dtype=np.float64).reshape(-1, 2)
    b = np.asarray(frame_b, dtype=np.float64).reshape(-1, 2)
    n_a, n_b = a.shape[0], b.shape[0]
    if not max(0, n_a - n_b) <= d_star <= n_a:
        raise InvalidInputError(f"d*={d_star} infeasible for frame sizes ({n_a}, {n_b})")
    # the sweep stops at the largest cardinality the neighborhood needs
    d_lo = neighborhood(d_star, int(delta), n_a, n_b)[0]
    return _reduced_space(_pair_sweep(a, b, n_a - d_lo), d_star, int(delta))


def _reduced_space(pair: _PairSweep, d_star: int, delta: int) -> CandidateSpace:
    """build_reduced_space on a pair that is already swept."""
    ds = neighborhood(d_star, delta, pair.n_a, pair.n_b)
    return _seeded_space(pair.fixed_d(ds).values(), pair.n_a, pair.n_b)


def _seeded_space(seeds, n_a: int, n_b: int) -> CandidateSpace:
    """Each seed vector followed by all its single-pair entry exchanges."""
    idx = np.arange(n_a)
    iu, ju = np.nonzero(idx[:, None] < idx)  # np.triu_indices(n_a, 1), without its cost
    n_p = iu.shape[0]
    # perm[p]: the entry order of exchange p; row 0 keeps the seed
    perm = np.repeat(idx[None, :], n_p + 1, axis=0)
    p = np.arange(1, n_p + 1)
    perm[p, iu] = ju
    perm[p, ju] = iu
    rows = [m.entries for m in seeds]
    s = np.array(rows, dtype=np.int64).reshape(len(rows), n_a)
    mat = s[:, perm]
    # exchanging two DISAPPEAR entries is the identity
    keep = (mat != s[:, None, :]).any(axis=2)
    keep[:, 0] = True
    sizes = keep.sum(axis=1)
    info = np.empty(keep.shape + (3,), dtype=np.int64)
    info[:, :, 0] = (np.cumsum(sizes) - sizes)[:, None]
    info[:, 0, 1:] = -1
    info[:, 1:, 1] = iu
    info[:, 1:, 2] = ju
    return CandidateSpace.build(mat[keep], n_next=n_b, swap_info=info[keep])


# ---------------------------------------------------------------------------
# Dynamic program.
# ---------------------------------------------------------------------------


def _pair_scores_vectorized(frame_a, frame_b, matrix, noise, dt) -> np.ndarray:
    """pair_log_likelihood_first for every row of a candidate matrix."""
    a = np.asarray(frame_a, dtype=np.float64)
    b = np.asarray(frame_b, dtype=np.float64)
    n_b = b.shape[0]
    scale2 = (dt * noise.sigma_for_pair(0)) ** 2
    const = -math.log(2.0 * math.pi * scale2)
    x = matrix
    matched = x >= 0
    if n_b == 0:
        # nothing to match, every entry is DISAPPEAR
        terms = np.zeros(x.shape)
    else:
        xc = np.where(matched, x, 0)
        disp = b[xc] - a[None, :, :]
        d2 = np.einsum("rjd,rjd->rj", disp, disp)
        terms = np.where(matched, const - d2 / (2.0 * scale2), 0.0)
    n_dis = (~matched).sum(axis=1)
    n_app = n_b - (matrix.shape[1] - n_dis)
    return terms.sum(axis=1) + noise.lambda_event * (n_dis + n_app)


# cells per row chunk of the fold: bounds its temporary arrays
_FOLD_CELLS = 1 << 18
# the exchange-structured fold's fixed cost, in dense cells (about 0.2 ms)
_EXCHANGE_SETUP_CELLS = 4096


def _stage_terms(seq, noise, t) -> np.ndarray:
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


class _Stage:
    """One fold stage: its term table, predecessor rows and successor columns.

    Rows enter only through each mid object's predecessor: row r's term
    for mid object j and shifted target k (0 is DISAPPEAR) is
    tabf[rowbase[r, j] + k]. Column c is its seed seed_pos[c], or that
    seed with entries i_of[c] and j_of[c] exchanged; t_new and t_old
    hold the shifted targets of the two entries after and before.
    """

    def __init__(self, seq, sp_prev, sp_next, g_next, noise, t):
        self.n_mid, self.n_next = seq.frames[t].shape[0], seq.frames[t + 1].shape[0]
        self.tab = _stage_terms(seq, noise, t)
        self.tabf = self.tab.reshape(-1)
        rows = sp_prev.matrix
        pred1 = np.zeros((rows.shape[0], self.n_mid), dtype=np.int64)
        ri, pi = np.nonzero(rows >= 0)
        pred1[ri, rows[ri, pi]] = pi + 1
        self.rowbase = (pred1 * self.n_mid + np.arange(self.n_mid)) * (self.n_next + 1)
        self.g_next = g_next

        self.n_cols = len(sp_next)
        cols = np.arange(self.n_cols)
        info = sp_next.swap_info
        if info is None:  # every column is its own seed
            info = np.full((self.n_cols, 3), -1, dtype=np.int64)
            info[:, 0] = cols
        self.xc = sp_next.matrix + 1
        self.seed_cols = np.flatnonzero(info[:, 1] == -1)
        rank = np.empty(self.n_cols, dtype=np.int64)
        rank[self.seed_cols] = np.arange(self.seed_cols.shape[0])
        self.seed_pos = rank[info[:, 0]]
        self.seed_xc = self.xc[self.seed_cols]
        self.is_swap = info[:, 1] >= 0
        self.any_swap = bool(self.is_swap.any())
        self.i_of = np.where(self.is_swap, info[:, 1], 0)
        self.j_of = np.where(self.is_swap, info[:, 2], 0)
        if self.any_swap:
            self.t_new = (self.xc[cols, self.i_of], self.xc[cols, self.j_of])
            self.t_old = (self.xc[info[:, 0], self.i_of], self.xc[info[:, 0], self.j_of])
        self.appear = noise.lambda_event * (self.n_next - (sp_next.matrix >= 0).sum(axis=1))

    def _seed_sums(self, r, seed_t) -> np.ndarray:
        """Sum of row r's terms for the targets seed_t[..., j], in j order.

        r broadcasts against seed_t's leading axes: (nb, 1) against
        (S, n_mid) gives (nb, S), (m,) against (m, n_mid) gives (m,).
        """
        if self.n_mid == 0:
            return np.zeros(np.broadcast_shapes(r.shape, seed_t.shape[:-1]))
        terms = self.tabf[self.rowbase[r] + seed_t]
        # cumsum adds in j order; + 0.0 makes it a sum started at zero
        return np.cumsum(terms, axis=-1)[..., -1] + 0.0

    def _score(self, seed_val, r, c) -> np.ndarray:
        """h_t(row r, column c) + g_next[c] for the broadcast cells (r, c).

        The fold's one cell scorer. seed_val is row r's seed sum for
        column c's seed; an exchange column adds its two new terms and
        subtracts its two old ones, then the appearances and g_next are
        added, always in this order, so a cell's value does not depend
        on which path of the fold scored it.
        """
        e = seed_val
        if self.any_swap:
            tabf = self.tabf
            bi = self.rowbase[r, self.i_of[c]]
            bj = self.rowbase[r, self.j_of[c]]
            swapped = (
                seed_val
                + tabf[bi + self.t_new[0][c]] + tabf[bj + self.t_new[1][c]]
                - tabf[bi + self.t_old[0][c]] - tabf[bj + self.t_old[1][c]]
            )
            e = np.where(self.is_swap[c], swapped, seed_val)
        return e + self.appear[c] + self.g_next[c]

    def dense(self, r) -> np.ndarray:
        """Values of every column for the rows r, shape (len(r), n_cols)."""
        r = r[:, None]
        seed_val = self._seed_sums(r, self.seed_xc)[:, self.seed_pos]
        return self._score(seed_val, r, slice(None))

    def cells(self, r, c) -> np.ndarray:
        """Values of the cells (r[k], c[k])."""
        return self._score(self._seed_sums(r, self.seed_xc[self.seed_pos[c]]), r, c)

    def fold_dense(self, r_all, g_prev, back) -> int:
        """First argmax over all columns for the rows r_all; returns cells scored."""
        step = max(1, _FOLD_CELLS // max(self.n_cols, 1))
        for k0 in range(0, r_all.shape[0], step):
            r = r_all[k0 : k0 + step]
            vals = self.dense(r)
            bp = np.argmax(vals, axis=1)
            back[r] = bp
            g_prev[r] = vals[np.arange(r.shape[0]), bp]
        return r_all.shape[0] * self.n_cols

    def margin(self) -> float:
        """Shortlist margin: covers twice the rounding error of both sums.

        An exact cell value (_score) and a decomposed one (base_s plus
        two term changes) each add at most n_mid + 8 table terms, one
        appearance term and one g_next value in at most n_mid + 16
        roundings, so each lies within (n_mid + 16) eps B of the real
        cell value, B the sum of those magnitudes. A row's exact
        maximizers then lie within twice both bounds of its decomposed
        maximum.
        """
        if self.tab.size == 0 or self.n_cols == 0:
            return 0.0
        bound = (
            (self.n_mid + 8) * float(np.abs(self.tabf).max())
            + float(np.abs(self.appear).max())
            + float(np.abs(self.g_next).max())
        )
        return 4.0 * (self.n_mid + 16) * np.finfo(np.float64).eps * bound


def _fold_exchange(st: _Stage, sp_prev, margin, g_prev, back) -> int:
    """The exchange-structured fold of _fold_stage; returns cells scored."""
    rinfo = sp_prev.swap_info
    n_mid, n_cols = st.n_mid, st.n_cols
    n_seed = st.seed_cols.shape[0]
    seed_rows = np.flatnonzero(rinfo[:, 1] == -1)
    swap_rows = np.flatnonzero(rinfo[:, 1] >= 0)
    # a row seed's own values are exact: they are base_s
    base = st.dense(seed_rows)
    bp = np.argmax(base, axis=1)
    back[seed_rows] = bp
    g_prev[seed_rows] = base[np.arange(seed_rows.shape[0]), bp]
    cells = base.size
    if swap_rows.shape[0] == 0:
        return cells

    # columns of each column seed in index order, padded with the seed column
    sizes = np.bincount(st.seed_pos, minlength=n_seed)
    by_seed = np.argsort(st.seed_pos, kind="stable")
    within = np.arange(n_cols) - (np.cumsum(sizes) - sizes)[st.seed_pos[by_seed]]
    block = np.repeat(st.seed_cols[:, None], sizes.max(), axis=1)
    block[st.seed_pos[by_seed], within] = by_seed
    # per (row seed, column seed): the first `cut` columns by (-base_s, index)
    cut = min(2 * n_mid - 1, block.shape[1])
    keys = np.where(np.arange(block.shape[1]) < sizes[:, None], -base[:, block], np.inf)
    order = np.argsort(keys, axis=2, kind="stable")[:, :, :cut]
    top = block[np.arange(n_seed)[:, None], order]  # (row seeds, n_seed, cut)
    more = sizes > cut
    last = top[:, :, -1]
    # touch[u, s, v]: column seed s with entries u and v exchanged (else s itself)
    touch = np.repeat(st.seed_cols[None, :, None], n_mid, axis=0).repeat(n_mid, axis=2)
    sw = np.flatnonzero(st.is_swap)
    touch[st.i_of[sw], st.seed_pos[sw], st.j_of[sw]] = sw
    touch[st.j_of[sw], st.seed_pos[sw], st.i_of[sw]] = sw

    rank = np.empty(rinfo.shape[0], dtype=np.int64)
    rank[seed_rows] = np.arange(seed_rows.shape[0])
    s_all = rinfo[swap_rows, 0]
    a_all = sp_prev.matrix[s_all, rinfo[swap_rows, 1]]
    b_all = sp_prev.matrix[s_all, rinfo[swap_rows, 2]]
    basef = base.reshape(-1)
    xcf = st.xc.reshape(-1)
    n_t = st.n_next + 1
    ks = np.arange(n_t)
    width = n_seed * (2 * n_mid + cut)
    step = max(1, _FOLD_CELLS // width)
    for k0 in range(0, swap_rows.shape[0], step):
        x = swap_rows[k0 : k0 + step]
        s = s_all[k0 : k0 + step]
        sr = rank[s][:, None]
        nb = x.shape[0]
        ar = np.arange(nb)[:, None]
        # c_a, c_b: the change of a's and b's terms per target, 0 at DISAPPEAR
        diffs = []
        for m in (a_all[k0 : k0 + step], b_all[k0 : k0 + step]):
            m0 = np.maximum(m, 0)
            dv = (
                st.tabf[st.rowbase[x, m0][:, None] + ks]
                - st.tabf[st.rowbase[s, m0][:, None] + ks]
            )
            dv[m < 0] = 0.0
            diffs.append((m0[:, None], dv.reshape(-1)))
        (a0, ca), (b0, cb) = diffs
        cand = np.concatenate(
            [touch[a0[:, 0]], touch[b0[:, 0]], top[sr[:, 0]]], axis=2
        ).reshape(nb, -1)
        dec = (
            basef[sr * n_cols + cand]
            + ca[ar * n_t + xcf[cand * n_mid + a0]]
            + cb[ar * n_t + xcf[cand * n_mid + b0]]
        )
        thr = dec.max(axis=1, keepdims=True) - margin
        # a column past a cut list keeps its seed's targets at a and b
        past = (
            basef[sr * n_cols + last[sr[:, 0]]]
            + ca[ar * n_t + st.seed_xc[:, a0[:, 0]].T]
            + cb[ar * n_t + st.seed_xc[:, b0[:, 0]].T]
        )
        # a cut list that might hide a shortlisted column adds its whole block
        ro, so = np.nonzero((past >= thr) & more)
        short = (x[:, None] * n_cols + cand)[dec >= thr]
        key = np.unique(np.concatenate([short, (x[ro, None] * n_cols + block[so]).ravel()]))
        cells += dec.size + key.shape[0]
        r, c = np.divmod(key, n_cols)
        vals = st.cells(r, c)
        # cells run by row then column: keep each row's first maximum
        start = np.flatnonzero(np.r_[True, r[1:] != r[:-1]])
        best = np.maximum.reduceat(vals, start)
        hit = np.flatnonzero(vals == np.repeat(best, np.diff(np.r_[start, r.shape[0]])))
        first = hit[np.r_[True, r[hit][1:] != r[hit][:-1]]]
        back[r[first]] = c[first]
        g_prev[r[first]] = vals[first]
    return cells


def _fold_stage(seq, sp_prev, sp_next, g_next, noise, t, exchange=None):
    """One backward DP step, g_prev(x) = max_y h_t(x, y) + g_next(y).

    Returns g_prev, the first argmax successor of every predecessor row
    and the number of cells scored. Every cell value comes from
    _Stage._score, so both ways of folding return the same arrays:

    - dense: every cell of every row;
    - exchange-structured, when both spaces carry swap provenance. A
      row x is its seed s with entries p and q exchanged, which moves
      the predecessors of at most two mid objects a = s[p] and b = s[q],
      so h(x, y) + g(y) = base_s(y) + c_a[y_a] + c_b[y_b], with base_s
      scored densely once per row seed. Per column seed, a row's best
      column is one of the < 2n exchanges touching a or b, or the best
      of the rest, which a list of the seed's columns sorted by
      (-base_s, index) and cut after 2n - 1 entries holds. Decomposed
      values only shortlist the columns within a rounding margin of the
      row's decomposed maximum (_Stage.margin); the shortlist is scored
      exactly and its first argmax taken. Where a column seed's cut list
      might hide a shortlisted column, the seed's whole block of columns
      joins the row's shortlist. Work per stage falls from O(R C) to
      O(R delta n).

    exchange=None picks the way with fewer closed-form cells; True or
    False forces one (the exchange way needs provenance on both sides).
    """
    st = _Stage(seq, sp_prev, sp_next, g_next, noise, t)
    n_rows = len(sp_prev)
    g_prev = np.empty(n_rows)
    back = np.empty(n_rows, dtype=np.int64)
    rinfo = sp_prev.swap_info
    if exchange is None and rinfo is not None and sp_next.swap_info is not None:
        n_seed_rows = int((rinfo[:, 1] == -1).sum())
        n_seed = st.seed_cols.shape[0]
        width = n_seed * (4 * st.n_mid - 1) + st.n_mid
        cells = n_seed_rows * st.n_cols + (n_rows - n_seed_rows) * width
        exchange = cells + _EXCHANGE_SETUP_CELLS < n_rows * st.n_cols
    if exchange and rinfo is not None and sp_next.swap_info is not None:
        margin = st.margin()
        if math.isfinite(margin):
            return g_prev, back, _fold_exchange(st, sp_prev, margin, g_prev, back)
    return g_prev, back, st.fold_dense(np.arange(n_rows), g_prev, back)


def _solve_dp(seq, spaces, noise):
    """solve_dp, plus the cells scored per stage (stage 0: first-pair scores)."""
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
    for t in range(n_pairs - 1, 0, -1):
        g, backs[t - 1], cells[t] = _fold_stage(seq, spaces[t - 1], spaces[t], g, noise, t)

    h1 = _pair_scores_vectorized(seq.frames[0], seq.frames[1], spaces[0].matrix, noise, seq.dt)
    totals = h1 + g
    start = int(np.argmax(totals))
    score = float(totals[start])
    idxs = [start]
    for t in range(1, n_pairs):
        idxs.append(int(backs[t - 1][idxs[-1]]))
    matchings = [spaces[t].vector_at(r) for t, r in enumerate(idxs)]
    return matchings, score, tuple(cells)


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
    matchings, score, _ = _solve_dp(seq, spaces, noise)
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
        if self.fixed_sigma() is None and self.sigma_mode not in ("per-frame", "pooled"):
            raise InvalidConfigError(f"unknown sigma mode {self.sigma_mode!r}")
        floor = float(self.sigma_floor)
        if not math.isfinite(floor) or floor <= 0:
            raise InvalidConfigError("sigma_floor must be positive and finite")
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


def auto_lambda(gate_cost: float, pooled_sigma: float, dt: float = 1.0) -> float:
    """Default event penalty: position-model log density at the gate
    distance, clamped to be nonpositive."""
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
    bypasses estimation). Each pair is swept once: the fixed-d seeds of
    its reduced space are read from the sweep of the bipartite pass.
    Space sizes are checked against space_cap from their closed form
    before any space is built.
    """
    cfg = cfg or TrackerConfig()
    if len(seq) < 2:
        raise InvalidInputError("need at least 2 frames")
    f = len(seq)
    gate, pairs, bmcf = _gated_pairs(seq, BipartiteConfig(gate_quantile=cfg.gate_quantile))
    d_star = [m.n_disappeared for m in bmcf]
    for k in range(f - 1):
        size = reduced_space_size(seq.n_objects(k), seq.n_objects(k + 1), d_star[k], cfg.delta)
        if size > cfg.space_cap:
            raise SpaceCapError(
                f"candidate space at pair {k} has {size} vectors, cap is {cfg.space_cap}"
            )

    fixed = cfg.fixed_sigma()
    if fixed is not None:
        sig = SigmaEstimate(
            sigmas=(fixed,) * (f - 1), pooled=fixed, counts=(0,) * (f - 1), used_fallback=False
        )
    else:
        sig = estimate_sigma(seq, bmcf, mode=cfg.sigma_mode, sigma_floor=cfg.sigma_floor)
    lam = cfg.lambda_event
    if lam == "auto":
        lam = auto_lambda(gate, sig.pooled, seq.dt)
    noise = NoiseModel(sigmas=sig.sigmas, lambda_event=lam, sigma_floor=cfg.sigma_floor)

    spaces = [_reduced_space(p, d_star[k], cfg.delta) for k, p in enumerate(pairs)]
    tie_refinements = tuple(p.tie_refinements for p in pairs)
    sweep_steps = tuple(p.sweep.steps for p in pairs)
    del pairs  # the DP needs no sweep; free the cost matrices and potentials
    matchings, score, dp_cells = _solve_dp(seq, spaces, noise)
    trajs = assemble_trajectories(seq, matchings)
    sizes = tuple(len(s) for s in spaces)
    diags = TrackDiagnostics(
        gate_cost=float(gate),
        d_star=tuple(d_star),
        sigma=sig,
        lambda_event=float(lam),
        space_sizes=sizes,
        eval_count=evaluation_count(sizes),
        bmcf_matchings=tuple(bmcf),
        tie_refinements=tie_refinements,
        sweep_steps=sweep_steps,
        dp_cells=dp_cells,
    )
    return TrackResult(
        trajectories=trajs,
        matchings=tuple(matchings),
        score=float(score),
        spaces=tuple(spaces),
        diagnostics=diags,
    )
