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
    _as_frame,
    _cost_matrix,
    _gate_from_costs,
    _pair_costs,
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
    a, b = _as_frame(frame_a), _as_frame(frame_b)
    n_a, n_b = a.shape[0], b.shape[0]
    if not max(0, n_a - n_b) <= d_star <= n_a:
        raise InvalidInputError(f"d*={d_star} infeasible for frame sizes ({n_a}, {n_b})")
    # the sweep stops at the largest cardinality the neighborhood needs
    d_lo = neighborhood(d_star, int(delta), n_a, n_b)[0]
    sw = _sweep([_cost_matrix(a, b)], [n_a - d_lo])
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
    runs of at most _FOLD_CELLS gathered cells, and lexsorted together
    with the pair as the leading key, then cut into spaces.
    """
    spaces: list[CandidateSpace | None] = [None] * n_a.shape[0]
    width = n_a[seed_pair]
    for n in np.unique(width).tolist():
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
            info = np.empty((rows.shape[0], 3), dtype=np.int64)
            # seed rows numbered over the whole run until the sort
            info[:, 0] = np.repeat(np.cumsum(sizes) - sizes, sizes)
            info[:, 1] = ex_i[ex]
            info[:, 2] = ex_j[ex]
            # lexsort keys run last-to-first: pair, then columns 0, 1, ...
            order = np.lexsort((*rows.T[::-1], row_pair))
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
                    n_from=n, n_next=int(n_b[p]), matrix=rows[r0:r1], swap_info=info[r0:r1]
                )
    return spaces


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


# cells per row chunk of the fold, per run of stage set-up and per run of
# space assembly: bounds their temporary arrays
_FOLD_CELLS = 1 << 18
# the exchange-structured fold's fixed cost, in dense cells (about 0.2 ms)
_EXCHANGE_SETUP_CELLS = 4096


@dataclass(eq=False)
class _Stage:
    """One fold stage: its term table, predecessor rows and successor columns.

    tab[i + 1, j, k + 1] is mid object j's term when its predecessor is
    previous object i and its target is next object k; i = -1 means j
    appeared at the mid frame (position Gaussian), k = -1 is DISAPPEAR
    (lambda_event). Rows enter only through each mid object's
    predecessor: row r's term for mid object j and shifted target k (0
    is DISAPPEAR) is tabf[rowbase[r, j] + k]. Column c is its seed
    seed_pos[c], or that seed with entries i_of[c] and j_of[c]
    exchanged; t_new and t_old hold the shifted targets of the two
    entries after and before. _stages builds the stages; _fold_stage
    sets g_next, the successor values, before folding.
    """

    n_mid: int
    n_next: int
    tab: np.ndarray
    tabf: np.ndarray
    rowbase: np.ndarray
    n_cols: int
    xc: np.ndarray
    seed_cols: np.ndarray
    seed_pos: np.ndarray
    seed_xc: np.ndarray
    is_swap: np.ndarray
    any_swap: bool
    i_of: np.ndarray
    j_of: np.ndarray
    appear: np.ndarray
    # whether the successor space carries swap provenance
    has_info: bool
    t_new: tuple[np.ndarray, np.ndarray] | None = None
    t_old: tuple[np.ndarray, np.ndarray] | None = None
    g_next: np.ndarray | None = None

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


def _stages(seq, spaces, noise, t0: int, t1: int) -> list[_Stage]:
    """Stages t0 .. t1 - 1 of the fold, set up together.

    The term tables of the stages whose widest frame holds m objects
    are computed at once over frames padded to m and then cut to each
    stage's own shape; rowbase is built over the stacked predecessor
    spaces and the column metadata over the stacked successor spaces.
    Every table entry sees the float operations of
    oracle.reference_stage_terms for its stage alone.
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
    frames = np.zeros((n_st + 2, n, 2))
    for k, fr in enumerate(seq.frames[t0 - 1 : t1 + 1]):
        frames[k, : fr.shape[0]] = fr
    # the stages of one width (their widest frame) are padded to it together
    counts_at = np.stack([n_prev, n_mid, n_next], axis=1)
    width = counts_at.max(axis=1)
    tabs: list[np.ndarray | None] = [None] * n_st
    for m in np.unique(width).tolist():
        g = np.flatnonzero(width == m)
        prev_f, mid_f, next_f = frames[g, :m], frames[g + 1, :m], frames[g + 2, :m]
        disp = next_f[:, None, :, :] - mid_f[:, :, None, :]  # (stage, mid, next, 2)
        v2 = disp / dt
        q2 = np.einsum("tjld,tjld->tjl", v2, v2)
        v1 = (mid_f[:, None, :, :] - prev_f[:, :, None, :]) / dt  # (stage, prev, mid, 2)
        q1 = np.einsum("tijd,tijd->tij", v1, v1)
        dot = np.einsum("tijd,tjld->tijl", v1, v2)
        padded = np.empty((g.shape[0], m + 1, m, m + 1))
        padded[:, :, :, 0] = lam
        padded[:, 0, :, 1:] = p_const[g, None, None] - np.einsum(
            "tjld,tjld->tjl", disp, disp
        ) / (2.0 * p_scale2[g, None, None])
        padded[:, 1:, :, 1:] = v_const[g, None, None, None] - (
            q2[:, None] - 2.0 * dot + q1[:, :, :, None]
        ) / (2.0 * v_scale2[g, None, None, None])
        # each stage's own table (a view when the stage fills the padding)
        for i, (s, a, b, c) in enumerate(zip(g.tolist(), *counts_at[g].T.tolist())):
            tabs[s] = np.ascontiguousarray(padded[i, : a + 1, :b, : c + 1])

    # rows: the predecessor spaces t0 - 1 .. t1 - 2, stacked
    sps = spaces[t0 - 1 : t1]
    sizes = np.array([len(sp) for sp in sps], dtype=np.int64)
    off = np.cumsum(sizes) - sizes
    # pred1[r, j + 1] = 1 + the predecessor of mid object j in row r (0: none);
    # DISAPPEAR entries all land in column 0, which is dropped
    n_rows = int(off[-1])
    pred1 = np.zeros((n_rows, n + 1), dtype=np.int64)
    for sp, r0 in zip(sps[:-1], off.tolist()):
        pred1[np.arange(r0, r0 + len(sp))[:, None], sp.matrix + 1] = np.arange(1, sp.n_from + 1)
    row_mid = np.repeat(n_mid, sizes[:-1])[:, None]
    row_next = np.repeat(n_next, sizes[:-1])[:, None]
    rowbase = (pred1[:, 1:] * row_mid + np.arange(n)) * (row_next + 1)

    # columns: the successor spaces t0 .. t1 - 1, stacked as shifted
    # targets xc (0 is DISAPPEAR, and so is the padding)
    c_sizes, c_off = sizes[1:], off[1:] - off[1]
    xc = np.zeros((int(c_sizes.sum()), n), dtype=np.int64)
    for sp, c0 in zip(sps[1:], c_off.tolist()):
        np.add(sp.matrix, 1, out=xc[c0 : c0 + len(sp), : sp.n_from])
    infos = []
    for sp in sps[1:]:
        if sp.swap_info is None:  # every column is its own seed
            own_info = np.full((len(sp), 3), -1, dtype=np.int64)
            own_info[:, 0] = np.arange(len(sp))
            infos.append(own_info)
        else:
            infos.append(sp.swap_info)
    info = np.concatenate(infos)
    seed_of = info[:, 0] + np.repeat(c_off, c_sizes)
    is_swap = info[:, 1] >= 0
    seed_cols = np.flatnonzero(~is_swap)
    seed_rank = np.cumsum(~is_swap) - 1
    s_off = np.searchsorted(seed_cols, c_off)
    s_end = np.r_[s_off[1:], seed_cols.shape[0]]
    seed_pos = seed_rank[seed_of]
    seed_xc = xc[seed_cols]
    i_of = np.where(is_swap, info[:, 1], 0)
    j_of = np.where(is_swap, info[:, 2], 0)
    n_swap = np.r_[0, np.cumsum(is_swap)]
    any_swap = n_swap[c_off + c_sizes] > n_swap[c_off]
    if n:
        ar_c = np.arange(xc.shape[0])
        t_new = (xc[ar_c, i_of], xc[ar_c, j_of])
        t_old = (xc[seed_of, i_of], xc[seed_of, j_of])
    appear = noise.lambda_event * (np.repeat(n_next, c_sizes) - (xc > 0).sum(axis=1))

    r_end, c_end = off + sizes, c_off + c_sizes
    out = []
    per_stage = zip(
        n_mid.tolist(), n_next.tolist(),
        off[:-1].tolist(), r_end[:-1].tolist(), c_off.tolist(), c_end.tolist(),
        s_off.tolist(), s_end.tolist(), any_swap.tolist(), sps[1:], tabs,
    )
    for m, k, r0, r1, c0, c1, s0, s1, swaps, sp, tab in per_stage:
        st = _Stage(
            n_mid=m,
            n_next=k,
            tab=tab,
            tabf=tab.reshape(-1),
            rowbase=rowbase[r0:r1, :m],
            n_cols=c1 - c0,
            xc=xc[c0:c1, :m],
            seed_cols=seed_cols[s0:s1] - c0,
            seed_pos=seed_pos[c0:c1] - s0,
            seed_xc=seed_xc[s0:s1, :m],
            is_swap=is_swap[c0:c1],
            any_swap=swaps,
            i_of=i_of[c0:c1],
            j_of=j_of[c0:c1],
            appear=appear[c0:c1],
            has_info=sp.swap_info is not None,
        )
        if swaps:
            st.t_new = (t_new[0][c0:c1], t_new[1][c0:c1])
            st.t_old = (t_old[0][c0:c1], t_old[1][c0:c1])
        out.append(st)
    return out


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


def _fold_stage(st: _Stage, sp_prev, g_next, exchange=None):
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
    False forces one (the exchange way needs provenance on both sides,
    which a stage from _stages has when its successor space does).
    """
    st.g_next = g_next
    n_rows = len(sp_prev)
    g_prev = np.empty(n_rows)
    back = np.empty(n_rows, dtype=np.int64)
    rinfo = sp_prev.swap_info
    provenance = rinfo is not None and st.has_info
    if exchange is None and provenance:
        n_seed_rows = int((rinfo[:, 1] == -1).sum())
        n_seed = st.seed_cols.shape[0]
        width = n_seed * (4 * st.n_mid - 1) + st.n_mid
        cells = n_seed_rows * st.n_cols + (n_rows - n_seed_rows) * width
        exchange = cells + _EXCHANGE_SETUP_CELLS < n_rows * st.n_cols
    if exchange and provenance:
        margin = st.margin()
        if math.isfinite(margin):
            return g_prev, back, _fold_exchange(st, sp_prev, margin, g_prev, back)
    return g_prev, back, st.fold_dense(np.arange(n_rows), g_prev, back)


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


def _solve_dp(seq, spaces, noise, lap=None):
    """solve_dp, plus the cells scored per stage (stage 0: first-pair scores).

    Stages are set up a run at a time (_stage_runs), last run first, and
    folded sequentially in t; lap, when given, is charged per layer.
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
    for t0, t1 in _stage_runs(seq.counts, [len(sp) for sp in spaces]):
        stages = _stages(seq, spaces, noise, t0, t1)
        lap("stage_setup")
        for t in range(t1 - 1, t0 - 1, -1):
            g, backs[t - 1], cells[t] = _fold_stage(stages[t - t0], spaces[t - 1], g)
        del stages
        lap("fold")

    h1 = _pair_scores_vectorized(seq.frames[0], seq.frames[1], spaces[0].matrix, noise, seq.dt)
    totals = h1 + g
    start = int(np.argmax(totals))
    score = float(totals[start])
    idxs = [start]
    for t in range(1, n_pairs):
        idxs.append(int(backs[t - 1][idxs[-1]]))
    matchings = [spaces[t].vector_at(r) for t, r in enumerate(idxs)]
    lap("walk")
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
    for k in range(f - 1):
        size = reduced_space_size(int(n_a[k]), int(n_b[k]), int(d_star[k]), cfg.delta)
        if size > cfg.space_cap:
            raise SpaceCapError(
                f"candidate space at pair {k} has {size} vectors, cap is {cfg.space_cap}"
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
    matchings, score, dp_cells = _solve_dp(seq, spaces, noise, lap)
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
        layer_seconds=lap.seconds,
    )
    return TrackResult(
        trajectories=trajs,
        matchings=tuple(matchings),
        score=float(score),
        spaces=tuple(spaces),
        diagnostics=diags,
    )
