"""The exact bound-and-prune of the DP fold.

Stages that prune score their seed rows, drop every other predecessor
row whose bound on the best chain through it, UF + UG, falls below LB
less a rounding margin, and fold the survivors densely over the columns
with a finite value. The prune must change no output: the matchings,
the score's bits and, on the chain the walk returns, every value and
back pointer equal those of the unpruned fold. Small videos prune only
with _PRUNE_SETUP_CELLS lowered, which these tests do.
"""

from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from velotrack import (
    FrameSequence,
    NoiseModel,
    SimConfig,
    TrackerConfig,
    build_reduced_space,
    simulate,
    track,
)
from velotrack import tripartite
from velotrack.oracle import exhaustive_chain_argmax, reference_solve_dp

# every stage prunes
EVERY = -(1 << 40)


def fold(seq, spaces, noise, setup_cells=EVERY, prune=True):
    """_solve_dp's output, plus (g_prev, back) of each stage t = 1 .. f - 2."""
    folds = []
    fold_stage = tripartite._fold_stage

    def record(*args, **kwargs):
        folds.append(fold_stage(*args, **kwargs))
        return folds[-1]

    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(tripartite, "_PRUNE_SETUP_CELLS", setup_cells))
        stack.enter_context(mock.patch.object(tripartite, "_fold_stage", side_effect=record))
        if not prune:
            stack.enter_context(mock.patch.object(tripartite._Bounds, "prune", return_value=None))
        out = tripartite._solve_dp(seq, spaces, noise)
    # stages fold last first
    return out, [f[:2] for f in folds[::-1]]


def walked_rows(spaces, matchings):
    return [
        int(np.flatnonzero((sp.matrix == m.entries).all(axis=1))[0])
        for sp, m in zip(spaces, matchings)
    ]


def assert_prune_is_exact(seq, spaces, noise, setup_cells=EVERY):
    """The pruned fold against the unpruned one; returns the rows pruned."""
    (ms, score, cells, runs, pruned), stages = fold(seq, spaces, noise, setup_cells)
    (ms0, score0, cells0, runs0, pruned0), stages0 = fold(seq, spaces, noise, setup_cells, False)
    assert ms == ms0
    assert score.hex() == score0.hex()
    assert runs == runs0
    assert pruned0 == (0,) * len(spaces)
    assert pruned[-1] == 0
    rows = walked_rows(spaces, ms)
    for t, ((g, back), (g0, back0)) in enumerate(zip(stages, stages0), start=1):
        r = rows[t - 1]
        assert g[r].hex() == g0[r].hex()
        assert back[r] == back0[r] == rows[t]
        # a row's value can only fall; a pruned row reads -inf, back pointer 0
        assert (g <= g0).all()
        gone = g == -np.inf
        assert gone.sum() == pruned[t - 1]
        assert not back[gone].any()
    return sum(pruned)


def video(rng, counts, grid):
    """Frames of these object counts, on a grid of that side or, for None, continuous."""
    if grid is None:
        return FrameSequence(tuple(rng.normal(0.0, 4.0, size=(k, 2)) for k in counts))
    return FrameSequence(
        tuple(rng.integers(0, grid, size=(k, 2)).astype(float) for k in counts)
    )


def tracked(seq, delta):
    """track()'s spaces and noise model for seq."""
    res = track(seq, TrackerConfig(delta=delta))
    d = res.diagnostics
    return list(res.spaces), NoiseModel(sigmas=d.sigma.sigmas, lambda_event=d.lambda_event)


@pytest.mark.parametrize("setup_cells", [EVERY, 0])
@pytest.mark.parametrize("grid", [None, 3])
def test_pruned_dp_equals_the_oracles(setup_cells, grid, rng):
    total = 0
    for _ in range(6):
        seq = video(rng, (5 + rng.integers(-1, 2, size=int(rng.integers(3, 5)))).tolist(), grid)
        spaces, noise = tracked(seq, 1)
        total += assert_prune_is_exact(seq, spaces, noise, setup_cells)
        with mock.patch.object(tripartite, "_PRUNE_SETUP_CELLS", setup_cells):
            ms, score = tripartite.solve_dp(seq, spaces, noise)
        # the oracles score with other roundings, so on the grid, where
        # chains tie exactly, they may break a tie the other way
        want_ms, want_score = reference_solve_dp(seq, spaces, noise)
        assert grid or ms == want_ms
        assert score == pytest.approx(want_score, abs=1e-9)
        if np.prod([len(sp) for sp in spaces]) <= 50_000:
            want_ms, want_score = exhaustive_chain_argmax(seq, noise, spaces)
            assert grid or ms == want_ms
            assert score == pytest.approx(want_score, abs=1e-9)
    assert total > 0


@settings(max_examples=60, deadline=None)
@given(
    counts=st.lists(st.integers(3, 7), min_size=3, max_size=5),
    grid=st.sampled_from([None, 2, 4]),
    delta=st.integers(0, 2),
    seed=st.integers(0, 2**16),
)
def test_prune_is_exact_on_small_videos(counts, grid, delta, seed):
    seq = video(np.random.default_rng(seed), counts, grid)
    spaces, noise = tracked(seq, delta)
    assert_prune_is_exact(seq, spaces, noise)


def bounds_of(seq, spaces, noise):
    """_Bounds over every space but the last, from one run of all stages."""
    f = len(seq)
    h1 = tripartite._pair_scores_vectorized(
        seq.frames[0], seq.frames[1], spaces[0], noise, seq.dt
    )
    run = tripartite._stages(seq, spaces, noise, 1, f - 1)
    bounds, _ = tripartite._forward_bounds(seq, spaces, noise, h1, [(1, f - 1)], run, f - 1)
    return bounds


# LB equals the optimum. Every detection at one point: every chain that
# matches every object ties with the seeds' chain. On the grid, found by
# search: a tied row's UF + UG rounds below LB, so only the
# margin keeps it
TIES = {
    **{
        f"coincident-{n}": ([np.zeros((n, 2))] * 4, (0, 0, 0), NoiseModel.pooled(1.0, -4.0))
        for n in (3, 4, 5)
    },
    "grid": (
        [
            [[1, 1], [0, 1], [1, 1], [0, 1]],
            [[0, 0], [1, 0], [1, 1], [0, 0]],
            [[0, 0], [1, 0], [1, 1], [0, 0]],
            [[1, 0], [0, 1], [1, 1], [1, 0]],
        ],
        (1, 0, 0),
        NoiseModel.pooled(0.7, -4.0),
    ),
}


@pytest.mark.parametrize("case", sorted(TIES))
def test_lb_equal_to_the_optimum(case):
    # each tied row's bound meets LB within the margin and the row stays
    frames, d_stars, noise = TIES[case]
    seq = FrameSequence(tuple(np.array(fr, dtype=float) for fr in frames))
    pairs = zip(seq.frames, seq.frames[1:], d_stars)
    spaces = [build_reduced_space(a, b, d, delta=1) for a, b, d in pairs]
    assert assert_prune_is_exact(seq, spaces, noise) > 0
    # the fold's decomposed sums may round exact ties apart where the
    # oracle's direct sums do not, so only the score is compared
    _, score = tripartite.solve_dp(seq, spaces, noise)
    _, want_score = exhaustive_chain_argmax(seq, noise, spaces)
    assert score == pytest.approx(want_score, abs=1e-9)

    f = len(seq)
    _, stages = fold(seq, spaces, noise)
    _, exact = fold(seq, spaces, noise, prune=False)
    bounds = bounds_of(seq, spaces, noise)
    run = tripartite._stages(seq, spaces, noise, 1, f - 1)
    prefix, at_lb = bounds.uf[0], 0
    for t in range(1, f - 1):
        sp, (g, _), (g0, _) = spaces[t - 1], stages[t - 1], exact[t - 1]
        g_next = exact[t][0] if t < f - 2 else np.zeros(len(spaces[t]))
        # rows on an optimal chain: the best prefix into them plus their value
        tied = np.abs(prefix + g0 - score) <= 1e-9 * abs(score)
        assert np.isfinite(g[tied]).all()
        seeds = np.flatnonzero(sp.swap_info[:, 1] < 0)
        swap = np.flatnonzero(sp.swap_info[:, 1] >= 0)
        lb = (bounds.seed_prefix[t - 1] + g0[seeds]).max()
        floor = bounds.floor(run, t - 1, g0[seeds], g_next)
        reach = bounds.uf[t - 1][swap] + bounds.ug(run, t - 1, sp, seeds, swap, g_next)
        assert lb == pytest.approx(score, rel=1e-12)
        assert (reach[tied[swap]] >= floor).all()
        at_lb += int((np.abs(reach[tied[swap]] - lb) <= lb - floor).sum())
        h = run.dense(t - 1, np.arange(len(sp)), np.zeros(len(spaces[t])))
        prefix = (prefix[:, None] + h).max(axis=0)
    assert at_lb > 0


@settings(max_examples=60, deadline=None)
@given(
    counts=st.lists(st.integers(0, 6), min_size=3, max_size=5),
    grid=st.sampled_from([None, 3]),
    delta=st.integers(0, 2),
    seed=st.integers(0, 2**16),
)
def test_bounds_dominate_the_exact_values(counts, grid, delta, seed):
    # UF(r) bounds the best prefix into r and UG(r) the unpruned value of
    # r, row by row, up to rounding
    seq = video(np.random.default_rng(seed), counts, grid)
    spaces, noise = tracked(seq, delta)
    f = len(seq)
    bounds = bounds_of(seq, spaces, noise)
    run = tripartite._stages(seq, spaces, noise, 1, f - 1)

    def close(x):
        return 1e-9 * (1.0 + np.abs(x))

    prefix = tripartite._pair_scores_vectorized(
        seq.frames[0], seq.frames[1], spaces[0], noise, seq.dt
    )
    assert np.array_equal(bounds.uf[0], prefix)
    for t in range(1, f - 1):
        h = run.dense(t - 1, np.arange(len(spaces[t - 1])), np.zeros(len(spaces[t])))
        prefix = (prefix[:, None] + h).max(axis=0)
        assert (bounds.uf[t] >= prefix - close(prefix)).all()
        # the seed-only prefix is a real prefix's score, so at most the best
        seeds = np.flatnonzero(spaces[t].swap_info[:, 1] < 0)
        assert (bounds.seed_prefix[t] <= prefix[seeds] + close(prefix[seeds])).all()

    g_next = np.zeros(len(spaces[-1]))
    for t in range(f - 2, 0, -1):
        k, sp_prev = t - 1, spaces[t - 1]
        g, _, _ = tripartite._fold_stage(run, k, sp_prev, g_next)
        seeds = np.flatnonzero(sp_prev.swap_info[:, 1] < 0)
        swap = np.flatnonzero(sp_prev.swap_info[:, 1] >= 0)
        ug = tripartite._Bounds.ug(run, k, sp_prev, seeds, swap, g_next)
        assert (ug >= g[swap] - close(g[swap])).all()
        g_next = g


def test_crowded_video_keeps_a_few_rows():
    # video 0 of the bench's crowded workload: 40 objects in a closed
    # view over 4 frames; both stages prune and keep only their seed
    # rows, and the fold scores only their cells
    cfg = SimConfig(W=680.0, H=512.0, w=680.0, h=512.0, N0=40, sigma=1.0, f=4, seed=0)
    seq = simulate(cfg).seq
    res = track(seq)
    d = res.diagnostics
    assert d.space_sizes == (1562, 1562, 1562)
    assert d.pruned_rows == (1560, 1560, 0)
    assert d.dp_cells == (1562, 2 * 1562, 2 * 1562)
    spaces, noise = list(res.spaces), NoiseModel(d.sigma.sigmas, d.lambda_event)
    with mock.patch.object(tripartite._Bounds, "prune", return_value=None):
        ms, score = tripartite.solve_dp(seq, spaces, noise)
    assert ms == list(res.matchings)
    assert score.hex() == res.score.hex()


def test_dense_videos_compute_no_bounds(rng):
    seq = video(rng, [4] * 6, None)
    with mock.patch.object(tripartite, "_forward_bounds") as spy:
        d = track(seq).diagnostics
    assert not spy.called
    assert d.pruned_rows == (0,) * (len(seq) - 1)
