"""The DP fold, dense and pruned, against the dense reference fold."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_prune import fold, walked_rows

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
from velotrack.oracle import reference_fold_stage, reference_stage_terms

# a coarse grid: coincident detections force exact ties between cells
frame_points = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=6)


def reduced(frame_a, frame_b, d_pick, delta):
    n_a, n_b = frame_a.shape[0], frame_b.shape[0]
    lo = max(0, n_a - n_b)
    return build_reduced_space(frame_a, frame_b, lo + d_pick % (n_a - lo + 1), delta=delta)


def assert_same_fold(seq, sp_prev, sp_next, g_next, noise):
    # stage 1 with no bounds folds every row densely
    want = reference_fold_stage(seq, sp_prev, sp_next, g_next, noise, 1)
    run = tripartite._stages(seq, [sp_prev, sp_next], noise, 1, 2)
    got = tripartite._fold_stage(run, 0, sp_prev, g_next)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    return got[2]


def assert_pruned_fold_equals_reference(seq, spaces, noise):
    """The pruned fold of every stage against reference_fold_stage;
    returns its cells and rows pruned per stage and its g per stage."""
    (ms, score, cells, _, pruned), stages = fold(seq, spaces, noise)
    h1 = tripartite._pair_scores_vectorized(
        seq.frames[0], seq.frames[1], spaces[0], noise, seq.dt
    )
    g_next = g_ref = np.zeros(len(spaces[-1]))
    backs_ref = []
    for t in range(len(seq) - 2, 0, -1):
        g, back = stages[t - 1]
        # a survivor's value and first argmax over the columns that survived
        want = reference_fold_stage(seq, spaces[t - 1], spaces[t], g_next, noise, t)
        live = g > -np.inf
        assert np.array_equal(g[live], want[0][live])
        assert np.array_equal(back[live], want[1][live])
        assert (~live).sum() == pruned[t - 1]
        assert live[spaces[t - 1].swap_info[:, 1] < 0].all()
        g_next = g
        g_ref, back_ref = reference_fold_stage(seq, spaces[t - 1], spaces[t], g_ref, noise, t)
        backs_ref.insert(0, back_ref)
    # the walked chain is the unpruned reference's, with its score's bits
    totals = h1 + g_ref
    rows = [int(np.argmax(totals))]
    for back_ref in backs_ref:
        rows.append(int(back_ref[rows[-1]]))
    assert walked_rows(spaces, ms) == rows
    assert score.hex() == totals[rows[0]].hex()
    return cells, pruned, [g for g, _ in stages]


@settings(max_examples=300)
@given(
    frames=st.lists(frame_points, min_size=3, max_size=4),
    d_picks=st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
    delta=st.integers(0, 2),
    sigmas=st.tuples(st.floats(0.3, 3.0), st.floats(0.3, 3.0), st.floats(0.3, 3.0)),
    lam=st.floats(-8.0, 0.0),
    dt=st.sampled_from([1.0, 0.5]),
    g_kind=st.sampled_from(["zero", "grid", "normal"]),
    seed=st.integers(0, 2**16),
)
def test_exchange_fold_equals_reference(frames, d_picks, delta, sigmas, lam, dt, g_kind, seed):
    seq = FrameSequence(
        tuple(np.array(f, dtype=float).reshape(-1, 2) for f in frames), dt=dt
    )
    spaces = [
        reduced(seq.frames[t], seq.frames[t + 1], d_picks[t], delta) for t in range(len(seq) - 1)
    ]
    noise = NoiseModel(sigmas=sigmas[: len(seq) - 1], lambda_event=lam)
    assert_pruned_fold_equals_reference(seq, spaces, noise)
    # the dense fold of stage 1 under any g_next
    rng = np.random.default_rng(seed)
    n_cols = len(spaces[1])
    g_next = {
        "zero": np.zeros(n_cols),
        "grid": rng.integers(0, 3, size=n_cols).astype(float),
        "normal": rng.normal(0.0, 5.0, size=n_cols),
    }[g_kind]
    assert_same_fold(seq, spaces[0], spaces[1], g_next, noise)


def test_mid_sized_stages_equal_reference(rng):
    # frames of n - 2 .. n + 2 objects put DISAPPEAR entries into the
    # spaces, and a fourth frame gives stage 1 the pruned values of stage 2
    for n in range(5, 15):
        for grid in (None, 3):
            for delta in (0, 1, 2):
                counts = (n + rng.integers(-2, 3, size=4)).tolist()
                if grid is None:
                    frames = tuple(rng.normal(0.0, 3.0, size=(k, 2)) for k in counts)
                else:
                    frames = tuple(
                        rng.integers(0, grid, size=(k, 2)).astype(float) for k in counts
                    )
                seq = FrameSequence(frames)
                spaces = [
                    reduced(seq.frames[t], seq.frames[t + 1], int(rng.integers(0, 3)), delta)
                    for t in range(3)
                ]
                noise = NoiseModel(sigmas=(1.0, 0.7, 0.8), lambda_event=-4.0)
                assert_pruned_fold_equals_reference(seq, spaces, noise)


def test_row_moving_disappear_and_mid_object_0():
    # predecessor row 5 is its seed [2, -1, 0, 1] with the DISAPPEAR entry
    # and the entry of mid object 0 exchanged, so only object 0 moves
    frames = ([[3, 2], [2, 3], [0, 3], [1, 3]], [[1, 1], [1, 1], [3, 0]], [[0, 3], [1, 0], [3, 2]])
    seq = FrameSequence(tuple(np.array(f, dtype=float) for f in frames))
    sp_prev = build_reduced_space(seq.frames[0], seq.frames[1], 1, delta=0)
    sp_next = build_reduced_space(seq.frames[1], seq.frames[2], 0, delta=0)
    q, i, j = sp_prev.swap_info[5].tolist()
    assert sp_prev.seeds[q].tolist() == [2, -1, 0, 1] and (i, j) == (1, 2)
    noise = NoiseModel(sigmas=(1.0, 1.0), lambda_event=-4.0)
    assert_pruned_fold_equals_reference(seq, [sp_prev, sp_next], noise)


def test_crowded_stage_scores_o_n_cells_per_row():
    rng = np.random.default_rng(7)
    n = 40
    p0 = rng.uniform(0.0, 200.0, size=(n, 2))
    v = rng.normal(0.0, 2.0, size=(n, 2))
    seq = FrameSequence(
        tuple(p0 + k * v + rng.normal(0.0, 1.0, size=(n, 2)) for k in range(4))
    )
    spaces = [build_reduced_space(seq.frames[t], seq.frames[t + 1], 0, delta=1) for t in range(3)]
    noise = NoiseModel.pooled(1.0, -6.0)
    # both stages prune under the closed form track() uses
    run = tripartite._stages(seq, spaces, noise, 1, 3)
    assert run.prunes == [True, True]
    cells, pruned, gs = assert_pruned_fold_equals_reference(seq, spaces, noise)

    for t in (1, 2):
        n_rows, n_cols = len(spaces[t - 1]), len(spaces[t])
        seed_rows = int((spaces[t - 1].swap_info[:, 1] == -1).sum())
        assert seed_rows == 2
        # seed rows score every column, survivors only the columns with a
        # finite value
        survivors = n_rows - seed_rows - pruned[t - 1]
        live = n_cols if t == 2 else int(np.isfinite(gs[t]).sum())
        assert cells[t] == seed_rows * n_cols + survivors * live
        assert cells[t] < n_rows * n_cols // 4


def test_track_reports_dp_cells(rng):
    counts = rng.integers(1, 5, size=5)
    seq = FrameSequence(tuple(rng.normal(0.0, 3.0, size=(int(n), 2)) for n in counts))
    d = track(seq, TrackerConfig(delta=1)).diagnostics
    assert len(d.dp_cells) == len(seq) - 1
    assert d.dp_cells[0] == d.space_sizes[0]
    # stages this small are folded densely: every cell once
    sizes = d.space_sizes
    assert d.dp_cells[1:] == tuple(sizes[t - 1] * sizes[t] for t in range(1, len(sizes)))


def test_long_video_sets_up_in_one_run():
    # video 0 of the bench's long workload: 160 frames of about six
    # objects, whose 158 stages fit one run of stage set-up
    w, h = 680.0, 512.0
    cfg = SimConfig(W=1.2 * w, H=1.2 * h, w=w, h=h, N0=6, sigma=1.0, f=160, seed=0)
    d = track(simulate(cfg).seq).diagnostics
    assert d.stage_runs == ((1, 159),)


def test_coincident_detections_fall_back_to_dense_rows():
    # every detection at one point: many chains tie, so few rows can be
    # pruned, and the survivors fold densely
    n = 6
    seq = FrameSequence(tuple(np.zeros((n, 2)) for _ in range(3)))
    sp_prev = build_reduced_space(seq.frames[0], seq.frames[1], 1, delta=1)
    sp_next = build_reduced_space(seq.frames[1], seq.frames[2], 1, delta=1)
    assert (len(sp_prev), len(sp_next)) == (47, 47)
    noise = NoiseModel.pooled(1.0, -2.0)
    assert_pruned_fold_equals_reference(seq, [sp_prev, sp_next], noise)


def direct_cells(seq, sp_prev, sp_next, g_next, noise, t=1):
    """Every cell of stage t, h_t(r, c) + g_next[c], as the direct sum of
    its mid objects' terms from reference_stage_terms."""
    tab = reference_stage_terms(seq, noise, t)
    n_mid, n_next = tab.shape[1], tab.shape[2] - 1
    y, x = sp_prev.matrix, sp_next.matrix
    # pred[r, j]: 1 + the predecessor of mid object j in row r, 0 when
    # none; DISAPPEAR entries land in the extra last column
    pred = np.zeros((y.shape[0], n_mid + 1), dtype=np.int64)
    pred[np.arange(y.shape[0])[:, None], y] = np.arange(1, y.shape[1] + 1)
    terms = tab[pred[:, None, :n_mid], np.arange(n_mid), x[None] + 1]
    appear = noise.lambda_event * (n_next - (x >= 0).sum(axis=1))
    return terms.sum(axis=2) + appear + g_next


def assert_cell_forms_agree(seq, sp_prev, sp_next, g_next, noise):
    # the dense form (a seed's sum plus two terms minus two) against
    # each cell's direct sum, over every cell
    run = tripartite._stages(seq, [sp_prev, sp_next], noise, 1, 2)
    dense = run.dense(0, np.arange(len(sp_prev)), g_next)
    assert dense.shape == (len(sp_prev), len(sp_next))
    direct = direct_cells(seq, sp_prev, sp_next, g_next, noise)
    np.testing.assert_allclose(dense, direct, rtol=1e-12, atol=1e-10)


@settings(max_examples=300)
@given(
    frames=st.lists(frame_points, min_size=3, max_size=3),
    d_picks=st.tuples(st.integers(0, 6), st.integers(0, 6)),
    delta=st.integers(0, 2),
    lam=st.floats(-8.0, 0.0),
    g_kind=st.sampled_from(["zero", "grid", "normal"]),
    seed=st.integers(0, 2**16),
)
def test_dense_cells_equal_sparse_cells(frames, d_picks, delta, lam, g_kind, seed):
    seq = FrameSequence(tuple(np.array(f, dtype=float).reshape(-1, 2) for f in frames))
    sp_prev = reduced(seq.frames[0], seq.frames[1], d_picks[0], delta)
    sp_next = reduced(seq.frames[1], seq.frames[2], d_picks[1], delta)
    rng = np.random.default_rng(seed)
    g_next = {
        "zero": np.zeros(len(sp_next)),
        "grid": rng.integers(0, 3, size=len(sp_next)).astype(float),
        "normal": rng.normal(0.0, 5.0, size=len(sp_next)),
    }[g_kind]
    noise = NoiseModel(sigmas=(1.0, 0.7), lambda_event=lam)
    assert_cell_forms_agree(seq, sp_prev, sp_next, g_next, noise)


@pytest.mark.parametrize(
    "frames",
    [
        # DISAPPEAR entries in both the rows (4 -> 3) and the columns (3 -> 2)
        ([[0, 0], [1, 0], [0, 1], [1, 1]], [[0, 0], [1, 1], [1, 1]], [[1, 1], [2, 1]]),
        # every detection at one point
        ([[1, 1]] * 3, [[1, 1]] * 3, [[1, 1]] * 3),
        # an empty mid frame, an empty next frame
        ([[0, 0], [2, 1]], [], [[1, 1], [0, 2]]),
        ([[0, 0], [2, 1]], [[1, 1], [0, 2], [2, 2]], []),
    ],
)
@pytest.mark.parametrize("delta", [0, 1, 2])
def test_cell_forms_agree_on_edge_stages(frames, delta, rng):
    seq = FrameSequence(tuple(np.array(f, dtype=float).reshape(-1, 2) for f in frames))
    noise = NoiseModel(sigmas=(1.0, 0.5), lambda_event=-3.0)
    for d_picks in ((0, 0), (1, 2), (2, 1)):
        sp_prev = reduced(seq.frames[0], seq.frames[1], d_picks[0], delta)
        sp_next = reduced(seq.frames[1], seq.frames[2], d_picks[1], delta)
        g_next = np.round(rng.normal(0.0, 3.0, size=len(sp_next)))
        assert_cell_forms_agree(seq, sp_prev, sp_next, g_next, noise)


@pytest.mark.parametrize("fold_cells", [1, 600, 4000])
def test_dense_fold_in_row_chunks_equals_reference(fold_cells, rng):
    counts = (9, 8, 9)
    frames = tuple(rng.normal(0.0, 3.0, size=(k, 2)) for k in counts)
    seq = FrameSequence(frames)
    sp_prev = build_reduced_space(seq.frames[0], seq.frames[1], 1, delta=1)
    sp_next = build_reduced_space(seq.frames[1], seq.frames[2], 1, delta=1)
    g_next = rng.normal(0.0, 5.0, size=len(sp_next))
    noise = NoiseModel(sigmas=(1.0, 0.7), lambda_event=-4.0)
    dense = mock.patch.object(
        tripartite._Run, "dense", autospec=True, side_effect=tripartite._Run.dense
    )
    with dense as spy, mock.patch.object(tripartite, "_FOLD_CELLS", fold_cells):
        assert_same_fold(seq, sp_prev, sp_next, g_next, noise)
    assert spy.call_count > 1


# stage widths (widest frame) 5, 5, 4, 4, 6, 6: _term_tables computes
# three widths of two stages each; mid counts 5, 2, 4, 0, 3, 6 (the last
# fills the run's widest frame)
MULTI_WIDTH = [(3, 5, 2, 4, 0, 3, 6, 2), (6, 1, 4, 4, 2, 5, 3)]


def multi_width_video(counts, delta, rng):
    """Frames of these counts on a coarse grid, their reduced spaces
    and a noise model with one sigma per pair."""
    frames = tuple(rng.integers(0, 4, size=(n, 2)).astype(float) for n in counts)
    seq = FrameSequence(frames)
    spaces = [
        reduced(seq.frames[t], seq.frames[t + 1], int(rng.integers(0, 3)), delta)
        for t in range(len(seq) - 1)
    ]
    noise = NoiseModel(
        sigmas=tuple(0.5 + 0.25 * t for t in range(len(seq) - 1)), lambda_event=-3.0
    )
    return seq, spaces, noise


@pytest.mark.parametrize("counts", MULTI_WIDTH)
@pytest.mark.parametrize("delta", [0, 1, 2])
def test_cell_forms_agree_on_every_stage_of_a_run(counts, delta, rng):
    seq, spaces, noise = multi_width_video(counts, delta, rng)
    run = tripartite._stages(seq, spaces, noise, 1, len(seq) - 1)
    # one table for the run: a block per stage at the run's largest
    # n_prev + 1, n_mid and n_next + 1, then a zero row
    p, m, nt = max(counts[:-2]) + 1, max(counts[1:-1]), max(counts[2:]) + 1
    assert run.tables.shape == ((len(seq) - 2) * p * m + 1, nt)
    assert not run.tables[-1].any()
    for k in range(len(seq) - 2):
        t = k + 1
        sp_prev, sp_next = spaces[t - 1], spaces[t]
        n_rows, n_cols = len(sp_prev), len(sp_next)
        # every row's last term row is the zero row
        zero = run.rowtab[run.r_off[k] : run.r_off[k + 1], run.counts[k + 1]]
        assert np.all(zero == run.tables.shape[0] - 1)
        g_next = np.round(rng.normal(0.0, 3.0, size=n_cols))
        dense = run.dense(k, np.arange(n_rows), g_next)
        direct = direct_cells(seq, sp_prev, sp_next, g_next, noise, t)
        np.testing.assert_allclose(dense, direct, rtol=1e-12, atol=1e-10)
        # the dense fold, on the run's stacked layout
        want = reference_fold_stage(seq, sp_prev, sp_next, g_next, noise, t)
        g_prev, back, _ = tripartite._fold_stage(run, k, sp_prev, g_next)
        assert np.array_equal(g_prev, want[0])
        assert np.array_equal(back, want[1])
    # the pruned fold, whose bounds read every stage's table
    assert_pruned_fold_equals_reference(seq, spaces, noise)


TERM_TABLES = tripartite._term_tables


def poisoned_term_tables(seq, noise, t0, t1):
    """_term_tables with NaN in every cell outside each stage's own
    table, tab[:n_prev + 1, :n_mid, :n_next + 1]; the zero row stays."""
    counts, tables = TERM_TABLES(seq, noise, t0, t1)
    p, m = tripartite._extents(counts)
    own = np.zeros((t1 - t0, p, m, tables.shape[1]), dtype=bool)
    for k in range(t1 - t0):
        n_prev, n_mid, n_next = counts[k : k + 3].tolist()
        own[k, : n_prev + 1, :n_mid, : n_next + 1] = True
    tables[:-1][~own.reshape(-1, tables.shape[1])] = np.nan
    return counts, tables


@pytest.mark.parametrize("fold_cells", [tripartite._FOLD_CELLS, 1])
@pytest.mark.parametrize("counts", MULTI_WIDTH)
@pytest.mark.parametrize("delta", [0, 1, 2])
def test_table_padding_is_never_read(counts, delta, fold_cells, rng):
    # NaN in the padding would reach any value that read it; with
    # fold_cells 1 every stage is a run of its own, so the prune's
    # forward bounds compute the tables of the runs set up later
    seq, spaces, noise = multi_width_video(counts, delta, rng)
    folds = {
        "dense": lambda: tripartite._solve_dp(seq, spaces, noise),
        "pruned": lambda: fold(seq, spaces, noise)[0],
    }
    with mock.patch.object(tripartite, "_FOLD_CELLS", fold_cells):
        for name, run_fold in folds.items():
            ms, score, cells, runs, pruned = run_fold()
            poison = mock.patch.object(
                tripartite, "_term_tables", side_effect=poisoned_term_tables
            )
            with poison as spy:
                got = run_fold()
            assert spy.call_count >= len(runs)
            assert got[0] == ms, name
            assert got[1].hex() == score.hex(), name
            assert got[2:] == (cells, runs, pruned), name


# tracemalloc peaks of track() measured on these videos (4.5 MB and 29.0
# MB), with 2x headroom; the tables padded to the widest frame on every
# axis peaked at 112 MB with 150 detections and grew as its cube
@pytest.mark.parametrize("n_big, bound_mb", [(150, 9), (400, 58)])
def test_one_large_frame_tracks_in_little_memory(n_big, bound_mb):
    # ten frames of 6 objects but frame 5: each stage next to it is a run
    # of its own, whose term tables span its own frames' counts
    rng = np.random.default_rng(0)
    frames = [rng.uniform(0.0, 100.0, size=(6, 2)) for _ in range(10)]
    frames[5] = rng.uniform(0.0, 100.0, size=(n_big, 2))
    seq = FrameSequence(tuple(frames))
    tracemalloc.start()
    try:
        res = track(seq, TrackerConfig(space_cap=10**8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 1e6
    assert (4, 5) in res.diagnostics.stage_runs and (6, 7) in res.diagnostics.stage_runs
