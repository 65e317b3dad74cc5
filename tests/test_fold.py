"""The exchange-structured DP fold against the dense reference fold."""

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
from velotrack.oracle import reference_fold_stage

# a coarse grid: coincident detections force exact ties between cells
frame_points = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=6)


def reduced(frame_a, frame_b, d_pick, delta):
    n_a, n_b = frame_a.shape[0], frame_b.shape[0]
    lo = max(0, n_a - n_b)
    return build_reduced_space(frame_a, frame_b, lo + d_pick % (n_a - lo + 1), delta=delta)


def assert_same_fold(seq, sp_prev, sp_next, g_next, noise, exchange):
    want = reference_fold_stage(seq, sp_prev, sp_next, g_next, noise, 1)
    run = tripartite._stages(seq, [sp_prev, sp_next], noise, 1, 2)
    got = tripartite._fold_stage(run, 0, sp_prev, g_next, exchange=exchange)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    return got[2]


@settings(max_examples=300)
@given(
    frames=st.lists(frame_points, min_size=3, max_size=3),
    d_picks=st.tuples(st.integers(0, 6), st.integers(0, 6)),
    delta=st.integers(0, 2),
    sigmas=st.tuples(st.floats(0.3, 3.0), st.floats(0.3, 3.0)),
    lam=st.floats(-8.0, 0.0),
    dt=st.sampled_from([1.0, 0.5]),
    g_kind=st.sampled_from(["zero", "grid", "normal"]),
    seed=st.integers(0, 2**16),
)
def test_exchange_fold_equals_reference(frames, d_picks, delta, sigmas, lam, dt, g_kind, seed):
    seq = FrameSequence(
        tuple(np.array(f, dtype=float).reshape(-1, 2) for f in frames), dt=dt
    )
    sp_prev = reduced(seq.frames[0], seq.frames[1], d_picks[0], delta)
    sp_next = reduced(seq.frames[1], seq.frames[2], d_picks[1], delta)
    rng = np.random.default_rng(seed)
    g_next = {
        "zero": np.zeros(len(sp_next)),
        "grid": rng.integers(0, 3, size=len(sp_next)).astype(float),
        "normal": rng.normal(0.0, 5.0, size=len(sp_next)),
    }[g_kind]
    noise = NoiseModel(sigmas=sigmas, lambda_event=lam)
    for exchange in (True, False, None):
        assert_same_fold(seq, sp_prev, sp_next, g_next, noise, exchange)


def test_mid_sized_stages_equal_reference(rng):
    # cut lists are shorter than the column blocks from n = 5 on; frames
    # of n - 2 .. n + 2 objects put DISAPPEAR entries into the spaces
    for n in range(5, 15):
        for grid in (None, 3):
            for delta in (0, 1, 2):
                counts = (n + rng.integers(-2, 3, size=3)).tolist()
                if grid is None:
                    frames = tuple(rng.normal(0.0, 3.0, size=(k, 2)) for k in counts)
                else:
                    frames = tuple(
                        rng.integers(0, grid, size=(k, 2)).astype(float) for k in counts
                    )
                seq = FrameSequence(frames)
                sp_prev = reduced(seq.frames[0], seq.frames[1], int(rng.integers(0, 3)), delta)
                sp_next = reduced(seq.frames[1], seq.frames[2], int(rng.integers(0, 3)), delta)
                g_next = rng.normal(0.0, 5.0, size=len(sp_next))
                if grid is not None:
                    g_next = np.round(g_next)
                noise = NoiseModel(sigmas=(1.0, 0.7), lambda_event=-4.0)
                assert_same_fold(seq, sp_prev, sp_next, g_next, noise, True)


def test_row_moving_disappear_and_mid_object_0():
    # predecessor row 5 is its seed [2, -1, 0, 1] with the DISAPPEAR entry
    # and the entry of mid object 0 exchanged, so only object 0 moves
    frames = ([[3, 2], [2, 3], [0, 3], [1, 3]], [[1, 1], [1, 1], [3, 0]], [[0, 3], [1, 0], [3, 2]])
    seq = FrameSequence(tuple(np.array(f, dtype=float) for f in frames))
    sp_prev = build_reduced_space(seq.frames[0], seq.frames[1], 1, delta=0)
    sp_next = build_reduced_space(seq.frames[1], seq.frames[2], 0, delta=0)
    seed, i, j = sp_prev.swap_info[5].tolist()
    assert sp_prev.matrix[seed].tolist() == [2, -1, 0, 1] and (i, j) == (1, 2)
    noise = NoiseModel(sigmas=(1.0, 1.0), lambda_event=-4.0)
    assert_same_fold(seq, sp_prev, sp_next, np.zeros(len(sp_next)), noise, True)


def test_crowded_stage_scores_o_n_cells_per_row():
    rng = np.random.default_rng(7)
    n = 40
    p0 = rng.uniform(0.0, 200.0, size=(n, 2))
    v = rng.normal(0.0, 2.0, size=(n, 2))
    seq = FrameSequence(
        tuple(p0 + k * v + rng.normal(0.0, 1.0, size=(n, 2)) for k in range(3))
    )
    sp_prev = build_reduced_space(seq.frames[0], seq.frames[1], 0, delta=1)
    sp_next = build_reduced_space(seq.frames[1], seq.frames[2], 0, delta=1)
    g_next = rng.normal(0.0, 10.0, size=len(sp_next))
    noise = NoiseModel.pooled(1.0, -6.0)
    cells = assert_same_fold(seq, sp_prev, sp_next, g_next, noise, None)

    n_rows, n_cols = len(sp_prev), len(sp_next)
    seed_rows = int((sp_prev.swap_info[:, 1] == -1).sum())
    seed_cols = int((sp_next.swap_info[:, 1] == -1).sum())
    assert (seed_rows, seed_cols) == (2, 2)
    # row seeds score every column; every other row scores, per column
    # seed, the 2n exchanges touching its two moved objects plus the best
    # column touching neither, then rescores its one shortlisted cell
    per_row = seed_cols * (2 * n + 1) + 1
    assert cells == seed_rows * n_cols + (n_rows - seed_rows) * per_row
    assert cells < n_rows * n_cols // 4


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
    # every detection at one point: all cells of a column block tie, so
    # the next entry of a cut list cannot rule out the block's other
    # untouched columns
    n = 6
    seq = FrameSequence(tuple(np.zeros((n, 2)) for _ in range(3)))
    sp_prev = build_reduced_space(seq.frames[0], seq.frames[1], 1, delta=1)
    sp_next = build_reduced_space(seq.frames[1], seq.frames[2], 1, delta=1)
    noise = NoiseModel.pooled(1.0, -2.0)
    cells = assert_same_fold(seq, sp_prev, sp_next, np.zeros(len(sp_next)), noise, True)

    n_rows, n_cols = len(sp_prev), len(sp_next)
    seed_rows = int((sp_prev.swap_info[:, 1] == -1).sum())
    seed_cols = int((sp_next.swap_info[:, 1] == -1).sum())
    assert (n_rows, n_cols, seed_rows, seed_cols) == (47, 47, 3, 3)
    # each swap row adds only the one column block holding its maximum
    # (16 columns) to its exact shortlist, not the whole row of 47
    per_row = seed_cols * (2 * n + 1) + 16
    assert cells == seed_rows * n_cols + (n_rows - seed_rows) * per_row


def assert_cell_forms_agree(seq, sp_prev, sp_next, g_next, noise):
    # dense (row table takes) and cells (table gathers) over every cell
    run = tripartite._stages(seq, [sp_prev, sp_next], noise, 1, 2)
    n_rows, n_cols = len(sp_prev), len(sp_next)
    dense = run.dense(0, np.arange(n_rows), g_next)
    r, c = np.divmod(np.arange(n_rows * n_cols), n_cols)
    cells = run.cells(0, r, c, g_next).reshape(n_rows, n_cols)
    assert dense.shape == (n_rows, n_cols)
    assert dense.tobytes() == cells.tobytes()


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
        assert_same_fold(seq, sp_prev, sp_next, g_next, noise, False)
    assert spy.call_count > 1
