"""The exchange-structured DP fold against the dense reference fold."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from velotrack import FrameSequence, NoiseModel, TrackerConfig, build_reduced_space, track
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
    (st,) = tripartite._stages(seq, [sp_prev, sp_next], noise, 1, 2)
    got = tripartite._fold_stage(st, sp_prev, g_next, exchange=exchange)
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
    # cut lists are shorter than the column blocks from n = 5 on
    for n in range(5, 15):
        for grid in (None, 3):
            if grid is None:
                frames = tuple(rng.normal(0.0, 3.0, size=(n, 2)) for _ in range(3))
            else:
                frames = tuple(rng.integers(0, grid, size=(n, 2)).astype(float) for _ in range(3))
            seq = FrameSequence(frames)
            sp_prev = reduced(seq.frames[0], seq.frames[1], int(rng.integers(0, 3)), 2)
            sp_next = reduced(seq.frames[1], seq.frames[2], int(rng.integers(0, 3)), 2)
            g_next = rng.normal(0.0, 5.0, size=len(sp_next))
            if grid is not None:
                g_next = np.round(g_next)
            noise = NoiseModel(sigmas=(1.0, 0.7), lambda_event=-4.0)
            assert_same_fold(seq, sp_prev, sp_next, g_next, noise, True)


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
    # seed, 2n exchanges touching its two moved objects plus a cut list
    # of 2n - 1, then rescores its one shortlisted cell exactly
    per_row = seed_cols * (2 * n + 2 * n - 1) + 1
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


def test_coincident_detections_fall_back_to_dense_rows():
    # every detection at one point: all cells of a column block tie, so
    # no cut list can rule out the columns past it
    n = 6
    seq = FrameSequence(tuple(np.zeros((n, 2)) for _ in range(3)))
    sp_prev = build_reduced_space(seq.frames[0], seq.frames[1], 1, delta=1)
    sp_next = build_reduced_space(seq.frames[1], seq.frames[2], 1, delta=1)
    noise = NoiseModel.pooled(1.0, -2.0)
    cells = assert_same_fold(seq, sp_prev, sp_next, np.zeros(len(sp_next)), noise, True)
    # each overflowing cut list adds only its own column block to the
    # row's exact shortlist; rescoring the whole row densely took 5245
    assert cells == 3881
