"""The video-level set-up of track() against the per-pair references.

track() does each per-pair job once per video over padded arrays: the
tie certificate of the matchings read from the batched sweep, space
assembly, stage set-up and the sigma estimate. Each must equal, bit for
bit, its one-pair form in oracle.py.
Stage set-up runs over runs of stages; folding in many small runs must
equal folding in one.
"""

import warnings
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from velotrack import (
    FrameSequence,
    MatchingVector,
    NoiseModel,
    TrackerConfig,
    estimate_sigma,
    track,
)
from velotrack import assignment, tripartite
from velotrack.oracle import (
    reference_certificate,
    reference_estimate_sigma,
    reference_seeded_space,
    reference_stage_terms,
    reference_sweep,
)


@st.composite
def videos(draw):
    """Short videos with varying counts, empty frames, coincident points
    and integer-grid coordinates, which are rich in exact ties."""
    f = draw(st.integers(2, 6))
    grid = draw(st.booleans())
    if grid:
        point = st.tuples(st.integers(0, 3), st.integers(0, 3)).map(lambda p: (float(p[0]), float(p[1])))
    else:
        point = st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0))
    frames = []
    for _ in range(f):
        pts = draw(st.lists(point, max_size=6))
        if pts and draw(st.integers(0, 4)) == 0:
            pts = pts + pts[:2]  # coincident detections
        frames.append(np.array(pts, dtype=float).reshape(-1, 2))
    dt = draw(st.sampled_from([1.0, 0.5, 2.0]))
    return FrameSequence(tuple(frames), dt=dt)


def einsum_costs(a, b) -> np.ndarray:
    """Squared distances between the points a and b by einsum."""
    diff = a[:, None, :] - b[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def reference_rowbase(sp_prev, n_mid, n_next):
    rowbase = np.zeros((len(sp_prev), n_mid), dtype=np.int64)
    for r, row in enumerate(sp_prev.matrix):
        for i, j in enumerate(row):
            if j >= 0:
                rowbase[r, j] = i + 1
    return (rowbase * n_mid + np.arange(n_mid)) * (n_next + 1)


@settings(max_examples=200)
@given(
    seq=videos(),
    delta=st.integers(0, 2),
    small_runs=st.booleans(),
    sigma=st.sampled_from([0.5, 1.0, 3.0]),
    lam=st.floats(-8.0, 0.0),
)
def test_video_setup_equals_per_pair_references(seq, delta, small_runs, sigma, lam):
    f = len(seq)
    costs = [einsum_costs(a, b) for a, b in zip(seq.frames, seq.frames[1:])]
    sw = assignment._sweep(seq.frames[:-1], seq.frames[1:])

    # the batched certificate fires exactly where the one-matching
    # certificate on the pair's own sweep does
    pairs = np.repeat(np.arange(f - 1), sw.k_stop + 1)
    ks = np.concatenate([np.arange(k + 1) for k in sw.k_stop])
    refine = sw._certify(pairs, ks)
    for p, k, got in zip(pairs, ks, refine):
        if k == 0:
            assert not got
            continue
        ref = reference_sweep(costs[p], k)
        want = reference_certificate(costs[p], ref.row_to[k - 1], ref.u[k - 1], ref.v[k - 1])
        assert got == want, (p, k)

    # spaces around the gated d*, in runs small enough to split the video
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # videos without distance samples
        gate = sw.gate(assignment.BipartiteConfig())
    k_star = sw.gated(gate)
    pair, ks, _ = tripartite._seed_cardinalities(sw.n_a, sw.n_b, sw.n_a - k_star, delta)
    seeds = sw.rows(pair, ks)
    cells = 40 if small_runs else tripartite._FOLD_CELLS
    with mock.patch.object(tripartite, "_FOLD_CELLS", cells):
        spaces = tripartite._assemble_spaces(pair, seeds, sw.n_a, sw.n_b)
    for p, sp in enumerate(spaces):
        n_a, n_b = int(sw.n_a[p]), int(sw.n_b[p])
        mine = [MatchingVector(tuple(r[:n_a].tolist()), n_next=n_b) for r in seeds[pair == p]]
        want = reference_seeded_space(mine, n_a, n_b)
        assert (sp.n_from, sp.n_next) == (n_a, n_b)
        np.testing.assert_array_equal(sp.matrix, want.matrix)
        np.testing.assert_array_equal(sp.seeds, want.seeds)
        np.testing.assert_array_equal(sp.swap_info, want.swap_info)

    # sigma from the gated matchings, read as the seeds at d*
    gated = ks == k_star[pair]
    np.testing.assert_array_equal(pair[gated], np.arange(f - 1))
    np.testing.assert_array_equal(seeds[gated], sw.rows(np.arange(f - 1), k_star))
    bmcf = assignment._matching_vectors(seeds[gated], sw.n_a, sw.n_b)
    for mode in ("per-frame", "pooled"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # videos without chains fall back
            got = estimate_sigma(seq, bmcf, mode=mode)
            want = reference_estimate_sigma(seq, bmcf, mode=mode)
        assert [s.hex() for s in got.sigmas] == [s.hex() for s in want.sigmas]
        assert got == want

    # stage set-up, run by run as the fold takes them
    noise = NoiseModel(sigmas=tuple(sigma * (1 + 0.1 * t) for t in range(f - 1)), lambda_event=lam)
    counts, sizes = seq.counts, [len(sp) for sp in spaces]
    with mock.patch.object(tripartite, "_FOLD_CELLS", cells):
        runs = tripartite._stage_runs(counts, sizes)
        stages = {}
        for t0, t1 in runs:
            run = tripartite._stages(seq, spaces, noise, t0, t1)
            for k in range(t1 - t0):
                stages[t0 + k] = (run, k)
    assert sorted(stages) == list(range(1, f - 1))
    for t, (run, k) in stages.items():
        nt = run.tables.shape[1]
        n_mid, n_next = counts[t], counts[t + 1]
        p, m = run.p, run.m
        tab = reference_stage_terms(seq, noise, t)
        assert run.table(k).shape == tab.shape
        assert np.array_equal(run.table(k), tab)
        # predecessor rows: table rows (i + 1) m + j in the run's padded
        # layout, stage k's block from row k p m, which hold the
        # reference's entries through reference_rowbase
        rowtab = run.rowtab[run.r_off[k] : run.r_off[k + 1], :n_mid]
        want = reference_rowbase(spaces[t - 1], m, 0)[:, :n_mid]
        assert np.array_equal(rowtab, want + k * p * m)
        got = run.tables[rowtab][:, :, : n_next + 1]
        ref = reference_rowbase(spaces[t - 1], n_mid, n_next)[:, :, None]
        assert np.array_equal(got, tab.reshape(-1)[ref + np.arange(n_next + 1)])
        # successor columns, through the stage's column and seed offsets
        cols, seeds = slice(run.c_off[k], run.c_off[k + 1]), slice(run.s_off[k], run.s_off[k + 1])
        info = spaces[t].swap_info
        seed_cols = np.flatnonzero(info[:, 1] == -1)
        seed_pos = run.seed_pos[cols]
        assert np.array_equal(seed_pos, info[:, 0])
        assert np.array_equal(spaces[t].matrix[seed_cols], spaces[t].seeds)
        # a seed's entries are j * nt + its shifted target of j, in j order
        j_at, xc = np.divmod(run.seed_idx[seeds], nt)
        assert (j_at == np.arange(j_at.shape[1])).all()
        assert not xc[:, n_mid:].any()  # the padding reads DISAPPEAR
        # each column exchanges entries i and j of its seed: swap_info's for
        # an exchange, the padding entry n_mid with itself for a seed
        i, j = run.swap_idx[2:, cols] // nt
        want_i, want_j = np.where(info[:, 1:] < 0, n_mid, info[:, 1:]).T
        assert np.array_equal(i, want_i) and np.array_equal(j, want_j)
        x_i, x_j = xc[seed_pos, i], xc[seed_pos, j]
        want = [i * nt + x_j, j * nt + x_i, i * nt + x_i, j * nt + x_j]
        assert np.array_equal(run.swap_idx[:, cols], want)
        col, q = xc[seed_pos], np.arange(seed_pos.shape[0])
        col[q, i], col[q, j] = col[q, j], col[q, i]
        assert np.array_equal(col[:, :n_mid], spaces[t].matrix + 1)
        matched = (spaces[t].matrix >= 0).sum(axis=1)
        assert np.array_equal(run.appear[cols], lam * (counts[t + 1] - matched))
        # whether the stage prunes, from its closed-form cell counts
        n_rows, n_cols = len(spaces[t - 1]), len(spaces[t])
        seed_rows = int((spaces[t - 1].swap_info[:, 1] == -1).sum())
        per_row = seed_cols.shape[0] * (2 * n_mid + 1) + n_mid
        closed = seed_rows * n_cols + (n_rows - seed_rows) * per_row
        assert run.prunes[k] == (closed + tripartite._PRUNE_SETUP_CELLS < n_rows * n_cols)


def fold_in_runs(seq, spaces, noise, fold_cells):
    """_solve_dp with _FOLD_CELLS patched, plus what each _fold_stage returned."""
    folds = []
    fold = tripartite._fold_stage

    def record(*args, **kwargs):
        folds.append(fold(*args, **kwargs))
        return folds[-1]

    with (
        mock.patch.object(tripartite, "_FOLD_CELLS", fold_cells),
        mock.patch.object(tripartite, "_fold_stage", side_effect=record),
    ):
        matchings, score, cells, runs, pruned = tripartite._solve_dp(seq, spaces, noise)
    return folds, matchings, score, cells, runs, pruned


def assert_runs_fold_alike(seq, delta):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # videos without chains fall back
        res = track(seq, TrackerConfig(delta=delta))
    d = res.diagnostics
    noise = NoiseModel(sigmas=d.sigma.sigmas, lambda_event=d.lambda_event)
    spaces = list(res.spaces)
    one = fold_in_runs(seq, spaces, noise, 1 << 40)
    many = fold_in_runs(seq, spaces, noise, 1)
    f = len(seq)
    assert one[4] == (((1, f - 1),) if f > 2 else ())
    assert [t for t0, t1 in many[4][::-1] for t in range(t0, t1)] == list(range(1, f - 1))
    assert len(one[0]) == len(many[0]) == f - 2
    for (g1, b1, c1), (g2, b2, c2) in zip(one[0], many[0]):
        assert g1.tobytes() == g2.tobytes()
        assert np.array_equal(b1, b2)
        assert c1 == c2
    assert one[1] == many[1] == list(res.matchings)
    assert one[2].hex() == many[2].hex() == res.score.hex()
    assert one[3] == many[3] == d.dp_cells
    assert one[5] == many[5] == d.pruned_rows
    return many[4]


@settings(max_examples=100)
@given(seq=videos(), delta=st.integers(0, 2))
def test_small_runs_fold_like_one_run(seq, delta):
    assert_runs_fold_alike(seq, delta)


def test_small_runs_fold_like_one_run_on_edge_videos():
    frames = (
        [[0, 0], [1, 0]],
        [],  # a 0-object middle frame
        [[1, 1], [2, 2], [2, 2]],
        [[0, 0]],
        [[0, 0], [0, 0], [1, 1], [3, 1]],
        [],
        [],
        [[2, 2], [1, 0], [0, 1], [1, 1], [2, 0]],
        [[2, 1], [1, 1], [0, 2], [1, 2]],
    )
    seq = FrameSequence(tuple(np.array(f, dtype=float).reshape(-1, 2) for f in frames))
    for delta in (0, 1, 2):
        runs = assert_runs_fold_alike(seq, delta)
        # every stage with an object goes alone under a bound of one cell
        assert len(runs) == len(seq) - 2


# every stage prunes its rows, so the prune's
# forward bounds read the term tables of runs set up after the first
EVERY_STAGE_PRUNES = mock.patch.object(tripartite, "_PRUNE_SETUP_CELLS", -(1 << 40))


@settings(max_examples=100)
@given(seq=videos(), delta=st.integers(0, 2))
def test_small_runs_prune_like_one_run(seq, delta):
    with EVERY_STAGE_PRUNES:
        assert_runs_fold_alike(seq, delta)


def test_small_runs_prune_like_one_run_on_edge_videos():
    frames = (
        [[0, 0], [1, 0], [3, 3]],
        [[1, 1], [2, 2], [2, 2], [0, 1]],
        [],  # a 0-object middle frame
        [[1, 1], [2, 2], [2, 2]],
        [[0, 0], [3, 0], [1, 2]],
        [[0, 0], [0, 0], [1, 1], [3, 1]],
        [[2, 2], [1, 0], [0, 1], [1, 1], [2, 0]],
        [[2, 1], [1, 1], [0, 2], [1, 2]],
    )
    seq = FrameSequence(tuple(np.array(f, dtype=float).reshape(-1, 2) for f in frames))
    for delta in (0, 1, 2):
        with EVERY_STAGE_PRUNES:
            assert_runs_fold_alike(seq, delta)
            assert any(track(seq, TrackerConfig(delta=delta)).diagnostics.pruned_rows)
