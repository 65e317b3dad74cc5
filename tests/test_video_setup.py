"""The video-level set-up of track() against the per-pair references.

track() does each per-pair job once per video over padded arrays: the
tie certificate of the matchings read from the batched sweep, space
assembly, stage set-up and the sigma estimate. Each must equal, bit for
bit, its one-pair form (in oracle.py, or here for the certificate).
"""

import warnings
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from velotrack import FrameSequence, MatchingVector, NoiseModel, estimate_sigma
from velotrack import assignment, tripartite
from velotrack.oracle import (
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


def reference_certificate(cost, row_to, u, v):
    """The tie certificate of one k-matching from its sweep snapshot:
    True when it must be refined. The smallest reduced cost off the
    matching clears it above the tolerance and fires below -tol;
    otherwise the tight-subgraph search decides."""
    n = max(cost.shape)
    tol = 64.0 * n * np.finfo(np.float64).eps * (1.0 + float(np.abs(cost).max()))
    rc = cost - u[:, None] - v[None, :]
    m = np.flatnonzero(row_to >= 0)
    rc[m, row_to[m]] = np.inf
    rc_min = float(rc.min())
    if rc_min > tol:
        return False
    return rc_min < -tol or assignment._tie_possible(rc <= tol, row_to, u, v, tol)


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
    costs = assignment._pair_costs(seq)
    sw = assignment._sweep(costs)

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
        gate = assignment._gate_from_costs(costs, assignment.BipartiteConfig())
    k_star = sw.gated(gate)
    pair, ks = tripartite._seed_cardinalities(sw.n_a, sw.n_b, sw.n_a - k_star, delta)
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
        np.testing.assert_array_equal(sp.swap_info, want.swap_info)

    # sigma from the gated matchings
    bmcf = sw.vectors(np.arange(f - 1), k_star)
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
            for t, stage in zip(range(t0, t1), tripartite._stages(seq, spaces, noise, t0, t1)):
                stages[t] = stage
    assert sorted(stages) == list(range(1, f - 1))
    for t, stage in stages.items():
        tab = reference_stage_terms(seq, noise, t)
        assert stage.tab.shape == tab.shape
        assert np.array_equal(stage.tab, tab)
        assert np.array_equal(stage.tabf, tab.reshape(-1))
        want = reference_rowbase(spaces[t - 1], counts[t], counts[t + 1])
        assert np.array_equal(stage.rowbase, want)
        info = spaces[t].swap_info
        seed_cols = np.flatnonzero(info[:, 1] == -1)
        assert np.array_equal(stage.seed_cols, seed_cols)
        assert np.array_equal(seed_cols[stage.seed_pos], info[:, 0])
        # every column is its seed's shifted targets with i_of and j_of exchanged
        cols = stage.seed_xc[stage.seed_pos]
        sw = np.flatnonzero(stage.is_swap)
        i, j = stage.i_of[sw], stage.j_of[sw]
        cols[sw, i], cols[sw, j] = cols[sw, j], cols[sw, i]
        assert np.array_equal(cols, spaces[t].matrix + 1)
        matched = (spaces[t].matrix >= 0).sum(axis=1)
        assert np.array_equal(stage.appear, lam * (counts[t + 1] - matched))
