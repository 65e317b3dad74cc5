"""Property test of the whole tracker on small random videos."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from velotrack import (
    FrameSequence,
    NoiseModel,
    TrackerConfig,
    pair_log_likelihood_first,
    track,
    triple_log_likelihood,
)


def chain_score(seq, matchings, noise):
    fr = seq.frames
    total = pair_log_likelihood_first(fr[0], fr[1], matchings[0], noise, dt=seq.dt)
    for t in range(1, len(matchings)):
        total += triple_log_likelihood(
            fr[t - 1], fr[t], fr[t + 1], matchings[t - 1], matchings[t], noise,
            dt=seq.dt, pair_index=t,
        )
    return total


# a coarse integer grid, so coincident detections and empty frames occur
frame_points = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=4)


@settings(max_examples=200)
@given(
    frames=st.lists(frame_points, min_size=2, max_size=5),
    delta=st.integers(0, 2),
    sigma_mode=st.sampled_from(["per-frame", "pooled", "fixed:1.5"]),
)
def test_track_on_small_videos(frames, delta, sigma_mode):
    seq = FrameSequence(tuple(2.0 * np.array(f, dtype=float).reshape(-1, 2) for f in frames))
    cfg = TrackerConfig(delta=delta, sigma_mode=sigma_mode)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # gate and sigma fallbacks warn on sparse videos
        res = track(seq, cfg)

    seen = sorted(fo for tr in res.trajectories.tracks for fo in tr)
    assert seen == [(k, i) for k in range(len(seq)) for i in range(seq.n_objects(k))]

    d = res.diagnostics
    noise = NoiseModel(d.sigma.sigmas, d.lambda_event, sigma_floor=cfg.sigma_floor)
    assert res.score == pytest.approx(chain_score(seq, res.matchings, noise), rel=1e-9, abs=1e-9)
    # the bipartite matchings seed every space, so the optimum cannot be worse
    bmcf = chain_score(seq, d.bmcf_matchings, noise)
    assert res.score >= bmcf - 1e-9 * (1.0 + abs(bmcf))


@pytest.mark.xfail(
    strict=True,
    reason=(
        "sigma-floor cancellation: the third pair's sigma sits at sigma_floor, its terms "
        "reach 1e12, and the fold's decomposed cell sums (seed sum plus two new terms minus "
        "two old ones) leave a 2.8e-6 relative gap to the chain score"
    ),
)
def test_sigma_floor_score_gap():
    frames = [[(0, 0)], [(3, 0)], [(2, 0), (0, 0), (0, 0)], [(0, 0), (1, 0), (0, 1)]]
    seq = FrameSequence(tuple(2.0 * np.array(f, dtype=float).reshape(-1, 2) for f in frames))
    cfg = TrackerConfig(delta=1, sigma_mode="per-frame")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = track(seq, cfg)
    d = res.diagnostics
    assert d.sigma.sigmas == pytest.approx((4.0, 5.657, 1e-6), rel=1e-3)
    noise = NoiseModel(d.sigma.sigmas, d.lambda_event, sigma_floor=cfg.sigma_floor)
    assert res.score == pytest.approx(chain_score(seq, res.matchings, noise), rel=1e-9, abs=1e-9)
