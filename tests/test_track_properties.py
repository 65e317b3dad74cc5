"""Property test of the whole tracker on small random videos."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import velotrack
from velotrack import (
    FrameSequence,
    MatchingVector,
    NoiseModel,
    SimConfig,
    TrackerConfig,
    TrajectorySet,
    pair_log_likelihood_first,
    simulate,
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


def assert_checked_forms(res):
    """Every vector and the trajectory set that track() built unchecked
    equal what the checking constructors build from the same values, and
    hold plain ints."""
    for m in (*res.matchings, *res.diagnostics.bmcf_matchings):
        assert m == MatchingVector(m.entries, m.n_next)
        assert type(m.n_next) is int and all(type(e) is int for e in m.entries)
    tracks = res.trajectories.tracks
    assert res.trajectories == TrajectorySet(tracks)
    assert all(type(x) is int for tr in tracks for fo in tr for x in fo)


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
    assert_checked_forms(res)

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


# the benchmark's workloads (bench/run.py), whose seed-0 videos have seeds 0, 1, ...
BENCH_WORKLOADS = {
    "long": dict(N0=6, sigma=1.0, f=160, region=1.2),
    "crowded": dict(N0=40, sigma=1.0, f=4, region=1.0),
    "noisy": dict(N0=12, sigma=6.0, f=20, region=1.0),
}


@pytest.mark.parametrize("name", sorted(BENCH_WORKLOADS))
def test_unchecked_outputs_equal_their_checked_forms(name):
    w = BENCH_WORKLOADS[name]
    for seed in range(3):
        cfg = SimConfig(
            W=680.0 * w["region"], H=512.0 * w["region"], w=680.0, h=512.0,
            N0=w["N0"], sigma=w["sigma"], f=w["f"], seed=seed,
        )
        assert_checked_forms(track(simulate(cfg).seq))


def test_unchecked_constructors_are_private():
    assert not [name for name in velotrack.__all__ if "trusted" in name]
