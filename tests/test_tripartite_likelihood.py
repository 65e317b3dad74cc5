"""Chain-likelihood terms, noise-scale estimation, tracker config."""

import json
import math

import numpy as np
import pytest

from velotrack import (
    DISAPPEAR,
    FrameSequence,
    InvalidConfigError,
    InvalidInputError,
    MatchingVector,
    NoiseModel,
    TrackerConfig,
    auto_lambda,
    estimate_sigma,
    pair_log_likelihood_first,
    triple_log_likelihood,
)
from velotrack.oracle import enumerate_space, incremental_triple_score

LOG_2PI = math.log(2.0 * math.pi)


def frames(*coords):
    return [np.asarray(c, dtype=float).reshape(-1, 2) for c in coords]


class TestNoiseModel:
    def test_pooled_and_per_pair_lookup(self):
        nm = NoiseModel(sigmas=(1.0, 2.0, 3.0), lambda_event=-1.0)
        assert nm.sigma_for_pair(2) == 3.0
        pooled = NoiseModel.pooled(1.5, -1.0)
        assert pooled.sigma_for_pair(7) == 1.5

    def test_scalar_sigma_accepted(self):
        nm = NoiseModel(sigmas=2.0, lambda_event=0.0)
        assert nm.sigmas == (2.0,)

    def test_validation(self):
        with pytest.raises(InvalidConfigError):
            NoiseModel(sigmas=(0.0,), lambda_event=-1.0)
        with pytest.raises(InvalidConfigError):
            NoiseModel(sigmas=(1.0,), lambda_event=0.5)
        with pytest.raises(InvalidConfigError):
            NoiseModel(sigmas=(), lambda_event=-1.0)
        with pytest.raises(InvalidConfigError):
            NoiseModel(sigmas=(1e-9,), lambda_event=-1.0, sigma_floor=1e-6)


class TestFirstPairScore:
    # Gaussian log density at zero displacement with unit scale is -log(2*pi)

    def test_zero_displacement(self):
        a, b = frames([(0.0, 0.0)], [(0.0, 0.0)])
        m = MatchingVector((0,), n_next=1)
        nm = NoiseModel.pooled(1.0, -5.0)
        assert pair_log_likelihood_first(a, b, m, nm) == pytest.approx(-LOG_2PI)

    def test_displaced(self):
        a, b = frames([(0.0, 0.0)], [(3.0, 4.0)])
        m = MatchingVector((0,), n_next=1)
        nm = NoiseModel.pooled(1.0, -5.0)
        # squared distance 25, scale 1: -log(2 pi) - 12.5
        assert pair_log_likelihood_first(a, b, m, nm) == pytest.approx(-LOG_2PI - 12.5)

    def test_dt_scales_the_position_spread(self):
        a, b = frames([(0.0, 0.0)], [(3.0, 4.0)])
        m = MatchingVector((0,), n_next=1)
        nm = NoiseModel.pooled(1.0, -5.0)
        got = pair_log_likelihood_first(a, b, m, nm, dt=2.0)
        assert got == pytest.approx(-math.log(2.0 * math.pi * 4.0) - 25.0 / 8.0)

    def test_events_only(self):
        a, b = frames([], [(1.0, 1.0)])
        m = MatchingVector((), n_next=1)
        nm = NoiseModel.pooled(1.0, -5.0)
        assert pair_log_likelihood_first(a, b, m, nm) == pytest.approx(-5.0)

    def test_counts_both_event_kinds(self):
        a, b = frames([(0.0, 0.0), (1.0, 0.0)], [(0.0, 0.0)])
        m = MatchingVector((0, DISAPPEAR), n_next=1)
        nm = NoiseModel.pooled(1.0, -2.0)
        # one disappearance, zero appearances, one zero-distance link
        assert pair_log_likelihood_first(a, b, m, nm) == pytest.approx(-LOG_2PI - 2.0)


class TestTripleScore:
    def test_constant_velocity_is_noise_free(self):
        p, m, n = frames([(0.0, 0.0)], [(1.0, 2.0)], [(2.0, 4.0)])
        m01 = MatchingVector((0,), n_next=1)
        m12 = MatchingVector((0,), n_next=1)
        nm = NoiseModel.pooled(1.0, -5.0)
        got = triple_log_likelihood(p, m, n, m01, m12, nm)
        assert got == pytest.approx(-LOG_2PI)

    def test_velocity_change_is_charged(self):
        p, m, n = frames([(0.0, 0.0)], [(1.0, 0.0)], [(1.0, 1.0)])
        m01 = MatchingVector((0,), n_next=1)
        m12 = MatchingVector((0,), n_next=1)
        nm = NoiseModel.pooled(1.0, -5.0)
        # velocity turns from (1,0) to (0,1): squared change 2
        got = triple_log_likelihood(p, m, n, m01, m12, nm)
        assert got == pytest.approx(-LOG_2PI - 1.0)

    def test_unchained_object_pays_position_cost(self):
        # object 0 of the middle frame was not reached from the first frame,
        # so its link to the last frame is scored by position with spread dt*sigma
        p, m, n = frames([], [(0.0, 0.0)], [(3.0, 4.0)])
        m01 = MatchingVector((), n_next=1)
        m12 = MatchingVector((0,), n_next=1)
        nm = NoiseModel.pooled(2.0, -5.0)
        got = triple_log_likelihood(p, m, n, m01, m12, nm)
        assert got == pytest.approx(-math.log(2.0 * math.pi * 4.0) - 25.0 / 8.0)

    def test_disappearance_costs_lambda(self):
        p, m, n = frames([(0.0, 0.0)], [(1.0, 0.0)], [])
        m01 = MatchingVector((0,), n_next=1)
        m12 = MatchingVector((DISAPPEAR,), n_next=0)
        nm = NoiseModel.pooled(1.0, -3.5)
        assert triple_log_likelihood(p, m, n, m01, m12, nm) == pytest.approx(-3.5)

    def test_appearances_in_last_frame_charged(self):
        p, m, n = frames([(0.0, 0.0)], [(1.0, 0.0)], [(2.0, 0.0), (9.0, 9.0)])
        m01 = MatchingVector((0,), n_next=1)
        m12 = MatchingVector((0,), n_next=2)
        nm = NoiseModel.pooled(1.0, -3.0)
        got = triple_log_likelihood(p, m, n, m01, m12, nm)
        assert got == pytest.approx(-LOG_2PI - 3.0)

    def test_per_pair_sigma_lookup(self):
        p, m, n = frames([(0.0, 0.0)], [(1.0, 0.0)], [(1.0, 1.0)])
        m01 = MatchingVector((0,), n_next=1)
        m12 = MatchingVector((0,), n_next=1)
        nm = NoiseModel(sigmas=(9.0, 2.0, 9.0), lambda_event=-5.0)
        got = triple_log_likelihood(p, m, n, m01, m12, nm, pair_index=1)
        assert got == pytest.approx(-math.log(2.0 * math.pi * 4.0) - 2.0 / 8.0)


class TestIncrementalScore:
    def test_identity_swap(self):
        p, m, n = frames([(0, 0)], [(1, 0)], [(2, 0)])
        m01 = MatchingVector((0,), n_next=1)
        m12 = MatchingVector((0,), n_next=1)
        nm = NoiseModel.pooled(1.0, -5.0)
        base = triple_log_likelihood(p, m, n, m01, m12, nm)
        got = incremental_triple_score(p, m, n, m01, m12, base, (0, 0), nm)
        assert got == base

    def test_matches_full_recompute(self, rng):
        nm = NoiseModel(sigmas=(1.0, 0.7, 1.3), lambda_event=-2.0)
        for _ in range(200):
            n_p, n_m, n_n = (int(x) for x in rng.integers(0, 4, size=3))
            p = rng.normal(size=(n_p, 2))
            mid = rng.normal(size=(n_m, 2))
            nxt = rng.normal(size=(n_n, 2))
            sp_prev = enumerate_space(n_p, n_m)
            sp_next = enumerate_space(n_m, n_n)
            m01 = sp_prev.vector_at(int(rng.integers(len(sp_prev))))
            base = sp_next.vector_at(int(rng.integers(len(sp_next))))
            base_score = triple_log_likelihood(p, mid, nxt, m01, base, nm, pair_index=1)
            if n_m < 2:
                continue
            i, j = sorted(rng.choice(n_m, size=2, replace=False))
            swapped_entries = list(base.entries)
            swapped_entries[i], swapped_entries[j] = swapped_entries[j], swapped_entries[i]
            swapped = MatchingVector(tuple(swapped_entries), n_next=n_n)
            got = incremental_triple_score(
                p, mid, nxt, m01, base, base_score, (int(i), int(j)), nm, pair_index=1
            )
            want = triple_log_likelihood(p, mid, nxt, m01, swapped, nm, pair_index=1)
            assert got == pytest.approx(want, abs=1e-12)


class TestSigmaEstimation:
    def test_two_chain_example(self):
        # velocity differences (1,0) and (-1,0): sqrt(2 / (2*2)) = sqrt(0.5)
        s = FrameSequence(
            (
                np.array([[0.0, 0.0], [10.0, 0.0]]),
                np.array([[1.0, 0.0], [11.0, 0.0]]),
                np.array([[3.0, 0.0], [11.0, 0.0]]),
            )
        )
        ms = [
            MatchingVector((0, 1), n_next=2),
            MatchingVector((0, 1), n_next=2),
        ]
        est = estimate_sigma(s, ms, mode="pooled")
        assert est.pooled == pytest.approx(math.sqrt(0.5))
        assert est.counts == (0, 2)
        assert not est.used_fallback

    def test_first_pair_inherits_pooled(self):
        s = FrameSequence(
            (
                np.array([[0.0, 0.0]]),
                np.array([[1.0, 0.0]]),
                np.array([[3.0, 0.0]]),
            )
        )
        ms = [MatchingVector((0,), n_next=1), MatchingVector((0,), n_next=1)]
        est = estimate_sigma(s, ms, mode="per-frame")
        assert est.sigmas[0] == est.pooled
        assert est.sigmas[1] == pytest.approx(math.sqrt(1.0 / 2.0))

    def test_floor_applies(self):
        s = FrameSequence(
            (
                np.array([[0.0, 0.0]]),
                np.array([[1.0, 0.0]]),
                np.array([[2.0, 0.0]]),
            )
        )
        ms = [MatchingVector((0,), n_next=1), MatchingVector((0,), n_next=1)]
        est = estimate_sigma(s, ms, sigma_floor=0.25)
        assert est.pooled == 0.25

    def test_no_chains_falls_back(self):
        s = FrameSequence((np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]])))
        with pytest.warns(UserWarning):
            est = estimate_sigma(s, [MatchingVector((0,), n_next=1)])
        assert est.used_fallback
        assert est.pooled == 1.0
        assert est.sigmas == (1.0,)
        # the floor still applies to the fallback
        with pytest.warns(UserWarning):
            est = estimate_sigma(s, [MatchingVector((0,), n_next=1)], sigma_floor=2.0)
        assert est.pooled == 2.0

    def test_scale_equivariance(self, rng):
        frames_ = tuple(rng.normal(size=(3, 2)) for _ in range(4))
        s1 = FrameSequence(frames_)
        s2 = FrameSequence(tuple(10.0 * f for f in frames_))
        ms = [MatchingVector((0, 1, 2), n_next=3) for _ in range(3)]
        e1 = estimate_sigma(s1, ms)
        e2 = estimate_sigma(s2, ms)
        assert e2.pooled == pytest.approx(10.0 * e1.pooled)

    def test_validation(self):
        s = FrameSequence((np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]])))
        with pytest.raises(InvalidInputError):
            estimate_sigma(s, [])
        with pytest.raises(InvalidConfigError):
            estimate_sigma(s, [MatchingVector((0,), n_next=1)], mode="median")
        # a matching that does not fit the frame sizes
        with pytest.raises(InvalidInputError):
            estimate_sigma(s, [MatchingVector((0,), n_next=2)])
        with pytest.raises(InvalidInputError):
            estimate_sigma(s, [MatchingVector((0, -1), n_next=1)])


def test_auto_lambda_rejects_scales_outside_the_float_range():
    with pytest.raises(InvalidConfigError):
        auto_lambda(gate_cost=4.0, pooled_sigma=1.0, dt=1e-200)
    with pytest.raises(InvalidConfigError):
        auto_lambda(gate_cost=4.0, pooled_sigma=1e200)


def test_auto_lambda_values():
    got = auto_lambda(gate_cost=4.0, pooled_sigma=1.0)
    assert got == pytest.approx(-LOG_2PI - 2.0)
    # huge spread pushes the density above 1; the penalty clamps at zero
    assert auto_lambda(gate_cost=0.0, pooled_sigma=0.01) == 0.0


class TestTrackerConfig:
    def test_fixed_sigma_parsing(self):
        cfg = TrackerConfig(sigma_mode="fixed:2.5")
        assert cfg.fixed_sigma() == 2.5
        assert TrackerConfig().fixed_sigma() is None
        with pytest.raises(InvalidConfigError):
            TrackerConfig(sigma_mode="fixed:oops")
        with pytest.raises(InvalidConfigError):
            TrackerConfig(sigma_mode="fixed:-1")

    def test_validation(self):
        with pytest.raises(InvalidConfigError):
            TrackerConfig(delta=-1)
        with pytest.raises(InvalidConfigError):
            TrackerConfig(lambda_event=1.0)
        with pytest.raises(InvalidConfigError):
            TrackerConfig(gate_quantile=0.0)
        with pytest.raises(InvalidConfigError):
            TrackerConfig(sigma_mode="mystery")

    def test_fixed_sigma_below_the_floor_rejected(self):
        with pytest.raises(InvalidConfigError, match="below the floor"):
            TrackerConfig(sigma_mode="fixed:1e-200")
        with pytest.raises(InvalidConfigError, match="below the floor"):
            TrackerConfig(sigma_mode="fixed:0.5", sigma_floor=1.0)
        assert TrackerConfig(sigma_mode="fixed:1.0", sigma_floor=1.0).fixed_sigma() == 1.0

    def test_json_roundtrip(self, tmp_path):
        cfg = TrackerConfig(delta=2, sigma_mode="pooled", lambda_event=-3.0)
        p = tmp_path / "cfg.json"
        cfg.to_json(p)
        assert TrackerConfig.from_json(p) == cfg

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"delta": 1, "gamma": 2}))
        with pytest.raises(InvalidConfigError):
            TrackerConfig.from_json(p)

    def test_malformed_json_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{delta:")
        with pytest.raises(InvalidConfigError):
            TrackerConfig.from_json(p)
