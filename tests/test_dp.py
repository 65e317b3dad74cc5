"""Dynamic program over candidate spaces and the end-to-end tracker."""

import math
import time

import numpy as np
import pytest

from velotrack import (
    DISAPPEAR,
    CandidateSpace,
    FrameSequence,
    InvalidConfigError,
    InvalidInputError,
    MatchingVector,
    NoiseModel,
    SimConfig,
    SpaceCapError,
    TrackerConfig,
    build_reduced_space,
    evaluation_count,
    simulate,
    solve_dp,
    track,
)
from velotrack import tripartite
from velotrack.tripartite import TRACK_LAYERS
from velotrack.oracle import enumerate_space, exhaustive_chain_argmax, reference_solve_dp


def random_seq(rng, f, max_n=3):
    counts = rng.integers(0, max_n + 1, size=f)
    return FrameSequence(tuple(rng.normal(0.0, 2.0, size=(int(n), 2)) for n in counts))


def full_spaces(seq):
    return [
        enumerate_space(seq.n_objects(k), seq.n_objects(k + 1))
        for k in range(len(seq) - 1)
    ]


class TestAgainstExhaustiveSearch:
    def test_matches_brute_force(self, rng):
        nm = NoiseModel.pooled(1.0, -3.0)
        for _ in range(30):
            seq = random_seq(rng, f=int(rng.integers(2, 5)))
            spaces = full_spaces(seq)
            want_ms, want_score = exhaustive_chain_argmax(seq, nm, spaces)
            got_ms, got_score = solve_dp(seq, spaces, nm)
            assert got_score == pytest.approx(want_score, abs=1e-9)
            assert got_ms == want_ms

    def test_matches_brute_force_per_pair_sigmas(self, rng):
        for _ in range(10):
            f = int(rng.integers(3, 5))
            seq = random_seq(rng, f=f)
            nm = NoiseModel(
                sigmas=tuple(float(s) for s in rng.uniform(0.5, 2.0, size=f - 1)),
                lambda_event=-2.0,
            )
            spaces = full_spaces(seq)
            want_ms, want_score = exhaustive_chain_argmax(seq, nm, spaces)
            got_ms, got_score = solve_dp(seq, spaces, nm)
            assert got_score == pytest.approx(want_score, abs=1e-9)
            assert got_ms == want_ms


class TestEvaluationModes:
    def test_all_modes_agree_on_reduced_spaces(self, rng):
        nm = NoiseModel.pooled(1.0, -3.0)
        for _ in range(15):
            counts = rng.integers(1, 5, size=4)
            seq = FrameSequence(
                tuple(rng.normal(0.0, 3.0, size=(int(n), 2)) for n in counts)
            )
            spaces = [
                build_reduced_space(
                    seq.frames[k],
                    seq.frames[k + 1],
                    max(0, seq.n_objects(k) - seq.n_objects(k + 1)),
                    delta=1,
                )
                for k in range(3)
            ]
            results = {
                "vectorized": solve_dp(seq, spaces, nm),
                "full": reference_solve_dp(seq, spaces, nm),
                "incremental": reference_solve_dp(seq, spaces, nm, incremental=True),
            }
            ms0, score0 = results["vectorized"]
            for mode, (ms, score) in results.items():
                assert ms == ms0, mode
                assert score == pytest.approx(score0, abs=1e-9)

    def test_modes_agree_on_full_spaces(self, rng):
        # full spaces record every row as its own seed
        nm = NoiseModel.pooled(1.0, -1.0)
        for _ in range(5):
            seq = random_seq(rng, 4)
            spaces = full_spaces(seq)
            assert all((sp.swap_info[:, 1] == -1).all() for sp in spaces)
            ms0, score0 = solve_dp(seq, spaces, nm)
            for incremental in (False, True):
                ms, score = reference_solve_dp(seq, spaces, nm, incremental=incremental)
                assert ms == ms0, incremental
                assert score == pytest.approx(score0, abs=1e-9)


class TestTieBreaking:
    def test_lexicographically_smallest_sequence(self):
        # two identical objects moving identically: every permutation ties
        seq = FrameSequence(
            (
                np.array([[0.0, 0.0], [0.0, 0.0]]),
                np.array([[1.0, 0.0], [1.0, 0.0]]),
                np.array([[2.0, 0.0], [2.0, 0.0]]),
            )
        )
        nm = NoiseModel.pooled(1.0, -3.0)
        spaces = full_spaces(seq)
        ms, _ = solve_dp(seq, spaces, nm)
        want, _ = exhaustive_chain_argmax(seq, nm, spaces)
        assert ms == want
        assert ms[0].entries == (0, 1)
        assert ms[1].entries == (0, 1)

    def test_deterministic_across_runs(self, rng):
        seq = random_seq(rng, 4)
        nm = NoiseModel.pooled(1.0, -2.0)
        spaces = full_spaces(seq)
        first = solve_dp(seq, spaces, nm)
        for _ in range(3):
            assert solve_dp(seq, spaces, nm) == first


class TestScaleInvariance:
    def test_single_d_blocks_ignore_sigma_scale(self, rng):
        # with one disappearance count per pair and a fixed event penalty,
        # rescaling sigma shifts every candidate's score equally
        for _ in range(10):
            counts = rng.integers(1, 5, size=4)
            seq = FrameSequence(
                tuple(rng.normal(0.0, 3.0, size=(int(n), 2)) for n in counts)
            )
            spaces = [
                build_reduced_space(
                    seq.frames[k],
                    seq.frames[k + 1],
                    max(0, seq.n_objects(k) - seq.n_objects(k + 1)),
                    delta=0,
                )
                for k in range(3)
            ]
            base, _ = solve_dp(seq, spaces, NoiseModel.pooled(1.0, -4.0))
            for c in (0.1, 10.0):
                scaled, _ = solve_dp(seq, spaces, NoiseModel.pooled(c, -4.0))
                assert scaled == base


class TestValidation:
    def test_space_count_mismatch(self):
        seq = FrameSequence((np.zeros((1, 2)), np.ones((1, 2))))
        nm = NoiseModel.pooled(1.0, -1.0)
        with pytest.raises(InvalidInputError, match="need 1 candidate spaces, got 0"):
            solve_dp(seq, [], nm)

    def test_space_shape_mismatch(self):
        seq = FrameSequence((np.zeros((1, 2)), np.ones((2, 2))))
        nm = NoiseModel.pooled(1.0, -1.0)
        with pytest.raises(InvalidInputError, match="space 0 inconsistent with frame sizes"):
            solve_dp(seq, [enumerate_space(1, 1)], nm)

    def test_empty_space_rejected(self):
        seq = FrameSequence((np.zeros((1, 2)), np.ones((1, 2))))
        nm = NoiseModel.pooled(1.0, -1.0)
        empty = CandidateSpace.build(np.empty((0, 1), dtype=np.int64), 1)
        with pytest.raises(InvalidInputError, match="empty candidate space at pair 0"):
            solve_dp(seq, [empty], nm)

    def test_single_frame_rejected(self):
        seq = FrameSequence((np.zeros((1, 2)),))
        nm = NoiseModel.pooled(1.0, -1.0)
        with pytest.raises(InvalidInputError, match="need at least 2 frames"):
            solve_dp(seq, [], nm)

    def test_non_finite_optimum_rejected(self):
        # every candidate's events overflow to -inf, so the argmax would
        # tie and take (-1, -1, -1), four events where (0, -1, -1) has two
        frames = (np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 9.0]]), np.array([[0.0, 0.5]]))
        seq = FrameSequence(frames)
        with pytest.warns(UserWarning), pytest.raises(InvalidConfigError, match="-inf"):
            track(seq, TrackerConfig(delta=2, lambda_event=-1e308))


def test_evaluation_count():
    # |S_0| first-pair scores, then |S_{t-1}|*|S_t| per stage
    assert evaluation_count([]) == 0
    assert evaluation_count([4]) == 4
    assert evaluation_count([4, 5, 6]) == 4 + 20 + 30


class TestEndToEnd:
    def test_recovers_clean_linear_motion(self):
        t = np.arange(5, dtype=float)
        a = np.column_stack([t, np.zeros(5)])
        b = np.column_stack([10.0 - t, 5.0 + t])
        frames = tuple(
            np.array([a[k], b[k]]) for k in range(5)
        )
        seq = FrameSequence(frames)
        res = track(seq, TrackerConfig(delta=1))
        assert all(m.entries == (0, 1) for m in res.matchings)
        assert len(res.trajectories) == 2
        assert res.diagnostics.eval_count == evaluation_count(
            res.diagnostics.space_sizes
        )

    def test_space_cap_checked_before_building(self, monkeypatch):
        class Built(Exception):
            pass

        def no_build(*args, **kwargs):
            raise Built

        monkeypatch.setattr(tripartite, "_assemble_spaces", no_build)
        seq = FrameSequence(tuple(np.arange(8.0).reshape(4, 2) + k for k in range(3)))
        # the patched builder is the one track() calls ...
        with pytest.raises(Built):
            track(seq, TrackerConfig(delta=0, space_cap=7))
        # ... and a cap below 1 + C(4, 2) = 7 vectors at d = 0 stops track() before it
        with pytest.raises(SpaceCapError):
            track(seq, TrackerConfig(delta=0, space_cap=6))

    def test_layer_seconds_account_for_track(self):
        seq = simulate(SimConfig(W=300.0, H=240.0, w=300.0, h=240.0, N0=8, f=12, seed=4)).seq
        t0 = time.perf_counter()
        res = track(seq)
        wall = time.perf_counter() - t0
        laps = res.diagnostics.layer_seconds
        assert list(laps) == list(TRACK_LAYERS)
        assert all(s >= 0.0 for s in laps.values())
        assert sum(laps.values()) <= wall
        # timings stay out of equality: a second run compares equal
        assert track(seq).diagnostics == res.diagnostics

    def test_empty_middle_frame(self):
        seq = FrameSequence(
            (np.array([[0.0, 0.0]]), np.empty((0, 2)), np.array([[5.0, 5.0]]))
        )
        with pytest.warns(UserWarning):  # no distance samples for the gate
            res = track(
                seq, TrackerConfig(delta=1, lambda_event=-1.0, sigma_mode="fixed:1")
            )
        assert res.matchings[0].entries == (DISAPPEAR,)
        assert res.matchings[1].entries == ()

    def test_fixed_sigma_skips_estimation(self):
        seq = FrameSequence(
            (
                np.array([[0.0, 0.0], [9.0, 0.0]]),
                np.array([[1.0, 0.0], [9.0, 1.0]]),
                np.array([[2.0, 0.0], [9.0, 2.0]]),
            )
        )
        res = track(seq, TrackerConfig(sigma_mode="fixed:2.0"))
        assert res.diagnostics.sigma.sigmas == (2.0, 2.0)
        assert res.diagnostics.sigma.counts == (0, 0)

    def test_diagnostics_consistent(self, rng):
        counts = rng.integers(1, 4, size=5)
        seq = FrameSequence(tuple(rng.normal(0.0, 3.0, size=(int(n), 2)) for n in counts))
        res = track(seq, TrackerConfig(delta=2, lambda_event=-2.0))
        d = res.diagnostics
        assert len(d.d_star) == len(seq) - 1
        assert len(d.space_sizes) == len(seq) - 1
        assert d.lambda_event == -2.0
        assert math.isfinite(d.gate_cost)
        assert all(m in sp for m, sp in zip(res.matchings, res.spaces))
        # the bipartite baseline's d* seeded each space
        for m, d_star, sp in zip(d.bmcf_matchings, d.d_star, res.spaces):
            assert m.n_disappeared == d_star
            assert m in sp
