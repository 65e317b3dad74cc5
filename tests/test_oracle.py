"""Brute-force reference implementations.

These must stay independent of the production code paths they check:
enumeration via itertools, argmax via full product-space scans.
"""

import math

import numpy as np
import pytest

from velotrack import (
    DISAPPEAR,
    FrameSequence,
    MatchingVector,
    NoiseModel,
    SpaceCapError,
    pair_log_likelihood_first,
)
from velotrack.oracle import (
    enumerate_space,
    exhaustive_bipartite_min,
    exhaustive_chain_argmax,
    reference_stage_terms,
)
from velotrack.tripartite import _triple_term_fn


def test_enumerate_space_small_cases():
    sp = enumerate_space(1, 1)
    assert {m.entries for m in sp.vectors()} == {(DISAPPEAR,), (0,)}
    assert len(enumerate_space(2, 2)) == 7
    assert len(enumerate_space(0, 3)) == 1


def test_enumerate_space_cap():
    with pytest.raises(SpaceCapError):
        enumerate_space(7, 7, cap=100)


class TestExhaustiveBipartite:
    def test_forced_cardinality(self):
        a = [(0.0, 0.0), (5.0, 0.0)]
        b = [(1.0, 0.0), (5.0, 1.0)]
        m, cost = exhaustive_bipartite_min(a, b, d=0)
        assert m.entries == (0, 1)
        assert cost == pytest.approx(2.0)
        m, cost = exhaustive_bipartite_min(a, b, d=2)
        assert m.entries == (DISAPPEAR, DISAPPEAR)
        assert cost == 0.0

    def test_gate_total(self):
        a = [(0.0, 0.0)]
        b = [(3.0, 0.0)]
        m, cost = exhaustive_bipartite_min(a, b, gate_cost=2.0)
        # dropping both costs 4, linking costs 9
        assert m.entries == (DISAPPEAR,)
        assert cost == pytest.approx(4.0)
        m, cost = exhaustive_bipartite_min(a, b, gate_cost=6.0)
        assert m.entries == (0,)
        assert cost == pytest.approx(9.0)

    def test_disabled_gate_maximizes_cardinality(self):
        a = [(0.0, 0.0), (9.0, 9.0)]
        b = [(100.0, 100.0)]
        m, _ = exhaustive_bipartite_min(a, b, gate_cost=math.inf)
        assert m.n_matched == 1


class TestExhaustiveChain:
    def test_two_frames_reduce_to_pair_likelihood(self):
        seq = FrameSequence(
            (np.array([[0.0, 0.0]]), np.array([[0.5, 0.0], [10.0, 0.0]]))
        )
        nm = NoiseModel.pooled(1.0, -6.0)
        ms, score = exhaustive_chain_argmax(seq, nm)
        by_hand = max(
            (
                pair_log_likelihood_first(seq.frames[0], seq.frames[1], m, nm),
                m.entries,
            )
            for m in enumerate_space(1, 2).vectors()
        )
        assert score == pytest.approx(by_hand[0])
        assert ms[0].entries == (0,)

    def test_prefers_straight_chain(self):
        # continuing straight beats turning even when the turn lands closer
        seq = FrameSequence(
            (
                np.array([[0.0, 0.0]]),
                np.array([[2.0, 0.0]]),
                np.array([[3.9, 0.0], [2.1, 1.0]]),
            )
        )
        nm = NoiseModel.pooled(1.0, -8.0)
        ms, _ = exhaustive_chain_argmax(seq, nm)
        assert ms[1].entries == (0,)

    def test_product_cap(self):
        seq = FrameSequence(tuple(np.zeros((4, 2)) for _ in range(5)))
        nm = NoiseModel.pooled(1.0, -1.0)
        with pytest.raises(SpaceCapError):
            exhaustive_chain_argmax(seq, nm, cap=10)

    def test_tie_resolution_is_lexicographic(self):
        seq = FrameSequence(
            (np.zeros((2, 2)), np.zeros((2, 2)))
        )
        # a zero-distance link scores -log(2 pi); with lambda at half that,
        # trading a link for its two events changes nothing and all seven
        # candidate vectors tie exactly
        nm = NoiseModel.pooled(1.0, -math.log(2.0 * math.pi) / 2.0)
        ms, _ = exhaustive_chain_argmax(seq, nm)
        first = list(enumerate_space(2, 2).vectors())[0]
        assert ms[0] == first
        assert ms[0].entries == (DISAPPEAR, DISAPPEAR)


@pytest.mark.parametrize("dt", [1.0, 0.5, 3.0])
@pytest.mark.parametrize("grid", [None, 3])
def test_stage_terms_equal_the_term_function(dt, grid, rng):
    # reference_fold_stage reads its terms from reference_stage_terms,
    # whose velocity terms expand |v2 - v1|^2; check each entry against
    # the per-object scorer, up to the rounding of the two forms
    eps = np.finfo(np.float64).eps
    for _ in range(10):
        counts = rng.integers(0, 5, size=4)
        if grid is None:
            frames = tuple(rng.normal(0.0, 30.0, size=(n, 2)) for n in counts)
        else:
            frames = tuple(rng.integers(0, grid, size=(n, 2)).astype(float) for n in counts)
        seq = FrameSequence(frames, dt=dt)
        noise = NoiseModel(sigmas=(1.0, 0.3, 2.0), lambda_event=-5.0)
        for t in (1, 2):
            prev_f, mid_f, next_f = seq.frames[t - 1], seq.frames[t], seq.frames[t + 1]
            tab = reference_stage_terms(seq, noise, t)
            assert tab.shape == (len(prev_f) + 1, len(mid_f), len(next_f) + 1)
            s2 = noise.sigma_for_pair(t) ** 2
            for i, j in np.ndindex(tab.shape[0], tab.shape[1]):
                # mid object j chained from previous object i - 1, or appeared
                entries = [DISAPPEAR] * len(prev_f)
                if i:
                    entries[i - 1] = j
                m_prev = MatchingVector(tuple(entries), n_next=len(mid_f))
                term = _triple_term_fn(prev_f, mid_f, next_f, m_prev, noise, dt, t)
                assert tab[i, j, 0] == term(j, DISAPPEAR) == noise.lambda_event
                for k in range(len(next_f)):
                    disp = next_f[k] - mid_f[j]
                    if i:
                        v1, v2, scale2 = (mid_f[j] - prev_f[i - 1]) / dt, disp / dt, s2
                    else:
                        v1, v2, scale2 = np.zeros(2), disp, dt * dt * s2
                    mag = abs(math.log(2.0 * math.pi * scale2)) + (v1 @ v1 + v2 @ v2) / scale2
                    assert abs(tab[i, j, k + 1] - term(j, k)) <= 16 * eps * mag
