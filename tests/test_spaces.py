"""Full and reduced candidate-space construction."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from velotrack import (
    DISAPPEAR,
    InvalidInputError,
    MatchingVector,
    SpaceCapError,
    build_reduced_space,
    full_space_size,
    fixed_d_matchings,
    neighborhood,
)
from velotrack.oracle import enumerate_space
from velotrack.tripartite import reduced_space_size


class TestFullSpace:
    def test_known_sizes(self):
        assert full_space_size(2, 2) == 7
        assert full_space_size(3, 3) == 34
        assert full_space_size(0, 5) == 1
        assert full_space_size(5, 0) == 1
        assert full_space_size(1, 1) == 2

    @given(st.integers(0, 4), st.integers(0, 4))
    def test_size_matches_independent_enumeration(self, n_k, n_next):
        assert full_space_size(n_k, n_next) == len(enumerate_space(n_k, n_next))

    def test_rows_lexicographically_sorted(self):
        sp = enumerate_space(2, 2)
        rows = [tuple(r) for r in sp.matrix]
        assert rows == sorted(rows)
        assert rows[0] == (DISAPPEAR, DISAPPEAR)

    def test_cap_enforced(self):
        with pytest.raises(SpaceCapError):
            enumerate_space(8, 8, cap=1000)


class TestNeighborhood:
    def test_clipping(self):
        # feasible d for (3, 2) frames is [1, 3]
        assert list(neighborhood(1, 1, 3, 2)) == [1, 2]
        assert list(neighborhood(3, 1, 3, 2)) == [2, 3]
        assert list(neighborhood(2, 0, 3, 2)) == [2]
        assert list(neighborhood(1, 5, 3, 2)) == [1, 2, 3]

    def test_always_contains_d_star(self):
        for n_a in range(5):
            for n_b in range(5):
                for d_star in range(max(0, n_a - n_b), n_a + 1):
                    for delta in range(4):
                        assert d_star in neighborhood(d_star, delta, n_a, n_b)


def _random_pair(rng, n_a, n_b):
    return rng.normal(0.0, 3.0, size=(n_a, 2)), rng.normal(0.0, 3.0, size=(n_b, 2))


def _rows(sp):
    """The rows of a candidate space as a set of tuples."""
    return {tuple(r) for r in sp.matrix.tolist()}


class TestReducedSpace:
    def test_rejects_infeasible_d_star(self):
        a = np.zeros((2, 2))
        b = np.zeros((1, 2))
        with pytest.raises(InvalidInputError):
            build_reduced_space(a, b, 0)  # at least one object must disappear

    def test_contains_fixed_d_optima(self, rng):
        for _ in range(20):
            n_a, n_b = (int(x) for x in rng.integers(1, 5, size=2))
            a, b = _random_pair(rng, n_a, n_b)
            d_lo = max(0, n_a - n_b)
            d_star = int(rng.integers(d_lo, n_a + 1))
            delta = int(rng.integers(0, 3))
            sp = build_reduced_space(a, b, d_star, delta=delta)
            for d in neighborhood(d_star, delta, n_a, n_b):
                assert fixed_d_matchings(a, b, [d])[d] in sp

    def test_nesting_in_delta(self, rng):
        for _ in range(20):
            n_a, n_b = (int(x) for x in rng.integers(1, 5, size=2))
            a, b = _random_pair(rng, n_a, n_b)
            d_star = max(0, n_a - n_b)
            spaces = [
                build_reduced_space(a, b, d_star, delta=d)
                for d in range(4)
            ]
            for small, big in zip(spaces, spaces[1:]):
                assert _rows(small) <= _rows(big)

    def test_size_bound(self, rng):
        # each d contributes 1 seed plus n(n-1)/2 exchanges, less the
        # d(d-1)/2 exchanges of two DISAPPEAR entries
        for _ in range(20):
            n_a, n_b = (int(x) for x in rng.integers(1, 6, size=2))
            a, b = _random_pair(rng, n_a, n_b)
            d_star = max(0, n_a - n_b)
            delta = int(rng.integers(0, 3))
            sp = build_reduced_space(a, b, d_star, delta=delta)
            size = sum(
                1 + n_a * (n_a - 1) // 2 - d * (d - 1) // 2
                for d in neighborhood(d_star, delta, n_a, n_b)
            )
            assert len(sp) == size
            assert reduced_space_size(n_a, n_b, d_star, delta) == size

    def test_subset_of_full_space(self, rng):
        for _ in range(10):
            n_a, n_b = (int(x) for x in rng.integers(1, 5, size=2))
            a, b = _random_pair(rng, n_a, n_b)
            d_star = max(0, n_a - n_b)
            sp = build_reduced_space(a, b, d_star, delta=2)
            assert _rows(sp) <= _rows(enumerate_space(n_a, n_b))

    def test_disappearance_counts_stay_near_d_star(self, rng):
        for _ in range(10):
            n_a, n_b = (int(x) for x in rng.integers(1, 6, size=2))
            a, b = _random_pair(rng, n_a, n_b)
            d_lo = max(0, n_a - n_b)
            d_star = int(rng.integers(d_lo, n_a + 1))
            delta = int(rng.integers(0, 3))
            sp = build_reduced_space(a, b, d_star, delta=delta)
            for m in sp.vectors():
                assert abs(m.n_disappeared - d_star) <= delta

    def test_swap_provenance_reconstructs_rows(self, rng):
        a, b = _random_pair(rng, 4, 3)
        sp = build_reduced_space(a, b, 1, delta=1)
        assert sp.swap_info is not None
        for r in range(len(sp)):
            seed_row, i, j = (int(v) for v in sp.swap_info[r])
            if i == -1:
                assert seed_row == r
                continue
            rebuilt = sp.matrix[seed_row].copy()
            rebuilt[i], rebuilt[j] = rebuilt[j], rebuilt[i]
            np.testing.assert_array_equal(rebuilt, sp.matrix[r])

    def test_single_object_space(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[1.0, 0.0]])
        sp = build_reduced_space(a, b, 0, delta=1)
        got = {m.entries for m in sp.vectors()}
        assert got == {(0,), (DISAPPEAR,)}

    def test_delta_zero_single_block(self):
        a = np.array([[0.0, 0.0], [5.0, 0.0]])
        b = np.array([[1.0, 0.0], [6.0, 0.0]])
        sp = build_reduced_space(a, b, 0, delta=0)
        assert all(m.n_disappeared == 0 for m in sp.vectors())
        assert MatchingVector((0, 1), n_next=2) in sp
        assert MatchingVector((1, 0), n_next=2) in sp


def _seeded_space_by_loops(seeds, n_a, n_b):
    """Seeds and their exchanges listed one pair of positions at a time."""
    rows, info = [], []
    for m in seeds:
        seed = list(m.entries)
        seed_row = len(rows)
        rows.append(seed)
        info.append((seed_row, -1, -1))
        for i in range(n_a):
            for j in range(i + 1, n_a):
                if seed[i] == DISAPPEAR and seed[j] == DISAPPEAR:
                    continue
                vec = list(seed)
                vec[i], vec[j] = vec[j], vec[i]
                rows.append(vec)
                info.append((seed_row, i, j))
    return np.array(rows, dtype=np.int64).reshape(len(rows), n_a), np.array(info, dtype=np.int64)


def test_seeded_space_matches_pairwise_exchanges(rng):
    from velotrack.core import CandidateSpace
    from velotrack.tripartite import _seeded_space

    for trial in range(400):
        n_a, n_b = int(rng.integers(0, 7)), int(rng.integers(0, 7))
        ds = list(range(max(0, n_a - n_b), n_a + 1))
        if trial % 5 == 0:
            ds = [n_a]  # one all-DISAPPEAR seed
        ds = [d for d in ds if rng.random() < 0.6] or ds[-1:]
        seeds = []
        for d in ds:
            entries = [DISAPPEAR] * n_a
            live = rng.permutation(n_a)[: n_a - d]
            for i, t in zip(live, rng.permutation(n_b)):
                entries[int(i)] = int(t)
            seeds.append(MatchingVector(tuple(entries), n_next=n_b))
        got = _seeded_space(seeds, n_a, n_b)
        mat, info = _seeded_space_by_loops(seeds, n_a, n_b)
        want = CandidateSpace.build(mat, n_next=n_b, swap_info=info)
        np.testing.assert_array_equal(got.matrix, want.matrix)
        np.testing.assert_array_equal(got.swap_info, want.swap_info)
        assert (got.n_from, got.n_next) == (n_a, n_b)
