"""Full and reduced candidate-space construction."""

import math
import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from velotrack import (
    DISAPPEAR,
    FrameSequence,
    InvalidConfigError,
    InvalidInputError,
    MatchingVector,
    SimConfig,
    SpaceCapError,
    TrackerConfig,
    build_reduced_space,
    full_space_size,
    fixed_d_matchings,
    neighborhood,
    simulate,
    track,
)
from velotrack.core import _lex_order
from velotrack.oracle import enumerate_space
from velotrack.tripartite import _seed_cardinalities


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

    @pytest.mark.parametrize("d", [1.5, "1", math.nan, math.inf, -1])
    def test_disappearance_counts_are_integers(self, d):
        a = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
        b = [(0.0, 1.0), (1.0, 1.0)]
        with pytest.raises(InvalidConfigError):
            fixed_d_matchings(a, b, [d])
        with pytest.raises(InvalidConfigError):
            build_reduced_space(a, b, d)

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
            got = _seed_cardinalities(np.array([n_a]), np.array([n_b]), np.array([d_star]), delta)
            assert got[2].tolist() == [size]

    def test_sizes_of_many_pairs_at_once(self, rng):
        # random pairs, d* anywhere: infeasible counts and empty
        # neighborhoods included, and counts whose C(n, 2) needs int64
        for delta in range(4):
            n_a = np.r_[rng.integers(0, 12, size=300), 40_000, 65_536]
            n_b = np.r_[rng.integers(0, 12, size=300), 39_000, 70_000]
            d_star = np.r_[rng.integers(-3, 15, size=300), 1_000, 65_536]
            pair, ks, got = _seed_cardinalities(n_a, n_b, d_star, delta)
            assert got.dtype == np.int64
            args = list(zip(n_a.tolist(), n_b.tolist(), d_star.tolist()))
            want = [
                sum(1 + comb(a, 2) - comb(d, 2) for d in neighborhood(ds, delta, a, b))
                for a, b, ds in args
            ]
            assert got.tolist() == want
            # the seeds: each pair's window in ascending d, as cardinalities
            seeds = [
                (p, a - d)
                for p, (a, b, ds) in enumerate(args)
                for d in neighborhood(ds, delta, a, b)
            ]
            assert list(zip(pair.tolist(), ks.tolist())) == seeds

    def test_huge_delta_is_clipped_before_allocating(self, rng):
        # no feasible d lies farther from d* than the frame sizes allow,
        # so a huge delta gives the seeds and sizes of a small one, and
        # d* outside the feasible range keeps its reach
        n_a = np.r_[rng.integers(0, 6, size=50), 2]
        n_b = np.r_[rng.integers(0, 6, size=50), 2]
        d_star = np.r_[rng.integers(-8, 12, size=50), -5]
        far = int(np.maximum(np.abs(d_star), np.abs(n_a - d_star)).max())
        want = _seed_cardinalities(n_a, n_b, d_star, far)
        for delta in (far + 1, 10**6, 10**30):
            got = _seed_cardinalities(n_a, n_b, d_star, delta)
            assert all(x.tolist() == y.tolist() for x, y in zip(got, want))
        two, far_off = np.array([2]), np.array([-5])
        assert _seed_cardinalities(two, two, far_off, 10**9)[2].tolist() == [5]
        assert _seed_cardinalities(two, two, far_off, 7)[2].tolist() == [5]

    def test_window_of_a_huge_delta_takes_little_memory(self):
        # 2,000 pairs of 5 points, one frame of 1,000 points, delta =
        # 10**6: the seed list grows with the feasible counts only (a
        # (2 delta' + 1) x pairs grid of the counts peaked at 95.5 MiB)
        counts = np.full(2001, 5)
        counts[1000] = 1000
        n_a, n_b = counts[:-1], counts[1:]
        tracemalloc.start()
        try:
            pair, ks, sizes = _seed_cardinalities(n_a, n_b, np.zeros(2000, np.int64), 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, peak
        assert pair.shape[0] == 6 * 2000
        assert sizes[1000] == sum(1 + comb(1000, 2) - comb(d, 2) for d in range(995, 1001))

    def test_huge_delta_tracks_in_little_memory(self):
        # a 3-frame, 2-object video: delta = 10**6 used to allocate a
        # (2 delta + 1, pairs) array before the space_cap check
        seq = FrameSequence(tuple(np.array([[0.0, 0.0], [5.0, 5.0]]) + k for k in range(3)))
        want = track(seq, TrackerConfig(delta=2))
        tracemalloc.start()
        try:
            got = track(seq, TrackerConfig(delta=10**6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert got.diagnostics.space_sizes == want.diagnostics.space_sizes
        assert got.matchings == want.matchings
        sp = build_reduced_space(seq.frames[0], seq.frames[1], 0, delta=10**30)
        assert np.array_equal(sp.matrix, want.spaces[0].matrix)

    def test_spaces_store_seeds_not_rows(self):
        # the N0=120 row of scripts/run_complexity_table.py: a space holds
        # its seeds and (seed, i, j) per row, not an (R, n) row matrix.
        # The parent design, which stored every row, peaked at 108.3 MiB
        # on this video; storing only the seeds read 69.7 MiB
        seq = simulate(SimConfig(W=680.0, H=512.0, N0=120, sigma=1.0, f=4, seed=0)).seq
        cfg = TrackerConfig(space_cap=10**9)
        tracemalloc.start()
        try:
            res = track(seq, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.8 * 108.3 * 2**20
        for sp in res.spaces:
            assert sp.seeds.shape[0] <= 2 * cfg.delta + 1
            assert sp.swap_info.shape == (len(sp), 3)

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
        rows = sp.matrix
        seed_rows = np.flatnonzero(sp.swap_info[:, 1] == -1)
        # the seeds are the seed rows, in row order
        np.testing.assert_array_equal(sp.seeds, rows[seed_rows])
        for r in range(len(sp)):
            q, i, j = (int(v) for v in sp.swap_info[r])
            if i == -1:
                assert seed_rows[q] == r
                continue
            rebuilt = sp.seeds[q].copy()
            rebuilt[i], rebuilt[j] = rebuilt[j], rebuilt[i]
            np.testing.assert_array_equal(rebuilt, rows[r])

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
    """Seeds and their exchanges listed one pair of positions at a time,
    then sorted row by row; each row names its seed by the seed's place
    among the sorted seeds."""
    by_seed = sorted(list(m.entries) for m in seeds)
    rows = []
    for q, seed in enumerate(by_seed):
        rows.append((seed, (q, -1, -1)))
        for i in range(n_a):
            for j in range(i + 1, n_a):
                if seed[i] == DISAPPEAR and seed[j] == DISAPPEAR:
                    continue
                vec = list(seed)
                vec[i], vec[j] = vec[j], vec[i]
                rows.append((vec, (q, i, j)))
    rows.sort()
    return (
        np.array([r for r, _ in rows], dtype=np.int64).reshape(len(rows), n_a),
        np.array(by_seed, dtype=np.int64).reshape(len(by_seed), n_a),
        np.array([info for _, info in rows], dtype=np.int64),
    )


def test_seeded_space_matches_pairwise_exchanges(rng):
    from unittest import mock

    from velotrack import tripartite
    from velotrack.oracle import reference_seeded_space

    pairs = []
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
        pairs.append((seeds, n_a, n_b, _seeded_space_by_loops(seeds, n_a, n_b)))
    # all 400 pairs in one batched assembly, in runs of at most `cells`
    n_a = np.array([p[1] for p in pairs])
    n_b = np.array([p[2] for p in pairs])
    seed_pair = np.repeat(np.arange(len(pairs)), [len(p[0]) for p in pairs])
    rows = np.full((seed_pair.shape[0], 6), DISAPPEAR)
    for g, m in enumerate(m for p in pairs for m in p[0]):
        rows[g, : len(m)] = m.entries
    for cells in (40, 1 << 18):
        with mock.patch.object(tripartite, "_FOLD_CELLS", cells):
            batched = tripartite._assemble_spaces(seed_pair, rows, n_a, n_b)
        for (seeds, n, m, (matrix, want_seeds, info)), got_batched in zip(pairs, batched):
            for got in (reference_seeded_space(seeds, n, m), got_batched):
                np.testing.assert_array_equal(got.matrix, matrix)
                np.testing.assert_array_equal(got.seeds, want_seeds)
                np.testing.assert_array_equal(got.swap_info, info)
                assert (got.n_from, got.n_next) == (n, m)


@st.composite
def seeded_pairs(draw):
    """Fixed-d seeds of one to three frame pairs, up to 40 entries over up
    to 300 targets, so a row packs into several int64 keys of 7 or 8
    digits and an exchange can move entries between keys. A pair's
    seeds differ in their disappearance counts; counts near n_a give
    seeds of many DISAPPEAR entries, and d = n_a the all-DISAPPEAR seed."""
    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        n_a = draw(st.sampled_from([0, 1]) | st.integers(2, 40) | st.integers(25, 40))
        n_b = draw(st.integers(0, 300))
        ds = draw(st.lists(st.integers(max(0, n_a - n_b), n_a), min_size=1, max_size=3, unique=True))
        if draw(st.booleans()):
            ds = sorted({*ds, n_a})
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        seeds = []
        for d in ds:
            entries = np.full(n_a, DISAPPEAR)
            entries[rng.permutation(n_a)[: n_a - d]] = rng.permutation(n_b)[: n_a - d]
            seeds.append(MatchingVector(tuple(entries.tolist()), n_next=n_b))
        pairs.append((seeds, n_a, n_b))
    return pairs


@settings(max_examples=100)
@given(pairs=seeded_pairs())
def test_seeded_spaces_of_wide_rows_match_the_reference(pairs):
    from unittest import mock

    from velotrack import tripartite
    from velotrack.oracle import reference_seeded_space

    n_a = np.array([p[1] for p in pairs])
    n_b = np.array([p[2] for p in pairs])
    seed_pair = np.repeat(np.arange(len(pairs)), [len(p[0]) for p in pairs])
    rows = np.full((seed_pair.shape[0], max(n_a.max(), 1)), DISAPPEAR)
    for g, m in enumerate(m for p in pairs for m in p[0]):
        rows[g, : len(m)] = m.entries
    want = [reference_seeded_space(*p) for p in pairs]
    for cells in (40, tripartite._FOLD_CELLS):
        with mock.patch.object(tripartite, "_FOLD_CELLS", cells):
            got = tripartite._assemble_spaces(seed_pair, rows, n_a, n_b)
        for g, w, (_, n, m) in zip(got, want, pairs):
            np.testing.assert_array_equal(g.matrix, w.matrix)
            np.testing.assert_array_equal(g.seeds, w.seeds)
            np.testing.assert_array_equal(g.swap_info, w.swap_info)
            assert (g.n_from, g.n_next) == (n, m)


@settings(max_examples=100)
@given(pairs=seeded_pairs())
def test_membership_reads_seeds_and_exchanges(pairs):
    from velotrack import tripartite
    from velotrack.core import CandidateSpace

    n_a = np.array([p[1] for p in pairs])
    n_b = np.array([p[2] for p in pairs])
    seed_pair = np.repeat(np.arange(len(pairs)), [len(p[0]) for p in pairs])
    rows = np.full((seed_pair.shape[0], max(n_a.max(), 1)), DISAPPEAR)
    for g, m in enumerate(m for p in pairs for m in p[0]):
        rows[g, : len(m)] = m.entries
    spaces = tripartite._assemble_spaces(seed_pair, rows, n_a, n_b)
    for sp, (seeds, n, m) in zip(spaces, pairs):
        matrix = sp.matrix
        for r in range(len(sp)):
            v = sp.vector_at(r)
            assert v.entries == tuple(matrix[r].tolist())
            assert v in sp
        # an exchange row left out of swap_info is not a row any more,
        # though it is still its seed with two entries exchanged
        ex_rows = np.flatnonzero(sp.swap_info[:, 1] >= 0)
        if ex_rows.shape[0]:
            r = int(ex_rows[len(ex_rows) // 2])
            less = CandidateSpace(n_next=m, seeds=sp.seeds, swap_info=np.delete(sp.swap_info, r, 0))
            assert sp.vector_at(r) not in less
            assert all(less.vector_at(k) in less for k in range(len(less)))
        # a space of the seeds alone, in which no row is an exchange
        alone = CandidateSpace.build(sp.seeds, n_next=m)
        for seed in seeds:
            e = list(seed.entries)
            assert MatchingVector(tuple(e), n_next=m + 1) not in sp
            assert seed in alone
            # a 3-cycle of three distinct entries keeps the disappearance
            # count, so no seed and no exchange of any seed equals it
            at = [i for i in range(n) if e[i] != DISAPPEAR][:2]
            at += [i for i in range(n) if i not in at][:1]
            if len(at) == 3:
                rot = list(e)
                rot[at[0]], rot[at[1]], rot[at[2]] = e[at[1]], e[at[2]], e[at[0]]
                assert MatchingVector(tuple(rot), n_next=m) not in sp
            # two distinct entries exchanged: a row of sp, not of alone
            if len(at) >= 2:
                ex = list(e)
                ex[at[0]], ex[at[1]] = e[at[1]], e[at[0]]
                ex = MatchingVector(tuple(ex), n_next=m)
                assert ex in sp and ex not in alone


@settings(max_examples=300)
@given(
    n_b=st.integers(0, 300),
    width=st.integers(0, 60),
    n_rows=st.integers(0, 40),
    seed=st.integers(0, 2**16),
)
def test_packed_order_equals_lexsort(n_b, width, n_rows, seed):
    # rows of entries -1 .. n_b - 1 around one base row, so they share
    # prefixes and repeat; the extremes of the range occur
    rng = np.random.default_rng(seed)
    rows = np.tile(rng.integers(-1, n_b, size=width), (n_rows, 1))
    hit = rng.random(rows.shape) < 0.2
    rows[hit] = rng.choice([-1, n_b - 1, (n_b - 1) // 2], size=int(hit.sum()))
    want = np.lexsort(rows.T[::-1]) if width else np.arange(n_rows)
    assert np.array_equal(_lex_order(rows), want)
