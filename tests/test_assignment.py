"""Bipartite min-cost matching: exactness, gating, tie handling."""

import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from velotrack import (
    DISAPPEAR,
    BipartiteConfig,
    InvalidConfigError,
    SimConfig,
    TrackerConfig,
    fixed_d_matchings,
    resolve_gate_cost,
    simulate,
    solve_bmcf,
    solve_bmcf_sequence,
    track,
)
from velotrack import assignment, tripartite
from velotrack.core import FrameSequence
from velotrack.oracle import exhaustive_bipartite_min, reference_sweep


def einsum_costs(a, b) -> np.ndarray:
    """Squared distances between the points a and b by einsum, the
    reference the sweep's written-out costs must equal bit for bit."""
    diff = np.asarray(a, dtype=float)[:, None, :] - np.asarray(b, dtype=float)[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def test_config_validation():
    with pytest.raises(InvalidConfigError):
        BipartiteConfig(gate_cost=-1.0)
    with pytest.raises(InvalidConfigError):
        BipartiteConfig(gate_quantile=1.0)
    BipartiteConfig(gate_cost=math.inf)  # disabled gate is allowed


def test_overflowing_coordinates_rejected():
    from velotrack import InvalidInputError

    big = [(1e200, 0.0), (-1e200, 0.0)]
    with pytest.raises(InvalidInputError, match=r"1e\+100"):
        solve_bmcf(big, [(1e200, 1.0), (-1e200, 1.0)])
    with pytest.raises(InvalidInputError, match=r"1e\+100"):
        fixed_d_matchings([(0.0, 0.0)], [(0.0, float("inf"))], [0])


def test_straight_pairing():
    a = [(0.0, 0.0), (10.0, 0.0)]
    b = [(0.0, 1.0), (10.0, 1.0)]
    m = solve_bmcf(a, b, BipartiteConfig(gate_cost=5.0))
    assert m.entries == (0, 1)


def test_crossing_is_cheaper_for_position_cost():
    # diagonal motion crosses; nearest-position pairing swaps the labels
    a = [(0.0, 0.0), (4.0, 0.0)]
    b = [(3.0, 1.0), (1.0, 1.0)]
    m = solve_bmcf(a, b, BipartiteConfig(gate_cost=math.inf))
    assert m.entries == (1, 0)


def test_gate_prefers_events_over_long_links():
    a = [(0.0, 0.0)]
    b = [(10.0, 0.0)]
    # link costs 100; a disappearance plus an appearance costs 2T
    m = solve_bmcf(a, b, BipartiteConfig(gate_cost=10.0))
    assert m.entries == (DISAPPEAR,)
    m = solve_bmcf(a, b, BipartiteConfig(gate_cost=60.0))
    assert m.entries == (0,)


def test_empty_frames():
    cfg = BipartiteConfig(gate_cost=1.0)  # empty frames give no quantile sample
    m = solve_bmcf(np.empty((0, 2)), np.empty((0, 2)), cfg)
    assert m.entries == ()
    m = solve_bmcf([(0.0, 0.0)], np.empty((0, 2)), cfg)
    assert m.entries == (DISAPPEAR,)
    m = solve_bmcf(np.empty((0, 2)), [(0.0, 0.0)], cfg)
    assert m.entries == ()
    assert m.n_appeared == 1


def test_fixed_d_exact_costs():
    a = [(0.0, 0.0), (10.0, 0.0)]
    b = [(0.0, 1.0), (10.0, 1.0)]
    assert fixed_d_matchings(a, b, [0])[0].entries == (0, 1)
    # with one forced disappearance, dropping either row costs the same 1.0,
    # so the lexicographically smaller vector wins: (-1, 1)
    assert fixed_d_matchings(a, b, [1])[1].entries == (DISAPPEAR, 1)
    assert fixed_d_matchings(a, b, [2])[2].entries == (DISAPPEAR, DISAPPEAR)


def test_fixed_d_infeasible():
    from velotrack import InvalidInputError

    a = [(0.0, 0.0), (1.0, 0.0)]
    with pytest.raises(InvalidInputError):
        fixed_d_matchings(a, [(0.0, 1.0)], [0])  # needs 2 targets
    with pytest.raises(InvalidInputError):
        fixed_d_matchings(a, [(0.0, 1.0)], [3])


def test_fixed_d_matchings_shares_one_sweep():
    a = [(0.0, 0.0), (3.0, 0.0), (6.0, 0.0)]
    b = [(0.0, 1.0), (3.0, 1.0), (6.0, 1.0)]
    by_d = fixed_d_matchings(a, b, range(0, 4))
    for d, m in by_d.items():
        assert m.n_disappeared == d
        assert m == fixed_d_matchings(a, b, [d])[d]


def test_lexicographic_tie_rule():
    # all four pairings cost the same; expect the lex-smallest vector
    a = [(0.0, 0.0), (0.0, 0.0)]
    b = [(1.0, 0.0), (1.0, 0.0)]
    m = solve_bmcf(a, b, BipartiteConfig(gate_cost=math.inf))
    assert m.entries == (0, 1)
    # a disappearance beats any link when both totals tie
    m = solve_bmcf([(0.0, 0.0)], [(2.0, 0.0)], BipartiteConfig(gate_cost=2.0))
    assert m.entries == (DISAPPEAR,)


def test_tied_cardinalities_resolve_lexicographically():
    # T == link cost: matching or dropping the pair costs the same total
    a = [(0.0, 0.0)]
    b = [(1.0, 0.0)]
    m = solve_bmcf(a, b, BipartiteConfig(gate_cost=0.5))
    assert m.entries == (DISAPPEAR,)


def test_matches_oracle_on_random_instances(rng):
    for trial in range(120):
        n_a = int(rng.integers(0, 5))
        n_b = int(rng.integers(0, 5))
        if trial % 3 == 0:
            # integer grids are rich in exact ties
            a = rng.integers(0, 3, size=(n_a, 2)).astype(float)
            b = rng.integers(0, 3, size=(n_b, 2)).astype(float)
        else:
            a = rng.normal(0.0, 2.0, size=(n_a, 2))
            b = rng.normal(0.0, 2.0, size=(n_b, 2))
        for T in (math.inf, 1.0, 5.0):
            got = solve_bmcf(a, b, BipartiteConfig(gate_cost=T))
            want, _ = exhaustive_bipartite_min(a, b, gate_cost=T)
            assert got == want, (trial, T)
        for d in range(max(0, n_a - n_b), n_a + 1):
            got = fixed_d_matchings(a, b, [d])[d]
            want, _ = exhaustive_bipartite_min(a, b, d=d)
            assert got == want, (trial, d)


gate_point = st.one_of(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0)),
)


class TestGateSelection:
    def test_pair_quantile(self):
        a = [(0.0, 0.0), (10.0, 0.0)]
        b = [(1.0, 0.0), (12.0, 0.0)]
        seq = FrameSequence((np.array(a), np.array(b)))
        # forward nearest-neighbour squared distances are 1 and 4
        hi = BipartiteConfig(gate_quantile=1.0 - 1e-12)
        lo = BipartiteConfig(gate_quantile=1e-12)
        assert resolve_gate_cost(seq, hi) == pytest.approx(4.0)
        assert resolve_gate_cost(seq, lo) == pytest.approx(1.0)

    @given(
        values=st.lists(
            st.one_of(st.sampled_from([0.0, 1.0, 2.5, 4.0]), st.floats(-1e6, 1e6)),
            min_size=1,
            max_size=200,
        ),
        q=st.one_of(
            st.floats(0.0, 1.0),
            st.floats(0.0, 1e-9),
            st.floats(1.0 - 1e-9, 1.0),
            st.sampled_from([0.0, 5e-324, 0.5, 0.99, math.nextafter(1.0, 0.0), 1.0]),
        ),
    )
    def test_quantile_equals_numpy(self, values, q):
        # ties come from the sampled values, q near 0 and 1 from its strategies
        x = np.array(values)
        assert assignment._quantile(x, q).hex() == float(np.quantile(x, q)).hex()

    def test_sequence_pools_pairs(self):
        seq = FrameSequence(
            (
                np.array([[0.0, 0.0]]),
                np.array([[2.0, 0.0]]),
                np.array([[5.0, 0.0]]),
            )
        )
        # pooled squared distances are 4 and 9
        cfg = BipartiteConfig(gate_quantile=0.999999)
        assert resolve_gate_cost(seq, cfg) == pytest.approx(9.0)

    def test_fallback_warns(self):
        seq = FrameSequence((np.empty((0, 2)), np.empty((0, 2))))
        with pytest.warns(UserWarning):
            T = resolve_gate_cost(seq, BipartiteConfig())
        assert T == 1.0

    def test_gate_must_be_finite_sample(self):
        cfg = BipartiteConfig(gate_cost=7.5)
        seq = FrameSequence((np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]])))
        assert resolve_gate_cost(seq, cfg) == 7.5

    @settings(max_examples=200)
    @given(
        frames=st.lists(
            st.one_of(
                st.just([]),
                st.lists(gate_point, min_size=1, max_size=1),
                st.lists(gate_point, max_size=5),
            ),
            min_size=2,
            max_size=6,
        ),
        q=st.one_of(st.floats(1e-6, 1.0 - 1e-6), st.just(0.99)),
    )
    def test_gate_is_quantile_of_row_minima(self, frames, q):
        # the sweep's row minima are the einsum cost matrices' row minima
        # of every pair with both frames nonempty
        seq = FrameSequence(tuple(np.array(f, dtype=float).reshape(-1, 2) for f in frames))
        cfg = BipartiteConfig(gate_quantile=q)
        pairs = list(zip(seq.frames, seq.frames[1:]))
        mins = [einsum_costs(a, b).min(axis=1) for a, b in pairs if len(a) and len(b)]
        sw = assignment._sweep(seq.frames[:-1], seq.frames[1:])
        for read in (lambda: sw.gate(cfg), lambda: resolve_gate_cost(seq, cfg)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                gate = read()
            assert len(caught) == (0 if mins else 1)
            if mins:
                assert gate.hex() == float(np.quantile(np.concatenate(mins), q)).hex()
            else:
                assert gate == 1.0


def test_min_cost_among_fixed_cardinality(rng):
    # the sweep's intermediate matchings are optimal for their own size
    for _ in range(40):
        n = int(rng.integers(1, 5))
        a = rng.normal(size=(n, 2))
        b = rng.normal(size=(n, 2))
        for d in range(0, n + 1):
            m = fixed_d_matchings(a, b, [d])[d]
            _, best = exhaustive_bipartite_min(a, b, d=d)
            cost = sum(
                float(np.sum((np.asarray(a[i]) - np.asarray(b[j])) ** 2))
                for i, j in enumerate(m.entries)
                if j != DISAPPEAR
            )
            assert cost == pytest.approx(best, abs=1e-9)


class TestTieCertificate:
    """The tight-subgraph certificate fires on every kind of alternative optimum."""

    @pytest.mark.parametrize(
        "a, b, d",
        [
            # both perfect matchings cost 4: an alternating cycle
            pytest.param([(0.0, 0.0), (2.0, 0.0)], [(1.0, 1.0), (1.0, -1.0)], 0, id="cycle"),
            # either row can drop at cost 1: an even path from the free row
            pytest.param([(0.0, 0.0), (2.0, 0.0)], [(1.0, 0.0)], 1, id="free-row-path"),
            # the row links to either column at cost 1: an even path from the free column
            pytest.param([(1.0, 0.0)], [(0.0, 0.0), (2.0, 0.0)], 0, id="free-column-path"),
            # (0->3, 1->0) and (0->1, 1->3) both cost 6: a path of length 4
            # from free column 1 through rows 0 and 1 to column 0
            pytest.param(
                [(0.0, 2.0), (1.0, 0.0)],
                [(3.0, 1.0), (1.0, 3.0), (3.0, 3.0), (1.0, 2.0)],
                0,
                id="free-column-long-path",
            ),
            # both coincident pairs link at marginal cost 0: a tight augmenting path
            pytest.param([(0.0, 0.0), (5.0, 0.0)], [(0.0, 0.0), (5.0, 0.0)], 1, id="augmenting-path"),
        ],
    )
    def test_crafted_ties_refine(self, a, b, d):
        sw = assignment._sweep([np.array(a)], [np.array(b)])
        got = assignment._matching_vectors(sw.rows([0], [len(a) - d]), sw.n_a, sw.n_b)[0]
        assert sw.tie_refinements[0] == 1
        want, _ = exhaustive_bipartite_min(a, b, d=d)
        assert got == want

    def test_track_counts_refinements_per_pair(self):
        # pair 0 ties on which row drops; its gated matching is its d*=1
        # seed, so the refinement runs and counts once
        seq = FrameSequence(
            (
                np.array([[0.0, 0.0], [2.0, 0.0]]),
                np.array([[1.0, 0.0]]),
                np.array([[1.0, 1.0]]),
            )
        )
        res = track(seq, TrackerConfig(sigma_mode="fixed:1.0"))
        assert res.diagnostics.tie_refinements == (1, 0)

    def test_gated_tie_and_a_later_read_share_a_refinement(self):
        # at gate 0.5, k = 0 (three events) and k = 1 (either row links at
        # cost 1, one event) both total 1.5; k = 1's certificate fires
        a, b = np.array([[0.0, 0.0], [2.0, 0.0]]), np.array([[1.0, 0.0]])
        sw = assignment._sweep([a], [b])
        assert sw.gated(0.5).tolist() == [0]
        assert sw.tie_refinements[0] == 1
        assert sw.rows([0, 0], [0, 1]).tolist() == [[-1, -1], [-1, 0]]
        assert sw.tie_refinements[0] == 1

    def test_infeasible_dual_fires(self):
        # unique optima at k = 1 and 2; a reduced cost far below -tol off
        # the matching leaves no optimal dual to certify them with
        a, b = np.array([[0.0, 0.0], [5.0, 0.0]]), np.array([[0.0, 1.0], [5.0, 2.0]])
        sw = assignment._sweep([a], [b])
        pairs, ks = np.zeros(3, dtype=np.int64), np.arange(3)
        assert sw._certify(pairs, ks).tolist() == [False, False, False]
        sw._chunks[0].cost[0, 0, 1] = -1e3
        assert sw._certify(pairs, ks).tolist() == [False, True, True]

    def test_silent_on_continuous_data(self, rng):
        for _ in range(150):
            n_a = int(rng.integers(1, 13))
            n_b = int(rng.integers(1, 13))
            sw = assignment._sweep([rng.normal(size=(n_a, 2))], [rng.normal(size=(n_b, 2))])
            ks = np.arange(min(n_a, n_b) + 1)
            sw.rows(np.zeros_like(ks), ks)
            assert sw.tie_refinements[0] == 0, (n_a, n_b)


@st.composite
def grid_frame(draw):
    """Up to six points of a 4 x 4 integer grid: drawn at random, or a
    whole 1 x 1 to 2 x 3 lattice, then sometimes exact duplicates."""
    if draw(st.booleans()):
        w, h, dx, dy = (draw(st.integers(lo, hi)) for lo, hi in ((1, 2), (1, 3), (0, 1), (0, 1)))
        pts = [(x + dx, y + dy) for x in range(w) for y in range(h)]
    else:
        pts = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=6))
    if pts:
        pts += draw(st.lists(st.sampled_from(pts), max_size=2))
    return pts[:6]


@settings(max_examples=150)
@given(a=grid_frame(), b=grid_frame())
def test_grid_ties_match_oracle(a, b):
    # integer grids, lattices and duplicate points are rich in exact
    # ties of every structure
    a = np.array(a, dtype=float).reshape(-1, 2)
    b = np.array(b, dtype=float).reshape(-1, 2)
    for T in (0.5, 1.0, 2.0, math.inf):
        want, _ = exhaustive_bipartite_min(a, b, gate_cost=T)
        assert solve_bmcf(a, b, BipartiteConfig(gate_cost=T)) == want, T
    ds = range(max(0, len(a) - len(b)), len(a) + 1)
    for d, got in fixed_d_matchings(a, b, ds).items():
        want, _ = exhaustive_bipartite_min(a, b, d=d)
        assert got == want, d


def test_track_sweeps_each_pair_once(monkeypatch):
    seq = simulate(SimConfig(W=300.0, H=240.0, w=300.0, h=240.0, N0=8, f=6, seed=3)).seq
    calls = {"sweep": [], "walk": 0}
    real_sweep, real_walk = assignment._sweep, assignment._lex_walk

    def sweep(a, b, k_stops=None):
        calls["sweep"].append(len(a))
        return real_sweep(a, b, k_stops)

    def walk(*args):
        calls["walk"] += 1
        return real_walk(*args)

    # track() calls the sweep through tripartite; any other sweep would
    # go through assignment
    monkeypatch.setattr(tripartite, "_sweep", sweep)
    monkeypatch.setattr(assignment, "_sweep", sweep)
    monkeypatch.setattr(assignment, "_lex_walk", walk)
    res = track(seq)
    # one batched sweep covers all f - 1 frame pairs
    assert calls == {"sweep": [len(seq) - 1], "walk": 0}
    assert res.diagnostics.tie_refinements == (0,) * (len(seq) - 1)


@st.composite
def sweep_pair(draw, n_max=7, span=10.0):
    n_a, n_b = draw(st.integers(0, n_max)), draw(st.integers(0, n_max))
    if draw(st.booleans()):
        # integer grids are rich in exact ties
        coords = st.integers(0, 3).map(float)
    else:
        coords = st.floats(-span, span)
    a = draw(st.lists(coords, min_size=2 * n_a, max_size=2 * n_a))
    b = draw(st.lists(coords, min_size=2 * n_b, max_size=2 * n_b))
    a, b = np.array(a, dtype=float).reshape(n_a, 2), np.array(b, dtype=float).reshape(n_b, 2)
    return a, b, draw(st.integers(0, min(n_a, n_b)))


def assert_sweeps_equal_reference(a, b, k_stops, sw):
    assert sw.steps.shape == (len(a),)
    got = [sw.state(p) for p in range(len(a))]
    for pa, pb, k, g in zip(a, b, k_stops, got):
        want = reference_sweep(einsum_costs(pa, pb), k)
        assert len(g.row_to) == len(g.cost) == len(g.u) == len(g.v) == k
        assert g.steps == want.steps
        for t in range(k):
            assert np.array_equal(g.row_to[t], want.row_to[t])
            assert np.array_equal(g.u[t], want.u[t])
            assert np.array_equal(g.v[t], want.v[t])
            assert g.cost[t] == want.cost[t]


def assert_batch_equals_reference(batch, chunk_cells):
    a, b, k_stops = [x for x, _, _ in batch], [y for _, y, _ in batch], [k for _, _, k in batch]
    # small chunk bounds split the batch, a pair larger than the bound goes alone
    with mock.patch.object(assignment, "_SWEEP_CELLS", chunk_cells):
        got = assignment._sweep(a, b, k_stops)
    assert_sweeps_equal_reference(a, b, k_stops, got)


chunk_cells = st.sampled_from([1, 60, 1 << 16])


@settings(max_examples=300)
@given(batch=st.lists(sweep_pair(), max_size=8), chunk_cells=chunk_cells)
def test_batched_sweep_equals_reference(batch, chunk_cells):
    assert_batch_equals_reference(batch, chunk_cells)


@settings(max_examples=100)
@given(batch=st.lists(sweep_pair(n_max=30, span=1e8), max_size=8), chunk_cells=chunk_cells)
def test_batched_sweep_equals_reference_on_wide_pairs(batch, chunk_cells):
    # up to 30 rows, so one-step prefixes of many augmentations, and
    # costs up to 8e16
    assert_batch_equals_reference(batch, chunk_cells)


def test_batched_sweep_equals_reference_on_large_pairs(rng):
    # eight or more matched costs: numpy sums them pairwise, in blocks of eight
    shapes = rng.integers(8, 21, size=(6, 2))
    a = [rng.uniform(0.0, 7.0, size=(int(r), 2)) for r, _ in shapes]
    b = [rng.uniform(0.0, 7.0, size=(int(c), 2)) for _, c in shapes]
    a.append(rng.integers(0, 3, size=(12, 2)).astype(float))
    b.append(rng.integers(0, 3, size=(10, 2)).astype(float))
    k_stops = [min(len(x), len(y)) for x, y in zip(a, b)]
    assert_sweeps_equal_reference(a, b, k_stops, assignment._sweep(a, b, k_stops))


class TestOneStepPrefix:
    """The closed-form prefix stops where a Dijkstra round has to take
    over, and every snapshot stays the one-pair reference sweep's."""

    @pytest.mark.parametrize(
        "a, b, k_stop, one_step",
        [
            # row minima 1, 4 and 9, each in its own column
            pytest.param(
                [(0, 0), (50, 0), (100, 0)], [(1, 0), (52, 0), (103, 0)], 3, 3, id="separated"
            ),
            # the second row's cheapest column is the first row's
            pytest.param([(0, 0), (0.5, 0)], [(0, 0), (10, 0)], 2, 1, id="taken-column"),
            # after the first row, two rows have minimum 1
            pytest.param(
                [(0, 0), (20, 0), (40, 0)], [(0, 0.5), (21, 0), (39, 0)], 3, 1, id="equal-minima"
            ),
            # the second row's two cheapest cells both cost 1
            pytest.param(
                [(0, 0), (20, 0), (40, 0)],
                [(0, 0.5), (21, 0), (19, 0), (40, 3)],
                3,
                1,
                id="tied-cells",
            ),
            # minima 1, 2^53 + 4 and 2^53 + 6: after U = 1 both later
            # rows round to the same reduced cost 2^53 + 4
            pytest.param(
                [(0, 0), (0, 1e9), (0, 2e9)],
                [(1, 0), (94906265.62425157, 1e9), (94906265.62425159, 2e9)],
                3,
                1,
                id="rounding-tie",
            ),
            # U after two augmentations is 89.756676 + fl(369.677529 -
            # 89.756676) = 369.67752899999994, not the second minimum
            pytest.param(
                [(0, 0), (0, 100), (0, 300)],
                [(9.474, 0), (19.227, 100), (0, 500)],
                3,
                3,
                id="rounded-potential",
            ),
            # the prefix stops at k_stop, two below kmax
            pytest.param(
                [(0, 0), (50, 0), (100, 0), (150, 0)],
                [(1, 0), (52, 0), (103, 0), (154, 0)],
                2,
                2,
                id="k-stop",
            ),
        ],
    )
    def test_prefix_stops_where_the_reference_needs_a_round(self, a, b, k_stop, one_step):
        a, b = np.array(a, dtype=float), np.array(b, dtype=float)
        sw = assignment._sweep([a], [b], [k_stop])
        assert sw.one_step[0] == one_step
        assert_sweeps_equal_reference([a], [b], [k_stop], sw)

    def test_rounded_potential_is_not_the_row_minimum(self):
        a = np.array([(0, 0), (0, 100), (0, 300)], dtype=float)
        b = np.array([(9.474, 0), (19.227, 100), (0, 500)], dtype=float)
        u = assignment._sweep([a], [b], [2]).state(0).u[1]
        assert einsum_costs(a, b)[1, 1] == 369.677529
        assert u[1] == u[2] == 369.67752899999994

    @pytest.mark.parametrize(
        "n0, sigma, f", [(40, 1.0, 4), (12, 6.0, 20)], ids=["crowded", "noisy"]
    )
    def test_bench_videos_equal_reference(self, n0, sigma, f):
        # the bench's closed-view workloads, seed-0 videos 0-4; crowded's
        # prefixes run all 40 augmentations
        longest = 0
        for seed in range(5):
            cfg = SimConfig(W=680.0, H=512.0, w=680.0, h=512.0, N0=n0, sigma=sigma, f=f, seed=seed)
            seq = simulate(cfg).seq
            a, b = seq.frames[:-1], seq.frames[1:]
            k_stops = [min(len(x), len(y)) for x, y in zip(a, b)]
            sw = assignment._sweep(a, b, k_stops)
            assert_sweeps_equal_reference(a, b, k_stops, sw)
            longest = max(longest, int(sw.one_step.max()))
        assert longest == n0

    def test_track_reports_one_step_prefix(self):
        # pair 0 is well separated; in pair 1 the second row by minimum
        # wants the first row's column
        seq = FrameSequence(
            (
                np.array([[0.0, 0.0], [50.0, 0.0], [100.0, 0.0]]),
                np.array([[1.0, 0.0], [52.0, 0.0], [103.0, 0.0]]),
                np.array([[1.5, 0.0], [300.0, 0.0], [400.0, 0.0]]),
            )
        )
        assert track(seq).diagnostics.sweep_one_step == (3, 1)
        video = simulate(SimConfig(W=360.0, H=288.0, w=300.0, h=240.0, N0=8, f=12, seed=5)).seq
        d = track(video).diagnostics
        kmax = [min(video.n_objects(k), video.n_objects(k + 1)) for k in range(len(video) - 1)]
        assert all(0 <= o <= k for o, k in zip(d.sweep_one_step, kmax))
        assert all(o <= s for o, s in zip(d.sweep_one_step, d.sweep_steps))


def test_track_reports_sweep_steps():
    seq = simulate(SimConfig(W=300.0, H=240.0, w=300.0, h=240.0, N0=8, f=6, seed=3)).seq
    steps = track(seq).diagnostics.sweep_steps
    want = []
    for k in range(len(seq) - 1):
        cost = einsum_costs(seq.frames[k], seq.frames[k + 1])
        want.append(reference_sweep(cost, min(cost.shape)).steps)
    assert steps == tuple(want)
    # every augmentation settles at least the free column that ends it
    assert all(s >= min(seq.n_objects(k), seq.n_objects(k + 1)) for k, s in enumerate(steps))


def one_large_frame_video() -> list[np.ndarray]:
    """160 frames of 6 uniform points, frame 80 of 2,000."""
    rng = np.random.default_rng(7)
    frames = [rng.uniform(0.0, 300.0, size=(6, 2)) for _ in range(160)]
    frames[80] = rng.uniform(0.0, 300.0, size=(2000, 2))
    return frames


def test_sweep_memory_stays_within_chunks():
    # 159 pairs of 6-object frames around one frame of 2,000 detections:
    # one video-wide padded cost array would hold 159 x 2000^2 float64
    # cells (about 5.1 GB); each chunk bounds its own cells instead
    seq = FrameSequence(tuple(one_large_frame_video()))
    for run in (lambda: solve_bmcf_sequence(seq), lambda: resolve_gate_cost(seq, BipartiteConfig())):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 20, peak


def test_seed_read_keeps_no_rows():
    # a read of track()'s seeds returns a block padded to the
    # 2,000-detection frame (5.15 MB), and the sweep keeps none of it
    # once the caller drops it
    frames = one_large_frame_video()
    sw = assignment._sweep(frames[:-1], frames[1:])
    k_star = sw.gated(sw.gate(BipartiteConfig()))
    pair, ks, _ = tripartite._seed_cardinalities(sw.n_a, sw.n_b, sw.n_a - k_star, 1)
    tracemalloc.start()
    try:
        nbytes = sw.rows(pair, ks).nbytes
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert current < 0.1 * nbytes, (current, nbytes)


def test_sweep_transients_stay_bounded():
    # three frames of 400 uniform points, two pairs of a chunk each: the
    # tracemalloc peak read 14.39 MB before the one-step prefix, and may
    # rise by 2 % at most
    rng = np.random.default_rng(0)
    seq = FrameSequence(tuple(rng.uniform(0.0, 300.0, size=(400, 2)) for _ in range(3)))
    tracemalloc.start()
    try:
        solve_bmcf_sequence(seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.02 * 14.39e6, peak
