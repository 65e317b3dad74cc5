"""Bipartite min-cost matching: exactness, gating, tie handling."""

import math
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
    track,
)
from velotrack import assignment, tripartite
from velotrack.core import FrameSequence
from velotrack.oracle import exhaustive_bipartite_min, reference_sweep


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
        sw = assignment._sweep([assignment._cost_matrix(np.array(a), np.array(b))])
        got = sw.vectors([0], [len(a) - d])[0]
        assert sw.tie_refinements[0] == 1
        want, _ = exhaustive_bipartite_min(a, b, d=d)
        assert got == want

    def test_track_counts_refinements_per_pair(self):
        # pair 0 ties on which row drops; its gated pass and its d*=1 seed
        # read the same cardinality, so the refinement runs and counts once
        seq = FrameSequence(
            (
                np.array([[0.0, 0.0], [2.0, 0.0]]),
                np.array([[1.0, 0.0]]),
                np.array([[1.0, 1.0]]),
            )
        )
        res = track(seq, TrackerConfig(sigma_mode="fixed:1.0"))
        assert res.diagnostics.tie_refinements == (1, 0)

    def test_silent_on_continuous_data(self, rng):
        for _ in range(150):
            n_a = int(rng.integers(1, 13))
            n_b = int(rng.integers(1, 13))
            cost = assignment._cost_matrix(rng.normal(size=(n_a, 2)), rng.normal(size=(n_b, 2)))
            sw = assignment._sweep([cost])
            ks = np.arange(min(n_a, n_b) + 1)
            sw.rows(np.zeros_like(ks), ks)
            assert sw.tie_refinements[0] == 0, (n_a, n_b)


grid_frame = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=6)


@settings(max_examples=150)
@given(a=grid_frame, b=grid_frame)
def test_grid_ties_match_oracle(a, b):
    # integer grids are rich in exact ties of every structure
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
    calls = {"sweep": [], "lex": 0}
    real_sweep, real_lex = assignment._sweep, assignment._lex_fixed_k

    def sweep(costs, k_stops=None):
        calls["sweep"].append(len(costs))
        return real_sweep(costs, k_stops)

    def lex(*args):
        calls["lex"] += 1
        return real_lex(*args)

    # track() calls the sweep through tripartite; any other sweep would
    # go through assignment
    monkeypatch.setattr(tripartite, "_sweep", sweep)
    monkeypatch.setattr(assignment, "_sweep", sweep)
    monkeypatch.setattr(assignment, "_lex_fixed_k", lex)
    res = track(seq)
    # one batched sweep covers all f - 1 frame pairs
    assert calls == {"sweep": [len(seq) - 1], "lex": 0}
    assert res.diagnostics.tie_refinements == (0,) * (len(seq) - 1)


@st.composite
def sweep_pair(draw):
    n_a, n_b = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    if draw(st.booleans()):
        # integer grids are rich in exact ties
        values = st.integers(0, 3).map(float)
    else:
        values = st.floats(0.0, 100.0)
    cells = draw(st.lists(values, min_size=n_a * n_b, max_size=n_a * n_b))
    return np.array(cells, dtype=float).reshape(n_a, n_b), draw(st.integers(0, min(n_a, n_b)))


def assert_sweeps_equal_reference(costs, k_stops, sw):
    assert sw.steps.shape == (len(costs),)
    got = [sw.state(p) for p in range(len(costs))]
    for c, k, g in zip(costs, k_stops, got):
        want = reference_sweep(c, k)
        assert len(g.row_to) == len(g.cost) == len(g.u) == len(g.v) == k
        assert g.steps == want.steps
        for t in range(k):
            assert np.array_equal(g.row_to[t], want.row_to[t])
            assert np.array_equal(g.u[t], want.u[t])
            assert np.array_equal(g.v[t], want.v[t])
            assert g.cost[t] == want.cost[t]


@settings(max_examples=300)
@given(batch=st.lists(sweep_pair(), max_size=8), chunk_cells=st.sampled_from([1, 60, 1 << 16]))
def test_batched_sweep_equals_reference(batch, chunk_cells):
    costs = [c for c, _ in batch]
    k_stops = [k for _, k in batch]
    # small chunk bounds split the batch, a pair larger than the bound goes alone
    with mock.patch.object(assignment, "_SWEEP_CELLS", chunk_cells):
        got = assignment._sweep(costs, k_stops)
    assert_sweeps_equal_reference(costs, k_stops, got)


def test_batched_sweep_equals_reference_on_large_pairs(rng):
    # eight or more matched costs: numpy sums them pairwise, in blocks of eight
    shapes = rng.integers(8, 21, size=(6, 2))
    costs = [rng.uniform(0.0, 50.0, size=(int(r), int(c))) for r, c in shapes]
    costs.append(rng.integers(0, 3, size=(12, 10)).astype(float))
    k_stops = [min(c.shape) for c in costs]
    assert_sweeps_equal_reference(costs, k_stops, assignment._sweep(costs, k_stops))


def test_track_reports_sweep_steps():
    seq = simulate(SimConfig(W=300.0, H=240.0, w=300.0, h=240.0, N0=8, f=6, seed=3)).seq
    steps = track(seq).diagnostics.sweep_steps
    want = []
    for k in range(len(seq) - 1):
        a, b = seq.frames[k], seq.frames[k + 1]
        cost = assignment._cost_matrix(a, b)
        want.append(reference_sweep(cost, min(cost.shape)).steps)
    assert steps == tuple(want)
    # every augmentation settles at least the free column that ends it
    assert all(s >= min(seq.n_objects(k), seq.n_objects(k + 1)) for k, s in enumerate(steps))
