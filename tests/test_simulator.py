"""Synthetic-video generator."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from velotrack import (
    DISAPPEAR,
    InvalidConfigError,
    SimConfig,
    SpaceCapError,
    matchings_from_trajectories,
    reflect,
    simulate,
)

SMALL = SimConfig(W=100.0, H=80.0, w=50.0, h=40.0, N0=4, f=8, seed=3)
# video 0 of bench/run.py's long workload at seed 0
LONG0 = SimConfig(W=680.0 * 1.2, H=512.0 * 1.2, w=680.0, h=512.0, N0=6, f=160, seed=0)


class TestReflect:
    def test_known_values(self):
        assert reflect(np.array(-1.0), 10.0) == 1.0
        assert reflect(np.array(11.0), 10.0) == 9.0
        assert reflect(np.array(21.0), 10.0) == 1.0
        assert reflect(np.array(-11.0), 10.0) == 9.0
        assert reflect(np.array(10.0), 10.0) == 10.0

    @given(st.floats(-1e6, 1e6), st.floats(0.5, 100.0))
    def test_lands_inside(self, x, length):
        y = float(reflect(np.array(x), length))
        assert 0.0 <= y <= length

    @given(st.floats(-1e3, 1e3), st.floats(0.5, 100.0))
    def test_period_and_mirror(self, x, length):
        y = reflect(np.array(x), length)
        assert float(reflect(np.array(x + 2 * length), length)) == pytest.approx(
            float(y), abs=1e-6
        )
        assert float(reflect(np.array(-x), length)) == pytest.approx(
            float(y), abs=1e-6
        )


class TestSimConfig:
    def test_cell_count_scales_with_region(self):
        assert SimConfig().n_cells == 375  # 25 windows x 15 cells
        assert SMALL.n_cells == 16

    def test_validation(self):
        with pytest.raises(InvalidConfigError):
            SimConfig(W=10.0, w=20.0)
        with pytest.raises(InvalidConfigError):
            SimConfig(N0=0)
        with pytest.raises(InvalidConfigError):
            SimConfig(f=1)
        with pytest.raises(InvalidConfigError):
            SimConfig(sigma=0.0)

    @pytest.mark.parametrize(
        "values",
        [
            {"W": float("inf")},
            {"W": float("inf"), "w": float("inf")},
            {"H": float("nan")},
            # finite sides whose cell count overflows n_cells's round()
            {"W": 1e308, "H": 1e308},
            {"w": 1e-200, "h": 1e-200},
            # an integer N0 past the float range
            {"N0": 10**400},
        ],
    )
    def test_non_finite_region_or_cell_count(self, values):
        with pytest.raises(InvalidConfigError):
            SimConfig(**values)

    def test_oversized_simulation_refused_before_allocating(self):
        # W = H = 1e6 with the default window holds 43M cells: over 50
        # frames that would be 34 GB of positions
        cfg = SimConfig(W=1e6, H=1e6)
        tracemalloc.start()
        try:
            with pytest.raises(SpaceCapError, match="cap"):
                simulate(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        # the cap counts frames too
        with pytest.raises(SpaceCapError):
            simulate(SimConfig(W=680.0, H=512.0, w=68.0, h=51.2, N0=1000, f=200))

    def test_json_roundtrip(self, tmp_path):
        p = tmp_path / "sim.json"
        SMALL.to_json(p)
        assert SimConfig.from_json(p) == SMALL


class TestSimulate:
    def test_shapes(self):
        out = simulate(SMALL)
        assert len(out.seq) == SMALL.f
        assert len(out.matchings) == SMALL.f - 1
        assert len(out.hidden_positions) == SMALL.f
        assert out.hidden_positions[0].shape == (SMALL.n_cells, 2)

    def test_seed_determinism(self):
        a = simulate(SMALL)
        b = simulate(SMALL)
        for fa, fb in zip(a.seq.frames, b.seq.frames):
            np.testing.assert_array_equal(fa, fb)
        assert a.matchings == b.matchings
        c = simulate(SimConfig(**{**_cfg_dict(SMALL), "seed": 4}))
        assert any(
            fa.shape != fc.shape or not np.array_equal(fa, fc)
            for fa, fc in zip(a.seq.frames, c.seq.frames)
        )

    def test_hidden_positions_stay_in_region(self):
        out = simulate(SMALL)
        for p in out.hidden_positions:
            assert (p[:, 0] >= 0).all() and (p[:, 0] <= SMALL.W).all()
            assert (p[:, 1] >= 0).all() and (p[:, 1] <= SMALL.H).all()

    def test_window_membership_is_half_open(self):
        out = simulate(SMALL)
        x0 = (SMALL.W - SMALL.w) / 2
        y0 = (SMALL.H - SMALL.h) / 2
        for k, frame in enumerate(out.seq.frames):
            hid = out.hidden_positions[k]
            inside = (
                (hid[:, 0] >= x0)
                & (hid[:, 0] < x0 + SMALL.w)
                & (hid[:, 1] >= y0)
                & (hid[:, 1] < y0 + SMALL.h)
            )
            np.testing.assert_array_equal(out.visible_ids[k], np.flatnonzero(inside))
            np.testing.assert_array_equal(frame, hid[out.visible_ids[k]])

    def test_visible_order_follows_cell_ids(self):
        out = simulate(SMALL)
        for ids in out.visible_ids:
            assert (np.diff(ids) > 0).all() if len(ids) > 1 else True

    def test_truth_matchings_follow_identities(self):
        out = simulate(SMALL)
        for k, m in enumerate(out.matchings):
            ids_now = out.visible_ids[k]
            ids_next = list(out.visible_ids[k + 1])
            for i, j in enumerate(m.entries):
                if j == DISAPPEAR:
                    assert int(ids_now[i]) not in ids_next
                else:
                    assert ids_next[j] == ids_now[i]

    def test_trajectories_match_matchings(self):
        out = simulate(SMALL)
        assert matchings_from_trajectories(out.seq, out.trajectories) == list(
            out.matchings
        )

    def test_first_step_is_pure_noise(self):
        # initial velocity is zero, so step one displaces by sigma alone
        cfg = SimConfig(W=1e6, H=1e6, w=1e6, h=1e6, N0=40, sigma=2.0, f=2, seed=9)
        out = simulate(cfg)
        steps = out.hidden_positions[1] - out.hidden_positions[0]
        observed = np.std(steps)
        assert 1.5 < observed < 2.5

    def test_expected_visible_count(self):
        # the window is 1/25 of the region, holding N0 cells on average
        out = simulate(SimConfig(N0=15, f=30, seed=11))
        mean_visible = np.mean([len(ids) for ids in out.visible_ids])
        assert 9.0 < mean_visible < 21.0


def _cfg_dict(cfg):
    return {k: getattr(cfg, k) for k in ("W", "H", "w", "h", "N0", "sigma", "f", "dt", "seed")}


def _digests(out):
    """sha256 of the hidden positions, visible ids, truth entries and tracks."""

    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    return (
        sha(b"".join(np.asarray(p, dtype="<f8").tobytes() for p in out.hidden_positions)),
        sha(repr([ids.tolist() for ids in out.visible_ids]).encode()),
        sha(repr([(m.entries, m.n_next) for m in out.matchings]).encode()),
        sha(repr(out.trajectories.tracks).encode()),
    )


# recorded from the per-frame implementation the array steps replaced
PINNED = {
    "small": (
        SMALL,
        (
            "ed83a81526976fa9f62866dda8481fa6c533295ecee51e25dbd191ccf40b7af1",
            "590bb909eb2685ce9e8a1cfec410fd9042c728b21ab4fe538a09b1c83ee7608f",
            "6f277bb44d121c65931b42c90657f62c1bfc07fe86d2b5c5fbb92a7a3f47934b",
            "da47291393a212018c02a8251b337d2fd7c7aa785b2f73069dffde9f17de57ae",
        ),
    ),
    "long": (
        LONG0,
        (
            "8bbf0a850fd3e7ba8966debba9e365483fcc839696897e650fbdc873862f655d",
            "6ce21387d356f6422f058d7fadbe1701a81d1647b7fea1a8c34ee2b6c4c45063",
            "d96996088c1e7c93948e54c4be8258334003f1d931f4b96b18dc057991418d94",
            "69277696e60d052d2eb2aaf9e5d99126385e66d51d2b869dcf72c8d42ad8277f",
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_outputs_are_pinned_bit_for_bit(name):
    cfg, expected = PINNED[name]
    assert _digests(simulate(cfg)) == expected


def test_peak_memory_of_a_closed_view():
    # every cell is visible in every frame, so the truth entries and
    # tracks hold N0 x f Python ints. Here the per-frame implementation
    # the array steps replaced peaked at 54.4 MB, and trajectory assembly
    # through TrajectorySet's per-detection checks at 52.5 MB; without
    # them the peak is 29.8 MB (CPython 3.11, numpy 2.4)
    peak_bound = 40_000_000
    cfg = SimConfig(W=680.0, H=512.0, w=680.0, h=512.0, N0=1000, f=200)
    tracemalloc.start()
    try:
        simulate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= peak_bound
