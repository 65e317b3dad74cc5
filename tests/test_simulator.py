"""Synthetic-video generator."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from velotrack import (
    DISAPPEAR,
    InvalidConfigError,
    SimConfig,
    matchings_from_trajectories,
    reflect,
    simulate,
)

SMALL = SimConfig(W=100.0, H=80.0, w=50.0, h=40.0, N0=4, f=8, seed=3)


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
        ],
    )
    def test_non_finite_region_or_cell_count(self, values):
        with pytest.raises(InvalidConfigError):
            SimConfig(**values)

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
