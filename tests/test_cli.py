"""Command-line interface: subcommands, file outputs, exit codes."""

import csv
import dataclasses
import json
import math
import tracemalloc

import pytest

from velotrack.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_RUNTIME,
    AGGREGATE_COLUMNS,
    RESULT_COLUMNS,
    TIMING_COLUMNS,
    ExperimentConfig,
    main,
)
from velotrack import (
    BipartiteConfig,
    InvalidConfigError,
    NoiseModel,
    SimConfig,
    TrackerConfig,
    simulate,
    track,
    write_tracks,
)
from velotrack.tripartite import TRACK_LAYERS

SIM_CFG = {"W": 120.0, "H": 100.0, "w": 60.0, "h": 50.0, "N0": 5, "f": 8, "seed": 2}


@pytest.fixture
def sim_dir(tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps(SIM_CFG))
    out = tmp_path / "video"
    assert main(["simulate", "--config", str(cfg), "--output", str(out)]) == EXIT_OK
    return out


def test_simulate_writes_bundle(sim_dir):
    for name in ("detections.csv", "truth_tracks.csv", "truth_matchings.txt", "metadata.json"):
        assert (sim_dir / name).exists()
    meta = json.loads((sim_dir / "metadata.json").read_text())
    assert meta["N0"] == 5


def test_simulate_seed_override(tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps(SIM_CFG))
    a, b = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", str(cfg), "--output", str(a), "--seed", "7"])
    main(["simulate", "--config", str(cfg), "--output", str(b), "--seed", "7"])
    assert (a / "detections.csv").read_text() == (b / "detections.csv").read_text()


class TestTrack:
    def test_velocity_method(self, sim_dir, tmp_path):
        out = tmp_path / "tracks.csv"
        code = main(
            [
                "track",
                "--input", str(sim_dir / "detections.csv"),
                "--output", str(out),
                "--method", "tri",
                "--delta", "1",
            ]
        )
        assert code == EXIT_OK
        assert out.exists()
        diag = json.loads((tmp_path / "tracks.diagnostics.json").read_text())
        assert diag["method"] == "tri"
        assert diag["delta"] == 1
        assert diag["eval_count"] > 0
        assert len(diag["space_sizes"]) == SIM_CFG["f"] - 1
        # continuous coordinates leave no bipartite ties to refine
        assert diag["tie_refinements"] == [0] * (SIM_CFG["f"] - 1)
        assert len(diag["dp_cells"]) == SIM_CFG["f"] - 1
        assert diag["dp_cells"][0] == diag["space_sizes"][0]
        assert diag["dt"] == 1.0
        assert len(diag["sweep_steps"]) == SIM_CFG["f"] - 1
        # the stage runs cover stages 1 .. f - 2 once, last run first
        stages = [t for t0, t1 in diag["stage_runs"][::-1] for t in range(t0, t1)]
        assert stages == list(range(1, SIM_CFG["f"] - 1))
        assert sum(diag["sweep_steps"]) > 0
        # one-step augmentations are augmentations, each a settled column
        assert len(diag["sweep_one_step"]) == SIM_CFG["f"] - 1
        assert all(0 <= o <= s for o, s in zip(diag["sweep_one_step"], diag["sweep_steps"]))
        assert sorted(diag["layer_seconds"]) == sorted(TRACK_LAYERS)
        # every stage of so small a video folds densely: nothing is pruned
        assert diag["pruned_rows"] == [0] * (SIM_CFG["f"] - 1)
        assert all(s >= 0.0 for s in diag["layer_seconds"].values())

    def test_bipartite_method(self, sim_dir, tmp_path):
        out = tmp_path / "baseline.csv"
        code = main(
            [
                "track",
                "--input", str(sim_dir / "detections.csv"),
                "--output", str(out),
                "--method", "bmcf",
            ]
        )
        assert code == EXIT_OK
        diag = json.loads((tmp_path / "baseline.diagnostics.json").read_text())
        assert diag["method"] == "bmcf"

    def test_sigma_mode_flag(self, sim_dir, tmp_path):
        out = tmp_path / "tracks.csv"
        code = main(
            [
                "track",
                "--input", str(sim_dir / "detections.csv"),
                "--output", str(out),
                "--sigma-mode", "fixed:2.0",
            ]
        )
        assert code == EXIT_OK
        diag = json.loads((tmp_path / "tracks.diagnostics.json").read_text())
        assert diag["sigma_pooled"] == 2.0

    def test_config_file(self, sim_dir, tmp_path):
        cfg = tmp_path / "tracker.json"
        cfg.write_text(json.dumps({"delta": 2, "lambda_event": -3.0}))
        out = tmp_path / "tracks.csv"
        code = main(
            [
                "track",
                "--input", str(sim_dir / "detections.csv"),
                "--output", str(out),
                "--config", str(cfg),
            ]
        )
        assert code == EXIT_OK
        diag = json.loads((tmp_path / "tracks.diagnostics.json").read_text())
        assert diag["delta"] == 2
        assert diag["lambda_event"] == -3.0


    def test_dt_flag_matches_in_memory_track(self, tmp_path):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps(SIM_CFG | {"dt": 0.5}))
        video = tmp_path / "video"
        assert main(["simulate", "--config", str(cfg), "--output", str(video)]) == EXIT_OK
        assert json.loads((video / "metadata.json").read_text())["dt"] == 0.5
        seq = simulate(SimConfig(**SIM_CFG, dt=0.5)).seq
        res = track(seq)
        want = tmp_path / "want.csv"
        write_tracks(want, res.trajectories, seq)

        scores = {}
        for dt in ("0.5", "1.0"):
            out = tmp_path / f"tracks_{dt}.csv"
            args = ["track", "--input", str(video / "detections.csv"), "--output", str(out)]
            assert main(args + ["--dt", dt]) == EXIT_OK
            diag = json.loads((tmp_path / f"tracks_{dt}.diagnostics.json").read_text())
            assert diag["dt"] == float(dt)
            scores[dt] = diag["score"]
        assert (tmp_path / "tracks_0.5.csv").read_text() == want.read_text()
        assert scores["0.5"] == res.score
        # the frame interval enters the likelihood
        assert scores["1.0"] != res.score

    @pytest.mark.parametrize("dt", ["0", "-1", "nan", "inf"])
    def test_bad_dt_exits_config(self, sim_dir, tmp_path, dt):
        out = tmp_path / "tracks.csv"
        args = ["track", "--input", str(sim_dir / "detections.csv"), "--output", str(out)]
        assert main(args + ["--dt", dt]) == EXIT_CONFIG
        assert not out.exists()


def test_crowded_track_reports_pruned_rows(tmp_path):
    # 40 objects in a closed view: both stages prune and keep only
    # their seed rows
    cfg = tmp_path / "sim.json"
    closed = {"W": 680.0, "H": 512.0, "w": 680.0, "h": 512.0, "N0": 40, "f": 4, "seed": 0}
    cfg.write_text(json.dumps(closed))
    video, out = tmp_path / "video", tmp_path / "tracks.csv"
    assert main(["simulate", "--config", str(cfg), "--output", str(video)]) == EXIT_OK
    assert main(["track", "--input", str(video / "detections.csv"), "--output", str(out)]) == EXIT_OK
    diag = json.loads((tmp_path / "tracks.diagnostics.json").read_text())
    assert diag["space_sizes"] == [1562] * 3
    assert diag["pruned_rows"] == [1560, 1560, 0]
    assert diag["dp_cells"] == [1562, 2 * 1562, 2 * 1562]


class TestEvaluateCommand:
    def test_self_evaluation_is_perfect(self, sim_dir, tmp_path):
        report = tmp_path / "report.csv"
        code = main(
            [
                "evaluate",
                "--input", str(sim_dir / "truth_tracks.csv"),
                "--truth", str(sim_dir / "truth_tracks.csv"),
                "--output", str(report),
            ]
        )
        assert code == EXIT_OK
        summary = json.loads((tmp_path / "report.json").read_text())
        assert summary["whole_path_fbeta"] == 1.0
        assert summary["path_identity"] == 1
        with open(report, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == SIM_CFG["f"] - 1

    def test_tracked_output_evaluates(self, sim_dir, tmp_path):
        tracks = tmp_path / "tracks.csv"
        main(
            [
                "track",
                "--input", str(sim_dir / "detections.csv"),
                "--output", str(tracks),
            ]
        )
        report = tmp_path / "report.csv"
        code = main(
            [
                "evaluate",
                "--input", str(tracks),
                "--truth", str(sim_dir / "truth_tracks.csv"),
                "--output", str(report),
            ]
        )
        assert code == EXIT_OK

    def _evaluate(self, pred, truth, tmp_path):
        """Exit code and whole-path F score of evaluate on two track files."""
        report = tmp_path / "report.csv"
        code = main(
            ["evaluate", "--input", str(pred), "--truth", str(truth), "--output", str(report)]
        )
        return code, json.loads((tmp_path / "report.json").read_text())["whole_path_fbeta"]

    def test_coincident_detections_evaluate(self, tmp_path):
        det = tmp_path / "det.csv"
        det.write_text("frame_index,x,y\n0,0.0,0.0\n0,0.0,0.0\n1,1.0,0.0\n1,0.0,1.0\n2,2.0,0.0\n")
        tracks = tmp_path / "tracks.csv"
        assert main(["track", "--input", str(det), "--output", str(tracks)]) == EXIT_OK
        assert self._evaluate(tracks, tracks, tmp_path) == (EXIT_OK, 1.0)

    def test_permuted_copy_scores_perfectly(self, tmp_path):
        # two tracks pass through the same point at frame 1
        rows = [
            "0,0,0.0,0.0", "0,1,1.0,1.0", "0,2,2.0,2.0",
            "1,0,2.0,0.0", "1,1,1.0,1.0", "1,2,0.0,2.0",
            "2,1,1.0,1.0",
        ]
        truth = tmp_path / "truth.csv"
        truth.write_text("track_id,frame_index,x,y\n" + "\n".join(rows) + "\n")
        # track ids renumbered and the tracks listed in another order
        renamed = [r.replace("0,", "9,", 1) if r.startswith("0,") else r for r in rows]
        pred = tmp_path / "pred.csv"
        pred.write_text("\n".join(renamed[3:] + renamed[:3]) + "\n")
        assert self._evaluate(truth, truth, tmp_path) == (EXIT_OK, 1.0)
        assert self._evaluate(pred, truth, tmp_path) == (EXIT_OK, 1.0)
        # a different linking through the shared point is not perfect
        swapped = [
            "0,0,0.0,0.0", "0,1,1.0,1.0", "0,2,0.0,2.0",
            "1,0,2.0,0.0", "1,1,1.0,1.0", "1,2,2.0,2.0",
            "2,1,1.0,1.0",
        ]
        pred.write_text("\n".join(swapped) + "\n")
        code, f1 = self._evaluate(pred, truth, tmp_path)
        assert code == EXIT_OK and f1 < 1.0

    def test_one_frame_video_writes_strict_json(self, tmp_path):
        tracks = tmp_path / "tracks.csv"
        tracks.write_text("track_id,frame_index,x,y\n0,0,1.0,2.0\n")
        assert self._evaluate(tracks, tracks, tmp_path) == (EXIT_OK, 1.0)

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        summary = json.loads((tmp_path / "report.json").read_text(), parse_constant=reject)
        # no frame pairs: the per-pair means are null, not NaN
        assert summary["mean_pair_identity"] is None
        assert summary["mean_coverage"] is None

    def test_beta_whose_square_overflows_reports_recall(self, sim_dir, tmp_path):
        truth = str(sim_dir / "truth_tracks.csv")
        report = str(tmp_path / "r.csv")
        args = ["evaluate", "--input", truth, "--truth", truth, "--output", report]
        assert main(args + ["--beta", "1e200"]) == EXIT_OK
        summary = json.loads((tmp_path / "r.json").read_text())
        assert summary["whole_path_fbeta"] == summary["whole_path_recall"] == 1.0

    @pytest.mark.parametrize("beta", ["0", "-1", "nan", "inf"])
    def test_bad_beta_exits_config(self, sim_dir, tmp_path, beta):
        truth = str(sim_dir / "truth_tracks.csv")
        report = tmp_path / "report.csv"
        args = ["evaluate", "--input", truth, "--truth", truth, "--output", str(report)]
        assert main(args + ["--beta", beta]) == EXIT_CONFIG
        assert not report.exists()

    def test_json_output_path_exits_config(self, tmp_path):
        # the JSON summary would overwrite the report; the inputs do not
        # exist, so exit 3 shows that nothing was read
        report = tmp_path / "report.json"
        missing = str(tmp_path / "missing.csv")
        args = ["evaluate", "--input", missing, "--truth", missing, "--output", str(report)]
        assert main(args) == EXIT_CONFIG
        assert not report.exists()


# every integer field of the configs, as (config, field, a value's form there)
INTEGER_FIELDS = [
    (SimConfig, "N0", lambda x: x),
    (SimConfig, "f", lambda x: x),
    (SimConfig, "seed", lambda x: x),
    (TrackerConfig, "delta", lambda x: x),
    (TrackerConfig, "space_cap", lambda x: x),
    (ExperimentConfig, "N0", lambda x: (x,)),
    (ExperimentConfig, "deltas", lambda x: (x,)),
    (ExperimentConfig, "replicates", lambda x: x),
    (ExperimentConfig, "f", lambda x: x),
    (ExperimentConfig, "seed", lambda x: x),
]


# -10**5000 has too many digits for repr
@pytest.mark.parametrize(
    "bad", [math.inf, -math.inf, math.nan, "x", 1.5, -1, pytest.param(-(10**5000), id="huge")]
)
@pytest.mark.parametrize(
    "cls, name, form", INTEGER_FIELDS, ids=[f"{c.__name__}.{n}" for c, n, _ in INTEGER_FIELDS]
)
def test_integer_fields_reject_non_integers(cls, name, form, bad):
    with pytest.raises(InvalidConfigError):
        cls(**{name: form(bad)})


# every float field of the configs, as (config, field, a value's form
# there, a number outside the field's range)
FLOAT_FIELDS = [
    (SimConfig, "W", lambda x: x, math.inf),
    (SimConfig, "H", lambda x: x, -1.0),
    (SimConfig, "w", lambda x: x, 0.0),
    (SimConfig, "h", lambda x: x, -math.inf),
    (SimConfig, "sigma", lambda x: x, 0.0),
    (SimConfig, "dt", lambda x: x, math.inf),
    (TrackerConfig, "sigma_floor", lambda x: x, 0.0),
    (TrackerConfig, "lambda_event", lambda x: x, 0.5),
    (TrackerConfig, "gate_quantile", lambda x: x, 1.0),
    (NoiseModel, "sigmas", lambda x: (x,), 1e-9),
    (NoiseModel, "lambda_event", lambda x: x, -math.inf),
    (NoiseModel, "sigma_floor", lambda x: x, -1e-6),
    (BipartiteConfig, "gate_cost", lambda x: x, -1.0),
    (BipartiteConfig, "gate_quantile", lambda x: x, 0.0),
    (ExperimentConfig, "sigma", lambda x: (x,), -1.0),
    (ExperimentConfig, "W", lambda x: x, 0.0),
    (ExperimentConfig, "H", lambda x: x, math.inf),
    (ExperimentConfig, "w", lambda x: x, -1.0),
    (ExperimentConfig, "h", lambda x: x, 0.0),
    (ExperimentConfig, "dt", lambda x: x, -2.0),
    (ExperimentConfig, "lambda_event", lambda x: x, math.inf),
    (ExperimentConfig, "gate_quantile", lambda x: x, 1.5),
]
# the fields that are neither integers nor floats
OTHER_FIELDS = [
    (TrackerConfig, "sigma_mode"),
    (ExperimentConfig, "sigma_mode"),
    (ExperimentConfig, "methods"),
]
# what a constructor needs besides the field under test
REQUIRED = {NoiseModel: {"sigmas": (1.0,), "lambda_event": -1.0}}


# values that no float field takes, by label
NOT_FLOATS = {
    "nan": math.nan, "str": "x", "numeric-str": "0.5", "None": None, "huge": 10**400,
    # too many digits for repr
    "huger": 10**5000,
}


def _float_cases():
    for cls, name, form, out_of_range in FLOAT_FIELDS:
        for label, value in {**NOT_FLOATS, "out-of-range": out_of_range}.items():
            # a gate_cost of None selects quantile mode
            if not (name == "gate_cost" and value is None):
                yield pytest.param(cls, name, form(value), id=f"{cls.__name__}.{name}-{label}")


@pytest.mark.parametrize("cls, name, value", _float_cases())
def test_float_fields_reject_non_floats(cls, name, value):
    with pytest.raises(InvalidConfigError):
        cls(**{**REQUIRED.get(cls, {}), name: value})


def test_every_config_field_is_checked():
    # a new field must join one of the lists above, so that it meets the shared checks
    listed = {(c, n) for c, n, *_ in INTEGER_FIELDS + FLOAT_FIELDS} | set(OTHER_FIELDS)
    configs = (SimConfig, TrackerConfig, ExperimentConfig, NoiseModel, BipartiteConfig)
    every = {(c, f.name) for c in configs for f in dataclasses.fields(c)}
    assert every <= listed


class TestExitCodes:
    def test_malformed_detections(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("0,1.0\n")
        out = tmp_path / "tracks.csv"
        assert main(["track", "--input", str(bad), "--output", str(out)]) == EXIT_PARSE

    def test_bad_config(self, sim_dir, tmp_path):
        cfg = tmp_path / "tracker.json"
        cfg.write_text(json.dumps({"delta": -3}))
        out = tmp_path / "tracks.csv"
        code = main(
            [
                "track",
                "--input", str(sim_dir / "detections.csv"),
                "--output", str(out),
                "--config", str(cfg),
            ]
        )
        assert code == EXIT_CONFIG

    def test_unknown_config_key(self, sim_dir, tmp_path):
        cfg = tmp_path / "tracker.json"
        cfg.write_text(json.dumps({"detla": 1}))
        out = tmp_path / "tracks.csv"
        code = main(
            [
                "track",
                "--input", str(sim_dir / "detections.csv"),
                "--output", str(out),
                "--config", str(cfg),
            ]
        )
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "command, values",
        [
            pytest.param("track", {"delta": "abc"}, id="track-delta-str"),
            pytest.param("track", {"delta": None}, id="track-delta-null"),
            pytest.param("track", {"gate_quantile": "x"}, id="track-quantile-str"),
            pytest.param("track", {"gate_quantile": "0.5"}, id="track-quantile-numeric-str"),
            pytest.param("simulate", {"N0": "x"}, id="simulate-N0-str"),
            pytest.param("simulate", {"sigma": "a"}, id="simulate-sigma-str"),
            pytest.param("experiment", {"N0": 5}, id="experiment-N0-scalar"),
            pytest.param("experiment", {"W": "x"}, id="experiment-W-str"),
            # non-integers where integers are expected are rejected, not truncated
            pytest.param("simulate", {"seed": 1.5}, id="simulate-seed-fraction"),
            pytest.param("experiment", {"N0": [2.7]}, id="experiment-N0-fraction"),
            pytest.param("experiment", {"deltas": [1.5]}, id="experiment-deltas-fraction"),
            pytest.param("experiment", {"seed": 1.5}, id="experiment-seed-fraction"),
            pytest.param("simulate", {"seed": -1}, id="simulate-seed-negative"),
        ],
    )
    def test_wrongly_typed_config_value(self, sim_dir, tmp_path, command, values):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        out = tmp_path / "out"
        if command == "track":
            argv = ["track", "--input", str(sim_dir / "detections.csv"), "--output", str(out)]
        else:
            argv = [command, "--output", str(out)]
        assert main(argv + ["--config", str(cfg)]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "command, values",
        [
            pytest.param("simulate", {"W": math.inf}, id="simulate-W-infinite"),
            pytest.param("simulate", {"W": 1e308, "H": 1e308}, id="simulate-count-overflow"),
            pytest.param("experiment", {"W": math.inf}, id="experiment-W-infinite"),
            pytest.param("experiment", {"W": 1e308, "H": 1e308}, id="experiment-count-overflow"),
        ],
    )
    def test_overflowing_region_exits_config(self, tmp_path, command, values):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))  # inf is written as Infinity
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--output", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_non_finite_optimum_exits_config(self, tmp_path):
        det = tmp_path / "det.csv"
        det.write_text("frame_index,x,y\n0,0,0\n0,5,5\n0,9,9\n1,0,0.5\n")
        cfg = tmp_path / "tracker.json"
        cfg.write_text(json.dumps({"delta": 2, "lambda_event": -1e308}))
        out = tmp_path / "tracks.csv"
        argv = ["track", "--input", str(det), "--output", str(out), "--config", str(cfg)]
        with pytest.warns(UserWarning):  # no 3-frame chains for sigma
            assert main(argv) == EXIT_CONFIG
        assert not out.exists()

    def test_space_cap(self, sim_dir, tmp_path):
        cfg = tmp_path / "tracker.json"
        cfg.write_text(json.dumps({"space_cap": 1}))
        out = tmp_path / "tracks.csv"
        code = main(
            [
                "track",
                "--input", str(sim_dir / "detections.csv"),
                "--output", str(out),
                "--config", str(cfg),
            ]
        )
        assert code == EXIT_RUNTIME
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            # (dt * sigma)**2 underflows to 0, with a fixed and an estimated sigma
            pytest.param(["--dt", "1e-200", "--sigma-mode", "fixed:1.0"], id="dt-underflow-fixed"),
            pytest.param(["--dt", "1e-200"], id="dt-underflow-estimated"),
            pytest.param(["--dt", "1e200", "--sigma-mode", "fixed:1.0"], id="dt-overflow"),
            pytest.param(["--sigma-mode", "fixed:1e-200"], id="fixed-sigma-below-floor"),
        ],
    )
    def test_noise_scale_out_of_range_exits_config(self, sim_dir, tmp_path, flags):
        out = tmp_path / "tracks.csv"
        argv = ["track", "--input", str(sim_dir / "detections.csv"), "--output", str(out)]
        assert main(argv + flags) == EXIT_CONFIG
        assert not out.exists()

    def test_fixed_sigma_whose_square_underflows_exits_config(self, sim_dir, tmp_path):
        # the lowered floor admits sigma = 1e-200, but sigma**2 is 0
        cfg = tmp_path / "tracker.json"
        cfg.write_text(json.dumps({"sigma_floor": 1e-300, "sigma_mode": "fixed:1e-200"}))
        out = tmp_path / "tracks.csv"
        argv = ["track", "--input", str(sim_dir / "detections.csv"), "--output", str(out)]
        assert main(argv + ["--config", str(cfg)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("method", ["tri", "bmcf"])
    def test_overflowing_coordinates_exit_runtime(self, tmp_path, capsys, method):
        det = tmp_path / "det.csv"
        det.write_text("frame_index,x,y\n0,1e200,0\n0,-1e200,0\n1,1e200,1\n1,-1e200,1\n2,0,0\n")
        out = tmp_path / "tracks.csv"
        argv = ["track", "--input", str(det), "--output", str(out), "--method", method]
        assert main(argv) == EXIT_RUNTIME
        assert "1e+100" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_simulation_exits_runtime(self, tmp_path, capsys):
        # 43M cells in the region over 50 frames: refused before allocating
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"W": 1e6, "H": 1e6}))
        out = tmp_path / "v"
        assert main(["simulate", "--config", str(cfg), "--output", str(out)]) == EXIT_RUNTIME
        assert "cap" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["track", "evaluate"])
    def test_huge_frame_index_exits_runtime_in_little_memory(self, tmp_path, capsys, command):
        # one entry per frame index would take terabytes: refused on reading
        if command == "track":
            det = tmp_path / "det.csv"
            det.write_text("frame_index,x,y\n0,0,0\n1,1,1\n1000000000000,2,2\n")
            argv = ["track", "--input", str(det)]
        else:
            tracks = tmp_path / "tracks.csv"
            tracks.write_text("track_id,frame_index,x,y\n0,0,0,0\n0,1,1,1\n1,1000000000000,2,2\n")
            argv = ["evaluate", "--input", str(tracks), "--truth", str(tracks)]
        out = tmp_path / "out.csv"
        tracemalloc.start()
        try:
            code = main([*argv, "--output", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_RUNTIME
        assert peak < 1 << 20
        assert "cap of 1000000 frames" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_flag(self, tmp_path):
        assert main(["simulate", "--seed", "-1", "--output", str(tmp_path / "v")]) == EXIT_CONFIG

    def test_missing_input(self, tmp_path):
        out = tmp_path / "tracks.csv"
        code = main(["track", "--input", str(tmp_path / "nope.csv"), "--output", str(out)])
        assert code == EXIT_RUNTIME


class TestExperiment:
    def test_huge_delta_runs_like_a_small_one(self, tmp_path):
        # delta is clipped before any array is sized by it; the region
        # holds 12 cells, so a delta of 20 already reaches every count.
        # 10**400 lies past the float range, which the aggregate's
        # predicted ratio must not enter
        grid = {**SIM_CFG, "N0": [3], "sigma": [1.0], "f": 3, "replicates": 1}
        rows = {}
        for deltas in ([0, 20], [0, 10**6], [0, 10**400]):
            cfg = tmp_path / "grid.json"
            cfg.write_text(json.dumps(grid | {"methods": ["tri"], "deltas": deltas}))
            out = tmp_path / f"exp{len(rows)}"
            tracemalloc.start()
            try:
                code = main(["experiment", "--config", str(cfg), "--output", str(out), "--jobs", "1"])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == EXIT_OK
            assert peak < 8 << 20
            with open(out / "results.csv", newline="") as fh:
                rows[deltas[1]] = [r | {"delta": ""} for r in csv.DictReader(fh)]
        assert rows[10**6] == rows[10**400] == rows[20]

    def test_tiny_grid(self, tmp_path):
        cfg = tmp_path / "grid.json"
        cfg.write_text(
            json.dumps(
                {
                    **SIM_CFG,
                    "N0": [SIM_CFG["N0"]],
                    "sigma": [1.0],
                    "replicates": 2,
                    "methods": ["bmcf", "tri"],
                    "deltas": [0, 1],
                }
            )
        )
        out = tmp_path / "exp"
        code = main(
            [
                "experiment",
                "--config", str(cfg),
                "--output", str(out),
                "--jobs", "1",
            ]
        )
        assert code == EXIT_OK
        with open(out / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == set(RESULT_COLUMNS)
        # 2 replicates x (bmcf + tri at 2 deltas)
        assert len(rows) == 2 * 3
        methods = {(r["method"], r["delta"]) for r in rows}
        assert methods == {("bmcf", ""), ("tri", "0"), ("tri", "1")}
        with open(out / "aggregate.csv", newline="") as fh:
            agg = list(csv.DictReader(fh))
        assert set(agg[0]) == set(AGGREGATE_COLUMNS)
        assert len(agg) == 3
        with open(out / "timings.csv", newline="") as fh:
            tim = list(csv.DictReader(fh))
        assert set(tim[0]) == set(TIMING_COLUMNS)
        assert len(tim) == len(rows)

    def test_deterministic_results(self, tmp_path):
        cfg = tmp_path / "grid.json"
        cfg.write_text(
            json.dumps(
                {
                    **SIM_CFG,
                    "N0": [4],
                    "sigma": [1.0],
                    "f": 6,
                    "replicates": 2,
                    "methods": ["tri"],
                    "deltas": [1],
                }
            )
        )
        a, b = tmp_path / "a", tmp_path / "b"
        main(["experiment", "--config", str(cfg), "--output", str(a), "--jobs", "1"])
        main(["experiment", "--config", str(cfg), "--output", str(b), "--jobs", "2"])
        # results are byte-identical regardless of worker count
        assert (a / "results.csv").read_text() == (b / "results.csv").read_text()
        assert (a / "aggregate.csv").read_text() == (b / "aggregate.csv").read_text()

    def test_replicate_override(self, tmp_path):
        cfg = tmp_path / "grid.json"
        cfg.write_text(
            json.dumps(
                {
                    **SIM_CFG,
                    "N0": [4],
                    "sigma": [1.0],
                    "f": 6,
                    "methods": ["bmcf"],
                    "deltas": [],
                    "replicates": 5,
                }
            )
        )
        out = tmp_path / "exp"
        code = main(
            [
                "experiment",
                "--config", str(cfg),
                "--output", str(out),
                "--replicates", "1",
                "--jobs", "1",
            ]
        )
        assert code == EXIT_OK
        with open(out / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_exits_config(self, tmp_path, jobs):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({**SIM_CFG, "N0": [4], "replicates": 1, "methods": ["bmcf"]}))
        out = tmp_path / "exp"
        argv = ["experiment", "--config", str(cfg), "--output", str(out), "--jobs", jobs]
        assert main(argv) == EXIT_CONFIG
        assert not out.exists()

    def test_defaults_come_from_the_run_configs(self):
        grid = ExperimentConfig()
        assert grid.sim_config(15, 1.0, 0) == SimConfig()
        assert grid.tracker_config(1) == TrackerConfig()

    @pytest.mark.parametrize(
        "values",
        [
            {"N0": [4, 4]},
            {"N0": [4, 4.0]},
            {"sigma": [1.0, 2.0, 1]},
            {"methods": ["tri", "bmcf", "tri"]},
            {"deltas": [1, 1]},
        ],
    )
    def test_repeated_grid_value_exits_config(self, tmp_path, values):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({**SIM_CFG, "N0": [4], "replicates": 1, **values}))
        out = tmp_path / "exp"
        assert main(["experiment", "--config", str(cfg), "--output", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_grid_validation(self):
        with pytest.raises(Exception):
            ExperimentConfig(methods=("hungarian",))
        with pytest.raises(Exception):
            ExperimentConfig(replicates=0)
        # an unhashable method is checked before the repeated-value test hashes it
        with pytest.raises(InvalidConfigError):
            ExperimentConfig(methods=(["bmcf"],))

    @pytest.mark.parametrize("values", [{"N0": 5}, {"deltas": 1}, {"sigma": 2.0}])
    def test_scalar_for_a_list_field_raises_config_error(self, values):
        # the Python API, not only from_json, reports a scalar as a config error
        with pytest.raises(InvalidConfigError, match="must be a list"):
            ExperimentConfig(**values)
