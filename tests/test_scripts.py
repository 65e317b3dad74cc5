"""The scripts under scripts/ still run against this checkout's package."""

import csv
import os
import subprocess
import sys
from pathlib import Path

from velotrack.tripartite import TRACK_LAYERS

ROOT = Path(__file__).resolve().parent.parent


def run_python(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600, check=False,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def run_script(name, *args):
    return run_python(str(ROOT / "scripts" / name), *args)


def test_crossing_demo():
    out = run_script("run_crossing_demo.py", "--trials", "20")
    assert "position model swapped the crossing pair 20/20" in out
    assert "velocity model kept the true labels      20/20" in out


def test_desk_experiments(tmp_path):
    run_script(
        "run_desk_experiments.py", "--output", str(tmp_path), "--replicates", "1", "--jobs", "1"
    )
    with open(tmp_path / "aggregate.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["method"], r["delta"]) for r in rows] == [
        ("bmcf", ""), ("tri", "0"), ("tri", "1"), ("tri", "2"), ("tri", "3")
    ]


def test_complexity_table(tmp_path):
    # the script's main with small N0 for the scaling rows, one fresh
    # process each
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import run_complexity_table as m; "
        "m.SCALING_N0 = (4, 8); sys.argv = sys.argv[1:]; sys.exit(m.main())"
    )
    out = run_python(
        "-c", code, str(ROOT / "scripts"),
        "--output", str(tmp_path), "--replicates", "1", "--frames", "3", "--jobs", "1",
    )
    lines = out.strip().splitlines()
    assert lines[-7].split() == ["delta", "evals/video", "ratio", "predicted"]
    assert [line.split()[0] for line in lines[-6:-3]] == ["1", "2", "3"]
    assert lines[-3].split() == ["N0", "track_s", "sweep_s", "peak_mb", "space_rows", "dp_cells"]
    for line, n0 in zip(lines[-2:], (4, 8)):
        fields = line.split()
        assert int(fields[0]) == n0
        assert float(fields[1]) >= float(fields[2]) >= 0 and float(fields[3]) > 0
        # a closed view holds N0 objects in each of its 4 frames, so each
        # of its 3 spaces has at least one seed and its exchanges
        assert int(fields[4]) >= 3 * (1 + n0 * (n0 - 1) // 2) and int(fields[5]) > 0


def test_output_digest_repeats():
    out = run_script("output_digest.py", "--workload", "smoke")
    assert run_script("output_digest.py", "--workload", "smoke") == out
    name, outputs_tag, outputs, cells_tag, cells, bipartite_tag, bipartite = out.split()
    assert (name, outputs_tag, cells_tag, bipartite_tag) == ("smoke", "outputs", "dp_cells", "bipartite")
    assert len(outputs) == len(cells) == len(bipartite) == 64
    assert len({outputs, cells, bipartite}) == 3


def test_compare_laps_against_itself():
    out = run_script(
        "compare_laps.py", "--parent", str(ROOT), "--workload", "smoke", "--regime", "4,2,3,1,1",
        "--rounds", "1",
    )
    lines = out.strip().splitlines()
    # one block per workload: a title, a header and a line per lap
    n = len(TRACK_LAYERS) + 5
    assert len(lines) == 2 * n
    assert lines[0] == "smoke: 2 videos, 1 rounds, outputs differ on 0 videos"
    assert lines[n] == "N0=4 sigma=2 f=3 region=1: 1 videos, 1 rounds, outputs differ on 0 videos"
    for block in (lines[2:n], lines[n + 2 :]):
        laps = [line.split()[0] for line in block]
        assert laps == [*TRACK_LAYERS, "track()", "evaluate", "simulate"]
