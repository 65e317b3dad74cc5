"""The scripts under scripts/ still run against this checkout's package."""

import csv
import os
import subprocess
import sys
from pathlib import Path

from velotrack.tripartite import TRACK_LAYERS

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600, check=False,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


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
    out = run_script(
        "run_complexity_table.py",
        "--output", str(tmp_path), "--replicates", "1", "--frames", "3", "--jobs", "1",
    )
    lines = out.strip().splitlines()
    assert lines[-4].split() == ["delta", "evals/video", "ratio", "predicted"]
    assert [line.split()[0] for line in lines[-3:]] == ["1", "2", "3"]


def test_output_digest_repeats():
    out = run_script("output_digest.py", "--workload", "smoke")
    assert run_script("output_digest.py", "--workload", "smoke") == out
    name, outputs_tag, outputs, cells_tag, cells, bipartite_tag, bipartite = out.split()
    assert (name, outputs_tag, cells_tag, bipartite_tag) == ("smoke", "outputs", "dp_cells", "bipartite")
    assert len(outputs) == len(cells) == len(bipartite) == 64
    assert len({outputs, cells, bipartite}) == 3


def test_compare_laps_against_itself():
    out = run_script("compare_laps.py", "--parent", str(ROOT), "--workload", "smoke", "--rounds", "1")
    lines = out.strip().splitlines()
    assert lines[0] == "smoke: 2 videos, 1 rounds, outputs differ on 0 videos"
    assert [line.split()[0] for line in lines[2:]] == [*TRACK_LAYERS, "track()"]
