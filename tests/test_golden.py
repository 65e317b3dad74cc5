"""Pinned track(), evaluate() and experiment outputs.

The track() values of six small fixed-seed videos were recorded before
the per-pair set-up was batched over whole videos; track() must keep
returning them bit for bit. Each video pins the sha256 prefix of its
matchings, the chain score in float.hex form and the per-pair sigmas in
float.hex form. The evaluate() reports of the five simulated videos and
the sha256 of a tiny experiment grid's results.csv and aggregate.csv
were recorded before evaluate() read every score from one forward walk.
The crowded video (40 objects, closed view), whose stages take the
exchange-structured fold, was recorded before that fold scored untouched
columns from per-stage touch tables; its stages now prune their rows
and fold the survivors densely. The integer-grid videos, whose
exact ties make the tie certificate
fire, pin each pair's tie_refinements, the matchings and the score at
delta 0, 1 and 2; they were recorded before the certificate's first
test moved wholly into the batched sweep. Three integer-lattice videos,
refined on every pair, pin the same outputs; they were recorded before
the refinement walked the certificate's exchange graph. The benchmark's
seed-0 digests (scripts/output_digest.py) were recorded before the term
tables of a stage run moved into one padded layout, and the bipartite
digest before the sweep computed its own cost matrices from the
frames; a change that moves dp_cells by design updates them and says
so.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from velotrack import FrameSequence, SimConfig, TrackerConfig, evaluate, simulate, track
from velotrack.cli import main

CLOSED = dict(W=300.0, H=240.0, w=300.0, h=240.0)
OPEN = dict(W=420.0, H=336.0, w=300.0, h=240.0)


def _with_empty_frame():
    seq = simulate(SimConfig(W=360.0, H=288.0, w=300.0, h=240.0, N0=6, f=8, seed=16)).seq
    frames = list(seq.frames)
    frames[4] = np.empty((0, 2))
    return FrameSequence(tuple(frames), dt=seq.dt)


SIMS = {
    "closed_sigma1": SimConfig(**CLOSED, N0=10, sigma=1.0, f=6, seed=11),
    "closed_sigma6": SimConfig(**CLOSED, N0=10, sigma=6.0, f=8, seed=12),
    "closed_sigma6_n16": SimConfig(**CLOSED, N0=16, sigma=6.0, f=5, seed=13),
    "closed_crowded_n40": SimConfig(**CLOSED, N0=40, sigma=1.0, f=4, seed=14),
    "open_events": SimConfig(**OPEN, N0=8, sigma=2.0, f=14, seed=23),
    "open_events_late": SimConfig(**OPEN, N0=8, sigma=2.0, f=14, seed=27),
}

VIDEOS = {name: (lambda cfg=cfg: simulate(cfg).seq) for name, cfg in SIMS.items()}
VIDEOS["empty_frame"] = _with_empty_frame

GOLDEN = {
    "closed_sigma1": ('36c13ac5b7d86e3d', '-0x1.15fec0929d589p+7', ('0x1.018a67c01ba42p+0', '0x1.e3b4dc1979801p-1', '0x1.9b08bbbd7b73ap-1', '0x1.1a87de486a654p+0', '0x1.23207c27011dep+0')),
    "closed_sigma6": ('7a2ae21e16464126', '-0x1.c3c18b3d7a3c2p+8', ('0x1.a9f555efa43d0p+2', '0x1.897e92cfdd39ap+2', '0x1.8da1b34c2f259p+2', '0x1.4cc48e72c879fp+2', '0x1.c7a418576d71cp+2', '0x1.c67d6b10580dap+2', '0x1.f4ca18a68e8c6p+2')),
    "closed_sigma6_n16": ('5d464f19b48c39c2', '-0x1.9a316a7675f38p+8', ('0x1.962336472e53cp+2', '0x1.894f66f8e3af1p+2', '0x1.a50dbdc505578p+2', '0x1.93906d36b38a6p+2')),
    "closed_crowded_n40": ('60ea933a6ec0dd8b', '-0x1.4c044925c0ed7p+8', ('0x1.fe9d52672cc85p-1', '0x1.0427f9acb2366p+0', '0x1.f4ba9ed1f26a0p-1')),
    "open_events": ('708ec72ef6d817fb', '-0x1.1c7e2a10254b5p+10', ('0x1.5350f3c25f7d2p+1', '0x1.65b8261707ba5p+1', '0x1.fa0d88eef5877p+0', '0x1.7c31c38c4ffb8p+0', '0x1.ce0ae9171c437p+0', '0x1.4fdafbb32a5f9p+1', '0x1.046b3aa4601efp+1', '0x1.1e9b6bdaa41c9p+1', '0x1.4bf2acb08357fp+2', '0x1.9ae8aa29b7252p+1', '0x1.090217b8f4967p+1', '0x1.3404e1aa79fe5p+1', '0x1.0874fea294f82p+1')),
    "open_events_late": ('26a80fec43a5a509', '-0x1.ac471813df537p+14', ('0x1.0ef13bfd67a3ap+1', '0x1.2478a6f914b3bp+1', '0x1.18064e0738ce0p+1', '0x1.0a493f421a080p+1', '0x1.16ecf3debf50ap+1', '0x1.e1e4f5586a9aep+0', '0x1.b645e0bdcbf22p+0', '0x1.4257035d8a37dp+1', '0x1.2fd7d3c5eb3e5p+1', '0x1.120db86b4e204p+1', '0x1.b1d617023d0dep+0', '0x1.0b6fd2d100907p+1', '0x1.04547bf0a0839p+1')),
    "empty_frame": ('de99eeee118fa72a', '-0x1.0b0999281d338p+15', ('0x1.1a271df6b98c1p+0', '0x1.e5ea86409254bp-1', '0x1.13629275c2a66p+0', '0x1.1a271df6b98c1p+0', '0x1.1a271df6b98c1p+0', '0x1.1a271df6b98c1p+0', '0x1.48c1e0ba2d4c3p+0')),
}


def _digest(matchings) -> str:
    text = "|".join(" ".join(str(e) for e in m.entries) for m in matchings)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(VIDEOS))
def test_track_output_is_pinned(name):
    res = track(VIDEOS[name]())
    got = (
        _digest(res.matchings),
        res.score.hex(),
        tuple(s.hex() for s in res.diagnostics.sigma.sigmas),
    )
    assert got == GOLDEN[name]


def _grid_video(seed):
    """Three to five frames of two to six points on a 4 x 4 integer grid,
    sometimes with two coincident extras, and one inner frame emptied
    when there are four frames or more."""
    rng = np.random.default_rng(seed)
    f = int(rng.integers(3, 6))
    frames = []
    for _ in range(f):
        pts = rng.integers(0, 4, size=(int(rng.integers(2, 7)), 2)).astype(float)
        if rng.integers(0, 3) == 0:
            pts = np.concatenate([pts, pts[:2]])
        frames.append(pts)
    if f >= 4:
        frames[int(rng.integers(1, f - 1))] = np.empty((0, 2))
    return FrameSequence(tuple(frames))


# (seed, delta): (tie_refinements, matchings digest, score.hex())
CERTIFICATE_GOLDEN = {
    (2, 0): ((1, 0, 0, 1), 'dae90b4200a1df48', '-0x1.1bc0fc87fd635p+7'),
    (2, 1): ((1, 0, 0, 2), 'dae90b4200a1df48', '-0x1.1bc0fc87fd635p+7'),
    (2, 2): ((1, 0, 0, 3), 'dae90b4200a1df48', '-0x1.1bc0fc87fd635p+7'),
    (5, 0): ((1, 1, 0, 0), '7ebc964ee52ac4c7', '-0x1.d0bdd52478412p+6'),
    (5, 1): ((2, 2, 0, 0), '7ebc964ee52ac4c7', '-0x1.d0bdd52478412p+6'),
    (5, 2): ((3, 3, 0, 0), '7ebc964ee52ac4c7', '-0x1.d0bdd52478412p+6'),
    (8, 0): ((1, 0, 0, 2), 'b4d52526731bcc06', '-0x1.75c9a72475a7ep+6'),
    (8, 1): ((2, 0, 0, 3), '01e2580a37cc1f42', '-0x1.6e6faab25c784p+6'),
    (8, 2): ((2, 0, 0, 4), '01e2580a37cc1f42', '-0x1.6e6faab25c784p+6'),
    (14, 0): ((1, 1), 'd025330787e232ed', '-0x1.5cd583208ded0p+5'),
    (14, 1): ((2, 2), 'd025330787e232ed', '-0x1.5cd583208ded0p+5'),
    (14, 2): ((3, 3), 'd025330787e232ed', '-0x1.5cd583208ded0p+5'),
    (17, 0): ((2, 0, 0, 4), '93b4ce6f8984cbc0', '-0x1.b8df5564b8f06p+5'),
    (17, 1): ((2, 0, 0, 4), 'ee788d8bbd39ec9c', '-0x1.aa2b5c8086912p+5'),
    (17, 2): ((3, 0, 0, 4), '7036e68fd7d9a0c1', '-0x1.9b77639c5431cp+5'),
}


@pytest.mark.parametrize("seed,delta", sorted(CERTIFICATE_GOLDEN))
def test_tie_certificate_output_is_pinned(seed, delta):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # some videos hold no 3-frame chain for sigma
        res = track(_grid_video(seed), TrackerConfig(delta=delta))
    got = (res.diagnostics.tie_refinements, _digest(res.matchings), res.score.hex())
    assert got == CERTIFICATE_GOLDEN[seed, delta]


def _lattice_video(side, shift):
    """Four frames of the side x side integer lattice, each one shifted
    by shift from the last."""
    pts = np.array([(x, y) for x in range(side) for y in range(side)], dtype=float)
    return FrameSequence(tuple(pts + np.multiply(shift, k) for k in range(4)))


# (side, shift): (matchings digest, score.hex(), tie_refinements)
LATTICE_GOLDEN = {
    (5, (1, 0)): ('ebffe31d681e0d82', '-0x1.a6016b2be77fcp+43', (2, 2, 2)),
    (8, (1, 0)): ('539f5ee9d0257fa4', '-0x1.5d3ef796a3cb4p+44', (2, 2, 2)),
    (6, (0, 0)): ('e43ab7ee2e80856a', '-0x1.8777c2bbbd2acp+8', (35, 35, 35)),
}


@pytest.mark.parametrize("side,shift", sorted(LATTICE_GOLDEN))
def test_lattice_output_is_pinned(side, shift):
    seq = _lattice_video(side, shift)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # identical frames hold no 3-frame chain for sigma
        t = time.perf_counter()
        res = track(seq)
        wall = time.perf_counter() - t
    got = (_digest(res.matchings), res.score.hex(), res.diagnostics.tie_refinements)
    assert got == LATTICE_GOLDEN[side, shift]
    # a generous bound: the 8 x 8 video took 13.5 s on a 2-core machine
    # when each refinement re-solved one sub-problem per candidate column
    assert wall < 3.0


def _series_digest(series) -> str:
    text = "|".join(" ".join(v.hex() for v in scores) for scores in series)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _report_pin(rep):
    return (
        _series_digest(rep.pair_accuracy),
        _series_digest(rep.cumulative),
        tuple(v.hex() for v in (rep.whole_precision, rep.whole_recall, rep.whole_fbeta)),
        rep.pair_identity,
        rep.path_identity,
    )


# evaluate(seq, track(seq).matchings, truth) of the simulated videos:
# the pair and prefix series as sha256 prefixes of their float.hex text,
# the whole-video scores in float.hex form and the identity indicators
EVAL_GOLDEN = {
    "closed_sigma1": ('d23da3c2c105139c', 'd23da3c2c105139c', ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0'), (1, 1, 1, 1, 1), 1),
    "closed_sigma6": ('2ffc71bdadd05c60', '2ffc71bdadd05c60', ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0'), (1, 1, 1, 1, 1, 1, 1), 1),
    "closed_crowded_n40": ('73e2f982188dad81', '73e2f982188dad81', ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0'), (1, 1, 1), 1),
    "closed_sigma6_n16": ('09aad87c1fb358f7', '09aad87c1fb358f7', ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0'), (1, 1, 1, 1), 1),
    "open_events": ('97eda925cb31a4ac', 'c6a80c296da04d09', ('0x1.d1745d1745d17p-1', '0x1.aaaaaaaaaaaabp-1', '0x1.bd37a6f4de9bdp-1'), (1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1, 1), 0),
    "open_events_late": ('b418487037c7da99', 'b418487037c7da99', ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0'), (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1), 1),
}


@pytest.mark.parametrize("name", sorted(SIMS))
def test_evaluate_output_is_pinned(name):
    sim = simulate(SIMS[name])
    rep = evaluate(sim.seq, track(sim.seq).matchings, sim.matchings)
    assert _report_pin(rep) == EVAL_GOLDEN[name]


EXPERIMENT_GRID = {
    "W": 120.0, "H": 100.0, "w": 60.0, "h": 50.0, "N0": [4, 6], "sigma": [2.0], "f": 8,
    "seed": 2, "replicates": 2, "methods": ["bmcf", "tri"], "deltas": [0, 1],
}

# sha256 of the byte-reproducible experiment tables of EXPERIMENT_GRID
EXPERIMENT_GOLDEN = {
    "results.csv": "07eb9dd394daf7e1b74ca2485c973e7af42cef379df9abed3b88b41afea6215f",
    "aggregate.csv": "65675fe5b1f20406b2b82fe7f91be361338d8b4cee88f0218b520a0833d90753",
}


def test_experiment_tables_are_pinned(tmp_path):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(EXPERIMENT_GRID))
    out = tmp_path / "exp"
    assert main(["experiment", "--config", str(cfg), "--output", str(out), "--jobs", "1"]) == 0
    got = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in EXPERIMENT_GOLDEN
    }
    assert got == EXPERIMENT_GOLDEN


# scripts/output_digest.py's (outputs, dp_cells, bipartite) digests per workload
BENCH_SEED0_GOLDEN = {
    "long": (
        "06e9aaae7f535966c902adf7bf004b2bd86dae2fea9b01f8af5140e11779b4c2",
        "6b3b1c308017cbf734efcdc5bdcb360c18af38ce6824326e900a1a0eb5cf54a9",
        "24337467f92d2d69182f7b4f38070d572eae7f74f8aabdd744689176ca1fc193",
    ),
    "crowded": (
        "b0a612d82f5578e9df7a17516718b9a678c176560866d62d22dfdad3095f1b3d",
        "0dbf1b3cc7f7722c4ab2ea4db43136ca36ef591de6f8ed7116b34f9396cea537",
        "359a7733c06db42b3a30b6c06c8dee819b30470bb163c3b57c6bc58a44d2948a",
    ),
    "noisy": (
        "2f290f4611f1ba7c18363363ae554b091a932eb4a3b3f1631ae869b2e1dc4839",
        "bcd7687df5f09cbbf045811609b9046adb58778a0334bf45eb2f3d0ece12cef9",
        "e674751bf8716cb295db88982d36d9666eedb4fe3ea4cd537a4c3ffabc57388f",
    ),
}


def test_bench_seed0_digests():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "output_digest.py")],
        cwd=root, env=env, capture_output=True, text=True, timeout=600, check=False,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    got = {}
    for line in proc.stdout.splitlines():
        name, _, outputs, _, cells, _, bipartite = line.split()
        got[name] = (outputs, cells, bipartite)
    assert got == BENCH_SEED0_GOLDEN
