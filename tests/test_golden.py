"""Pinned track() outputs of six small fixed-seed videos.

The values were recorded before the per-pair set-up was batched over
whole videos; track() must keep returning them bit for bit. Each video
pins the sha256 prefix of its matchings, the chain score in float.hex
form and the per-pair sigmas in float.hex form.
"""

import hashlib

import numpy as np
import pytest

from velotrack import FrameSequence, SimConfig, simulate, track

CLOSED = dict(W=300.0, H=240.0, w=300.0, h=240.0)
OPEN = dict(W=420.0, H=336.0, w=300.0, h=240.0)


def _with_empty_frame():
    seq = simulate(SimConfig(W=360.0, H=288.0, w=300.0, h=240.0, N0=6, f=8, seed=16)).seq
    frames = list(seq.frames)
    frames[4] = np.empty((0, 2))
    return FrameSequence(tuple(frames), dt=seq.dt)


VIDEOS = {
    "closed_sigma1": lambda: simulate(SimConfig(**CLOSED, N0=10, sigma=1.0, f=6, seed=11)).seq,
    "closed_sigma6": lambda: simulate(SimConfig(**CLOSED, N0=10, sigma=6.0, f=8, seed=12)).seq,
    "closed_sigma6_n16": lambda: simulate(SimConfig(**CLOSED, N0=16, sigma=6.0, f=5, seed=13)).seq,
    "open_events": lambda: simulate(SimConfig(**OPEN, N0=8, sigma=2.0, f=14, seed=23)).seq,
    "open_events_late": lambda: simulate(SimConfig(**OPEN, N0=8, sigma=2.0, f=14, seed=27)).seq,
    "empty_frame": _with_empty_frame,
}

GOLDEN = {
    "closed_sigma1": ('36c13ac5b7d86e3d', '-0x1.15fec0929d589p+7', ('0x1.018a67c01ba42p+0', '0x1.e3b4dc1979801p-1', '0x1.9b08bbbd7b73ap-1', '0x1.1a87de486a654p+0', '0x1.23207c27011dep+0')),
    "closed_sigma6": ('7a2ae21e16464126', '-0x1.c3c18b3d7a3c2p+8', ('0x1.a9f555efa43d0p+2', '0x1.897e92cfdd39ap+2', '0x1.8da1b34c2f259p+2', '0x1.4cc48e72c879fp+2', '0x1.c7a418576d71cp+2', '0x1.c67d6b10580dap+2', '0x1.f4ca18a68e8c6p+2')),
    "closed_sigma6_n16": ('5d464f19b48c39c2', '-0x1.9a316a7675f38p+8', ('0x1.962336472e53cp+2', '0x1.894f66f8e3af1p+2', '0x1.a50dbdc505578p+2', '0x1.93906d36b38a6p+2')),
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
