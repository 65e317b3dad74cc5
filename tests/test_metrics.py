"""Association-quality metrics and report writers."""

import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from velotrack import (
    DISAPPEAR,
    CandidateSpace,
    EvalReport,
    FrameSequence,
    InvalidInputError,
    MatchingVector,
    TrackerConfig,
    assemble_trajectories,
    cumulative_path_accuracy,
    evaluate,
    f_beta,
    improvement_ratio,
    path_accuracy,
    track,
    write_report_csv,
    write_report_json,
)
from velotrack.metrics import CSV_COLUMNS
from velotrack.oracle import reference_cumulative_path_accuracy


class TestFBeta:
    def test_balanced(self):
        assert f_beta(0.5, 1.0) == pytest.approx(2 * 0.5 / 1.5)
        assert f_beta(1.0, 1.0) == 1.0

    def test_recall_weighted(self):
        # beta=2 weighs recall four times as much
        assert f_beta(0.5, 1.0, beta=2.0) == pytest.approx(5 * 0.5 / (4 * 0.5 + 1.0))

    def test_zero_denominator_gives_zero(self):
        assert f_beta(0.0, 0.0) == 0.0

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            f_beta(1.5, 0.5)
        for beta in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(InvalidInputError):
                f_beta(0.5, 0.5, beta=beta)

    def test_beta_whose_square_overflows_gives_the_limit(self):
        # beta**2 is inf: F tends to recall, or 0 when precision is 0
        assert f_beta(0.5, 0.25, beta=1e200) == 0.25
        assert f_beta(0.0, 0.25, beta=1e200) == 0.0
        assert f_beta(0.5, 0.0, beta=1e200) == 0.0
        # a finite square keeps the closed form
        assert f_beta(0.5, 0.25, beta=1e150) == (1.0 + 1e300) * 0.5 * 0.25 / (1e300 * 0.5 + 0.25)

    def test_beta_swap_symmetry(self):
        assert f_beta(0.3, 0.8, beta=2.0) == pytest.approx(f_beta(0.8, 0.3, beta=0.5))


def two_object_seq(f=3):
    frames = tuple(
        np.array([[float(k), 0.0], [float(k), 5.0]]) for k in range(f)
    )
    return FrameSequence(frames)


class TestPathAccuracy:
    def test_exact_paths_only(self):
        seq = two_object_seq()
        truth = [MatchingVector((0, 1), n_next=2)] * 2
        # swap the labels at the second step: both predicted paths are wrong
        pred = [MatchingVector((0, 1), n_next=2), MatchingVector((1, 0), n_next=2)]
        t_truth = assemble_trajectories(seq, truth)
        t_pred = assemble_trajectories(seq, pred)
        p, r, f1 = path_accuracy(t_pred, t_truth)
        assert (p, r, f1) == (0.0, 0.0, 0.0)

    def test_partial_credit_by_path(self):
        seq = two_object_seq()
        truth = assemble_trajectories(seq, [MatchingVector((0, 1), n_next=2)] * 2)
        pred = assemble_trajectories(
            seq,
            [MatchingVector((0, DISAPPEAR), n_next=2), MatchingVector((0, 1), n_next=2)],
        )
        p, r, f1 = path_accuracy(pred, truth)
        # object 0's full path is right; the split path of object 1 is not
        assert r == pytest.approx(0.5)
        assert p == pytest.approx(1.0 / 3.0)
        assert f1 == pytest.approx(2 * p * r / (p + r))

    def test_empty_sides(self):
        seq = two_object_seq(2)
        t = assemble_trajectories(seq, [MatchingVector((0, 1), n_next=2)])
        empty_seq = FrameSequence((np.empty((0, 2)), np.empty((0, 2))))
        empty = assemble_trajectories(empty_seq, [MatchingVector((), n_next=0)])
        assert path_accuracy(empty, t) == (0.0, 0.0, 0.0)


def test_identity_indicators():
    a = MatchingVector((0, 1), n_next=2)
    b = MatchingVector((1, 0), n_next=2)
    seq = two_object_seq()
    assert evaluate(seq, [a, a], [a, a]).pair_identity == (1, 1)
    assert evaluate(seq, [a, b], [a, a]).pair_identity == (1, 0)
    assert evaluate(seq, [a, a], [a, a]).path_identity == 1
    assert evaluate(seq, [a, b], [a, a]).path_identity == 0
    assert evaluate(FrameSequence(seq.frames[:1]), [], []).path_identity == 1


def test_coverage_indicator():
    sp = CandidateSpace.build(np.array([[0, 1], [1, 0]]), n_next=2)
    seq = two_object_seq(2)
    pred = [MatchingVector((0, 1), n_next=2)]
    assert evaluate(seq, pred, pred, spaces=[sp]).coverage == (1,)
    truth = [MatchingVector((0, DISAPPEAR), n_next=2)]
    assert evaluate(seq, pred, truth, spaces=[sp]).coverage == (0,)


def test_improvement_ratio():
    got = improvement_ratio([0.2, 0.5, 0.6, 0.6])
    assert got[0] == pytest.approx((0.6 - 0.5) / (0.5 - 0.2))
    assert got[1] == 0.0
    # a flat step in the denominator yields None, not a fabricated number
    assert improvement_ratio([0.2, 0.2, 0.5]) == [None]
    assert improvement_ratio([0.1, 0.2]) == []


class TestEvaluate:
    def evaluate_swapped_tail(self):
        seq = two_object_seq(4)
        truth = [MatchingVector((0, 1), n_next=2)] * 3
        pred = list(truth)
        pred[2] = MatchingVector((1, 0), n_next=2)
        return seq, pred, truth

    def test_per_pair_and_whole(self):
        seq, pred, truth = self.evaluate_swapped_tail()
        rep = evaluate(seq, pred, truth)
        assert rep.pair_identity == (1, 1, 0)
        assert [pa[2] for pa in rep.pair_accuracy] == [1.0, 1.0, 0.0]
        assert rep.whole_fbeta == 0.0
        assert rep.path_identity == 0
        # prefixes of 2 and 3 frames are still perfect
        assert [c[2] for c in rep.cumulative] == [1.0, 1.0, 0.0]
        assert rep.coverage is None

    def test_coverage_with_spaces(self):
        seq, pred, truth = self.evaluate_swapped_tail()
        full = CandidateSpace.build(
            np.array([[0, 1], [1, 0], [DISAPPEAR, DISAPPEAR]]), n_next=2
        )
        only_id = CandidateSpace.build(np.array([[0, 1]]), n_next=2)
        rep = evaluate(seq, pred, truth, spaces=[full, only_id, only_id])
        assert rep.coverage == (1, 1, 1)
        swapped_truth = [truth[0], MatchingVector((1, 0), n_next=2), truth[2]]
        rep = evaluate(seq, pred, swapped_truth, spaces=[full, only_id, only_id])
        assert rep.coverage == (1, 0, 1)

    def test_length_validation(self):
        seq, pred, truth = self.evaluate_swapped_tail()
        with pytest.raises(InvalidInputError):
            evaluate(seq, pred[:2], truth)
        with pytest.raises(InvalidInputError):
            evaluate(seq, pred, truth, spaces=[])

    def test_spaces_must_fit_their_frame_pairs(self):
        # frame counts (2, 1, 3): track()'s two spaces in reverse order
        seq = FrameSequence(
            (np.zeros((2, 2)), np.ones((1, 2)), np.arange(6.0).reshape(3, 2))
        )
        truth = [MatchingVector((0, DISAPPEAR), n_next=1), MatchingVector((1,), n_next=3)]
        spaces = track(seq, TrackerConfig(delta=1, sigma_mode="fixed:1")).spaces
        assert evaluate(seq, truth, truth, spaces=spaces).coverage is not None
        with pytest.raises(InvalidInputError, match="space 0 inconsistent with frame sizes"):
            evaluate(seq, truth, truth, spaces=spaces[::-1])


class TestWriters:
    def make_report(self):
        seq, pred, truth = TestEvaluate().evaluate_swapped_tail()
        return evaluate(seq, pred, truth)

    def test_csv_layout(self, tmp_path):
        rep = self.make_report()
        p = tmp_path / "report.csv"
        write_report_csv(rep, p)
        with open(p, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == list(CSV_COLUMNS)
        assert [r["prefix_frames"] for r in rows] == ["2", "3", "4"]
        assert rows[2]["pair_identity"] == "0"
        assert rows[0]["coverage"] == ""  # no spaces supplied
        assert float(rows[1]["cumulative_fbeta"]) == 1.0

    def test_json_summary(self, tmp_path):
        rep = self.make_report()
        p = tmp_path / "report.json"
        write_report_json(rep, p)
        data = json.loads(p.read_text())
        assert data["whole_path_fbeta"] == 0.0
        assert data["mean_pair_identity"] == pytest.approx(2.0 / 3.0)
        assert data["path_identity"] == 0
        assert data["mean_coverage"] is None


def test_cumulative_prefix_lengths():
    seq = two_object_seq(5)
    ms = [MatchingVector((0, 1), n_next=2)] * 4
    cum = cumulative_path_accuracy(seq, ms, ms)
    assert len(cum) == 4
    assert all(c == (1.0, 1.0, 1.0) for c in cum)


@st.composite
def matching_pair(draw, n_a, n_b):
    """A random matching vector, and either itself or another for truth."""

    def vector():
        # injective targets: slots past n_b mean DISAPPEAR
        slots = draw(st.permutations(range(n_a + n_b)))
        return MatchingVector(
            tuple(t if t < n_b else DISAPPEAR for t in slots[:n_a]), n_next=n_b
        )

    pred = vector()
    return pred, pred if draw(st.booleans()) else vector()


@given(data=st.data())
def test_cumulative_path_accuracy_matches_prefix_rebuild(data):
    counts = data.draw(st.lists(st.integers(0, 4), min_size=2, max_size=8))
    seq = FrameSequence(tuple(np.zeros((n, 2)) for n in counts))
    pairs = [data.draw(matching_pair(a, b)) for a, b in zip(counts, counts[1:])]
    pred = [p for p, _ in pairs]
    truth = [t for _, t in pairs]
    beta = data.draw(st.sampled_from([1.0, 0.5, 2.0]))
    got = cumulative_path_accuracy(seq, pred, truth, beta)
    assert got == reference_cumulative_path_accuracy(seq, pred, truth, beta)


def test_cumulative_rejects_inconsistent_matchings():
    seq = two_object_seq(3)
    ms = [MatchingVector((0, 1), n_next=2), MatchingVector((0,), n_next=2)]
    with pytest.raises(InvalidInputError):
        cumulative_path_accuracy(seq, ms, ms)


@given(data=st.data())
def test_evaluate_matches_rebuild_from_public_pieces(data):
    counts = data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=8))
    seq = FrameSequence(tuple(np.zeros((n, 2)) for n in counts))
    pairs = [data.draw(matching_pair(a, b)) for a, b in zip(counts, counts[1:])]
    pred = [p for p, _ in pairs]
    truth = [t for _, t in pairs]
    beta = data.draw(st.sampled_from([1.0, 0.5, 2.0]))
    spaces = None
    if data.draw(st.booleans()):
        # each space holds the prediction and one more draw, when they differ
        spaces = []
        for p in pred:
            rows = sorted({p.entries, data.draw(matching_pair(len(p), p.n_next))[1].entries})
            mat = np.array(rows, dtype=np.int64).reshape(len(rows), len(p))
            spaces.append(CandidateSpace.build(mat, n_next=p.n_next))
    pair_acc = []
    for t in range(len(seq) - 1):
        sub = FrameSequence(seq.frames[t : t + 2])
        pair_acc.append(
            path_accuracy(
                assemble_trajectories(sub, [pred[t]]), assemble_trajectories(sub, [truth[t]]), beta
            )
        )
    whole_pred = assemble_trajectories(seq, pred)
    whole_truth = assemble_trajectories(seq, truth)
    whole = path_accuracy(whole_pred, whole_truth, beta)
    expected = EvalReport(
        beta=beta,
        pair_accuracy=tuple(pair_acc),
        whole_precision=whole[0],
        whole_recall=whole[1],
        whole_fbeta=whole[2],
        cumulative=tuple(cumulative_path_accuracy(seq, pred, truth, beta)),
        pair_identity=tuple(int(p == t) for p, t in zip(pred, truth)),
        path_identity=int(whole_pred == whole_truth),
        coverage=None if spaces is None else tuple(int(t in sp) for sp, t in zip(spaces, truth)),
    )
    assert evaluate(seq, pred, truth, beta, spaces) == expected
