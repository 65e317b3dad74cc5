"""Evaluation of predicted associations against ground truth.

Path-level scores use the strictest notion of correctness: a predicted
track counts only when it equals a truth track detection for detection.
Pair and path identity are exact-equality indicators, and coverage asks
whether the truth matching vector lies inside a candidate space at all,
which upper-bounds what any solver over that space can achieve.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Sequence

from .core import (
    DISAPPEAR,
    CandidateSpace,
    FrameSequence,
    InvalidInputError,
    MatchingVector,
    TrajectorySet,
)

CSV_COLUMNS = (
    "prefix_frames",
    "pair_index",
    "pair_precision",
    "pair_recall",
    "pair_fbeta",
    "cumulative_precision",
    "cumulative_recall",
    "cumulative_fbeta",
    "pair_identity",
    "coverage",
)


def f_beta(precision: float, recall: float, beta: float = 1.0) -> float:
    """Weighted harmonic mean of precision and recall; 0 when both are 0."""
    if not (0.0 <= precision <= 1.0 and 0.0 <= recall <= 1.0):
        raise InvalidInputError("precision and recall must lie in [0, 1]")
    return _f_score(precision, recall, _beta_square(beta))


def _beta_square(beta: float) -> float:
    if not (math.isfinite(beta) and beta > 0):
        raise InvalidInputError("beta must be positive and finite")
    return beta * beta


def _f_score(precision: float, recall: float, b2: float) -> float:
    """f_beta's expression, given beta's square b2."""
    if math.isinf(b2):
        # the limit as beta grows: recall, unless precision is 0
        return recall if precision > 0 else 0.0
    den = b2 * precision + recall
    if den == 0.0:
        return 0.0
    return (1.0 + b2) * precision * recall / den


def _scores(
    counts: Sequence[tuple[int, int, int]], beta: float
) -> list[tuple[float, float, float]]:
    """Precision, recall and F score of each (correct, predicted, true)
    path count triple; an empty side scores 0. beta is checked once."""
    b2 = _beta_square(beta)
    out = []
    for correct, n_pred, n_truth in counts:
        precision = correct / n_pred if n_pred else 0.0
        recall = correct / n_truth if n_truth else 0.0
        out.append((precision, recall, _f_score(precision, recall, b2)))
    return out


def path_accuracy(
    pred: TrajectorySet, truth: TrajectorySet, beta: float = 1.0
) -> tuple[float, float, float]:
    """Whole-path precision, recall, and F score.

    A predicted path is correct iff some truth path equals it exactly.
    Empty sides contribute zero rates rather than errors.
    """
    correct = len(set(pred.tracks) & set(truth.tracks))
    return _scores([(correct, len(pred.tracks), len(truth.tracks))], beta)[0]


def _walk(
    seq: FrameSequence,
    pred_matchings: Sequence[MatchingVector],
    truth_matchings: Sequence[MatchingVector],
) -> tuple[list[tuple[int, int, int]], list[tuple[int, int, int]], list[int]]:
    """(correct, predicted, true) track counts of every pair and prefix,
    and each pair's identity indicator.

    One forward pass, O(f n), reading each pair's two entry tuples once.
    Pair k is the two-frame sub-video of frames k and k + 1: its track
    from detection i of frame k is correct iff both sides send i to the
    same place, and a detection of frame k + 1 that neither side claims
    is a correct one-detection track. Each side starts n_next - n +
    (its DISAPPEAR entries) new tracks at frame k + 1. Prefix counts run
    over k = 1..f frames: a predicted track is correct on a prefix iff
    the truth track holding its first detection starts at that same
    detection and the two first differ past the prefix.
    """
    f = len(seq)
    if len(pred_matchings) != f - 1 or len(truth_matchings) != f - 1:
        raise InvalidInputError("matching sequences inconsistent with the video length")
    counts = seq.counts
    n_pred = n_truth = correct = counts[0]
    prefixes = [(correct, n_pred, n_truth)]
    pairs = []
    identities = []
    # objects of frame k whose predicted track no longer equals its truth twin
    dead: set[int] = set()
    for k in range(f - 1):
        pm, tm = pred_matchings[k], truth_matchings[k]
        pred, truth = pm.entries, tm.entries
        n, n_next = counts[k], counts[k + 1]
        if not (len(pred) == len(truth) == n and pm.n_next == tm.n_next == n_next):
            raise InvalidInputError(f"matching {k} inconsistent with frame sizes")
        new_pred = n_next - n + pred.count(DISAPPEAR)
        if pred == truth:
            agree = n
            # the targets are distinct, so the detections no side claims
            # are the new tracks of either side
            n_fresh = new_truth = new_pred
            nxt = {pred[i] for i in dead}
        else:
            # detections no entry claims start a track on both sides
            claimed = {*pred, *truth}
            n_fresh = n_next - len(claimed) + (DISAPPEAR in claimed)
            new_truth = n_next - n + truth.count(DISAPPEAR)
            agree = 0
            nxt = set()
            for i, p in enumerate(pred):
                t = truth[i]
                if p == t:
                    agree += 1
                    if i in dead:
                        nxt.add(p)
                else:
                    if i not in dead:
                        correct -= 1  # they differ at frame k + 1
                    nxt.add(p)
                    nxt.add(t)
        nxt.discard(DISAPPEAR)
        dead = nxt
        correct += n_fresh
        n_pred += new_pred
        n_truth += new_truth
        pairs.append((agree + n_fresh, n + new_pred, n + new_truth))
        prefixes.append((correct, n_pred, n_truth))
        identities.append(int(agree == n))
    return pairs, prefixes, identities


def cumulative_path_accuracy(
    seq: FrameSequence,
    pred_matchings: Sequence[MatchingVector],
    truth_matchings: Sequence[MatchingVector],
    beta: float = 1.0,
) -> list[tuple[float, float, float]]:
    """path_accuracy of every prefix sub-video, k = 2..f frames.

    Early mistakes keep whole prefixes wrong, so the series exposes how
    association errors accumulate along the video. One forward pass,
    O(f n) (see _walk); oracle.reference_cumulative_path_accuracy
    rebuilds every prefix instead.
    """
    _, prefixes, _ = _walk(seq, pred_matchings, truth_matchings)
    return _scores(prefixes[1:], beta)


def improvement_ratio(f1_by_delta: Sequence[float]) -> list[float | None]:
    """R(delta) = (F1(delta+1) - F1(delta)) / (F1(delta) - F1(delta-1)).

    Entry i is R at delta = i + 1 for the given consecutive-delta F1
    series; a zero denominator yields None rather than a fabricated
    number.
    """
    vals = [float(v) for v in f1_by_delta]
    out: list[float | None] = []
    for i in range(1, len(vals) - 1):
        den = vals[i] - vals[i - 1]
        num = vals[i + 1] - vals[i]
        out.append(num / den if den != 0.0 else None)
    return out


@dataclass(frozen=True)
class EvalReport:
    """Per-pair and whole-video association quality.

    pair_accuracy[t] scores the two-frame sub-video of pair t;
    cumulative[i] scores the prefix of k = i + 2 frames. coverage is
    None when no candidate spaces were supplied.
    """

    beta: float
    pair_accuracy: tuple[tuple[float, float, float], ...]
    whole_precision: float
    whole_recall: float
    whole_fbeta: float
    cumulative: tuple[tuple[float, float, float], ...]
    pair_identity: tuple[int, ...]
    path_identity: int
    coverage: tuple[int, ...] | None = None


def evaluate(
    seq: FrameSequence,
    pred_matchings: Sequence[MatchingVector],
    truth_matchings: Sequence[MatchingVector],
    beta: float = 1.0,
    spaces: Sequence[CandidateSpace] | None = None,
) -> EvalReport:
    """Full report for one video given predicted and truth matchings.

    Every path score comes from the one forward walk of _walk: pair t
    from its step started fresh at frame t, the whole video from the
    last prefix. assemble_trajectories is a bijection, so the paths are
    identical iff every pair is, and a pair is identical iff its entries
    all agree (_walk has checked both sides' sizes).
    """
    pairs, prefixes, identities = _walk(seq, pred_matchings, truth_matchings)
    cov = None
    if spaces is not None:
        counts = seq.counts
        if len(spaces) != len(counts) - 1:
            raise InvalidInputError("need one candidate space per frame pair")
        cov = []
        # _walk has checked the truth's sizes, so _holds needs no size check
        for k, (tm, sp) in enumerate(zip(truth_matchings, spaces)):
            if sp.n_from != counts[k] or sp.n_next != counts[k + 1]:
                raise InvalidInputError(f"space {k} inconsistent with frame sizes")
            cov.append(int(sp._holds(tm.entries)))
        cov = tuple(cov)
    scores = _scores(pairs + prefixes, beta)
    cumulative = scores[len(pairs) :]
    wp, wr, wf = cumulative[-1]
    return EvalReport(
        beta=beta,
        pair_accuracy=tuple(scores[: len(pairs)]),
        whole_precision=wp,
        whole_recall=wr,
        whole_fbeta=wf,
        cumulative=tuple(cumulative[1:]),
        pair_identity=tuple(identities),
        path_identity=int(all(identities)),
        coverage=cov,
    )


def write_report_csv(report: EvalReport, path) -> None:
    """One row per prefix length k = 2..f, fixed column names."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for t in range(len(report.pair_accuracy)):
            pa = report.pair_accuracy[t]
            cu = report.cumulative[t]
            cov = "" if report.coverage is None else report.coverage[t]
            writer.writerow(
                [t + 2, t, repr(float(pa[0])), repr(float(pa[1])), repr(float(pa[2])),
                 repr(float(cu[0])), repr(float(cu[1])), repr(float(cu[2])),
                 report.pair_identity[t], cov]
            )


def write_report_json(report: EvalReport, path) -> None:
    """Whole-video summary next to the per-pair CSV; a mean over no frame
    pairs, or over coverage without candidate spaces, is null."""

    def mean(xs):
        return sum(xs) / len(xs) if xs else None

    data = {
        "beta": report.beta,
        "whole_path_precision": report.whole_precision,
        "whole_path_recall": report.whole_recall,
        "whole_path_fbeta": report.whole_fbeta,
        "path_identity": report.path_identity,
        "mean_pair_identity": mean(report.pair_identity),
        "mean_coverage": mean(report.coverage),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
