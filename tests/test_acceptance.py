"""End-to-end acceptance checks.

Each test prints one "ACCEPTANCE <n> PASS/FAIL" line so a log scan
shows all verdicts at once; run with -s (or read the captured output)
to see them. Criteria 3, 4, 5 and the first half of 9 share one batch
of twenty simulated videos. Criterion 10 runs crowded videos for
minutes and is marked slow.
"""

import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from velotrack import (
    DISAPPEAR,
    BipartiteConfig,
    MatchingVector,
    NoiseModel,
    SimConfig,
    TrackerConfig,
    build_reduced_space,
    estimate_sigma,
    evaluate,
    full_space_size,
    simulate,
    solve_bmcf,
    solve_bmcf_sequence,
    solve_dp,
    track,
    triple_log_likelihood,
)
from velotrack.core import FrameSequence
from velotrack.oracle import (
    enumerate_space,
    exhaustive_chain_argmax,
    incremental_triple_score,
    reference_solve_dp,
)

N_REPLICATES = 20
DELTAS = (0, 1, 2, 3)


def _verdict(n: int, ok: bool) -> None:
    print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {n} failed"


def _random_seq(rng, f, max_n):
    counts = rng.integers(0, max_n + 1, size=f)
    return FrameSequence(tuple(rng.normal(0.0, 2.0, size=(int(n), 2)) for n in counts))


@pytest.fixture(scope="module")
def desk_runs():
    """Twenty tracked replicates of the sparse regime (N0=15, sigma=1)."""
    runs = []
    for seed in range(N_REPLICATES):
        out = simulate(SimConfig(N0=15, sigma=1.0, f=50, seed=seed))
        seq = out.seq
        truth = list(out.matchings)
        _, bmcf_ms = solve_bmcf_sequence(seq)
        tri = {}
        for delta in DELTAS:
            res = track(seq, TrackerConfig(delta=delta))
            tri[delta] = evaluate(seq, res.matchings, truth, spaces=res.spaces)
        runs.append({"bmcf": evaluate(seq, bmcf_ms, truth), "tri": tri})
    return runs


def test_01_dp_equals_exhaustive_search():
    rng = np.random.default_rng(10)
    nm = NoiseModel.pooled(1.0, -3.0)
    ok = True
    for _ in range(50):
        seq = _random_seq(rng, f=int(rng.integers(2, 5)), max_n=3)
        spaces = [
            enumerate_space(seq.n_objects(k), seq.n_objects(k + 1))
            for k in range(len(seq) - 1)
        ]
        want_ms, want_score = exhaustive_chain_argmax(seq, nm, spaces)
        got_ms, got_score = solve_dp(seq, spaces, nm)
        if abs(got_score - want_score) > 1e-9 or got_ms != want_ms:
            ok = False
            break
    _verdict(1, ok)


def test_02_space_size_formula():
    ok = full_space_size(2, 2) == 7
    for n_k in range(6):
        for n_next in range(6):
            if full_space_size(n_k, n_next) != len(enumerate_space(n_k, n_next)):
                ok = False
    _verdict(2, ok)


def test_03_identity_sits_between_baseline_and_coverage(desk_runs):
    violations = 0
    for run in desk_runs:
        base_id = run["bmcf"].pair_identity
        for delta in DELTAS:
            rep = run["tri"][delta]
            for t in range(len(base_id)):
                if not base_id[t] <= rep.pair_identity[t] <= rep.coverage[t]:
                    violations += 1
    _verdict(3, violations == 0)


def test_04_coverage_monotone_in_delta(desk_runs):
    violations = 0
    for run in desk_runs:
        for lo, hi in zip(DELTAS, DELTAS[1:]):
            cov_lo = run["tri"][lo].coverage
            cov_hi = run["tri"][hi].coverage
            if any(a > b for a, b in zip(cov_lo, cov_hi)):
                violations += 1
    _verdict(4, violations == 0)


def test_05_sparse_regime_accuracy(desk_runs):
    def mean_f1(key):
        if key == "bmcf":
            return float(np.mean([r["bmcf"].whole_fbeta for r in desk_runs]))
        return float(np.mean([r["tri"][key].whole_fbeta for r in desk_runs]))

    cov3 = float(np.mean([np.mean(r["tri"][3].coverage) for r in desk_runs]))
    f1 = {k: mean_f1(k) for k in (3, 2, 0, "bmcf")}
    ok = cov3 >= 0.95
    tol = 0.02
    ok = ok and f1[3] >= f1[2] - tol
    ok = ok and f1[2] >= f1[0] - tol
    ok = ok and f1[0] >= f1["bmcf"] - tol
    _verdict(5, ok)


def _crossing_instance(rng):
    """Two constant-velocity paths crossing mid-interval.

    The crossing angle stays in [45, 135] degrees and both objects pass
    the crossing point between 35% and 65% of the first frame interval,
    which makes the nearest-position pairing swap the labels.
    """
    c = rng.uniform(-5.0, 5.0, size=2)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    psi = rng.uniform(math.radians(45.0), math.radians(135.0))
    if rng.random() < 0.5:
        psi = -psi
    speeds = rng.uniform(1.0, 3.0, size=2)
    taus = rng.uniform(0.35, 0.65, size=2)
    v = np.array(
        [
            speeds[0] * np.array([math.cos(phi), math.sin(phi)]),
            speeds[1] * np.array([math.cos(phi + psi), math.sin(phi + psi)]),
        ]
    )
    p0 = np.array([c - taus[0] * v[0], c - taus[1] * v[1]])
    return p0, v


def test_06_crossing_paths():
    rng = np.random.default_rng(60)
    swapped = 0
    recovered = 0
    trials = 100
    for _ in range(trials):
        p0, v = _crossing_instance(rng)
        # position model on the crossing pair, gate disabled
        m = solve_bmcf(p0, p0 + v, BipartiteConfig(gate_cost=math.inf))
        swapped += m.entries == (1, 0)
        # velocity model on three frames of the same motion; the extra
        # frame extends the paths backward so the crossing falls in the
        # middle interval, where velocity terms apply
        seq = FrameSequence((p0 - v, p0, p0 + v))
        res = track(seq, TrackerConfig(delta=1))
        recovered += all(mm.entries == (0, 1) for mm in res.matchings)
    _verdict(6, swapped == trials and recovered == trials)


def test_07_incremental_equals_full():
    rng = np.random.default_rng(70)
    nm = NoiseModel(sigmas=(1.0, 0.8, 1.2, 1.1), lambda_event=-2.5)
    ok = True
    checked = 0
    while checked < 1000:
        n_p, n_m, n_n = (int(x) for x in rng.integers(0, 4, size=3))
        if n_m < 2:
            continue
        p = rng.normal(size=(n_p, 2))
        mid = rng.normal(size=(n_m, 2))
        nxt = rng.normal(size=(n_n, 2))
        sp_prev = enumerate_space(n_p, n_m)
        sp_next = enumerate_space(n_m, n_n)
        m01 = sp_prev.vector_at(int(rng.integers(len(sp_prev))))
        base = sp_next.vector_at(int(rng.integers(len(sp_next))))
        base_score = triple_log_likelihood(p, mid, nxt, m01, base, nm, pair_index=1)
        i, j = sorted(int(x) for x in rng.choice(n_m, size=2, replace=False))
        entries = list(base.entries)
        entries[i], entries[j] = entries[j], entries[i]
        swapped = MatchingVector(tuple(entries), n_next=n_n)
        got = incremental_triple_score(
            p, mid, nxt, m01, base, base_score, (i, j), nm, pair_index=1
        )
        want = triple_log_likelihood(p, mid, nxt, m01, swapped, nm, pair_index=1)
        if abs(got - want) > 1e-9:
            ok = False
            break
        checked += 1

    # the two stage-evaluation strategies must agree inside the solver too
    for trial in range(10):
        counts = rng.integers(1, 5, size=4)
        seq = FrameSequence(tuple(rng.normal(0.0, 3.0, size=(int(n), 2)) for n in counts))
        spaces = [
            build_reduced_space(
                seq.frames[k],
                seq.frames[k + 1],
                max(0, seq.n_objects(k) - seq.n_objects(k + 1)),
                delta=1,
            )
            for k in range(3)
        ]
        if reference_solve_dp(seq, spaces, nm, incremental=True) != reference_solve_dp(
            seq, spaces, nm
        ):
            ok = False
    _verdict(7, ok)


def test_08_sigma_scale_invariance():
    rng = np.random.default_rng(80)
    ok = True
    for _ in range(20):
        counts = rng.integers(1, 5, size=4)
        seq = FrameSequence(tuple(rng.normal(0.0, 3.0, size=(int(n), 2)) for n in counts))
        spaces = [
            build_reduced_space(
                seq.frames[k],
                seq.frames[k + 1],
                max(0, seq.n_objects(k) - seq.n_objects(k + 1)),
                delta=0,  # one disappearance count per pair
            )
            for k in range(3)
        ]
        base, _ = solve_dp(seq, spaces, NoiseModel.pooled(1.0, -4.0))
        for c in (0.1, 10.0):
            scaled, _ = solve_dp(seq, spaces, NoiseModel.pooled(c, -4.0))
            if scaled != base:
                ok = False
    _verdict(8, ok)


def test_09_sigma_estimation_sanity():
    # pooled estimate against the generator's sigma, true matchings
    ok = True
    for seed in range(N_REPLICATES):
        out = simulate(SimConfig(N0=15, sigma=1.0, f=50, seed=seed))
        est = estimate_sigma(out.seq, out.matchings, mode="pooled")
        if not 0.9 <= est.pooled / 1.0 <= 1.1:
            ok = False

    # per-pair estimates on baseline matchings drift upward in crowded videos
    series = []
    for seed in range(3):
        out = simulate(SimConfig(N0=50, sigma=1.0, f=50, seed=100 + seed))
        seq = out.seq
        _, ms = solve_bmcf_sequence(seq)
        series.append(estimate_sigma(seq, ms, mode="per-frame").sigmas)
    mean_series = np.mean(series, axis=0)
    # pair 0 inherits the pooled value rather than measuring anything
    ks = np.arange(1, len(mean_series))
    rho = scipy_stats.spearmanr(ks, mean_series[1:]).statistic
    ok = ok and rho >= 0.0
    _verdict(9, ok)


@pytest.mark.slow
def test_10_evaluation_count_ratios():
    totals = {1: 0, 2: 0, 3: 0}
    for seed in range(3):
        out = simulate(SimConfig(N0=50, sigma=1.0, f=25, seed=seed))
        for delta in (1, 2, 3):
            res = track(out.seq, TrackerConfig(delta=delta))
            totals[delta] += res.diagnostics.eval_count
    r21 = totals[2] / totals[1]
    r32 = totals[3] / totals[2]
    ok = 2.0 <= r21 <= 3.5 and 1.4 <= r32 <= 2.3
    _verdict(10, ok)
