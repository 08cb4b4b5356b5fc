import json
import math
import tracemalloc

import numpy as np
import pytest
from helpers import brute_force_gain, brute_force_tail, dp_tail
from hypothesis import given, settings
from hypothesis import strategies as st

from fluiddem import (
    GainReport,
    direct_tail,
    exact_gain,
    monte_carlo_gain,
    substream,
    weighted_poisson_binomial_tail,
)
from fluiddem.delegation_graph import NO_EDGE, DelegationGraph, compute_weights, sample_instance
from fluiddem.distributions import Uniform
from fluiddem.mechanisms import ConfidenceBased, LinearQ
from fluiddem.tally import BLOCK, MAX_TOTAL_WEIGHT, MC_CHUNK, K, _block_pmfs, _window, hoeffding_halfwidth


def graph_of(*out):
    return DelegationGraph(len(out), np.array(out, dtype=np.int64))


def test_weighted_tail_examples():
    assert weighted_poisson_binomial_tail([1, 1, 1], [0.5, 0.5, 0.5], 1.5) == pytest.approx(0.5)
    assert weighted_poisson_binomial_tail([3], [0.7], 1.5) == pytest.approx(0.7)
    assert weighted_poisson_binomial_tail([0, 0], [0.3, 0.9], 1.0) == 0.0


def test_direct_tail_examples():
    assert direct_tail([1.0, 1.0, 1.0]) == pytest.approx(1.0)
    assert direct_tail([0.5, 0.5, 0.5]) == pytest.approx(0.5)
    assert direct_tail([0.6, 0.6, 0.6]) == pytest.approx(0.648)


def test_brute_force_examples():
    assert brute_force_tail([1], [0.3], 0.5) == pytest.approx(0.3)
    assert brute_force_tail([2, 1], [0.5, 0.5], 1.5) == pytest.approx(0.5)


def test_brute_force_rejects_large_n():
    with pytest.raises(ValueError):
        brute_force_tail([1] * 21, [0.5] * 21, 5.0)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_dp_matches_brute_force(data):
    n = data.draw(st.integers(1, 10))
    weights = data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    probs = data.draw(
        st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=n, max_size=n)
    )
    threshold = data.draw(st.floats(-1.0, float(sum(weights)) + 1.0, allow_nan=False))
    dp = weighted_poisson_binomial_tail(weights, probs, threshold)
    bf = brute_force_tail(weights, probs, threshold)
    assert abs(dp - bf) <= 1e-12


def test_block_pmfs_match_chained_convolve():
    rng = substream(19)
    leaves = rng.random((BLOCK, 40))
    leaves[rng.random(leaves.shape) < 0.2] = 0.0  # the padding leaves of a short group
    leaves[:, 0] = 0.0
    leaves[:, 1] = 1.0
    pmfs = _block_pmfs(leaves)
    assert pmfs.shape == (BLOCK + 1, 40)
    for block, pmf in zip(leaves.T, pmfs.T):
        want = np.ones(1)
        for p in block:
            want = np.convolve(want, [1.0 - p, p])
        np.testing.assert_allclose(pmf, want, rtol=0.0, atol=1e-15)
    assert np.array_equal(pmfs[:, 0], np.eye(BLOCK + 1)[0])
    assert np.array_equal(pmfs[:, 1], np.eye(BLOCK + 1)[-1])


@pytest.mark.parametrize(
    "n",
    # the direct tail's one weight group of 1, K, K + 1 and K^2 + 1 blocks among them
    [1, BLOCK - 1, BLOCK, 2 * BLOCK + 1, K * BLOCK, K * BLOCK + 1, K * K * BLOCK + 1, 1000, 20_000],
)
def test_fft_tail_matches_dp(n):
    rng = substream(7, n)
    for kind in ("geometric", "degenerate", "near_one", "near_zero", "heavy", "zero", "distinct"):
        p = rng.random(n)
        w = rng.geometric(0.5, size=n) - 1
        if kind == "degenerate":
            p[rng.random(n) < 0.2] = 0.0
            p[rng.random(n) < 0.2] = 1.0
        elif kind == "near_one":  # large top coefficients at every tree level
            p = 1.0 - 0.01 * p
        elif kind == "near_zero":  # a long tail made of FFT round-off
            p = 0.01 * p
        elif kind == "heavy":  # few roots hold all the weight
            w = np.zeros(n, dtype=np.int64)
            w[rng.integers(0, n, size=3)] = n // 3 + 1
        elif kind == "zero":
            w = np.zeros(n, dtype=np.int64)
        elif kind == "distinct":  # more than K weight groups of one or two voters
            w = np.zeros(n, dtype=np.int64)
            w[rng.integers(0, n, size=40)] = rng.integers(1, n // 20 + 2, size=40)
        thresholds = (n / 2.0, float(w @ p), float(rng.integers(-1, w.sum() + 2)))
        for threshold in thresholds:
            fft = weighted_poisson_binomial_tail(w, p, threshold)
            assert abs(fft - dp_tail(w, p, threshold)) <= 1e-12
    direct = direct_tail(p)
    assert direct == weighted_poisson_binomial_tail(np.ones(n, dtype=np.int64), p, n / 2.0)
    assert abs(direct - dp_tail(np.ones(n, dtype=np.int64), p, n / 2.0)) <= 1e-12


def test_fft_tail_matches_dp_on_a_confidence_graph():
    # n = 50,000, above the largest size of the random instances above
    n = 50_000
    p, graph = sample_instance(ConfidenceBased(LinearQ(0.8, 0.8)), Uniform(0.0, 1.0), n, substream(7, n))
    w = compute_weights(graph).weight
    # n/2 is the gain's threshold (a tail near 1 here); w @ p cuts the pmf's bulk
    for threshold in (n / 2.0, float(w @ p)):
        assert abs(weighted_poisson_binomial_tail(w, p, threshold) - dp_tail(w, p, threshold)) <= 1e-12


@pytest.mark.parametrize("n", [2_000, 50_000])
def test_windowed_tail_matches_dp_where_the_window_is_narrow(n):
    # every p_i within 0.01 of 0 or 1: the pmf is far narrower than the Hoeffding window
    rng = substream(23, n)
    u = 0.01 * rng.random(n)
    p = np.where(rng.random(n) < 0.5, u, 1.0 - u)
    # one dynamic program per weight profile: a threshold in the lower tail, one in the upper
    for w, z in ((np.ones(n, dtype=np.int64), -2.0), (rng.geometric(0.5, size=n), 1.0)):
        threshold = float(w @ p) + z * math.sqrt(float(w**2 @ (p * (1.0 - p))))
        assert abs(weighted_poisson_binomial_tail(w, p, threshold) - dp_tail(w, p, threshold)) <= 1e-12


def test_thresholds_outside_the_final_window_give_exact_zero_and_one():
    n = 5_000
    rng = substream(29)
    p = rng.random(n)
    w = rng.geometric(0.5, size=n)
    lo, hi = map(int, _window(float(w @ p), float(w @ w), 0, int(w.sum())))
    assert 0 < lo < hi < w.sum()
    assert weighted_poisson_binomial_tail(w, p, hi) == 0.0
    assert weighted_poisson_binomial_tail(w, p, lo - 1) == 1.0
    assert dp_tail(w, p, hi) <= 1e-15
    assert dp_tail(w, p, lo - 1) >= 1.0 - 1e-15


def test_tail_threshold_extremes():
    rng = substream(0)
    for _ in range(50):
        n = int(rng.integers(1, 15))
        w = rng.integers(0, 5, size=n)
        p = rng.random(n)
        assert weighted_poisson_binomial_tail(w, p, float(w.sum())) == 0.0
        assert weighted_poisson_binomial_tail(w, p, -0.5) == 1.0


def test_tail_monotone_in_competence():
    rng = substream(1)
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        w = rng.integers(0, 4, size=n)
        p = rng.random(n)
        thr = float(rng.random() * max(w.sum(), 1))
        i = int(rng.integers(0, n))
        bumped = p.copy()
        bumped[i] = min(1.0, p[i] + rng.random() * (1.0 - p[i]))
        assert (
            weighted_poisson_binomial_tail(w, bumped, thr)
            >= weighted_poisson_binomial_tail(w, p, thr) - 1e-12
        )
        assert direct_tail(bumped) >= direct_tail(p) - 1e-12


def test_tail_input_validation():
    with pytest.raises(ValueError):
        weighted_poisson_binomial_tail([1, 2], [0.5], 0.5)
    with pytest.raises(ValueError):
        weighted_poisson_binomial_tail([-1], [0.5], 0.5)
    with pytest.raises(ValueError):
        weighted_poisson_binomial_tail([1.5], [0.5], 0.5)
    with pytest.raises(ValueError):
        weighted_poisson_binomial_tail([1], [1.5], 0.5)
    with pytest.raises(ValueError):
        weighted_poisson_binomial_tail([1, 1, 1], [np.nan, 0.6, 0.6], 1.5)
    with pytest.raises(ValueError):
        direct_tail([np.nan, 0.6, 0.6])
    with pytest.raises(ValueError):
        weighted_poisson_binomial_tail([200_000_000], [0.5], 0.5)


def test_direct_tail_peak_memory():
    # about 57 bytes per voter of traced allocations at n = 2e5 (10.9 MiB), all before the
    # first product stage, whose own peak is about 50.5; a stage holding one more n-word
    # array (8 bytes per voter) breaks the bound
    n = 200_000
    p = substream(31, n).random(n)
    tracemalloc.start()
    try:
        direct_tail(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 58 * n


def test_exact_gain_no_edges_is_zero():
    rng = substream(2)
    p = rng.random(12)
    graph = graph_of(*([NO_EDGE] * 12))
    report = exact_gain(p, graph)
    assert report.gain == 0.0
    assert report.method == "exact"


def test_exact_gain_cycle_nullifies_perfect_voters():
    report = exact_gain([1.0, 1.0], graph_of(1, 0))
    assert report.p_fluid == 0.0
    assert report.p_direct == 1.0
    assert report.gain == -1.0


def test_exact_gain_star_example():
    # voters 0, 1 delegate to 2: weight profile (0, 0, 3)
    p = [0.1, 0.1, 0.9]
    report = exact_gain(p, graph_of(2, 2, NO_EDGE))
    assert report.p_fluid == pytest.approx(0.9, abs=1e-12)
    assert report.p_direct == pytest.approx(0.172, abs=1e-12)
    assert report.gain == pytest.approx(0.728, abs=1e-12)
    oracle = brute_force_gain(p, graph_of(2, 2, NO_EDGE))
    assert report.p_direct == pytest.approx(oracle.p_direct, abs=1e-12)
    assert report.p_fluid == pytest.approx(oracle.p_fluid, abs=1e-12)


def test_total_weight_above_the_limit_raises():
    with pytest.raises(ValueError, match="total weight"):
        weighted_poisson_binomial_tail([MAX_TOTAL_WEIGHT + 1], [0.5], 0.5)
    with pytest.raises(ValueError, match="total weight"):
        exact_gain([0.5], graph_of(NO_EDGE), weights=[MAX_TOTAL_WEIGHT + 1])
    # at the limit the tail runs; p = 1 makes the weight a shift, so no pmf is built
    assert weighted_poisson_binomial_tail([MAX_TOTAL_WEIGHT], [1.0], MAX_TOTAL_WEIGHT - 0.5) == 1.0


def test_monte_carlo_trivial_instance():
    rng = substream(3)
    n = 40
    p = rng.random(n)
    graph = graph_of(*([NO_EDGE] * n))
    report = monte_carlo_gain(p, graph, reps=100_000, delta=0.01, rng=rng)
    assert abs(report.gain - 0.0) <= 2 * report.ci_halfwidth
    assert report.method == "monte_carlo"
    assert report.reps == 100_000


def test_monte_carlo_matches_exact_on_star():
    rng = substream(4)
    p = [0.1, 0.1, 0.9]
    graph = graph_of(2, 2, NO_EDGE)
    exact = exact_gain(p, graph)
    mc = monte_carlo_gain(p, graph, reps=1_000_000, delta=0.01, rng=rng)
    assert abs(mc.gain - exact.gain) <= 2 * mc.ci_halfwidth


def test_monte_carlo_chunks_draw_the_votes_of_one_chunk():
    # 1,000 reps at n = 3,000 take three chunks and a part; half the voters
    # delegate to random direct voters, so both probabilities are far from 0 and 1
    n, reps = 3_000, 1_000
    assert reps > 3 * (MC_CHUNK // n)
    rng = substream(7)
    p = rng.random(n)
    graph = DelegationGraph(n, np.where(np.arange(n) % 2 == 1, 2 * rng.integers(0, n // 2, n), NO_EDGE))
    report = monte_carlo_gain(p, graph, reps, 0.05, substream(8))
    votes = substream(8).random((reps, n)) < p
    weight = compute_weights(graph).weight.astype(float)
    assert report.p_direct == np.count_nonzero(votes.sum(axis=1) > n / 2) / reps
    assert report.p_fluid == np.count_nonzero(votes @ weight > n / 2) / reps
    assert 0.1 < report.p_direct < 0.9 and 0.1 < report.p_fluid < 0.9


def test_monte_carlo_memory_is_one_chunk():
    # a chunk's uniforms, then its votes cast to float: 8 MB each; 66 MB when a
    # chunk held 8,000,000 uniforms
    n = 10_000
    p = substream(9).random(n)
    tracemalloc.start()
    try:
        monte_carlo_gain(p, graph_of(*([NO_EDGE] * n)), 738, 0.05, substream(10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * MC_CHUNK


def test_monte_carlo_ci_formula():
    rng = substream(5)
    report = monte_carlo_gain([0.5], graph_of(NO_EDGE), reps=1, delta=0.01, rng=rng)
    assert report.ci_halfwidth == pytest.approx(math.sqrt(math.log(2.0 / 0.01) / 2.0))
    assert hoeffding_halfwidth(100, 0.05) == pytest.approx(math.sqrt(math.log(40.0) / 200.0))


def test_monte_carlo_validation():
    with pytest.raises(ValueError):
        monte_carlo_gain([0.5], graph_of(NO_EDGE), reps=0, delta=0.01, rng=substream(6))
    with pytest.raises(ValueError):
        monte_carlo_gain([0.5], graph_of(NO_EDGE), reps=10, delta=1.5, rng=substream(6))
    for bad in (np.nan, 1.5, -0.5):
        with pytest.raises(ValueError):
            monte_carlo_gain([bad], graph_of(NO_EDGE), reps=10, delta=0.01, rng=substream(6))


def test_gain_report_json():
    report = GainReport(p_direct=0.25, p_fluid=0.75, gain=0.5, method="exact")
    payload = json.loads(report.to_json())
    assert payload == {"p_direct": 0.25, "p_fluid": 0.75, "gain": 0.5, "method": "exact"}
    mc = GainReport(0.2, 0.3, 0.1, "monte_carlo", ci_halfwidth=0.01, reps=500)
    payload = json.loads(mc.to_json())
    assert payload["ci_halfwidth"] == 0.01
    assert payload["reps"] == 500
