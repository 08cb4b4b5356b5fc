import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluiddem import (
    GainReport,
    brute_force_gain,
    brute_force_tail,
    direct_tail,
    exact_gain,
    monte_carlo_gain,
    substream,
    weighted_poisson_binomial_tail,
)
from fluiddem.delegation_graph import NO_EDGE, DelegationGraph
from fluiddem.tally import DIRECT_PRODUCT_MAX_LEN, dp_tail, hoeffding_halfwidth


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


@pytest.mark.parametrize(
    "n",
    [1, DIRECT_PRODUCT_MAX_LEN - 1, DIRECT_PRODUCT_MAX_LEN, 2 * DIRECT_PRODUCT_MAX_LEN + 1, 1000, 20_000],
)
def test_fft_tail_matches_dp(n):
    rng = substream(7, n)
    for kind in ("geometric", "degenerate", "near_one", "near_zero", "heavy", "zero"):
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
        thresholds = (n / 2.0, float(w @ p), float(rng.integers(-1, w.sum() + 2)))
        for threshold in thresholds:
            fft = weighted_poisson_binomial_tail(w, p, threshold)
            assert abs(fft - dp_tail(w, p, threshold)) <= 1e-12
    direct = direct_tail(p)
    assert direct == weighted_poisson_binomial_tail(np.ones(n, dtype=np.int64), p, n / 2.0)
    assert abs(direct - dp_tail(np.ones(n, dtype=np.int64), p, n / 2.0)) <= 1e-12


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
        weighted_poisson_binomial_tail([200_000_000], [0.5], 0.5)


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


def test_exact_gain_cap():
    n = 30
    with pytest.raises(ValueError, match="monte_carlo_gain"):
        exact_gain(np.full(n, 0.5), graph_of(*([NO_EDGE] * n)), cap=20)


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


def test_gain_report_json():
    report = GainReport(p_direct=0.25, p_fluid=0.75, gain=0.5, method="exact")
    payload = json.loads(report.to_json())
    assert payload == {"p_direct": 0.25, "p_fluid": 0.75, "gain": 0.5, "method": "exact"}
    mc = GainReport(0.2, 0.3, 0.1, "monte_carlo", ci_halfwidth=0.01, reps=500)
    payload = json.loads(mc.to_json())
    assert payload["ci_halfwidth"] == 0.01
    assert payload["reps"] == 500
