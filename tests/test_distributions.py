import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluiddem import (
    LinearQ,
    PiecewiseLinearDensity,
    TruncatedBeta,
    Uniform,
    interval_mass,
    nondelegator_mean,
    sample,
    substream,
)
from fluiddem.distributions import KINDS, DegenerateMechanismError
from fluiddem.mechanisms import from_config

ALL_DISTS = [
    Uniform(0.0, 1.0),
    Uniform(0.0, 0.98),
    TruncatedBeta(2.0, 2.0),
    TruncatedBeta(0.5, 1.5),
    PiecewiseLinearDensity(((0.0, 0.0), (1.0, 2.0))),
    PiecewiseLinearDensity(((0.0, 1.0), (0.4, 3.0), (1.0, 0.2))),
]


def test_uniform_support_containment():
    rng = substream(0)
    draws = sample(Uniform(0.0, 1.0), rng, size=10_000)
    assert np.all((draws >= 0.0) & (draws <= 1.0))


def test_narrow_uniform_sample_mean():
    rng = substream(1)
    draws = sample(Uniform(0.3, 0.300001), rng, size=1_000_000)
    assert abs(draws.mean() - 0.3) < 1e-4


def test_beta_1_1_matches_uniform_cdf():
    rng = substream(2)
    draws = sample(TruncatedBeta(1.0, 1.0), rng, size=1_000_000)
    ecdf_half = np.mean(draws <= 0.5)
    assert abs(ecdf_half - 0.5) < 3 * 1.36 / math.sqrt(1_000_000)


def test_sampling_is_reproducible():
    a = sample(TruncatedBeta(2.0, 3.0), substream(7, 1, 2), size=100)
    b = sample(TruncatedBeta(2.0, 3.0), substream(7, 1, 2), size=100)
    assert np.array_equal(a, b)


def test_means():
    assert Uniform(0.0, 0.98).mean() == pytest.approx(0.49)  # 1/2 - eta at eta = 0.01
    assert Uniform(0.0, 1.0).mean() == 0.5
    assert PiecewiseLinearDensity(((0.0, 0.0), (1.0, 2.0))).mean() == pytest.approx(2.0 / 3.0)
    assert TruncatedBeta(2.0, 6.0).mean() == pytest.approx(0.25)


def test_interval_mass_examples():
    d_eta = Uniform(0.0, 0.98)
    assert interval_mass(d_eta, 0.0, 0.245) == pytest.approx(0.25)
    assert interval_mass(d_eta, 0.49, 1.0) == pytest.approx(0.5)
    for dist in ALL_DISTS:
        assert interval_mass(dist, 0.3, 0.3) == 0.0
        assert interval_mass(dist, 0.0, 1.0) == pytest.approx(1.0)


def test_interval_mass_rejects_reversed_bounds():
    with pytest.raises(ValueError):
        interval_mass(Uniform(0.0, 1.0), 0.6, 0.4)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(ALL_DISTS),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
)
def test_interval_mass_additive(dist, a, b, c):
    lo, mid, hi = sorted((a, b, c))
    together = interval_mass(dist, lo, hi)
    split = interval_mass(dist, lo, mid) + interval_mass(dist, mid, hi)
    assert abs(together - split) < 1e-12


def test_empirical_mean_within_four_standard_errors():
    for i, dist in enumerate(ALL_DISTS):
        draws = sample(dist, substream(100, i), size=1_000_000)
        se = draws.std() / math.sqrt(draws.size)
        assert abs(draws.mean() - dist.mean()) < 4 * max(se, 1e-9), dist


def test_nondelegator_mean_examples():
    u = Uniform(0.0, 1.0)
    assert nondelegator_mean(u, LinearQ(1.0, 1.0)) == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert nondelegator_mean(u, LinearQ(0.8, 0.8)) == pytest.approx(11.0 / 18.0, abs=1e-9)
    for dist in ALL_DISTS:
        assert nondelegator_mean(dist, LinearQ(0.0, 0.0)) == pytest.approx(dist.mean(), abs=1e-8)


def test_nondelegator_mean_degenerate():
    with pytest.raises(DegenerateMechanismError):
        nondelegator_mean(Uniform(0.0, 1.0), LinearQ(1.0, 0.0))


def test_nondelegator_mean_exceeds_mean_for_decreasing_q():
    # positive-correlation consequence, checked numerically rather than assumed
    qs = [LinearQ(1.0, 1.0), LinearQ(0.8, 0.8), LinearQ(0.9, 0.5)]
    for dist in ALL_DISTS:
        for q in qs:
            assert nondelegator_mean(dist, q) > dist.mean()


def test_quantile_inverts_cdf():
    for dist in ALL_DISTS:
        for q in (0.1, 0.25, 0.5, 0.9):
            x = dist.quantile(q)
            assert float(dist.cdf(x)) == pytest.approx(q, abs=1e-9)


@pytest.mark.parametrize("a, b", [(2.0, 3.0), (0.5, 0.5)])
def test_truncated_beta_queries_equal_scipy_special(a, b):
    from scipy import special

    dist = TruncatedBeta(a, b)
    x = np.concatenate([np.linspace(0.0, 1.0, 101), [1e-12, 0.5 - 1e-12, 1.0 - 1e-12]])
    with np.errstate(divide="ignore"):
        density = np.exp((a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x) - special.betaln(a, b))
    density[~np.isfinite(density)] = 0.0
    assert np.array_equal(dist.pdf(x), density)
    assert np.array_equal(dist.cdf(x), special.betainc(a, b, x))
    for q in (0.0, 1e-9, 0.1, 0.5, 0.9, 1.0):
        assert dist.quantile(q) == float(special.betaincinv(a, b, q))


def test_piecewise_sampler_matches_cdf():
    dist = PiecewiseLinearDensity(((0.0, 1.0), (0.4, 3.0), (1.0, 0.2)))
    draws = sample(dist, substream(11), size=200_000)
    for x in (0.2, 0.4, 0.7):
        assert abs(np.mean(draws <= x) - float(dist.cdf(x))) < 0.005


def test_validation_errors():
    with pytest.raises(ValueError):
        Uniform(0.5, 0.5)
    with pytest.raises(ValueError):
        Uniform(-0.1, 0.5)
    with pytest.raises(ValueError):
        TruncatedBeta(0.0, 1.0)
    with pytest.raises(ValueError):
        PiecewiseLinearDensity(((0.0, 0.0), (1.0, 0.0)))
    with pytest.raises(ValueError):
        PiecewiseLinearDensity(((0.0, 1.0), (0.0, 1.0)))


def test_from_config_reads_every_kind():
    documents = [
        ({"kind": "uniform", "lo": 0.0, "hi": 0.98}, Uniform(0.0, 0.98)),
        ({"kind": "truncated_beta", "a": 2, "b": 3}, TruncatedBeta(2.0, 3.0)),
        ({"kind": "beta", "a": 0.5, "b": 1.5}, TruncatedBeta(0.5, 1.5)),
        (
            {"kind": "piecewise_linear_density", "knots": [[0.0, 1.0], [0.4, 3.0], [1.0, 0.2]]},
            PiecewiseLinearDensity(((0.0, 1.0), (0.4, 3.0), (1.0, 0.2))),
        ),
    ]
    for document, dist in documents:
        assert from_config(KINDS, document, "distribution") == dist
    with pytest.raises(ValueError, match="field 'distribution.kind'"):
        from_config(KINDS, {"kind": "gaussian"}, "distribution")
