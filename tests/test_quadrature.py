import math

import numpy as np
import pytest
from helpers import simpson_integrate, simpson_phi_mean_in_y

from fluiddem import (
    ExpInY,
    LinearQ,
    PiecewiseLinearDensity,
    TabulatedPhi,
    TruncatedBeta,
    Uniform,
    quadrature,
)
from fluiddem.distributions import expectation, nondelegator_mean
from fluiddem.mechanisms import phi_mean_in_y, phi_y_moment
from fluiddem.quadrature import gauss_legendre, integrate

BENCH_GRID = TabulatedPhi(((1.0, 2.0, 3.0), (1.5, 2.0, 3.0), (2.0, 2.5, 4.0)))
RAMP = PiecewiseLinearDensity(((0.0, 0.0), (1.0, 2.0)))


@pytest.fixture
def fallbacks(monkeypatch):
    """Counts the pieces that integrate hands to adaptive Simpson."""
    calls = []
    simpson = quadrature.adaptive_simpson

    def counted(f, a, b, tol=1e-10):
        calls.append((a, b))
        return simpson(f, a, b, tol)

    monkeypatch.setattr(quadrature, "adaptive_simpson", counted)
    return calls


@pytest.mark.parametrize("n", [1, 2, 3, 5, 16, 32])
def test_gauss_legendre_matches_numpy(n):
    from numpy.polynomial.legendre import leggauss

    nodes, weights = gauss_legendre(n)
    order = np.argsort(nodes)
    ref_nodes, ref_weights = leggauss(n)
    np.testing.assert_allclose(nodes[order], ref_nodes, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(weights[order], ref_weights, rtol=0.0, atol=1e-14)
    # exact for every polynomial of degree 2n - 1
    for k in range(2 * n):
        assert weights @ nodes**k == pytest.approx((1 + (-1) ** k) / (k + 1), abs=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 32, 64])
def test_gauss_legendre_nodes_are_converged(n):
    # one more Newton step on the Legendre recurrence moves no node by more
    # than rounding: the Newton passes stop only once converged
    x = gauss_legendre(n)[0]
    p_prev, p = np.ones(n), x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    step = p / (n * (x * p - p_prev) / (x * x - 1.0))
    assert np.max(np.abs(step)) < 4e-16


@pytest.mark.parametrize(
    "dist",
    [Uniform(0.1, 0.7), TruncatedBeta(2.0, 3.0), RAMP],
    ids=["uniform-jump", "beta-2-3", "ramp"],
)
def test_phi_mean_in_y_matches_adaptive_simpson(dist, fallbacks):
    # the density jumps at 0.1 and 0.7, and the beta law is a polynomial: both
    # must stay on the Gauss–Legendre path
    xs = np.array([0.0, 0.2, 0.5, 0.77, 1.0])
    means = phi_mean_in_y(BENCH_GRID, dist, xs)
    moments = phi_y_moment(BENCH_GRID, dist, xs)
    assert fallbacks == []
    oracle = [simpson_phi_mean_in_y(BENCH_GRID, dist, float(x)) for x in xs]
    np.testing.assert_allclose(means, oracle, rtol=1e-12, atol=0.0)
    breaks = {*dist.breakpoints(), *BENCH_GRID.y_knots}
    for x, moment in zip(xs.tolist(), moments):
        def integrand(y):
            return float(BENCH_GRID(x, y)) * y * float(dist.pdf(y))

        assert moment == pytest.approx(simpson_integrate(integrand, 0, 1, 1e-11, breaks), rel=1e-12)
    assert phi_mean_in_y(BENCH_GRID, dist, 0.77) == pytest.approx(means[3], rel=1e-15)


@pytest.mark.parametrize("dist", [TruncatedBeta(2.0, 3.0), RAMP], ids=["beta-2-3", "ramp"])
def test_expectation_matches_adaptive_simpson(dist, fallbacks):
    got = expectation(dist, lambda x: np.exp(x) * x)
    assert fallbacks == []
    breaks = dist.breakpoints()
    oracle = simpson_integrate(lambda x: np.exp(x) * x * float(dist.pdf(x)), 0, 1, 1e-10, breaks)
    assert got == pytest.approx(oracle, rel=1e-12)


def test_nondelegator_mean_splits_at_the_clamp_kinks(fallbacks):
    # q = clamp(1.5 - 2x, 0, 1) kinks at 0.25 and 0.75; E[(1-q)x] / E[1-q] = 35/48
    q = LinearQ(1.5, 2.0)
    got = nondelegator_mean(Uniform(0.0, 1.0), q)
    assert fallbacks == []
    kinks = (0.25, 0.75)
    num = simpson_integrate(lambda x: (1.0 - float(q(x))) * x, 0, 1, 1e-12, kinks)
    den = simpson_integrate(lambda x: 1.0 - float(q(x)), 0, 1, 1e-12, kinks)
    assert got == pytest.approx(num / den, rel=1e-12)
    assert got == pytest.approx(35.0 / 48.0, rel=1e-12)


@pytest.mark.parametrize("lam", [10.0, 20.0])
def test_large_integrands_agree_to_a_relative_tolerance(lam, fallbacks):
    # the 16- and 32-node rules agree to about 1e-15 relative on integrals near
    # 2.2e3 and 2.4e7: absolute differences far above the tolerance of 1e-12
    got = phi_mean_in_y(ExpInY(lam), Uniform(0.0, 1.0), 0.0)
    assert fallbacks == []
    assert got == pytest.approx(math.expm1(lam) / lam, rel=1e-13, abs=0.0)


def test_fallback_on_a_large_integrand_keeps_the_relative_tolerance(fallbacks, monkeypatch):
    # near 1e20 the 16- and 32-node rules still disagree, so [0, 1] falls back to
    # adaptive Simpson; asked for 1e-12 absolute there, it bisected to depth (10.5 s),
    # while at the agreement check's 1e-12 relative it needs about 4,200 points
    calls = []
    call = ExpInY.__call__
    monkeypatch.setattr(ExpInY, "__call__", lambda phi, x, y: calls.append(1) or call(phi, x, y))
    got = phi_mean_in_y(ExpInY(50.0), Uniform(0.0, 1.0), 0.0)
    assert fallbacks == [(0.0, 1.0)]
    assert got == pytest.approx(math.expm1(50.0) / 50.0, rel=1e-12, abs=0.0)
    assert len(calls) <= 10_000


def test_endpoint_singularity_takes_the_adaptive_fallback(fallbacks):
    # the arcsine density 1/(pi sqrt(x(1-x))) is unbounded at both ends, so the
    # 16- and 32-node rules disagree and the piece goes to adaptive Simpson
    dist = TruncatedBeta(0.5, 0.5)
    got = expectation(dist, lambda x: x)
    assert fallbacks == [(0.0, 1.0)]
    assert got == pytest.approx(simpson_integrate(lambda x: x * float(dist.pdf(x)), 0, 1, 1e-10))
    assert got == pytest.approx(0.5, abs=1e-7)


def test_integrate_batches_and_falls_back_per_entry(fallbacks):
    # one row is smooth, the other has a kink at 0.3 that no breakpoint marks
    def f(y):
        return np.stack([np.exp(y), np.abs(y - 0.3)])

    got = integrate(f, 0.0, 1.0, 1e-12, (0.5,))
    assert got.shape == (2,)
    assert fallbacks == [(0.0, 0.5)]
    assert got[0] == pytest.approx(np.e - 1.0, rel=1e-14)
    assert got[1] == pytest.approx(0.3**2 / 2 + 0.7**2 / 2, rel=1e-11)
    assert integrate(f, 1.0, 1.0) == 0.0
