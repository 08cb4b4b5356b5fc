import math

import numpy as np
import pytest
from helpers import QuadratureRowNormalizedPhi

from fluiddem import (
    AffineInY,
    ConfidenceBased,
    Constant1,
    ConstantQ,
    ExpInY,
    GeneralContinuous,
    Indicator,
    LinearQ,
    PiecewiseLinearDensity,
    TabulatedPhi,
    TruncatedBeta,
    Uniform,
    Upward,
    delegation_probability,
    normalize_phi,
    pair_weight,
    phi_bounds,
)
from fluiddem.mechanisms import (
    NotStrictlyPositiveError,
    RowNormalizedPhi,
    from_config,
    phi_mean_in_y,
    to_config,
)

UNIT = Uniform(0.0, 1.0)


def test_delegation_probability_examples():
    assert delegation_probability(Upward(0.5), 0.9) == 0.5
    assert delegation_probability(ConfidenceBased(LinearQ(1.0, 1.0)), 1.0) == 0.0
    assert delegation_probability(GeneralContinuous(0.3, ExpInY(1.0)), 0.2) == 0.3


def test_delegation_probability_constant_in_x_for_upward():
    xs = np.linspace(0.0, 1.0, 50)
    assert np.all(delegation_probability(Upward(0.25), xs) == 0.25)


def test_pair_weight_examples():
    up = Upward(0.4)
    assert pair_weight(up, 0.4, 0.6) == 1.0
    assert pair_weight(up, 0.6, 0.4) == 0.0
    cb = ConfidenceBased(LinearQ(1.0, 1.0))
    assert np.all(pair_weight(cb, np.array([0.1, 0.9]), np.array([0.8, 0.2])) == 1.0)
    gc = GeneralContinuous(0.3, AffineInY(1.0, 2.0))
    assert pair_weight(gc, 0.1, 0.5) == pytest.approx(2.0)


def test_mechanism_validation():
    with pytest.raises(ValueError):
        Upward(0.0)
    with pytest.raises(ValueError):
        Upward(1.0)
    with pytest.raises(ValueError):
        GeneralContinuous(0.3, Indicator())
    with pytest.raises(ValueError):
        ConfidenceBased(LinearQ(0.2, -1.0))  # increasing q
    ConfidenceBased(ConstantQ(0.4))  # weakly decreasing is allowed


def test_normalize_phi_examples():
    assert normalize_phi(Constant1(), UNIT) == Constant1()
    affine = normalize_phi(AffineInY(1.0, 2.0), UNIT)
    assert affine == AffineInY(0.5, 1.0)  # (1 + 2y) / 2
    grown = normalize_phi(ExpInY(1.0), UNIT)
    assert grown.scale == pytest.approx(1.0 / (math.e - 1.0), abs=1e-10)
    with pytest.raises(NotStrictlyPositiveError):
        normalize_phi(Indicator(), UNIT)


@pytest.mark.parametrize(
    "phi",
    [
        AffineInY(1.0, 2.0),
        ExpInY(1.0),
        ExpInY(0.5, 2.0),
        TabulatedPhi(((1.0, 2.0, 4.0), (2.0, 3.0, 3.5))),
    ],
)
@pytest.mark.parametrize("dist", [UNIT, Uniform(0.0, 0.98), TruncatedBeta(2.0, 2.0)])
def test_normalize_phi_unit_mean_on_grid(phi, dist):
    normalized = normalize_phi(phi, dist)
    for x in np.linspace(0.0, 1.0, 50):
        assert phi_mean_in_y(normalized, dist, float(x)) == pytest.approx(1.0, abs=1e-8)


def test_normalize_phi_preserves_target_law():
    # normalization rescales each row by a constant, so target weights keep ratios
    phi = TabulatedPhi(((1.0, 2.0, 4.0), (2.0, 3.0, 3.5)))
    normalized = normalize_phi(phi, UNIT)
    x = 0.37
    ys = np.linspace(0.0, 1.0, 9)
    raw = np.asarray(phi(x, ys))
    scaled = np.asarray(normalized(x, ys))
    assert np.allclose(raw / raw.sum(), scaled / scaled.sum(), atol=1e-12)


def test_phi_bounds_examples():
    assert phi_bounds(Constant1()) == (1.0, 1.0)
    assert phi_bounds(AffineInY(1.0, 2.0)) == (1.0, 3.0)
    lo, hi = phi_bounds(ExpInY(1.0))
    assert lo == pytest.approx(1.0)
    assert hi == pytest.approx(math.e)
    assert phi_bounds(Indicator()) == (0.0, 1.0)  # exempt from the positivity error
    with pytest.raises(NotStrictlyPositiveError):
        phi_bounds(TabulatedPhi(((0.0, 1.0), (1.0, 2.0))))


def test_pair_weight_increasing_in_y_on_grid():
    xs = np.linspace(0.0, 1.0, 100)
    ys = np.linspace(0.0, 1.0, 100)
    for phi in (AffineInY(1.0, 2.0), ExpInY(1.3), TabulatedPhi(((1.0, 2.0), (1.5, 4.0)))):
        mech = GeneralContinuous(0.3, phi)
        grid = pair_weight(mech, xs[:, None], ys[None, :])
        assert np.all(np.diff(grid, axis=1) >= 0.0)


def test_q_range_validation():
    with pytest.raises(ValueError):
        ConstantQ(1.2)
    q = LinearQ(2.0, 3.0)  # clamped into [0, 1]
    vals = q(np.linspace(0.0, 1.0, 11))
    assert np.all((vals >= 0.0) & (vals <= 1.0))


def test_tabulated_validation():
    with pytest.raises(ValueError):
        TabulatedPhi(((1.0, 0.5), (1.0, 2.0)))  # decreasing along y
    with pytest.raises(ValueError):
        TabulatedPhi(((1.0,),))


def test_config_roundtrip():
    for mech in (
        Upward(0.5),
        ConfidenceBased(LinearQ(1.0, 1.0)),
        GeneralContinuous(0.3, ExpInY(1.0)),
        GeneralContinuous(0.4, TabulatedPhi(((1.0, 2.0), (1.5, 4.0)))),
    ):
        assert from_config(to_config(mech)) == mech
    mech = from_config({"kind": "confidence", "q": {"kind": "linear", "a": 1.0, "b": 1.0}})
    assert mech == ConfidenceBased(LinearQ(1.0, 1.0))
    with pytest.raises(ValueError):
        from_config({"kind": "dictatorship"})


# ---------------------------------------------------------------------------
# closed-form divisors of RowNormalizedPhi against per-x quadrature

DIVISOR_DISTS = [
    # (distribution, random x points): one quadrature takes about 0.5 ms under
    # the first and the last, 20 ms under Uniform(0.1, 0.7) (a jump in the
    # density) and 0.14 s under the beta law, so those two get fewer points
    (UNIT, 200),
    (Uniform(0.1, 0.7), 10),
    (TruncatedBeta(2.0, 3.0), 10),
    (PiecewiseLinearDensity(((0.0, 0.5), (0.4, 2.0), (1.0, 1.0))), 200),
]


def _random_tabulated(nx: int, ny: int, seed: int) -> TabulatedPhi:
    rng = np.random.default_rng(seed)
    steps = rng.uniform(0.0, 2.0, size=(nx, ny))
    steps[:, 0] += 0.5
    return TabulatedPhi(tuple(map(tuple, np.cumsum(steps, axis=1))))


def _divisor_points(phi, count: int) -> np.ndarray:
    grid = np.linspace(0.0, 1.0, len(phi.values)) if isinstance(phi, TabulatedPhi) else ()
    random = np.random.default_rng(2024).random(200)[:count]
    return np.concatenate([[0.0, 1.0], grid, random])


def _assert_divisors_match_quadrature(base, dist, xs):
    closed = np.broadcast_to(RowNormalizedPhi(base, dist)._means(xs), xs.shape)
    oracle = np.array([phi_mean_in_y(base, dist, float(x)) for x in xs])
    np.testing.assert_allclose(closed, oracle, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (4, 3), (3, 5)])
@pytest.mark.parametrize("dist, count", DIVISOR_DISTS)
def test_tabulated_divisors_match_quadrature(shape, dist, count):
    base = _random_tabulated(*shape, seed=shape[0] * 10 + shape[1])
    _assert_divisors_match_quadrature(base, dist, _divisor_points(base, count))


@pytest.mark.parametrize(
    "base", [Indicator(), Constant1(), AffineInY(1.0, 2.0), ExpInY(1.3, 0.7)]
)
@pytest.mark.parametrize("dist", [dist for dist, _ in DIVISOR_DISTS])
def test_closed_form_divisors_match_quadrature(base, dist):
    # the indicator's divisor is 1 - cdf(x) and the others have one divisor
    # for every x, so a few points cover them
    _assert_divisors_match_quadrature(base, dist, _divisor_points(base, 10))


def test_row_normalized_phi_matches_quadrature_divisor_pointwise():
    base = _random_tabulated(4, 3, seed=7)
    dist = TruncatedBeta(2.0, 3.0)
    xs = np.linspace(0.0, 1.0, 7)[:, None]
    ys = np.linspace(0.0, 1.0, 11)[None, :]
    closed = RowNormalizedPhi(base, dist)(xs, ys)
    oracle = QuadratureRowNormalizedPhi(base, dist)(xs, ys)
    assert closed.shape == (7, 11)
    np.testing.assert_allclose(closed, oracle, rtol=1e-12, atol=0.0)


def test_nested_row_normalization_flattens():
    base = _random_tabulated(3, 3, seed=3)
    outer = Uniform(0.1, 0.7)
    nested = RowNormalizedPhi(RowNormalizedPhi(base, TruncatedBeta(2.0, 3.0)), outer)
    flat = RowNormalizedPhi(base, outer)
    assert nested.base is base
    assert nested.dist == outer
    xs = np.linspace(0.0, 1.0, 9)[:, None]
    ys = np.linspace(0.0, 1.0, 9)[None, :]
    assert np.array_equal(nested(xs, ys), flat(xs, ys))
    assert normalize_phi(nested, UNIT).base is base
