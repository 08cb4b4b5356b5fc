import math

import numpy as np
import pytest
from helpers import (
    QuadratureRowNormalizedPhi,
    broadcast_tabulated_phi,
    dense_row_normalized_bounds,
    random_tabulated,
    simpson_phi_mean_in_y,
)

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
    normalize_phi,
)
from fluiddem.mechanisms import (
    MECHANISM_KINDS,
    PHI_KINDS,
    Q_KINDS,
    PiecewiseLinearQ,
    RowNormalizedPhi,
    from_config,
    phi_mean_in_y,
    positive_bounds,
)

UNIT = Uniform(0.0, 1.0)


def test_delegation_probability_examples():
    assert Upward(0.5).q(0.9) == 0.5
    assert ConfidenceBased(LinearQ(1.0, 1.0)).q(1.0) == 0.0
    assert GeneralContinuous(0.3, ExpInY(1.0)).q(0.2) == 0.3


def test_delegation_probability_constant_in_x_for_upward():
    xs = np.linspace(0.0, 1.0, 50)
    assert np.all(Upward(0.25).q(xs) == 0.25)


def test_pair_weight_examples():
    up = Upward(0.4)
    assert up.phi(0.4, 0.6) == 1.0
    assert up.phi(0.6, 0.4) == 0.0
    cb = ConfidenceBased(LinearQ(1.0, 1.0))
    assert np.all(cb.phi(np.array([0.1, 0.9]), np.array([0.8, 0.2])) == 1.0)
    gc = GeneralContinuous(0.3, AffineInY(1.0, 2.0))
    assert gc.phi(0.1, 0.5) == pytest.approx(2.0)


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
    with pytest.raises(ValueError, match="Indicator cannot be normalized"):
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
    assert Constant1().bounds() == (1.0, 1.0)
    assert AffineInY(1.0, 2.0).bounds() == (1.0, 3.0)
    lo, hi = ExpInY(1.0).bounds()
    assert lo == pytest.approx(1.0)
    assert hi == pytest.approx(math.e)
    assert Indicator().bounds() == (0.0, 1.0)  # bounds() reports; positive_bounds refuses
    with pytest.raises(ValueError, match="strictly positive"):
        positive_bounds(TabulatedPhi(((0.0, 1.0), (1.0, 2.0))))


def test_positive_bounds_is_the_one_positivity_rule():
    assert positive_bounds(AffineInY(1.0, 2.0)) == (1.0, 3.0)
    assert ExpInY(800.0).bounds() == (1.0, math.inf)  # no overflow warning
    for phi in (Indicator(), ExpInY(800.0), TabulatedPhi(((math.nan, 1.0), (1.0, 2.0)))):
        with pytest.raises(ValueError, match="^field 'phi': must be finite and strictly positive"):
            positive_bounds(phi)
    # a general-continuous mechanism applies it to its phi's sampling base
    with pytest.raises(ValueError, match="strictly positive"):
        GeneralContinuous(0.3, RowNormalizedPhi(ExpInY(800.0), UNIT))


def test_pair_weight_increasing_in_y_on_grid():
    xs = np.linspace(0.0, 1.0, 100)
    ys = np.linspace(0.0, 1.0, 100)
    for phi in (AffineInY(1.0, 2.0), ExpInY(1.3), TabulatedPhi(((1.0, 2.0), (1.5, 4.0)))):
        grid = GeneralContinuous(0.3, phi).phi(xs[:, None], ys[None, :])
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


TABLE = [[1.0, 2.0], [1.5, 4.0]]
UNIFORM_DOC = {"kind": "uniform", "lo": 0.0, "hi": 1.0}
Q_DOCUMENTS = [
    ({"kind": "constant", "p": 0.4}, ConstantQ(0.4)),
    ({"kind": "linear", "a": 1, "b": 1.0}, LinearQ(1.0, 1.0)),
    (
        {"kind": "piecewise_linear", "knots": [[0.0, 0.9], [0.5, 0.4], [1.0, 0.1]]},
        PiecewiseLinearQ(((0.0, 0.9), (0.5, 0.4), (1.0, 0.1))),
    ),
]
PHI_DOCUMENTS = [
    ({"kind": "indicator"}, Indicator()),
    ({"kind": "constant1"}, Constant1()),
    ({"kind": "affine_in_y", "c0": 1, "c1": 2.0}, AffineInY(1.0, 2.0)),
    ({"kind": "exp_in_y", "lambda": 1.5}, ExpInY(1.5, 1.0)),  # scale defaults to 1
    ({"kind": "exp_in_y", "lambda": 1.5, "scale": 0.5}, ExpInY(1.5, 0.5)),
    ({"kind": "tabulated", "values": TABLE}, TabulatedPhi(((1.0, 2.0), (1.5, 4.0)))),
]
MECHANISM_DOCUMENTS = [
    ({"kind": "upward", "p": 0.5}, Upward(0.5)),
    (
        {"kind": "confidence", "q": {"kind": "linear", "a": 1.0, "b": 1.0}},
        ConfidenceBased(LinearQ(1.0, 1.0)),
    ),
    (
        {"kind": "general", "p": 0.3, "phi": {"kind": "exp_in_y", "lambda": 1.0}},
        GeneralContinuous(0.3, ExpInY(1.0)),
    ),
]


DOCUMENTS = (
    [(Q_KINDS, *case) for case in Q_DOCUMENTS]
    + [(PHI_KINDS, *case) for case in PHI_DOCUMENTS]
    + [(MECHANISM_KINDS, *case) for case in MECHANISM_DOCUMENTS]
)


@pytest.mark.parametrize(
    "kinds, document, expected", DOCUMENTS, ids=[document["kind"] for _, document, _ in DOCUMENTS]
)
def test_from_config_reads_every_kind(kinds, document, expected):
    assert from_config(kinds, document, "field") == expected


def test_from_config_reads_nested_row_normalized_phi():
    document = {
        "kind": "general",
        "p": 0.4,
        "phi": {
            "kind": "row_normalized",
            "base": {
                "kind": "row_normalized",
                "base": {"kind": "tabulated", "values": TABLE},
                "distribution": UNIFORM_DOC,
            },
            "distribution": {"kind": "beta", "a": 2.0, "b": 3.0},
        },
    }
    mech = from_config(MECHANISM_KINDS, document, "mechanism")
    assert mech.p == 0.4
    assert mech.phi.base == TabulatedPhi(((1.0, 2.0), (1.5, 4.0)))  # the nested base is flattened
    assert mech.phi.dist == TruncatedBeta(2.0, 3.0)


@pytest.mark.parametrize(
    "kinds, document, message",
    [
        (MECHANISM_KINDS, {"kind": "dictatorship"}, "field 'mechanism.kind': unknown kind 'dictatorship'"),
        (MECHANISM_KINDS, {"p": 0.5}, "field 'mechanism': must be an object with a 'kind' field"),
        (MECHANISM_KINDS, {"kind": "upward"}, "field 'mechanism.p': missing"),
        (MECHANISM_KINDS, {"kind": "upward", "p": 1.5}, "field 'mechanism': Upward requires p in (0, 1)"),
        (PHI_KINDS, {"kind": "exp_in_y", "lambda": math.nan}, "field 'mechanism.lambda': must be finite"),
        (
            Q_KINDS,
            {"kind": "piecewise_linear", "knots": [[0, 1], [math.inf, 0]]},
            "field 'mechanism.knots': must be finite",
        ),
        (Q_KINDS, {"kind": "linear", "a": [1.0], "b": 1.0}, "field 'mechanism.a': float() argument"),
        (PHI_KINDS, {"kind": "tabulated", "values": 2.0}, "field 'mechanism.values': "),
        (PHI_KINDS, {"kind": "tabulated", "values": [1.0, 2.0]}, "field 'mechanism.values': "),
        (Q_KINDS, {"kind": "piecewise_linear", "knots": [[0, 1, 2], [1, 0, 0]]}, "field 'mechanism': "),
    ],
)
def test_from_config_errors_name_the_field(kinds, document, message):
    with pytest.raises(ValueError) as info:
        from_config(kinds, document, "mechanism")
    assert str(info.value).startswith(message)


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


def _divisor_points(phi, count: int) -> np.ndarray:
    grid = np.linspace(0.0, 1.0, len(phi.values)) if isinstance(phi, TabulatedPhi) else ()
    random = np.random.default_rng(2024).random(200)[:count]
    return np.concatenate([[0.0, 1.0], grid, random])


def _assert_divisors_match_quadrature(base, dist, xs):
    closed = np.broadcast_to(RowNormalizedPhi(base, dist)._means(xs), xs.shape)
    oracle = np.array([simpson_phi_mean_in_y(base, dist, float(x)) for x in xs])
    np.testing.assert_allclose(closed, oracle, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (4, 3), (3, 5)])
@pytest.mark.parametrize("dist, count", DIVISOR_DISTS)
def test_tabulated_divisors_match_quadrature(shape, dist, count):
    base = random_tabulated(*shape, seed=shape[0] * 10 + shape[1])
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
    base = random_tabulated(4, 3, seed=7)
    dist = TruncatedBeta(2.0, 3.0)
    xs = np.linspace(0.0, 1.0, 7)[:, None]
    ys = np.linspace(0.0, 1.0, 11)[None, :]
    closed = RowNormalizedPhi(base, dist)(xs, ys)
    oracle = QuadratureRowNormalizedPhi(base, dist)(xs, ys)
    assert closed.shape == (7, 11)
    np.testing.assert_allclose(closed, oracle, rtol=1e-12, atol=0.0)


# (x, y) pairs of every broadcasting form, some of them outside [0, 1]
_LINE = np.array([-0.3, 0.0, 0.1, 1 / 3, 0.5, 0.77, 1.0, 1.4])
CALL_INPUTS = {
    "column-by-row": (_LINE[:, None], np.linspace(-0.2, 1.2, 11)[None, :]),
    "scalar-by-array": (0.42, _LINE),
    "array-by-scalar": (_LINE, 0.9),
    "equal-1d": (_LINE, _LINE[::-1].copy()),
    "0d-by-0d": (np.float64(0.25), np.array(0.6)),
    "0d-by-array": (np.array(1.3), _LINE),
    "floats": (-0.1, 1.1),
}


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (4, 3), (3, 5)])
@pytest.mark.parametrize("inputs", CALL_INPUTS.values(), ids=CALL_INPUTS.keys())
def test_tabulated_call_matches_broadcast_oracle(shape, inputs):
    phi = random_tabulated(*shape, seed=shape[0] * 10 + shape[1])
    got = phi(*inputs)
    want = broadcast_tabulated_phi(phi, *inputs)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).dtype == np.asarray(want).dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "base",
    [
        *(random_tabulated(*shape, seed=shape[0] + shape[1]) for shape in [(2, 2), (4, 3), (3, 5), (9, 4)]),
        TabulatedPhi(((1.0, 2.0, 3.0), (1.5, 2.0, 3.0), (2.0, 2.5, 4.0))),
        TabulatedPhi(((2.0, 3.0), (2.0, 3.0))),
        Constant1(),
        AffineInY(1.0, 2.0),
        ExpInY(1.3, 0.7),
    ],
    ids=["2x2", "4x3", "3x5", "9x4", "bench-3x3", "flat-in-x", "constant1", "affine", "exp"],
)
@pytest.mark.parametrize("dist", [dist for dist, _ in DIVISOR_DISTS])
def test_row_normalized_bounds_match_dense_oracle(base, dist):
    # phi is monotone in x between knots, so the knots and the ends give the
    # same extremes, bit for bit, as 513 x do
    phi = RowNormalizedPhi(base, dist)
    assert positive_bounds(phi) == dense_row_normalized_bounds(phi)


def test_row_normalized_bounds_refuse_zero():
    # the zero sits at a knot, (0, 0)
    with pytest.raises(ValueError, match="strictly positive"):
        positive_bounds(RowNormalizedPhi(TabulatedPhi(((0.0, 1.0), (1.0, 2.0))), UNIT))


def test_nested_row_normalization_flattens():
    base = random_tabulated(3, 3, seed=3)
    outer = Uniform(0.1, 0.7)
    nested = RowNormalizedPhi(RowNormalizedPhi(base, TruncatedBeta(2.0, 3.0)), outer)
    flat = RowNormalizedPhi(base, outer)
    assert nested.base is base
    assert nested.dist == outer
    xs = np.linspace(0.0, 1.0, 9)[:, None]
    ys = np.linspace(0.0, 1.0, 9)[None, :]
    assert np.array_equal(nested(xs, ys), flat(xs, ys))
    assert normalize_phi(nested, UNIT).base is base
