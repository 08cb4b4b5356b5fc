"""Delegation mechanisms: a delegation-probability function q paired with a
pairwise weight function phi.

A mechanism decides, per voter, whether to delegate (with probability
q(competence)) and, conditioned on delegating, places weight
phi(own competence, other competence) on every other voter and picks a target
proportionally. Three families are built in:

* Upward(p): q == p, phi(x, y) = 1 if y > x else 0 (delegate uniformly to a
  strictly more competent voter).
* ConfidenceBased(q): phi == 1 (uniform target), q monotonically decreasing.
* GeneralContinuous(p, phi): q == p, phi continuous, positive and increasing
  in its second coordinate.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import distributions
from .quadrature import integrate


class NotStrictlyPositiveError(ValueError):
    """Raised when a weight function that must stay positive attains zero."""


# ---------------------------------------------------------------------------
# delegation probability functions


@dataclass(frozen=True)
class ConstantQ:
    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"delegation probability must be in [0, 1], got {self.p}")

    def __call__(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.p)

    def is_decreasing(self) -> bool:
        return True

    def breakpoints(self):
        return ()


@dataclass(frozen=True)
class LinearQ:
    """q(x) = clamp(a - b*x, 0, 1)."""

    a: float
    b: float

    def __call__(self, x):
        return np.clip(self.a - self.b * np.asarray(x, dtype=float), 0.0, 1.0)

    def is_decreasing(self) -> bool:
        return self.b >= 0.0

    def breakpoints(self):
        # clamp kinks where a - b*x crosses 0 or 1
        if self.b == 0.0:
            return ()
        return tuple(t for t in ((self.a - 1.0) / self.b, self.a / self.b) if 0.0 < t < 1.0)


@dataclass(frozen=True)
class PiecewiseLinearQ:
    knots: tuple[tuple[float, float], ...]

    def __post_init__(self):
        knots = tuple((float(x), float(v)) for x, v in self.knots)
        object.__setattr__(self, "knots", knots)
        xs = [x for x, _ in knots]
        vs = [v for _, v in knots]
        if len(knots) < 2 or any(x1 >= x2 for x1, x2 in zip(xs, xs[1:])):
            raise ValueError("knot positions must be strictly increasing, with >= 2 knots")
        if any(not 0.0 <= v <= 1.0 for v in vs):
            raise ValueError("q values must lie in [0, 1]")

    def __call__(self, x):
        xs = np.array([x for x, _ in self.knots])
        vs = np.array([v for _, v in self.knots])
        return np.interp(np.asarray(x, dtype=float), xs, vs)

    def is_decreasing(self) -> bool:
        vs = [v for _, v in self.knots]
        return all(v1 >= v2 for v1, v2 in zip(vs, vs[1:]))

    def breakpoints(self):
        return tuple(x for x, _ in self.knots)


DelegationProbabilityFn = Union[ConstantQ, LinearQ, PiecewiseLinearQ]


# ---------------------------------------------------------------------------
# pairwise weight functions


@dataclass(frozen=True)
class Indicator:
    """phi(x, y) = 1 if y > x else 0."""

    def __call__(self, x, y):
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        return (y > x).astype(float)

    depends_on_x = True


@dataclass(frozen=True)
class Constant1:
    def __call__(self, x, y):
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        return np.ones_like(y)

    depends_on_x = False


@dataclass(frozen=True)
class AffineInY:
    """phi(x, y) = c0 + c1*y with c0 > 0, c1 > 0."""

    c0: float
    c1: float

    def __post_init__(self):
        if self.c0 <= 0.0 or self.c1 <= 0.0:
            raise ValueError("AffineInY requires c0 > 0 and c1 > 0")

    def __call__(self, x, y):
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        return self.c0 + self.c1 * y

    depends_on_x = False


@dataclass(frozen=True)
class ExpInY:
    """phi(x, y) = scale * exp(lam * y) with lam > 0, scale > 0."""

    lam: float
    scale: float = 1.0

    def __post_init__(self):
        if self.lam <= 0.0 or self.scale <= 0.0:
            raise ValueError("ExpInY requires lam > 0 and scale > 0")

    def __call__(self, x, y):
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        return self.scale * np.exp(self.lam * y)

    depends_on_x = False


@dataclass(frozen=True)
class TabulatedPhi:
    """Bilinear interpolation of positive values on a uniform grid over [0, 1]^2.

    values[i][j] is the weight at (x_i, y_j) with x_i = i/(nx-1) and
    y_j = j/(ny-1). Values must be nondecreasing along y so the interpolant is
    increasing in its second coordinate.
    """

    values: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        vals = tuple(tuple(float(v) for v in row) for row in self.values)
        object.__setattr__(self, "values", vals)
        arr = np.array(vals)
        if arr.ndim != 2 or arr.shape[0] < 2 or arr.shape[1] < 2:
            raise ValueError("TabulatedPhi needs a 2-d grid with at least 2x2 values")
        if np.any(arr < 0.0):
            raise ValueError("TabulatedPhi values must be nonnegative")
        if np.any(np.diff(arr, axis=1) < 0.0):
            raise ValueError("TabulatedPhi values must be nondecreasing in y")
        arr.flags.writeable = False
        object.__setattr__(self, "_arr", arr)
        object.__setattr__(self, "_xs", np.linspace(0.0, 1.0, arr.shape[0]))
        object.__setattr__(self, "_ys", np.linspace(0.0, 1.0, arr.shape[1]))

    def __call__(self, x, y):
        arr, xs, ys = self._arr, self._xs, self._ys
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        xi = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(xs) - 2)
        yi = np.clip(np.searchsorted(ys, y, side="right") - 1, 0, len(ys) - 2)
        tx = np.clip((x - xs[xi]) / (xs[xi + 1] - xs[xi]), 0.0, 1.0)
        ty = np.clip((y - ys[yi]) / (ys[yi + 1] - ys[yi]), 0.0, 1.0)
        v00 = arr[xi, yi]
        v01 = arr[xi, yi + 1]
        v10 = arr[xi + 1, yi]
        v11 = arr[xi + 1, yi + 1]
        return (1 - tx) * ((1 - ty) * v00 + ty * v01) + tx * ((1 - ty) * v10 + ty * v11)

    depends_on_x = True


@dataclass(frozen=True, eq=False)
class RowNormalizedPhi:
    """base(x, y) / E_y[base(x, .)] under dist: exact unit y-mean for every x.

    Used to normalize x-dependent weight functions; the per-x divisor keeps
    every delegator's target distribution identical to the base function's.
    Divisors are closed-form in x: bilinear interpolation is linear in x
    between grid rows, so a tabulated base's divisor interpolates its row
    means exactly; an indicator's is 1 - cdf(x); any other base ignores x
    and has one divisor. A row-normalized base is flattened, since per-x
    rescaling cancels.
    """

    base: "PairWeightFn"
    dist: object

    def __post_init__(self):
        if isinstance(self.base, RowNormalizedPhi):
            object.__setattr__(self, "base", self.base.base)

    depends_on_x = True

    @functools.cached_property
    def _row_means(self) -> np.ndarray:
        """E_y[base(x_i, .)] per grid row of a tabulated base, else at x = 0."""
        xs = self.base._xs if isinstance(self.base, TabulatedPhi) else (0.0,)
        return np.array([phi_mean_in_y(self.base, self.dist, float(x)) for x in xs])

    def _means(self, x: np.ndarray):
        if isinstance(self.base, Indicator):
            return 1.0 - distributions.cdf(self.dist, x)
        if isinstance(self.base, TabulatedPhi):
            return np.interp(x, self.base._xs, self._row_means)
        return self._row_means[0]

    def __call__(self, x, y):
        x = np.asarray(x, dtype=float)
        return np.asarray(self.base(x, y), dtype=float) / self._means(x)


PairWeightFn = Union[Indicator, Constant1, AffineInY, ExpInY, TabulatedPhi, RowNormalizedPhi]


def sampling_equivalent(phi: "PairWeightFn") -> "PairWeightFn":
    """A weight function with the same per-delegator target law, cheaper to evaluate.

    Per-x rescaling cancels from every ratio phi(x, .)/sum phi(x, .), so the
    base of a RowNormalizedPhi samples identically.
    """
    return phi.base if isinstance(phi, RowNormalizedPhi) else phi


def phi_x_knots(phi) -> tuple[float, ...]:
    """x positions where phi may have kinks (grid lines of tabulated variants)."""
    if isinstance(phi, TabulatedPhi):
        return tuple(phi._xs)
    if isinstance(phi, RowNormalizedPhi):
        return phi_x_knots(phi.base)
    return ()


def phi_y_knots(phi) -> tuple[float, ...]:
    if isinstance(phi, TabulatedPhi):
        return tuple(phi._ys)
    if isinstance(phi, RowNormalizedPhi):
        return phi_y_knots(phi.base)
    return ()


# ---------------------------------------------------------------------------
# mechanisms


@dataclass(frozen=True)
class Upward:
    p: float

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"Upward requires p in (0, 1), got {self.p}")


@dataclass(frozen=True)
class ConfidenceBased:
    q: DelegationProbabilityFn

    def __post_init__(self):
        if not self.q.is_decreasing():
            raise ValueError("ConfidenceBased requires a monotonically decreasing q")


@dataclass(frozen=True)
class GeneralContinuous:
    p: float
    phi: PairWeightFn

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"GeneralContinuous requires p in (0, 1), got {self.p}")
        base = self.phi.base if isinstance(self.phi, RowNormalizedPhi) else self.phi
        if isinstance(base, Indicator):
            raise ValueError("GeneralContinuous requires a strictly positive phi; Indicator attains 0")
        if isinstance(base, TabulatedPhi) and min(min(r) for r in base.values) <= 0.0:
            raise ValueError("GeneralContinuous requires a strictly positive phi")


MechanismSpec = Union[Upward, ConfidenceBased, GeneralContinuous]


def delegation_probability(mech: MechanismSpec, x):
    """q(x) for the mechanism, vectorized over x."""
    x = np.asarray(x, dtype=float)
    if isinstance(mech, Upward):
        return np.full_like(x, mech.p)
    if isinstance(mech, ConfidenceBased):
        return mech.q(x)
    if isinstance(mech, GeneralContinuous):
        return np.full_like(x, mech.p)
    raise TypeError(f"not a mechanism: {mech!r}")


def pair_weight(mech: MechanismSpec, x, y):
    """phi(x, y) for the mechanism, vectorized over broadcastable x, y."""
    if isinstance(mech, Upward):
        return Indicator()(x, y)
    if isinstance(mech, ConfidenceBased):
        return Constant1()(x, y)
    if isinstance(mech, GeneralContinuous):
        return mech.phi(x, y)
    raise TypeError(f"not a mechanism: {mech!r}")


def phi_mean_in_y(phi: PairWeightFn, dist, x: float) -> float:
    """E_{y ~ dist}[phi(x, y)], closed-form where possible."""
    if isinstance(phi, Constant1):
        return 1.0
    if isinstance(phi, AffineInY):
        return phi.c0 + phi.c1 * distributions.mean(dist)
    if isinstance(phi, Indicator):
        return 1.0 - float(distributions.cdf(dist, x))
    breaks = set(distributions._breakpoints(dist))
    breaks.update(phi_y_knots(phi))
    return integrate(
        lambda y: float(phi(x, y)) * float(distributions.pdf(dist, y)),
        0.0,
        1.0,
        1e-12,
        breaks,
    )


def normalize_phi(phi: PairWeightFn, dist) -> PairWeightFn:
    """Rescale phi so that E_{y ~ dist}[phi(x, y)] = 1 for every x.

    The rescaled function induces the same target distribution for every
    delegator, so sampling behaviour is unchanged; only the normalization
    convention used by the bucketized branching analysis differs.
    """
    if isinstance(phi, Indicator):
        raise NotStrictlyPositiveError("Indicator cannot be normalized: it attains 0")
    if isinstance(phi, Constant1):
        return phi
    if isinstance(phi, AffineInY):
        m = phi.c0 + phi.c1 * distributions.mean(dist)
        return AffineInY(phi.c0 / m, phi.c1 / m)
    if isinstance(phi, ExpInY):
        m = phi_mean_in_y(phi, dist, 0.0)
        return ExpInY(phi.lam, phi.scale / m)
    if isinstance(phi, (TabulatedPhi, RowNormalizedPhi)):
        return RowNormalizedPhi(phi, dist)
    raise TypeError(f"not a pair weight function: {phi!r}")


def phi_bounds(phi: PairWeightFn) -> tuple[float, float]:
    """(min, max) of phi over [0, 1]^2. Errors if a positive phi attains 0."""
    if isinstance(phi, Indicator):
        return 0.0, 1.0
    if isinstance(phi, Constant1):
        return 1.0, 1.0
    if isinstance(phi, AffineInY):
        return phi.c0, phi.c0 + phi.c1
    if isinstance(phi, ExpInY):
        return phi.scale, phi.scale * float(np.exp(phi.lam))
    if isinstance(phi, TabulatedPhi):
        lo, hi = float(phi._arr.min()), float(phi._arr.max())
        if lo <= 0.0:
            raise NotStrictlyPositiveError("TabulatedPhi attains 0 on its grid")
        return lo, hi
    if isinstance(phi, RowNormalizedPhi):
        # grid + monotonicity: extremes of phi(x, y) over y sit at y in {0, 1}
        xs = np.unique(np.concatenate([np.linspace(0.0, 1.0, 513), phi_x_knots(phi)]))
        lo = float(np.min(phi(xs, 0.0)))
        hi = float(np.max(phi(xs, 1.0)))
        if lo <= 0.0:
            raise NotStrictlyPositiveError("normalized phi attains 0")
        return lo, hi
    raise TypeError(f"not a pair weight function: {phi!r}")


# ---------------------------------------------------------------------------
# config representation


def q_from_config(obj: dict) -> DelegationProbabilityFn:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("q config must be an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "constant":
        return ConstantQ(float(obj["p"]))
    if kind == "linear":
        return LinearQ(float(obj["a"]), float(obj["b"]))
    if kind == "piecewise_linear":
        return PiecewiseLinearQ(tuple((float(x), float(v)) for x, v in obj["knots"]))
    raise ValueError(f"unknown q kind: {kind!r}")


def q_to_config(q: DelegationProbabilityFn) -> dict:
    if isinstance(q, ConstantQ):
        return {"kind": "constant", "p": q.p}
    if isinstance(q, LinearQ):
        return {"kind": "linear", "a": q.a, "b": q.b}
    if isinstance(q, PiecewiseLinearQ):
        return {"kind": "piecewise_linear", "knots": [list(k) for k in q.knots]}
    raise TypeError(f"not a q function: {q!r}")


def phi_from_config(obj: dict) -> PairWeightFn:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("phi config must be an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "indicator":
        return Indicator()
    if kind == "constant1":
        return Constant1()
    if kind == "affine_in_y":
        return AffineInY(float(obj["c0"]), float(obj["c1"]))
    if kind == "exp_in_y":
        return ExpInY(float(obj["lambda"]), float(obj.get("scale", 1.0)))
    if kind == "tabulated":
        return TabulatedPhi(tuple(tuple(float(v) for v in row) for row in obj["values"]))
    if kind == "row_normalized":
        return RowNormalizedPhi(phi_from_config(obj["base"]), distributions.from_config(obj["distribution"]))
    raise ValueError(f"unknown phi kind: {kind!r}")


def phi_to_config(phi: PairWeightFn) -> dict:
    if isinstance(phi, Indicator):
        return {"kind": "indicator"}
    if isinstance(phi, Constant1):
        return {"kind": "constant1"}
    if isinstance(phi, AffineInY):
        return {"kind": "affine_in_y", "c0": phi.c0, "c1": phi.c1}
    if isinstance(phi, ExpInY):
        return {"kind": "exp_in_y", "lambda": phi.lam, "scale": phi.scale}
    if isinstance(phi, TabulatedPhi):
        return {"kind": "tabulated", "values": [list(r) for r in phi.values]}
    if isinstance(phi, RowNormalizedPhi):
        return {
            "kind": "row_normalized",
            "base": phi_to_config(phi.base),
            "distribution": distributions.to_config(phi.dist),
        }
    raise TypeError(f"not a pair weight function: {phi!r}")


def from_config(obj: dict) -> MechanismSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("mechanism config must be an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "upward":
        return Upward(float(obj["p"]))
    if kind == "confidence":
        return ConfidenceBased(q_from_config(obj["q"]))
    if kind == "general":
        return GeneralContinuous(float(obj["p"]), phi_from_config(obj["phi"]))
    raise ValueError(f"unknown mechanism kind: {kind!r}")


def to_config(mech: MechanismSpec) -> dict:
    if isinstance(mech, Upward):
        return {"kind": "upward", "p": mech.p}
    if isinstance(mech, ConfidenceBased):
        return {"kind": "confidence", "q": q_to_config(mech.q)}
    if isinstance(mech, GeneralContinuous):
        return {"kind": "general", "p": mech.p, "phi": phi_to_config(mech.phi)}
    raise TypeError(f"not a mechanism: {mech!r}")
