"""Continuous competence distributions on [0, 1].

Three variants are supported: Uniform(lo, hi), TruncatedBeta(a, b) (a Beta
law, whose support is already [0, 1]) and PiecewiseLinearDensity (a density
that is linear between knots and renormalized to integrate to 1). All are
atom-free, which the delegation analyses require. Moment and interval-mass
queries are closed-form; mixed queries against an arbitrary delegation
probability function fall back to adaptive quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from scipy import special

from .quadrature import integrate


class DegenerateMechanismError(ValueError):
    """Raised when a query conditions on an event of probability zero."""


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 <= self.lo < self.hi <= 1.0):
            raise ValueError(f"Uniform requires 0 <= lo < hi <= 1, got ({self.lo}, {self.hi})")


@dataclass(frozen=True)
class TruncatedBeta:
    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0.0 and self.b > 0.0):
            raise ValueError(f"TruncatedBeta requires a, b > 0, got ({self.a}, {self.b})")


@dataclass(frozen=True)
class PiecewiseLinearDensity:
    """Density linear between (x, density) knots; renormalized on construction.

    Knot positions must be strictly increasing inside [0, 1]; the density is
    zero outside the knot span. Densities are nonnegative with positive total
    mass.
    """

    knots: tuple[tuple[float, float], ...]

    def __post_init__(self):
        knots = tuple((float(x), float(d)) for x, d in self.knots)
        object.__setattr__(self, "knots", knots)
        xs = [x for x, _ in knots]
        ds = [d for _, d in knots]
        if len(knots) < 2:
            raise ValueError("PiecewiseLinearDensity needs at least 2 knots")
        if any(x1 >= x2 for x1, x2 in zip(xs, xs[1:])):
            raise ValueError("knot positions must be strictly increasing")
        if xs[0] < 0.0 or xs[-1] > 1.0:
            raise ValueError("knot positions must lie inside [0, 1]")
        if any(d < 0.0 for d in ds):
            raise ValueError("densities must be nonnegative")
        raw = sum((x2 - x1) * (d1 + d2) / 2.0 for (x1, d1), (x2, d2) in zip(knots, knots[1:]))
        if raw <= 0.0:
            raise ValueError("total density mass must be positive")

    def _arrays(self):
        xs = np.array([x for x, _ in self.knots])
        ds = np.array([d for _, d in self.knots])
        raw = float(np.sum((xs[1:] - xs[:-1]) * (ds[:-1] + ds[1:]) / 2.0))
        return xs, ds / raw


DistributionSpec = Union[Uniform, TruncatedBeta, PiecewiseLinearDensity]


def sample(dist: DistributionSpec, rng: np.random.Generator, size=None):
    """Draw from dist. Repeated draws with the same stream are bit-identical."""
    if isinstance(dist, Uniform):
        return dist.lo + (dist.hi - dist.lo) * rng.random(size)
    if isinstance(dist, TruncatedBeta):
        return rng.beta(dist.a, dist.b, size)
    if isinstance(dist, PiecewiseLinearDensity):
        return _pld_ppf(dist, rng.random(size))
    raise TypeError(f"not a distribution: {dist!r}")


def pdf(dist: DistributionSpec, x):
    x = np.asarray(x, dtype=float)
    if isinstance(dist, Uniform):
        inside = (x >= dist.lo) & (x <= dist.hi)
        return np.where(inside, 1.0 / (dist.hi - dist.lo), 0.0)
    if isinstance(dist, TruncatedBeta):
        with np.errstate(divide="ignore", invalid="ignore"):
            logp = (
                (dist.a - 1.0) * np.log(x)
                + (dist.b - 1.0) * np.log1p(-x)
                - special.betaln(dist.a, dist.b)
            )
        out = np.where((x >= 0.0) & (x <= 1.0), np.exp(logp), 0.0)
        return np.where(np.isfinite(out), out, 0.0)
    if isinstance(dist, PiecewiseLinearDensity):
        xs, ds = dist._arrays()
        inside = (x >= xs[0]) & (x <= xs[-1])
        return np.where(inside, np.interp(x, xs, ds), 0.0)
    raise TypeError(f"not a distribution: {dist!r}")


def cdf(dist: DistributionSpec, x):
    x = np.asarray(x, dtype=float)
    if isinstance(dist, Uniform):
        return np.clip((x - dist.lo) / (dist.hi - dist.lo), 0.0, 1.0)
    if isinstance(dist, TruncatedBeta):
        return special.betainc(dist.a, dist.b, np.clip(x, 0.0, 1.0))
    if isinstance(dist, PiecewiseLinearDensity):
        xs, ds = dist._arrays()
        seg_mass = (xs[1:] - xs[:-1]) * (ds[:-1] + ds[1:]) / 2.0
        cum = np.concatenate([[0.0], np.cumsum(seg_mass)])
        xc = np.clip(x, xs[0], xs[-1])
        i = np.clip(np.searchsorted(xs, xc, side="right") - 1, 0, len(xs) - 2)
        dx = xc - xs[i]
        width = xs[i + 1] - xs[i]
        slope = (ds[i + 1] - ds[i]) / width
        return np.clip(cum[i] + ds[i] * dx + 0.5 * slope * dx * dx, 0.0, 1.0)
    raise TypeError(f"not a distribution: {dist!r}")


def _pld_ppf(dist: PiecewiseLinearDensity, u):
    xs, ds = dist._arrays()
    seg_mass = (xs[1:] - xs[:-1]) * (ds[:-1] + ds[1:]) / 2.0
    cum = np.concatenate([[0.0], np.cumsum(seg_mass)])
    cum[-1] = 1.0
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    i = np.clip(np.searchsorted(cum, u_arr, side="right") - 1, 0, len(xs) - 2)
    width = xs[i + 1] - xs[i]
    slope = (ds[i + 1] - ds[i]) / width
    c = u_arr - cum[i]
    a_coef = 0.5 * slope
    b_coef = ds[i]
    # solve a t^2 + b t = c for t in [0, width]
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = np.sqrt(np.maximum(b_coef * b_coef + 4.0 * a_coef * c, 0.0))
        t_quad = np.where(a_coef >= 0.0, 2.0 * c / (disc + b_coef), (disc - b_coef) / (2.0 * a_coef))
        t_lin = c / np.where(b_coef > 0.0, b_coef, np.inf)
    t = np.where(np.abs(a_coef) > 1e-300, t_quad, t_lin)
    t = np.clip(np.nan_to_num(t, nan=0.0), 0.0, width)
    out = xs[i] + t
    if np.isscalar(u) or np.asarray(u).ndim == 0:
        return float(out[0])
    return out


def mean(dist: DistributionSpec) -> float:
    """E[p] for p ~ dist. Closed-form for every variant (within 1e-10)."""
    if isinstance(dist, Uniform):
        return 0.5 * (dist.lo + dist.hi)
    if isinstance(dist, TruncatedBeta):
        return dist.a / (dist.a + dist.b)
    if isinstance(dist, PiecewiseLinearDensity):
        xs, ds = dist._arrays()
        total = 0.0
        for x1, x2, d1, d2 in zip(xs[:-1], xs[1:], ds[:-1], ds[1:]):
            slope = (d2 - d1) / (x2 - x1)
            intercept = d1 - slope * x1
            total += intercept * (x2**2 - x1**2) / 2.0 + slope * (x2**3 - x1**3) / 3.0
        return float(total)
    raise TypeError(f"not a distribution: {dist!r}")


def interval_mass(dist: DistributionSpec, lo: float, hi: float) -> float:
    """P[lo < p <= hi] for p ~ dist."""
    if lo > hi:
        raise ValueError(f"interval_mass requires lo <= hi, got ({lo}, {hi})")
    return float(cdf(dist, hi) - cdf(dist, lo))


def quantile(dist: DistributionSpec, q: float) -> float:
    """Smallest x with CDF(x) >= q."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    if isinstance(dist, Uniform):
        return dist.lo + q * (dist.hi - dist.lo)
    if isinstance(dist, TruncatedBeta):
        return float(special.betaincinv(dist.a, dist.b, q))
    if isinstance(dist, PiecewiseLinearDensity):
        return float(_pld_ppf(dist, q))
    raise TypeError(f"not a distribution: {dist!r}")


def _breakpoints(dist: DistributionSpec):
    if isinstance(dist, Uniform):
        return (dist.lo, dist.hi)
    if isinstance(dist, PiecewiseLinearDensity):
        return tuple(x for x, _ in dist.knots)
    return ()


def expectation(dist: DistributionSpec, g: Callable, tol: float = 1e-10) -> float:
    """E[g(p)] by adaptive quadrature, splitting at density and g kinks."""
    breaks = set(_breakpoints(dist))
    breaks.update(getattr(g, "breakpoints", lambda: ())())
    return integrate(lambda x: float(g(x)) * float(pdf(dist, x)), 0.0, 1.0, tol, breaks)


def nondelegator_mean(dist: DistributionSpec, q) -> float:
    """Expected competence conditioned on not delegating.

    q maps competence to delegation probability; the result is
    E[(1 - q(p)) * p] / E[1 - q(p)], computed by quadrature to 1e-9. When q
    is strictly decreasing this exceeds mean(dist); the package checks that
    as a test property rather than assuming it.
    """
    den = expectation(dist, lambda x: 1.0 - float(q(x)), tol=1e-10)
    if den <= 1e-12:
        raise DegenerateMechanismError("everyone delegates: E[1 - q] = 0")
    num = expectation(dist, lambda x: (1.0 - float(q(x))) * x, tol=1e-10)
    return num / den


def from_config(obj: dict) -> DistributionSpec:
    """Build a distribution from its tagged-object config form."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("distribution config must be an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "uniform":
        return Uniform(float(obj["lo"]), float(obj["hi"]))
    if kind in ("beta", "truncated_beta"):
        return TruncatedBeta(float(obj["a"]), float(obj["b"]))
    if kind == "piecewise_linear_density":
        return PiecewiseLinearDensity(tuple((float(x), float(d)) for x, d in obj["knots"]))
    raise ValueError(f"unknown distribution kind: {kind!r}")


def to_config(dist: DistributionSpec) -> dict:
    if isinstance(dist, Uniform):
        return {"kind": "uniform", "lo": dist.lo, "hi": dist.hi}
    if isinstance(dist, TruncatedBeta):
        return {"kind": "truncated_beta", "a": dist.a, "b": dist.b}
    if isinstance(dist, PiecewiseLinearDensity):
        return {"kind": "piecewise_linear_density", "knots": [list(k) for k in dist.knots]}
    raise TypeError(f"not a distribution: {dist!r}")
