"""Continuous competence distributions on [0, 1].

Three variants are supported: Uniform(lo, hi), TruncatedBeta(a, b) (a Beta
law, whose support is already [0, 1]) and PiecewiseLinearDensity (a density
that is linear between knots and renormalized to integrate to 1). All are
atom-free, which the delegation analyses require. Each law answers for
itself: sample, pdf, cdf, mean, quantile and breakpoints (the kinks of its
density) are methods, closed-form for every law; mixed queries against an
arbitrary delegation probability function use quadrature. KINDS maps a
config document's `kind` to its law. scipy.special is imported only when a
TruncatedBeta is first queried, so runs under the other laws never load
scipy.
"""

from __future__ import annotations

from typing import Callable, Union

import numpy as np

from .quadrature import integrate
from .record import Record


class DegenerateMechanismError(ValueError):
    """Raised when a query conditions on an event of probability zero."""


class Uniform(Record):
    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 <= self.lo < self.hi <= 1.0):
            raise ValueError(f"Uniform requires 0 <= lo < hi <= 1, got ({self.lo}, {self.hi})")

    def sample(self, rng: np.random.Generator, size=None):
        return self.lo + (self.hi - self.lo) * rng.random(size)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= self.lo) & (x <= self.hi), 1.0 / (self.hi - self.lo), 0.0)

    def cdf(self, x):
        return np.clip((np.asarray(x, dtype=float) - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def quantile(self, q: float) -> float:
        return self.lo + _level(q) * (self.hi - self.lo)

    def breakpoints(self) -> tuple:
        return (self.lo, self.hi)


class TruncatedBeta(Record):
    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0.0 and self.b > 0.0):
            raise ValueError(f"TruncatedBeta requires a, b > 0, got ({self.a}, {self.b})")

    def sample(self, rng: np.random.Generator, size=None):
        return rng.beta(self.a, self.b, size)

    def pdf(self, x):
        from scipy import special

        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            logp = (
                (self.a - 1.0) * np.log(x)
                + (self.b - 1.0) * np.log1p(-x)
                - special.betaln(self.a, self.b)
            )
        out = np.where((x >= 0.0) & (x <= 1.0), np.exp(logp), 0.0)
        return np.where(np.isfinite(out), out, 0.0)

    def cdf(self, x):
        from scipy import special

        return special.betainc(self.a, self.b, np.clip(np.asarray(x, dtype=float), 0.0, 1.0))

    def mean(self) -> float:
        return self.a / (self.a + self.b)

    def quantile(self, q: float) -> float:
        from scipy import special

        return float(special.betaincinv(self.a, self.b, _level(q)))

    def breakpoints(self) -> tuple:
        return ()


class PiecewiseLinearDensity(Record):
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
        xs, ds = np.array(xs), np.array(ds)
        ds = ds / float(np.sum((xs[1:] - xs[:-1]) * (ds[:-1] + ds[1:]) / 2.0))
        cum = np.concatenate([[0.0], np.cumsum((xs[1:] - xs[:-1]) * (ds[:-1] + ds[1:]) / 2.0)])
        cum[-1] = 1.0  # the cdf never reads the last entry; the inverse clips to it
        for name, value in (("_xs", xs), ("_ds", ds), ("_cum", cum)):
            object.__setattr__(self, name, value)

    def sample(self, rng: np.random.Generator, size=None):
        return self._ppf(rng.random(size))

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        xs = self._xs
        return np.where((x >= xs[0]) & (x <= xs[-1]), np.interp(x, xs, self._ds), 0.0)

    def cdf(self, x):
        xs, ds = self._xs, self._ds
        xc = np.clip(np.asarray(x, dtype=float), xs[0], xs[-1])
        i = np.clip(np.searchsorted(xs, xc, side="right") - 1, 0, len(xs) - 2)
        dx = xc - xs[i]
        slope = (ds[i + 1] - ds[i]) / (xs[i + 1] - xs[i])
        return np.clip(self._cum[i] + ds[i] * dx + 0.5 * slope * dx * dx, 0.0, 1.0)

    def _ppf(self, u):
        """The inverse cdf at u (a float for a scalar u)."""
        xs, ds, cum = self._xs, self._ds, self._cum
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

    def mean(self) -> float:
        xs, ds = self._xs, self._ds
        total = 0.0
        for x1, x2, d1, d2 in zip(xs[:-1], xs[1:], ds[:-1], ds[1:]):
            slope = (d2 - d1) / (x2 - x1)
            intercept = d1 - slope * x1
            total += intercept * (x2**2 - x1**2) / 2.0 + slope * (x2**3 - x1**3) / 3.0
        return float(total)

    def quantile(self, q: float) -> float:
        return float(self._ppf(_level(q)))

    def breakpoints(self) -> tuple:
        return tuple(x for x, _ in self.knots)


def _level(q: float) -> float:
    """q, checked to be a level of `quantile` (the smallest x with cdf(x) >= q)."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    return q


DistributionSpec = Union[Uniform, TruncatedBeta, PiecewiseLinearDensity]
KINDS = {
    "uniform": Uniform,
    "beta": TruncatedBeta,
    "truncated_beta": TruncatedBeta,
    "piecewise_linear_density": PiecewiseLinearDensity,
}


def sample(dist: DistributionSpec, rng: np.random.Generator, size=None):
    """Draw from dist. Repeated draws with the same stream are bit-identical."""
    return dist.sample(rng, size)


def interval_mass(dist: DistributionSpec, lo: float, hi: float) -> float:
    """P[lo < p <= hi] for p ~ dist."""
    if lo > hi:
        raise ValueError(f"interval_mass requires lo <= hi, got ({lo}, {hi})")
    return float(dist.cdf(hi) - dist.cdf(lo))


def expectation(dist: DistributionSpec, g: Callable, tol: float = 1e-10, breakpoints=()) -> float:
    """E[g(p)] by quadrature, split at the density's kinks and at g's kinks
    `breakpoints`; g maps arrays to arrays."""
    breaks = {*dist.breakpoints(), *breakpoints}
    return integrate(lambda x: g(x) * dist.pdf(x), 0.0, 1.0, tol, breaks)


def nondelegator_mean(dist: DistributionSpec, q) -> float:
    """Expected competence conditioned on not delegating.

    q maps competence to delegation probability; the result is
    E[(1 - q(p)) * p] / E[1 - q(p)], computed by quadrature to 1e-9. When q
    is strictly decreasing this exceeds dist.mean(); the package checks that
    as a test property rather than assuming it.
    """
    kinks = q.breakpoints()
    den = expectation(dist, lambda x: 1.0 - q(x), tol=1e-10, breakpoints=kinks)
    if den <= 1e-12:
        raise DegenerateMechanismError("everyone delegates: E[1 - q] = 0")
    num = expectation(dist, lambda x: (1.0 - q(x)) * x, tol=1e-10, breakpoints=kinks)
    return num / den
