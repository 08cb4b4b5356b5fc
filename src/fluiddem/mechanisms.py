"""Delegation mechanisms: a delegation-probability function q paired with a
pairwise weight function phi.

A mechanism decides, per voter, whether to delegate (with probability
q(competence)) and, conditioned on delegating, places weight
phi(own competence, other competence) on every other voter and picks a target
proportionally. Three families are built in, each exposing `.q` and `.phi`:

* Upward(p): q == p, phi(x, y) = 1 if y > x else 0 (delegate uniformly to a
  strictly more competent voter).
* ConfidenceBased(q): phi == 1 (uniform target), q monotonically decreasing.
* GeneralContinuous(p, phi): q == p, phi continuous, positive and increasing
  in its second coordinate.

Each class answers for its family: a mechanism draws its out-edges, states
its lift constant, its max-weight bound's shape and whether the six-step
sampler applies; a weight function gives its y-mean, normalization, bounds,
grid-row mixture, knots and sampling base. One registry per family maps a
config document's `kind` to its class, and `read_record` reads every config
document by its fields' names, each nested one through `from_config`.
"""

from __future__ import annotations

import functools
import math
import warnings
from typing import Callable, Union

import numpy as np

from . import distributions
from .delegation_graph import NO_EDGE, _count_greater, mixture_targets
from .quadrature import integrate
from .record import Record
from .tally import GAIN_KINDS


# ---------------------------------------------------------------------------
# delegation probability functions


class ConstantQ(Record):
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


class LinearQ(Record):
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


class PiecewiseLinearQ(Record):
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


class RowMixture(Record, eq=False):
    """phi(x_i, .) = (1 - t_i)*row(k_i) + t_i*row(k_i + 1) for a vector of x_i.

    Bilinear interpolation is linear in x between grid rows; an x-independent
    phi is the one-row case, k = t = 0. Rows are built one at a time.
    """

    row: Callable[[int, np.ndarray], np.ndarray]  # grid row c evaluated at y
    k: np.ndarray  # int64: each x's lower grid row
    t: np.ndarray  # each x's weight on row k + 1
    rows: int

    def mixed(self, y, stat) -> np.ndarray:
        """stat(phi(x_i, y)) per x_i, for a stat linear in the row: the rows' stats mixed."""
        out = np.zeros(self.k.shape)
        for c in range(self.rows):
            coef = np.where(self.k == c, 1.0 - self.t, 0.0) + np.where(self.k + 1 == c, self.t, 0.0)
            out += coef * stat(self.row(c, y))
        return out


def _constant(value, x):
    """A divisor that ignores x (a module function, so a RowNormalizedPhi stays picklable)."""
    return value


class PairWeight(Record):
    """A weight function phi(x, y) on [0, 1]^2. The defaults fit an x-independent
    phi: one grid row, no knots, sampled as itself, its y-mean by quadrature."""

    depends_on_x = False
    x_knots = ()  # x positions where phi may have kinks (grid lines)
    y_knots = ()

    @property
    def sampling_base(self) -> "PairWeight":
        """A weight function with the same per-delegator target law, cheaper to evaluate."""
        return self

    def mean_in_y(self, dist, x: np.ndarray) -> np.ndarray:
        """E_{y ~ dist}[phi(x, y)] per entry of the array x."""
        breaks = {*dist.breakpoints(), *self.y_knots}
        return integrate(lambda y: self(x[..., None], y) * dist.pdf(y), 0.0, 1.0, 1e-12, breaks)

    def divisor(self, dist) -> Callable:
        """x -> E_{y ~ dist}[phi(x, y)], its quadratures done once: one for an x-independent phi."""
        return functools.partial(_constant, phi_mean_in_y(self, dist, np.zeros(1))[0])

    def normalized(self, dist) -> "PairWeight":
        return RowNormalizedPhi(self, dist)

    def row_mixture(self, x) -> RowMixture:
        """phi(x, .) as a mixture of grid rows, for each entry of x."""
        if self.depends_on_x:
            raise TypeError(f"no grid-row mixture for the x-dependent {self!r}")
        zeros = np.zeros(np.shape(x))
        return RowMixture(
            lambda c, y: np.asarray(self(0.0, y), dtype=float), zeros.astype(np.int64), zeros, 1
        )

    def row_sums(self, p_vec: np.ndarray) -> np.ndarray:
        """S[k] = sum over k' != k of phi(p_k, p_k'), mixed from per-row sums in O(rows * n)."""
        return self.row_mixture(p_vec).mixed(p_vec, lambda row: row.sum() - row)


class Indicator(PairWeight):
    """phi(x, y) = 1 if y > x else 0."""

    depends_on_x = True

    def __call__(self, x, y):
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        return (y > x).astype(float)

    def mean_in_y(self, dist, x):
        return 1.0 - dist.cdf(x)

    def divisor(self, dist):
        return functools.partial(self.mean_in_y, dist)

    def normalized(self, dist):
        raise ValueError("Indicator cannot be normalized: it attains 0")

    def bounds(self):
        return 0.0, 1.0

    def row_sums(self, p_vec):
        return _count_greater(p_vec)[1].astype(float)


class Constant1(PairWeight):
    def __call__(self, x, y):
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        return np.ones_like(y)

    def mean_in_y(self, dist, x):
        return np.ones(x.shape)

    def normalized(self, dist):
        return self

    def bounds(self):
        return 1.0, 1.0


class AffineInY(PairWeight):
    """phi(x, y) = c0 + c1*y with c0 > 0, c1 > 0."""

    c0: float
    c1: float

    def __post_init__(self):
        if self.c0 <= 0.0 or self.c1 <= 0.0:
            raise ValueError("AffineInY requires c0 > 0 and c1 > 0")

    def __call__(self, x, y):
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        return self.c0 + self.c1 * y

    def mean_in_y(self, dist, x):
        return np.full(x.shape, self.c0 + self.c1 * dist.mean())

    def normalized(self, dist):
        m = self.c0 + self.c1 * dist.mean()
        return AffineInY(self.c0 / m, self.c1 / m)

    def bounds(self):
        return self.c0, self.c0 + self.c1


class ExpInY(PairWeight):
    """phi(x, y) = scale * exp(lam * y) with lam > 0, scale > 0."""

    lam: float
    scale: float = 1.0

    def __post_init__(self):
        if self.lam <= 0.0 or self.scale <= 0.0:
            raise ValueError("ExpInY requires lam > 0 and scale > 0")

    def __call__(self, x, y):
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        return self.scale * np.exp(self.lam * y)

    def normalized(self, dist):
        return ExpInY(self.lam, self.scale / phi_mean_in_y(self, dist, 0.0))

    def bounds(self):
        with np.errstate(over="ignore"):  # inf past lam = 709.78, which positive_bounds refuses
            return self.scale, self.scale * float(np.exp(self.lam))


class TabulatedPhi(PairWeight):
    """Bilinear interpolation of positive values on a uniform grid over [0, 1]^2.

    values[i][j] is the weight at (x_i, y_j) with x_i = i/(nx-1) and
    y_j = j/(ny-1). Values must be nondecreasing along y so the interpolant is
    increasing in its second coordinate.
    """

    values: tuple[tuple[float, ...], ...]
    depends_on_x = True

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
        object.__setattr__(self, "x_knots", tuple(self._xs))
        object.__setattr__(self, "y_knots", tuple(self._ys))

    def __call__(self, x, y):
        arr = self._arr
        xi, tx = _grid_cell(self._xs, np.asarray(x, dtype=float))
        yi, ty = _grid_cell(self._ys, np.asarray(y, dtype=float))
        v00 = arr[xi, yi]
        v01 = arr[xi, yi + 1]
        v10 = arr[xi + 1, yi]
        v11 = arr[xi + 1, yi + 1]
        return (1 - tx) * ((1 - ty) * v00 + ty * v01) + tx * ((1 - ty) * v10 + ty * v11)

    def row(self, k: int, y) -> np.ndarray:
        """phi(x_k, y) on grid row k: piecewise linear in y between grid columns."""
        return np.interp(np.asarray(y, dtype=float), self._ys, self._arr[k])

    def row_mixture(self, x):
        k, t = _grid_cell(self._xs, np.asarray(x, dtype=float))
        return RowMixture(self.row, k, t, len(self.values))

    def divisor(self, dist):
        # bilinear interpolation is linear in x between grid rows, and so is its y-mean
        return functools.partial(np.interp, xp=self._xs, fp=phi_mean_in_y(self, dist, self._xs))

    def bounds(self):
        return float(self._arr.min()), float(self._arr.max())


def _grid_cell(grid: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cell index i in [0, len(grid) - 2] and position in [0, 1] of v within it."""
    i = np.clip(np.searchsorted(grid, v, side="right") - 1, 0, len(grid) - 2)
    return i, np.clip((v - grid[i]) / (grid[i + 1] - grid[i]), 0.0, 1.0)


class RowNormalizedPhi(PairWeight, eq=False):
    """base(x, y) / E_y[base(x, .)] under dist: exact unit y-mean for every x.

    Used to normalize x-dependent weight functions; the per-x divisor keeps
    every delegator's target distribution identical to the base function's,
    so it samples as its base and shares its knots. Divisors are closed-form
    in x (the base's `divisor`): bilinear interpolation is linear in x
    between grid rows, so a tabulated base's divisor interpolates its row
    means exactly; an indicator's is 1 - cdf(x); any other base ignores x
    and has one divisor. A row-normalized base is flattened, since per-x
    rescaling cancels.
    """

    base: PairWeight
    dist: object
    depends_on_x = True

    def __post_init__(self):
        base = self.base.sampling_base
        vars(self).update(base=base, x_knots=base.x_knots, y_knots=base.y_knots)

    @property
    def sampling_base(self):
        return self.base

    @functools.cached_property
    def _means(self) -> Callable:
        """x -> E_y[base(x, .)], built on first use."""
        return self.base.divisor(self.dist)

    def __call__(self, x, y):
        x = np.asarray(x, dtype=float)
        return np.asarray(self.base(x, y), dtype=float) / self._means(x)

    def bounds(self):
        # extremes over y sit at y in {0, 1} (monotone in y), and over x at a knot
        # or an end: between knots phi is monotone in x (see _bucket_sup_table)
        xs = np.array([0.0, 1.0, *self.x_knots])
        return float(np.min(self(xs, 0.0))), float(np.max(self(xs, 1.0)))


def positive_bounds(phi: PairWeight) -> tuple[float, float]:
    """phi's (inf, sup), refused unless 0 < inf <= sup < inf (NaN fails): the one
    positivity rule, for every phi a run uses. A family's bounds() only reports."""
    lo, hi = phi.bounds()
    if not 0.0 < lo <= hi < math.inf:
        raise ValueError(f"field 'phi': must be finite and strictly positive, spans [{lo:.6g}, {hi:.6g}]")
    return lo, hi


def phi_mean_in_y(phi: PairWeight, dist, x):
    """E_{y ~ dist}[phi(x, y)] per entry of x (a float for a float x), closed-form where possible."""
    x = np.asarray(x, dtype=float)
    m = phi.mean_in_y(dist, x)
    return m if x.ndim else float(m)


def normalize_phi(phi: PairWeight, dist) -> PairWeight:
    """Rescale phi so that E_{y ~ dist}[phi(x, y)] = 1 for every x.

    The rescaled function induces the same target distribution for every
    delegator, so sampling behaviour is unchanged; only the normalization
    convention used by the bucketized branching analysis differs.
    """
    return phi.normalized(dist)


def phi_y_moment(phi: PairWeight, dist, x):
    """E_{y ~ dist}[phi(x, y) * y] per entry of x (a float for a float x)."""
    x = np.asarray(x, dtype=float)
    breaks = {*dist.breakpoints(), *phi.y_knots}
    return integrate(lambda y: phi(x[..., None], y) * y * dist.pdf(y), 0.0, 1.0, 1e-11, breaks)


def gc_lift_constant(phi_normalized: PairWeight, dist) -> float:
    """min over x of E_y[phi(x, y) * y] - mean(dist), for unit-y-mean phi.

    For a tabulated base, E_y[phi(x, .) * y] and the divisor are linear in x
    on each grid cell, so the minimum lies on a grid row; other bases ignore x.
    """
    xs = np.array(phi_normalized.x_knots or (0.5,))
    return float(np.min(phi_y_moment(phi_normalized, dist, xs))) - dist.mean()


# ---------------------------------------------------------------------------
# mechanisms


class Upward(Record):
    p: float
    phi = Indicator()
    six_step = False

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"Upward requires p in (0, 1), got {self.p}")
        object.__setattr__(self, "q", ConstantQ(self.p))

    @property
    def delta_floor(self) -> float:
        """Max-weight bound C(n) = n**delta for delta in (delta_floor, 1)."""
        return self.p + (1.0 - self.p) * 7.0 / 8.0

    def out_edges(self, p_vec: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """out[i]: a uniform target among the voters strictly more competent
        than i, or NO_EDGE. The most competent voter places zero weight
        everywhere and votes directly. Each n-word array is dropped after its
        last read, so that at most three are alive beside p_vec."""
        n = p_vec.shape[0]
        wants = rng.random(n) < self.p
        desc_order, greater = _count_greater(p_vec)
        delegators = np.flatnonzero(wants & (greater > 0))
        above = greater[delegators]
        del wants, greater
        ranks = rng.random(delegators.size)
        ranks *= above
        ranks = ranks.astype(np.int64)  # truncation is floor: >= 0
        above -= 1
        np.minimum(ranks, above, out=ranks)
        targets = desc_order[ranks]
        del desc_order, ranks, above
        out = np.full(n, NO_EDGE, dtype=np.int64)
        out[delegators] = targets
        return out

    def lift(self, dist) -> tuple[float, float]:
        """The competence gap b - a between the 25th and 50th percentiles, and
        alpha = p*pi_a*pi_b*(b - a)/8 with pi_a = 1/4, pi_b = 1/2."""
        a, b = dist.quantile(0.25), dist.quantile(0.5)
        return b - a, self.p * 0.25 * 0.5 * (b - a) / 8.0


class ConfidenceBased(Record):
    q: DelegationProbabilityFn
    phi = Constant1()
    delta_floor = None  # C(n) = coeff * ln n
    six_step = False

    def __post_init__(self):
        if not self.q.is_decreasing():
            raise ValueError("ConfidenceBased requires a monotonically decreasing q")

    def out_edges(self, p_vec, rng):
        n = p_vec.shape[0]
        out = np.full(n, NO_EDGE, dtype=np.int64)
        u_delegate = rng.random(n)
        if n > 1:
            delegators = np.flatnonzero(u_delegate < self.q(p_vec))
            t = rng.integers(0, n - 1, size=delegators.size)
            out[delegators] = t + (t >= delegators)
        return out

    def lift(self, dist):
        """mu* (expected competence conditioned on not delegating), and alpha = (mu* - mu) / 6."""
        mu, mu_star = dist.mean(), distributions.nondelegator_mean(dist, self.q)
        if mu_star <= mu + 1e-12:
            raise ValueError(
                "q does not raise nondelegator competence (mu* <= mu); it must be decreasing"
            )
        return mu_star, (mu_star - mu) / 6.0


class GeneralContinuous(Record):
    p: float
    phi: PairWeight
    delta_floor = None  # C(n) = coeff * ln n
    six_step = True

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"GeneralContinuous requires p in (0, 1), got {self.p}")
        positive_bounds(self.phi.sampling_base)  # a normalized phi's own would take quadratures
        object.__setattr__(self, "q", ConstantQ(self.p))

    def out_edges(self, p_vec, rng):
        """out[i] from the grid-row mixture kernel (mixture_targets), or NO_EDGE."""
        n = p_vec.shape[0]
        out = np.full(n, NO_EDGE, dtype=np.int64)
        delegators = np.flatnonzero(rng.random(n) < self.p)
        if delegators.size and n > 1:
            out[delegators] = mixture_targets(
                self.phi.sampling_base, p_vec, delegators, np.arange(n), rng
            )
        return out

    def lift(self, dist):
        """c = min_x E_y[phi(x, y)*y] - mu for the normalized phi, and alpha = c*p/4
        (roughly p*n voters move their ballot to competence mu + c or better)."""
        c = gc_lift_constant(normalize_phi(self.phi, dist), dist)
        if c <= 1e-12:
            warnings.warn(
                "phi yields no competence lift (c = 0); a strictly y-increasing phi is required "
                "for positive gain",
                RuntimeWarning,
                stacklevel=2,
            )
            c = 0.0
        return c, c * self.p / 4.0


MechanismSpec = Union[Upward, ConfidenceBased, GeneralContinuous]


# ---------------------------------------------------------------------------
# config documents

Q_KINDS = {"constant": ConstantQ, "linear": LinearQ, "piecewise_linear": PiecewiseLinearQ}
PHI_KINDS = {
    "indicator": Indicator,
    "constant1": Constant1,
    "affine_in_y": AffineInY,
    "exp_in_y": ExpInY,
    "tabulated": TabulatedPhi,
    "row_normalized": RowNormalizedPhi,
}
MECHANISM_KINDS = {"upward": Upward, "confidence": ConfidenceBased, "general": GeneralContinuous}
_KEYS = {"lam": "lambda", "dist": "distribution"}  # a field's document key, where they differ
# the fields that hold a document of their own, and the registry of its kinds
_NESTED = {"mechanism": MECHANISM_KINDS, "q": Q_KINDS, "phi": PHI_KINDS, "base": PHI_KINDS,
           "dist": distributions.KINDS, "distribution": distributions.KINDS, "gain_mode": GAIN_KINDS}


def finite(value) -> float:
    """float(value) of a JSON number, refusing strings, booleans, NaN and the infinities."""
    if isinstance(value, (str, bool)):
        raise TypeError(f"must be a number, got {value!r}")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"must be finite, got {value!r}")
    return number


def _integer(value) -> int:
    """A finite JSON number as an int; a float must be integral (1e4 is 10000, 2.5 is an error)."""
    number = int(finite(value))
    if number != value:
        raise ValueError(f"{value!r} is not an integer")
    return number


def _integers(value) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise TypeError(f"must be a list of integers, not {value!r}")
    return tuple(map(_integer, value))


def _rows(value) -> tuple:
    return tuple(tuple(map(finite, row)) for row in value)


# how a field that is not a document is read; any other is a finite number
_READERS = {"knots": _rows, "values": _rows, "sizes": _integers,
            "seed": _integer, "reps_per_size": _integer, "reps": _integer}


def parse_field(name: str, convert, value):
    """convert(value), naming the config field if it raises ValueError, KeyError,
    TypeError or OverflowError (float of an integer beyond the float range). A
    nested document's check that names its own field gets the whole path."""
    try:
        return convert(value)
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        inner = str(exc).removeprefix("field '")
        where = f"{name}.{inner}" if inner != str(exc) else f"{name}': {exc}"
        raise ValueError(f"field '{where}") from exc


def from_config(kinds: dict, obj, path: str):
    """The class kinds[obj['kind']] read from the document's other fields by read_record."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError(f"field '{path}': must be an object with a 'kind' field")
    cls = kinds.get(obj["kind"]) if isinstance(obj["kind"], str) else None
    if cls is None:
        raise ValueError(f"field '{path}.kind': unknown kind {obj['kind']!r}")
    return read_record(cls, obj, path)


def read_record(cls, obj, path: str = ""):
    """The Record class cls built from the document obj, the one reader of every config.

    Each field is read by its name: mechanism, q, phi, base, distribution and
    gain_mode are documents of their own family; knots and values are lists of
    rows of numbers; sizes is a list of integers; seed, reps_per_size and reps
    are integers (1e4 is 10000, 2.5 is an error); any other field is a number.
    Numbers must be finite, and no string or boolean is one. A missing field
    takes its default, if it has one; null stands for the default only where
    that default is None. Every error is a ValueError naming the field's path,
    e.g. 'mechanism.phi.lambda'; path is '' for a whole config document, whose
    own checks name their fields.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"field '{path or 'config'}': must be a JSON object")
    values = {}
    for name in cls._fields:
        key = _KEYS.get(name, name)
        where = f"{path}.{key}" if path else key
        null_default = name in cls._defaults and cls._defaults[name] is None
        if key in obj and not (obj[key] is None and null_default):
            if name in _NESTED:
                values[name] = from_config(_NESTED[name], obj[key], where)
            else:
                values[name] = parse_field(where, _READERS.get(name, finite), obj[key])
        elif name not in cls._defaults:
            raise ValueError(f"field '{where}': missing")
    return parse_field(path, lambda fields: cls(**fields), values) if path else cls(**values)
