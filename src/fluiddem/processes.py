"""Reference stochastic processes for delegation-concentration analysis.

The samplers here are the comparison processes used to study how much weight
a single voter can accumulate: the sequential component-growth (infinite
Polya urn / preferential attachment with escape) process, the single
component-size recurrences W and V, the binomial graph branching process, the
live/dead/neutral delegation branching process, and a bucketized multi-type
Poisson branching process with its expected-children matrix.

The V urn is drawn from its law, 1 + BetaBinomial(n, 1, start_other)
(Johnson & Kotz, Urn Models, 1977), multi-type branching by whole
generations, and the bucket model's spectral radius rho = p(1+eps)^3/(1-2eps)
from M pi = rho pi.

Delegation branching needs each voter's pair weight on all others, which
the mechanism's phi gives (its row_sums): in O(rows * n) from per-row sums
where phi(x, .) mixes two grid rows, from the rank order for an indicator.
"""

from __future__ import annotations

import json
import math
from collections import deque

import numpy as np

from .delegation_graph import NO_EDGE, forest_roots
from .distributions import DistributionSpec
from .mechanisms import MechanismSpec, PairWeight, phi_mean_in_y
from .record import Record

MAX_BUCKETS = 2048


# ---------------------------------------------------------------------------
# component growth (sequential equivalent of upward delegation)


def simulate_simon_components(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Sizes of all components after n sequential arrivals, in founding order.

    Arrival t joins an existing component C with probability p*|C|/(t-1)
    (realized by picking a uniform earlier arrival), otherwise founds a new
    component. Sizes always sum to n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    # a random recursive forest: arrival i > 0 that joins points at the
    # uniform earlier arrival floor(u_pick[i] * i); founders are the roots
    u_join = rng.random(n)
    u_pick = rng.random(n)
    parent = (u_pick * np.arange(n)).astype(np.int64)
    parent[u_join >= p] = NO_EDGE
    parent[0] = NO_EDGE
    return np.bincount(forest_roots(parent)[0], minlength=n)[parent < 0]


def simulate_w_process_batch(
    n: int, k: int, p: float, reps: int, rng: np.random.Generator
) -> np.ndarray:
    """Sizes at time n of `reps` components born at time k (growth rate p*W/(t-1))."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    w = np.ones(reps, dtype=np.int64)
    for t in range(k, n):
        w += rng.random(reps) < (p * w / t)
    return w


def expected_w(n: int, k: int, p: float) -> float:
    """E[W_n] for the component-size recurrence, via log-gamma.

    Equals the telescoping product prod_{i=k}^{n-1} (1 + p/i) to relative
    1e-10 for n < 3000; the gamma form avoids overflow for large n, but the
    difference of log-gammas near n log n cancels digits as n grows (about
    6e-10 relative at n = 1e5).
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    return math.exp(math.lgamma(n + p) + math.lgamma(k) - math.lgamma(k + p) - math.lgamma(n))


def simulate_v_process_batch(
    n: int, start_other: int, reps: int, rng: np.random.Generator
) -> np.ndarray:
    """Tracked counts of `reps` Polya urns (one tracked ball vs start_other others) after n additions."""
    if start_other < 1:
        raise ValueError("start_other must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    return 1 + rng.binomial(n, rng.beta(1, start_other, reps))


# ---------------------------------------------------------------------------
# branching processes


def simulate_graph_branching(n: int, p_prime: float, rng: np.random.Generator) -> int:
    """Total dead count of the binomial graph branching process.

    Offspring at each step are Bin(N, p_prime/n) drawn from the shrinking
    neutral pool of initial size n - 1; sub-critical for p_prime < 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < p_prime < 1.0:
        raise ValueError("p_prime must be in (0, 1)")
    live = 1
    neutral = n - 1
    dead = 0
    rate = p_prime / n
    while live > 0:
        children = int(rng.binomial(neutral, rate)) if neutral > 0 else 0
        live += children - 1
        neutral -= children
        dead += 1
    return dead


def simulate_delegation_branching(
    mech: MechanismSpec, competencies, root: int, rng: np.random.Generator
) -> int:
    """Dead count of the live/dead/neutral delegation branching process.

    Explores the delegation tree rooted at `root`: each neutral voter k joins
    a live voter j with the probability that k delegates to j conditioned on
    k not delegating to any already-dead voter. The returned count has the
    same distribution as 1 + dels(root) under direct graph sampling.
    """
    p_vec = np.asarray(competencies, dtype=float)
    n = p_vec.shape[0]
    if not 0 <= root < n:
        raise ValueError("root must be a voter index")
    # per-x rescalings cancel from the conditional ratios below
    phi = mech.phi.sampling_base
    q_vec = np.asarray(mech.q(p_vec), dtype=float)
    totals = phi.row_sums(p_vec)
    status = np.zeros(n, dtype=np.uint8)  # 0 neutral, 1 live, 2 dead
    status[root] = 1
    queue = deque([root])
    dead = 0
    while queue:
        j = queue.popleft()
        neutral = np.where(status == 0)[0]
        if neutral.size:
            w = np.asarray(phi(p_vec[neutral], p_vec[j]), dtype=float)
            with np.errstate(divide="ignore", invalid="ignore"):
                join_p = np.where(totals[neutral] > 0.0, q_vec[neutral] * w / totals[neutral], 0.0)
            joins = neutral[rng.random(neutral.size) < join_p]
            status[joins] = 1
            queue.extend(joins.tolist())
        status[j] = 2
        dead += 1
        # j is dead from now on: conditional denominators exclude weight on j
        totals = totals - np.asarray(phi(p_vec, p_vec[j]), dtype=float)
    return dead


# ---------------------------------------------------------------------------
# bucketized multi-type Poisson branching


class BucketModel(Record, eq=False):
    """Finite-type model of a pairwise weight function under a distribution.

    [0, 1] is split into B equal competence buckets with masses pi. phi_prime
    is the per-bucket-pair supremum of phi; phi_tilde renormalizes each row so
    that sum_t' phi_tilde[t, t'] * pi[t'] = 1 + eps. M[t, t'] is the expected
    number of type-t children of a type-t' parent in the dominating Poisson
    branching process (columns index the parent type), and satisfies
    M @ pi = rho * pi with rho = p*(1+eps)^3/(1-2*eps). rho is the spectral
    radius: pi >= 0 and M's rows outside pi's support are zero, so by
    Perron-Frobenius no eigenvalue of M is larger in modulus.
    """

    B: int
    boundaries: np.ndarray
    pi: np.ndarray
    phi_prime: np.ndarray
    phi_tilde: np.ndarray
    eps: float
    M: np.ndarray
    spectral_radius: float

    def to_json(self) -> str:
        fields = zip(self._fields, self._values())
        return json.dumps({f: v.tolist() if isinstance(v, np.ndarray) else v for f, v in fields})


def subcriticality_factor(p: float, eps: float) -> float:
    """p*(1+eps)^3/(1-2*eps); the dominating process is sub-critical iff < 1."""
    if eps >= 0.5:
        return math.inf
    return p * (1.0 + eps) ** 3 / (1.0 - 2.0 * eps)


def check_bucket_parameters(p: float, eps: float) -> None:
    """Refuse p outside (0, 1), eps <= 0 and a dominating process that is not sub-critical."""
    if not 0.0 < p < 1.0:
        raise ValueError("field 'p': must be in (0, 1)")
    if eps <= 0.0:
        raise ValueError("field 'eps': must be positive")
    factor = subcriticality_factor(p, eps)
    if not factor < 1.0:
        raise ValueError(
            f"field 'eps': p*(1+eps)^3/(1-2*eps) = {factor:.6g} >= 1; the model must be sub-critical"
        )


class BucketDocument(Record):
    """The `processes` command's config: a phi, which the command normalizes
    under the distribution before bucketing, and the model's p and eps."""

    phi: PairWeight
    distribution: DistributionSpec
    p: float
    eps: float

    def __post_init__(self):
        check_bucket_parameters(self.p, self.eps)


def _grid_modulus(phi: PairWeight, B: int) -> float:
    """Largest phi variation within any square of side 1/B, on a half-step lattice.

    The squares are its 3x3 windows at stride 2, reduced over rows, then
    columns, in bands of rows that share their edge rows: memory stays bounded
    as B grows, and the lattice of a B <= 64 is one band.
    """
    lattice = np.linspace(0.0, 1.0, 2 * B + 1)
    per_band = max(1, 4096 // B)  # rows of windows: about 2^14 lattice values
    windows = lambda op, a: op(op(a[:-2:2], a[1:-1:2]), a[2::2])  # noqa: E731
    modulus = 0.0
    for start in range(0, B, per_band):
        band = lattice[2 * start : 2 * min(start + per_band, B) + 1]
        vals = np.asarray(phi(band[:, None], lattice[None, :]), dtype=float)
        high = windows(np.maximum, windows(np.maximum, vals).T)
        modulus = max(modulus, float(np.max(high - windows(np.minimum, windows(np.minimum, vals).T))))
    return modulus


def _bucket_sup_table(phi: PairWeight, boundaries: np.ndarray) -> np.ndarray:
    """phi_prime[t, t'] = sup over x in bucket t of phi(x, upper bound of t').

    Monotonicity in y makes the y-supremum exact at the bucket's upper
    boundary. On each grid cell a tabulated phi is linear in x, a
    row-normalized one linear-fractional with a positive divisor, and any
    other phi constant, so phi is monotone in x there: the x-supremum lies at
    a bucket end or at a grid line inside the bucket.
    """
    uppers = boundaries[1:]
    xs = np.sort(np.concatenate([boundaries, phi.x_knots]))
    vals = np.asarray(phi(xs[:, None], uppers[None, :]), dtype=float)
    # rows from each lower end up to the next one cover the lower end and the
    # knots inside; the upper end is the next bucket's first row
    table = np.maximum.reduceat(vals, np.searchsorted(xs, boundaries[:-1]), axis=0)
    return np.maximum(table, vals[np.searchsorted(xs, uppers)])


def build_bucket_model(phi: PairWeight, dist, p: float, eps: float) -> BucketModel:
    """Bucketize a normalized phi into a sub-critical multi-type Poisson model.

    Requires p in (0, 1), eps > 0 with p*(1+eps)^3/(1-2*eps) < 1, and phi
    with unit y-mean under dist (see normalize_phi). The bucket count B
    doubles until the grid-estimated modulus of continuity over squares of
    side 1/B drops to L*eps, where [L, U] are the bounds of phi.
    """
    check_bucket_parameters(p, eps)
    xs = np.linspace(0.0, 1.0, 21)
    for x, m in zip(xs, phi_mean_in_y(phi, dist, xs)):
        if abs(m - 1.0) > 1e-6:
            raise ValueError(
                f"phi is not normalized: E_y[phi({x:.2f}, y)] = {m:.8f}; apply normalize_phi first"
            )
    low, _high = phi.bounds()

    B = 1
    while _grid_modulus(phi, B) > low * eps:
        B *= 2
        if B > MAX_BUCKETS:
            raise ValueError(f"phi varies too quickly to bucketize with B <= {MAX_BUCKETS}")

    boundaries = np.linspace(0.0, 1.0, B + 1)
    cdf_vals = np.asarray(dist.cdf(boundaries), dtype=float)
    pi = np.diff(cdf_vals)

    phi_prime = _bucket_sup_table(phi, boundaries)
    row_means = phi_prime @ pi
    phi_tilde = phi_prime * (1.0 + eps) / row_means[:, None]

    growth = p * (1.0 + eps) ** 2 / (1.0 - 2.0 * eps)
    M = growth * pi[:, None] * phi_tilde

    return BucketModel(
        B=B,
        boundaries=boundaries,
        pi=pi,
        phi_prime=phi_prime,
        phi_tilde=phi_tilde,
        eps=eps,
        M=M,
        spectral_radius=subcriticality_factor(p, eps),
    )


def simulate_multitype_poisson(
    model: BucketModel, start_type: int, cap: int, rng: np.random.Generator
) -> int:
    """Total progeny (root included) of the multi-type Poisson branching process.

    A parent of type t' begets Pois(M[t, t']) children of each type t,
    independently, so a generation `live` begets Pois((M @ live)[t]) of type
    t. Generations run until extinction or until `cap` are born; a returned
    value equal to cap means the process was truncated.
    """
    if not 0 <= start_type < model.B:
        raise ValueError("start_type must be a bucket index")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    live = np.zeros(model.B, dtype=np.int64)
    live[start_type] = 1
    total = 1
    while total < cap and live.any():
        live = rng.poisson(model.M @ live)
        total += int(live.sum())
    return min(total, cap)
