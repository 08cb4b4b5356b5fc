"""Exact and Monte Carlo tallies of correctness probabilities.

Direct voting is correct when the number of correct votes strictly exceeds
n/2; weighted fluid voting is correct when the weight-weighted correct votes
strictly exceed n/2 (ties count as incorrect, which matters for even n).

The exact path multiplies the voters' probability generating polynomials
(1 - p_i) + p_i x^{w_i} in a product tree (Biscarri, Zhao & Brunner, CSDA
122, 2018): Poisson-binomial pmfs per weight class, dilated by the weight and
convolved, with FFT products once the polynomials reach
DIRECT_PRODUCT_MAX_LEN coefficients. It costs O(W log^2 W) for total weight
W. Voters with p_i in {0, 1} are taken out of the product, so degenerate
instances give exact 0.0 and 1.0.

Against the O(n * W) dynamic program `dp_tail`, kept as the test oracle,
the absolute error of a tail was at most 1.3e-14 on random weighted
instances up to n = 20,000, and 1.1e-13 where every p_i is below 0.01 (the
round-off of each FFT coefficient is about 1e-17 and the tail sums up to n
of them). On confidence-graph weight profiles under Uniform(0, 1), for the
direct tail and for fluid tails at n/2 and at the fluid mean, it was at most
1.3e-14, 2.8e-14, 3.2e-14 and 8.1e-14 at n = 2e4, 5e4, 1e5 and 2e5: round-off
grows roughly in proportion to n. Extrapolated linearly, not measured, it is
about 4e-13 at n = 1e6 (6e-12 with every p_i below 0.01). The tests pin it at
1e-12 up to n = 50,000.

MAX_TOTAL_WEIGHT bounds W. The product tree's working set is about 74 bytes
per voter (tracemalloc peak of `direct_tail`: 70.6 MiB at n = 1e6), so the
limit of 1e7 keeps one instance's tallies under 1 GB.

The Monte Carlo path samples full vote vectors and reports Hoeffding
confidence intervals.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .delegation_graph import DelegationGraph, compute_weights

MAX_TOTAL_WEIGHT = 10_000_000
BRUTE_FORCE_MAX_N = 20
DIRECT_PRODUCT_MAX_LEN = 32


@dataclass(frozen=True)
class GainReport:
    """P[fluid correct] - P[direct correct] for one instance."""

    p_direct: float
    p_fluid: float
    gain: float
    method: str  # "exact" | "brute_force" | "monte_carlo"
    ci_halfwidth: Optional[float] = None
    reps: Optional[int] = None

    def to_json(self) -> str:
        payload = {
            "p_direct": self.p_direct,
            "p_fluid": self.p_fluid,
            "gain": self.gain,
            "method": self.method,
        }
        if self.ci_halfwidth is not None:
            payload["ci_halfwidth"] = self.ci_halfwidth
        if self.reps is not None:
            payload["reps"] = self.reps
        return json.dumps(payload)


def _tail_from_pmf(pmf: np.ndarray, threshold: float) -> float:
    kmin = int(math.floor(threshold)) + 1
    if kmin <= 0:
        return 1.0  # every achievable total exceeds the threshold
    if kmin >= pmf.shape[0]:
        return 0.0
    return min(math.fsum(pmf[kmin:].tolist()), 1.0)


def _check_tail_inputs(weights, probs) -> tuple[np.ndarray, np.ndarray]:
    """(weights as int64, probs as float) after the shared input checks."""
    w = np.asarray(weights)
    p = np.asarray(probs, dtype=float)
    if w.shape != p.shape:
        raise ValueError("weights and probs must have equal length")
    if not np.issubdtype(w.dtype, np.integer):
        w_int = np.asarray(np.rint(w), dtype=np.int64)
        if np.any(np.abs(w - w_int) > 0):
            raise ValueError("weights must be nonnegative integers")
        w = w_int
    w = w.astype(np.int64)
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative integers")
    if np.any((p < 0.0) | (p > 1.0)):
        raise ValueError("probs must lie in [0, 1]")
    total = int(w.sum())
    if total > MAX_TOTAL_WEIGHT:
        raise ValueError(f"total weight {total} exceeds supported maximum {MAX_TOTAL_WEIGHT}")
    return w, p


def _multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise products of polynomials, coefficients along the last axis.

    When either factor is shorter than DIRECT_PRODUCT_MAX_LEN the product is
    a direct convolution, which is faster there and rounds like the dynamic
    program; otherwise it goes through a real FFT, and the round-off that
    makes coefficients negative is clipped to 0.
    """
    la, lb = a.shape[-1], b.shape[-1]
    size = la + lb - 1
    if min(la, lb) < DIRECT_PRODUCT_MAX_LEN:
        if la > lb:
            a, b, la, lb = b, a, lb, la
        out = np.zeros(a.shape[:-1] + (size,))
        for j in range(la):
            out[..., j : j + lb] += a[..., j, None] * b
        return out
    # A cyclic product of length size - 1 wraps only the top coefficient onto
    # the constant one; both are products of end coefficients, set exactly.
    # The inverse transform writes into the product's buffer, one coefficient
    # wider than the cyclic product when nfft = size - 1 (irfft's out= needs
    # numpy >= 2.0, the floor in pyproject.toml).
    nfft = 1 << (size - 2).bit_length()
    spectrum = np.fft.rfft(a, nfft)
    spectrum *= np.fft.rfft(b, nfft)
    buf = np.empty(spectrum.shape[:-1] + (max(nfft, size),))
    np.fft.irfft(spectrum, nfft, out=buf[..., :nfft])
    prod = buf[..., :size]
    prod[..., 0] = a[..., 0] * b[..., 0]
    prod[..., -1] = a[..., -1] * b[..., -1]
    return np.maximum(prod, 0.0, out=prod)


def _poisson_binomial_pmfs(probs: np.ndarray, counts: np.ndarray) -> list[np.ndarray]:
    """pmfs of the success counts of consecutive groups of Bernoulli(p_i) trials.

    `probs` holds counts[0] trials of the first group, then counts[1] of the
    second, and so on; the result holds one pmf per group. One product tree
    serves every group: the leaves [1 - p_i, p_i] are multiplied pairwise
    within their group, one level at a time, all pairs of a level in one
    batched product; a group with an odd number of rows is padded with the
    polynomial 1, and a group leaves the tree once it is down to one row.
    """
    rows = np.stack([1.0 - probs, probs], axis=1)
    pmfs = [None] * len(counts)
    groups = np.arange(len(counts))  # the groups still in the tree, in row order
    left = counts  # their rows
    while True:
        done = left == 1
        starts = np.cumsum(left) - left
        for g, start in zip(groups[done].tolist(), starts[done].tolist()):
            pmfs[g] = rows[start, : counts[g] + 1].copy()
        if done.all():
            return pmfs
        rows, groups, left = rows[np.repeat(~done, left)], groups[~done], left[~done]
        one = np.zeros(rows.shape[1])
        one[0] = 1.0
        rows = np.insert(rows, np.cumsum(left)[left % 2 == 1], one, axis=0)
        left = (left + 1) // 2
        rows = _multiply(rows[0::2], rows[1::2])


def weighted_poisson_binomial_tail(weights, probs, threshold: float) -> float:
    """Exact P[sum_i w_i V_i > threshold] with independent V_i ~ Bernoulli(p_i).

    Voters with w_i = 0 or p_i = 0 never add to the total and p_i = 1 voters
    add a fixed shift, so only the rest enter the pmf. Those are grouped by
    weight; each group's Poisson-binomial pmf is dilated by its weight, and
    the groups are convolved. See the module docstring for the error bound.
    """
    w, p = _check_tail_inputs(weights, probs)
    shift = int(w[p == 1.0].sum())
    uncertain = (w > 0) & (p > 0.0) & (p < 1.0)
    w, p = w[uncertain], p[uncertain]
    values, counts = np.unique(w, return_counts=True)
    groups = _poisson_binomial_pmfs(p[np.argsort(w, kind="stable")], counts)
    pmfs = []
    for value, group in zip(values.tolist(), groups):
        dilated = np.zeros(value * (group.shape[0] - 1) + 1)
        dilated[::value] = group
        pmfs.append(dilated)
    while len(pmfs) > 1:
        products = [_multiply(a, b) for a, b in zip(pmfs[0::2], pmfs[1::2])]
        pmfs = products + pmfs[2 * len(products) :]
    pmf = pmfs[0] if pmfs else np.ones(1)
    return _tail_from_pmf(pmf, threshold - shift)


def direct_tail(probs) -> float:
    """Exact P[number of correct votes > n/2] under direct voting."""
    p = np.asarray(probs, dtype=float)
    n = p.shape[0]
    if n < 1:
        raise ValueError("need at least one voter")
    return weighted_poisson_binomial_tail(np.ones(n, dtype=np.int64), p, n / 2.0)


def dp_tail(weights, probs, threshold: float) -> float:
    """Test oracle: the tail by an O(n * sum(w)) dynamic program over totals."""
    w, p = _check_tail_inputs(weights, probs)
    total = int(w.sum())
    pmf = np.zeros(total + 1)
    pmf[0] = 1.0
    top = 0
    nz = np.where(w > 0)[0]
    for i in nz.tolist():
        wi = int(w[i])
        pi = float(p[i])
        seg = pmf[: top + 1].copy()
        pmf[: top + wi + 1] = 0.0
        pmf[: top + 1] = seg * (1.0 - pi)
        pmf[wi : top + wi + 1] += seg * pi
        top += wi
    return _tail_from_pmf(pmf, threshold)


def brute_force_tail(weights, probs, threshold: float) -> float:
    """Test oracle: exact tail by enumerating all 2^n vote outcomes (n <= 20)."""
    w = np.asarray(weights, dtype=np.int64)
    p = np.asarray(probs, dtype=float)
    n = p.shape[0]
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force supports n <= {BRUTE_FORCE_MAX_N}, got {n}")
    masks = np.arange(1 << n, dtype=np.uint32)
    bits = ((masks[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(np.uint8)
    totals = bits @ w
    outcome_probs = np.prod(np.where(bits == 1, p, 1.0 - p), axis=1)
    selected = outcome_probs[totals > threshold]
    return min(math.fsum(selected.tolist()), 1.0)


def exact_gain(competencies, graph: DelegationGraph, *, weights=None) -> GainReport:
    """Exact gain report for one instance (product-tree FFT tallies).

    `weights` is the graph's weight profile when the caller has computed it
    already; by default it is computed here.
    """
    p = np.asarray(competencies, dtype=float)
    n = graph.n
    if weights is None:
        weights = compute_weights(graph).weight
    p_fluid = weighted_poisson_binomial_tail(weights, p, n / 2.0)
    p_direct = direct_tail(p)
    return GainReport(p_direct=p_direct, p_fluid=p_fluid, gain=p_fluid - p_direct, method="exact")


def brute_force_gain(competencies, graph: DelegationGraph) -> GainReport:
    """Gain by full outcome enumeration (n <= 20); oracle for exact_gain."""
    p = np.asarray(competencies, dtype=float)
    n = graph.n
    profile = compute_weights(graph)
    p_fluid = brute_force_tail(profile.weight, p, n / 2.0)
    p_direct = brute_force_tail(np.ones(n, dtype=np.int64), p, n / 2.0)
    return GainReport(
        p_direct=p_direct, p_fluid=p_fluid, gain=p_fluid - p_direct, method="brute_force"
    )


def hoeffding_halfwidth(reps: int, delta: float) -> float:
    """Two-sided Hoeffding confidence half-width for a mean of [0, 1] samples."""
    return math.sqrt(math.log(2.0 / delta) / (2.0 * reps))


def monte_carlo_gain(
    competencies,
    graph: DelegationGraph,
    reps: int,
    delta: float,
    rng: np.random.Generator,
    *,
    weights=None,
) -> GainReport:
    """Estimate the gain by sampling full vote vectors.

    ci_halfwidth is the Hoeffding half-width per estimated probability at
    confidence 1 - delta; the gain estimate is the difference of the two
    estimates, so a conservative interval for the gain is +- 2*ci_halfwidth.
    `weights` is as for `exact_gain`.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    p = np.asarray(competencies, dtype=float)
    n = graph.n
    if weights is None:
        weights = compute_weights(graph).weight
    w = np.asarray(weights, dtype=np.float64)
    half = n / 2.0

    fluid_hits = 0
    direct_hits = 0
    done = 0
    chunk = max(1, min(reps, 8_000_000 // max(n, 1)))
    while done < reps:
        m = min(chunk, reps - done)
        votes = rng.random((m, n)) < p
        direct_hits += int(np.count_nonzero(votes.sum(axis=1) > half))
        fluid_hits += int(np.count_nonzero(votes @ w > half))
        done += m
    p_direct = direct_hits / reps
    p_fluid = fluid_hits / reps
    return GainReport(
        p_direct=p_direct,
        p_fluid=p_fluid,
        gain=p_fluid - p_direct,
        method="monte_carlo",
        ci_halfwidth=hoeffding_halfwidth(reps, delta),
        reps=reps,
    )
