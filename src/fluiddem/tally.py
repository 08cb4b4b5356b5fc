"""Exact and Monte Carlo tallies of correctness probabilities.

Direct voting is correct when the number of correct votes strictly exceeds
n/2; weighted fluid voting is correct when the weight-weighted correct votes
strictly exceed n/2 (ties count as incorrect, which matters for even n).

The exact path multiplies the voters' probability generating polynomials
(1 - p_i) + p_i x^{w_i} in a product tree (Biscarri, Zhao & Brunner, CSDA
122, 2018). Voters with p_i in {0, 1} stay out of it, so degenerate instances
give exact 0.0 and 1.0; the rest are grouped by weight and padded with p = 0
to blocks of BLOCK. A coefficient-major direct stage gives each block's
count pmf, and batched FFT levels multiply a group's blocks pairwise, keeping
only each product's Hoeffding window (JASA 1963): the totals within
mu_S +- sqrt(sum_S w_i^2 ln(2/EPS) / 2) of a set S hold all but EPS of its
mass. The group pmfs, dilated by their weights, are multiplied pairwise, each
product on the cyclic lattice of its own window.

Fewer than n windows each drop or wrap in at most EPS = 1e-30 of mass, so a
tail moves by less than 1e-24 at n = 1e6, and a threshold outside the final
window (11,815 totals for a direct tail at n = 1e6) gives exactly 0.0 or 1.0.
Against the dynamic program `dp_tail` of the tests' helpers, the round-off
of a tail was at most 4.1e-14 on random weighted instances at n = 20,000, and
3.6e-15, 9.1e-15 and 1.5e-14 at n = 2e4, 5e4 and 1e5 on confidence and upward
graphs under Uniform(0, 1) (direct tail; fluid tails at n/2 and at the mean).
The tests pin it at 1e-12 up to n = 50,000.

MAX_TOTAL_WEIGHT = 1e7 keeps one instance's tallies under 1 GB: the working set is
about 57 bytes per voter (tracemalloc peaks at n = 1e6: 54.4 MiB for `direct_tail`,
28 and 24 MiB for fluid tails at the mean of confidence and upward graphs).

The Monte Carlo path samples full vote vectors and reports Hoeffding
confidence intervals.
"""

from __future__ import annotations

import json
import math
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .delegation_graph import DelegationGraph, compute_weights
from .record import Record

MAX_TOTAL_WEIGHT = 10_000_000
BLOCK = 32  # leaves per block of the direct levels
MC_CHUNK = 1_000_000  # uniforms per Monte Carlo chunk: 8 MB, and 8 MB of float votes for `votes @ w`
EPS = 1e-30  # mass a window may leave out


class GainReport(Record):
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
    w = w.astype(np.int64, copy=False)
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative integers")
    if np.any((p < 0.0) | (p > 1.0)):
        raise ValueError("probs must lie in [0, 1]")
    total = int(w.sum())
    if total > MAX_TOTAL_WEIGHT:
        raise ValueError(f"total weight {total} exceeds supported maximum {MAX_TOTAL_WEIGHT}")
    return w, p


def _window(mean, spread, lo, hi):
    """The totals in [lo, hi] within mean +- t, t = sqrt(spread ln(2/EPS) / 2), as integer bounds."""
    t = np.sqrt(spread * (math.log(2.0 / EPS) / 2.0))
    return np.clip([np.floor(mean - t), np.ceil(mean + t)], lo, hi).astype(np.int64)


def _block_pmfs(leaves: np.ndarray) -> np.ndarray:
    """Count pmfs of blocks of BLOCK Bernoulli trials: leaves[j, b] is trial j of block b.

    Coefficient-major: row k of the result holds P[k successes] of every
    block, and each level multiplies the first half of every block's
    polynomials by the second half over rows that span all blocks.
    """
    c = np.stack([1.0 - leaves, leaves])
    while c.shape[1] > 1:
        half = c.shape[1] // 2
        out = np.zeros((2 * len(c) - 1, half, c.shape[2]))
        for j, coef in enumerate(c[:, :half]):
            out[j : j + len(c)] += coef * c[:, half:]
        c = out
    return c[:, 0]


def _run_products(rows, count, mean, left):
    """Windowed products of runs of rows: run g is left[g] rows, row r the pmf of
    count[r] trials with mean mean[r]. Each level multiplies all pairs in one
    FFT product, wrapping only totals past each product's window onto it.
    Yields (runs, offsets, rows, counts, means) as runs come down to one row."""
    offset = np.zeros(len(rows), dtype=np.int64)
    runs = np.arange(len(left))
    while True:
        first = np.cumsum(left) - left
        done = left == 1
        yield runs[done], offset[first[done]], rows[first[done]], count[first[done]], mean[first[done]]
        if done.all():
            return
        keep = np.repeat(~done, left)
        rows, offset, count, mean = rows[keep], offset[keep], count[keep], mean[keep]
        runs, left = runs[~done], left[~done]
        half = (left + 1) // 2
        k = np.arange(half.sum()) - np.repeat(np.cumsum(half) - half, half)
        a = np.repeat(np.cumsum(left) - left, half) + 2 * k
        paired = 2 * k + 1 < np.repeat(left, half)
        b = a + paired
        offset = offset[a] + paired * offset[b]
        count = count[a] + paired * count[b]
        mean = mean[a] + paired * mean[b]
        width = rows.shape[1]
        lo, hi = _window(mean, count, offset, offset + 2 * width - 2)
        start = lo - offset
        kept = int((hi - lo).max()) + 1
        nfft = 1 << (max(int(start.max()) + kept, width) - 1).bit_length()
        # each level-sized array is dropped once used, which halves the peak
        spectrum = np.fft.rfft(rows[a], nfft)
        other = np.fft.rfft(rows[b], nfft)
        del rows
        other[~paired] = 1.0  # the spectrum of the polynomial 1
        spectrum *= other
        del other
        product = np.fft.irfft(spectrum, nfft)
        del spectrum
        rows = sliding_window_view(product, kept, axis=1)[np.arange(len(start)), start]
        del product
        np.maximum(rows, 0.0, out=rows)  # FFT round-off below 0
        offset, left = lo, half


def _folded_product(a, b):
    """Product of two group pmfs (first total, pmf, mean, spread) on its window's cyclic lattice."""
    (first_a, pmf_a, mean_a, spread_a), (first_b, pmf_b, mean_b, spread_b) = a, b
    first = first_a + first_b
    lo, hi = map(int, _window(mean_a + mean_b, spread_a + spread_b, first, first + len(pmf_a) + len(pmf_b) - 2))
    size = 1 << (hi - lo).bit_length()
    spectrum = np.fft.rfft(np.bincount((first_a + np.arange(len(pmf_a))) % size, pmf_a, size))
    spectrum *= np.fft.rfft(np.bincount((first_b + np.arange(len(pmf_b))) % size, pmf_b, size))
    pmf = np.fft.irfft(spectrum, size)[np.arange(lo, hi + 1) % size]
    return lo, np.maximum(pmf, 0.0, out=pmf), mean_a + mean_b, spread_a + spread_b


def weighted_poisson_binomial_tail(weights, probs, threshold: float) -> float:
    """Exact P[sum_i w_i V_i > threshold] with independent V_i ~ Bernoulli(p_i).

    Voters with w_i = 0 or p_i = 0 never add to the total and p_i = 1 voters
    add a fixed shift, so only the rest enter the pmf; see the module
    docstring for the product and its error bound.
    """
    w, p = _check_tail_inputs(weights, probs)
    shift = int(w[p == 1.0].sum())
    uncertain = (w > 0) & (p > 0.0) & (p < 1.0)
    w, p = w[uncertain], p[uncertain]
    lo, hi = map(int, _window(float((w * p).sum()), float(w @ w), 0, int(w.sum())))
    kmin = math.floor(threshold - shift) + 1
    if not lo < kmin <= hi:
        return float(kmin <= lo)
    values, counts = np.unique(w, return_counts=True)
    blocks = -(-counts // BLOCK)
    pad = blocks * BLOCK - counts
    leaves = np.zeros((int(blocks.sum()), BLOCK))
    slots = np.arange(len(p)) + np.repeat(np.cumsum(pad) - pad, counts)
    leaves.ravel()[slots] = p[np.argsort(w, kind="stable")]
    del w, p, slots  # as in `_run_products`, for the peak
    rows = np.ascontiguousarray(_block_pmfs(leaves.T).T)
    products = _run_products(rows, np.count_nonzero(leaves, axis=1), leaves.sum(axis=1), blocks)
    del leaves, rows
    pmfs = [None] * len(values)  # per group: first total, pmf over totals, mean, spread
    for runs, offset, rows, count, mean in products:
        for g, o, row, c, m in zip(runs.tolist(), offset.tolist(), rows, count.tolist(), mean.tolist()):
            v, row = int(values[g]), row[: c - o + 1]  # no padding past c trials
            dilated = np.zeros(v * (len(row) - 1) + 1)
            dilated[::v] = row
            pmfs[g] = (v * o, dilated, v * m, v * v * c)
    while len(pmfs) > 1:
        pmfs = [_folded_product(a, b) for a, b in zip(pmfs[0::2], pmfs[1::2])] + pmfs[len(pmfs) // 2 * 2 :]
    first, pmf = pmfs[0][:2]
    return min(math.fsum(pmf[max(kmin - first, 0) :].tolist()), 1.0)


def direct_tail(probs) -> float:
    """Exact P[number of correct votes > n/2] under direct voting."""
    p = np.asarray(probs, dtype=float)
    n = p.shape[0]
    if n < 1:
        raise ValueError("need at least one voter")
    return weighted_poisson_binomial_tail(np.ones(n, dtype=np.int64), p, n / 2.0)


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
    # rows of uniforms fill in order, so the chunking does not change the votes
    chunk = max(1, min(reps, MC_CHUNK // n))
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
