"""Exact and Monte Carlo tallies of correctness probabilities.

Direct voting is correct when the number of correct votes strictly exceeds
n/2; weighted fluid voting is correct when the weight-weighted correct votes
strictly exceed n/2 (ties count as incorrect, which matters for even n).

The exact path multiplies the voters' probability generating polynomials
(1 - p_i) + p_i x^{w_i} in a product tree (Biscarri, Zhao & Brunner, CSDA
122, 2018). Voters with p_i in {0, 1} stay out of it, so degenerate instances
give exact 0.0 and 1.0; the rest are grouped by weight and padded with p = 0
to blocks of BLOCK. A coefficient-major direct stage gives each block's count
pmf; then one kernel, `_products`, multiplies up to K pmfs per FFT product on
the cyclic lattice of the product's Hoeffding window (JASA 1963): the totals
within mu_S +- sqrt(sum_S w_i^2 ln(2/EPS) / 2) of a set S hold all but EPS of
its mass. It builds each weight group's pmf from its blocks (four stages for
a direct tail at n = 20,000: 625 blocks, then 79, 10 and 2 pmfs) and folds the
G group pmfs, dilated by their weights, into the total in ceil(log_K G) stages.

Fewer than n windows each drop or wrap in at most EPS = 1e-30 of mass, so a
tail moves by less than 1e-24 at n = 1e6, and a threshold outside the final
window (11,815 totals for a direct tail at n = 1e6) gives exactly 0.0 or 1.0.
Against `dp_tail`, the tests' dynamic program, the round-off was at most 2.2e-14
on random weighted instances at n = 20,000 and 1.1e-14 on confidence and upward
graphs up to n = 1e5; the tests pin it at 1e-12 up to n = 50,000.

MAX_TOTAL_WEIGHT = 1e7 keeps one instance's tallies under 1 GB: about 57 bytes per
voter, reached before the first product stage (tracemalloc at n = 1e6: 54.4 MiB for
`direct_tail`, 28 and 24 MiB for fluid tails at the mean of confidence and upward graphs).

The Monte Carlo path samples full vote vectors and reports Hoeffding
confidence intervals. A config's gain mode picks one of the two paths
(GAIN_KINDS: `exact`, its alias `auto`, and `monte_carlo`).
"""

from __future__ import annotations

import json
import math
from typing import Optional

import numpy as np

from .delegation_graph import DelegationGraph, compute_weights
from .record import Record

MAX_TOTAL_WEIGHT = 10_000_000
BLOCK = 32  # leaves per block of the direct levels
MC_CHUNK = 1_000_000  # uniforms per Monte Carlo chunk: 8 MB, and 8 MB of float votes for `votes @ w`
EPS = 1e-30  # mass a window may leave out
K = 8  # rows multiplied per product
CHUNK = 1.5  # lattice cells per input value that one batched transform may hold


class GainReport(Record):
    """P[fluid correct] - P[direct correct] for one instance."""

    p_direct: float
    p_fluid: float
    gain: float
    method: str  # "exact" | "monte_carlo"
    ci_halfwidth: Optional[float] = None
    reps: Optional[int] = None

    def to_json(self) -> str:
        return json.dumps({f: v for f, v in zip(self._fields, self._values()) if v is not None})


class ExactGainMode(Record):
    """Exact product-tree tallies (`exact_gain`) at every size."""


class MonteCarloGainMode(Record):
    """`monte_carlo_gain` with reps vote vectors per instance, at confidence 1 - delta."""

    reps: int
    delta: float

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")


# "auto" names the exact mode; both ignore 'cap', 'target_halfwidth' and
# 'delta', so configs written for the size-capped auto mode keep parsing
GAIN_KINDS = {"exact": ExactGainMode, "auto": ExactGainMode, "monte_carlo": MonteCarloGainMode}


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
    if not np.all((p >= 0.0) & (p <= 1.0)):  # NaN included
        raise ValueError("probs must lie in [0, 1]")
    total = int(w.sum())
    if total > MAX_TOTAL_WEIGHT:
        raise ValueError(f"total weight {total} exceeds supported maximum {MAX_TOTAL_WEIGHT}")
    return w, p


def _window(mean, spread, lo, hi):
    """The totals in [lo, hi] within mean +- t, t = sqrt(spread ln(2/EPS) / 2), as integer bounds."""
    t = np.sqrt(spread * (math.log(2.0 / EPS) / 2.0))
    return np.maximum(np.floor(mean - t), lo).astype(np.int64), np.minimum(np.ceil(mean + t), hi).astype(np.int64)


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


def _smooth(k: int) -> int:
    """The smallest 2^a 3^b 5^c >= k, a length pocketfft transforms fast."""
    best, p5 = 1 << (k - 1).bit_length(), 1
    while p5 < best:
        p = p5
        while p < best:
            best, p = min(best, p << (-(-k // p) - 1).bit_length()), 3 * p
        p5 *= 5
    return best


def _products(rows, runs):
    """Windowed products of runs of consecutive rows, up to K rows per FFT product.

    rows is (data, width, first, step, mean, spread): row r is the pmf over the
    totals first[r] + j step[r], j < width[r], held in data[sum(width[:r]) + j],
    and mean[r] and spread[r] (the sum of squared weights) set its window. Run g
    is runs[g] rows, longest first. Each stage multiplies every group of up to K
    consecutive rows of a run on the cyclic lattice of the group's window (totals
    outside it wrap onto it), in chunks of about CHUNK cells per value of the
    first stage's input: one batched rfft, one product of each group's spectra
    (padded with the polynomial 1) and one irfft per chunk. One row per run back.
    """
    (data, width, first, step, mean, spread), budget = rows, CHUNK * len(rows[0])
    while runs[0] > 1:
        active = runs[runs > 1]  # a prefix; the rows of finished runs follow unchanged
        groups = -(-active // K)
        size = np.full(groups.sum(), K)
        size[np.cumsum(groups) - 1] = active - K * (groups - 1)
        starts, end = np.cumsum(size) - size, int(active.sum())
        offsets = np.cumsum(width[:end]) - width[:end]
        sums = [np.add.reduceat(x[:end], starts) for x in (mean, spread, first, first + (width - 1) * step)]
        lo, hi = _window(*sums)
        kept = hi - lo + 1
        base = first[:end] - offsets * step[:end]  # data[e] at lattice position e step + base, ...
        base[starts] -= lo  # ... so that each window starts at position 0
        pieces, g = [], 0
        while g < len(starts):
            # windows shrink along the runs, so the first group's sets the chunk
            g_end = min(g + max(1, int(budget / (K * int(kept[g])))), len(starts))
            r, r_end = starts[g], starts[g_end] if g_end < len(starts) else end
            span, w, slots = kept[g:g_end], width[r:r_end], int(size[g:g_end].max())
            length = _smooth(int(span.max()))
            at = np.arange(offsets[r], offsets[r] + w.sum())
            at *= np.repeat(step[r:r_end], w)
            at += np.repeat(base[r:r_end], w)
            at %= length
            slot = np.arange(r, r_end) + np.repeat(slots * np.arange(g_end - g) - starts[g:g_end], size[g:g_end])
            at += np.repeat(slot * length, w)
            shape = (g_end - g, slots, length)
            lattice = np.bincount(at, data[offsets[r] : offsets[r] + len(at)], math.prod(shape)).reshape(shape)
            del at  # each chunk-sized array is dropped once used, for the peak
            lattice[:, :, 0] += np.arange(slots) >= size[g:g_end, None]  # slots past a group: the polynomial 1
            lattice = np.fft.rfft(lattice)  # its spectra, which replace it
            product = np.fft.irfft(lattice.prod(axis=1), length)
            del lattice
            piece = product[:, : span.max()][np.arange(span.max()) < span[:, None]]
            pieces.append(np.maximum(piece, 0.0, out=piece))  # FFT round-off below 0
            g = g_end
        data = np.concatenate([*pieces, data[offsets[-1] + width[end - 1] :]])
        new = (kept, lo, np.ones_like(kept), *sums[:2])
        width, first, step, mean, spread = (np.concatenate([a, b[end:]]) for a, b in zip(new, rows[1:]))
        runs, rows = np.concatenate([groups, runs[len(active) :]]), (data, width, first, step, mean, spread)
    return rows


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
    # a run of blocks per weight, the largest weight groups first
    values, counts = np.unique(w, return_counts=True)
    blocks, order = -(-counts // BLOCK), np.argsort(-counts, kind="stable")
    first_leaf = BLOCK * (np.cumsum(blocks[order]) - blocks[order])[np.argsort(order)]
    leaves = np.zeros((int(blocks.sum()), BLOCK))
    slots = np.arange(len(p)) + np.repeat(first_leaf - (np.cumsum(counts) - counts), counts)
    leaves.ravel()[slots] = p[np.argsort(w, kind="stable")]
    del w, p, slots  # as in `_products`, for the peak
    data, count = _block_pmfs(leaves.T).T, np.count_nonzero(leaves, axis=1)
    data = data[np.arange(BLOCK + 1) <= count[:, None]]  # no padding past count trials
    rows = data, count + 1, np.zeros_like(count), np.ones_like(count), leaves.sum(axis=1), count
    del leaves, data
    data, width, first, _, mean, spread = _products(rows, blocks[order])
    v = values[order]  # the group pmfs, dilated by their weights, into the total
    data, _, first, step, _, _ = _products((data, width, v * first, v, v * mean, v * v * spread), np.array([len(v)]))
    return min(math.fsum(data[max(-((int(first[0]) - kmin) // int(step[0])), 0) :].tolist()), 1.0)


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
    if not np.all((p >= 0.0) & (p <= 1.0)):  # NaN included
        raise ValueError("competencies must lie in [0, 1]")
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
