"""Exact and Monte Carlo tallies of correctness probabilities.

Direct voting is correct when the number of correct votes strictly exceeds n/2; weighted
fluid voting is correct when the weight-weighted correct votes strictly exceed n/2 (ties
count as incorrect, which matters for even n).

The exact path multiplies the voters' probability generating polynomials
(1 - p_i) + p_i x^{w_i} in a product tree (Biscarri, Zhao & Brunner, CSDA 122, 2018).
Voters with p_i in {0, 1} stay out of it, so degenerate instances give exact 0.0 and
1.0; the rest are grouped by weight and padded with p = 0 to blocks of BLOCK, whose count
pmfs a direct stage builds a trial at a time. One kernel, `_products`, multiplies up to
K pmfs per FFT product on the cyclic lattice of the product's Hoeffding window (JASA
1963): the totals within mu_S +- sqrt(sum_S w_i^2 ln(2/EPS) / 2) of a set S hold all but
EPS of its mass. It builds each weight group's pmf from its blocks (four stages for a
direct tail at n = 20,000: 625 blocks, then 79, 10 and 2 pmfs) and folds the G group
pmfs, dilated by their weights, into the total in ceil(log_K G) stages. Fewer than n
windows each drop or wrap in at most EPS = 1e-30 of mass, so a tail moves by less than
1e-24 at n = 1e6, and a threshold outside the final window (11,815 totals for a direct
tail at n = 1e6) gives exactly 0.0 or 1.0. Against `dp_tail`, the tests' dynamic
program, the round-off was at most 1.9e-14 on random weighted instances at n = 20,000
and 5.6e-15 on confidence and upward graphs up to n = 1e5; the tests pin it at 1e-12 up
to n = 50,000.

MAX_TOTAL_WEIGHT = 1e7 keeps one instance's tallies under 1 GB: about 42 bytes per voter
from n = 1e5 on, reached in the first product stages (tracemalloc at n = 1e6: 40.4 MiB
for `direct_tail`, 27.5 and 22.9 MiB for fluid tails at the mean of confidence and upward
graphs); at small n the MIN_CELLS cells of a chunk, 0.5 MiB with spectra, set the peak.
Monte Carlo tallies sample full vote vectors, with Hoeffding intervals; a config's gain
mode picks a path (GAIN_KINDS: `exact`, its alias `auto`, `monte_carlo`).
"""

from __future__ import annotations

import functools
import itertools
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
MIN_CELLS = 1 << 15  # lattice cells a chunk may hold whatever the input: a small tally's transforms in few calls
PASS = 2048  # blocks per pass of the direct stage, whose 33 coefficient rows (528 KiB) stay in cache


class GainReport(Record):
    """P[fluid correct] - P[direct correct] for one instance."""

    p_direct: float
    p_fluid: float
    gain: float
    method: str  # "exact" | "monte_carlo"
    ci_halfwidth: Optional[float] = None
    reps: Optional[int] = None

    def to_json(self) -> str:
        fields = {f: v for f, v in zip(self._fields, self._values()) if v is not None}
        return json.dumps(fields, allow_nan=False)


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


def _check_probs(probs, name: str = "probs") -> np.ndarray:
    p = np.asarray(probs, dtype=float)
    if p.size and not (0.0 <= p.min() and p.max() <= 1.0):  # NaN included
        raise ValueError(f"{name} must lie in [0, 1]")
    return p


def _check_tail_inputs(weights, probs) -> tuple[np.ndarray, np.ndarray]:
    """(weights as int64, probs as float) after the shared input checks."""
    w, p = np.asarray(weights), _check_probs(probs)
    if w.shape != p.shape:
        raise ValueError("weights and probs must have equal length")
    integral = np.issubdtype(w.dtype, np.integer)
    w, given = (w.astype(np.int64, copy=False) if integral else np.rint(w).astype(np.int64)), w
    if w.size and (w.min() < 0 or not integral and np.any(w != given)):  # NaN included
        raise ValueError("weights must be nonnegative integers")
    if (total := int(w.sum())) > MAX_TOTAL_WEIGHT:
        raise ValueError(f"total weight {total} exceeds supported maximum {MAX_TOTAL_WEIGHT}")
    return w, p


def _window(mean, spread, lo, hi):
    """The totals in [lo, hi] within mean +- t, t = sqrt(spread ln(2/EPS) / 2), as integer bounds."""
    t = np.sqrt(spread * (math.log(2.0 / EPS) / 2.0))
    return np.maximum(np.floor(mean - t), lo).astype(np.int64), np.minimum(np.ceil(mean + t), hi).astype(np.int64)


def _block_pmfs(leaves: np.ndarray) -> np.ndarray:
    """Count pmfs of blocks of BLOCK Bernoulli trials, leaves[j, b] trial j of block b, as rows.

    The trials enter one at a time, over PASS blocks at once: pmf[k] <- (1 - p) pmf[k] + p pmf[k - 1].
    """
    out = np.empty((leaves.shape[1], BLOCK + 1))
    for b in range(0, leaves.shape[1], PASS):
        p = leaves[:, b : b + PASS]
        q, moved, c = 1.0 - p, np.empty_like(p), np.zeros((BLOCK + 1, p.shape[1]))
        c[0] = 1.0
        for j in range(BLOCK):
            np.multiply(c[: j + 1], p[j], out=moved[: j + 1])
            c[: j + 1] *= q[j]
            c[1 : j + 2] += moved[: j + 1]
        out[b : b + PASS] = c.T
    return out


@functools.cache
def _smooth(k: int) -> int:
    """The smallest 2^a 3^b 5^c >= k, a length pocketfft transforms fast."""
    best, p5 = 1 << (k - 1).bit_length(), 1
    while p5 < best:
        p = p5
        while p < best:
            best, p = min(best, p << (-(-k // p) - 1).bit_length()), 3 * p
        p5 *= 5
    return best


def _products(rows, runs: list[int], budget: float):
    """Windowed products of runs of consecutive rows, up to K rows per FFT product; one row per run back.

    Row r is the pmf over the totals first[r] + j step[r], j < width[r], in data[r] (a 2-D array, zero
    past width[r], or a list of rows); stats[:, r] is its (mean, spread, first, last), spread the sum of
    squared weights, and mean and spread set its window. step is None for unit steps. Run g is runs[g]
    rows, longest first. Each stage multiplies every group of up to K consecutive rows of a run on the
    cyclic lattice of the group's window (totals outside it wrap onto it), about budget cells a chunk:
    the rows zero-padded (or spread by their steps) to the lattice length in one rfft, each group's
    spectra (padded with the polynomial 1) multiplied, one irfft, and each window read off its product.
    """
    data, width, step, stats = rows
    done = []  # the rows of finished runs, which follow data's, each cut to its width
    while runs[0] > 1:
        active = [a for a in runs if a > 1]  # a prefix; the rows of the others move to done
        size = [min(K, a - i) for a in active for i in range(0, a, K)]
        slots, end = max(size), sum(active)
        short = [h for h, k in enumerate(size) if k < slots]  # groups of fewer rows than slots
        done = [data[r][: width[r]].copy() for r in range(end, len(data))] + done
        starts = list(itertools.accumulate(size, initial=0))
        sums = np.add.reduceat(stats[:, :end], starts[:-1], axis=1)
        lo, hi = _window(*sums)
        kept, shift = (hi - lo + 1).tolist(), lo - sums[2].astype(np.int64)  # window start less lowest total
        pieces, g = [], 0
        while g < len(size):  # windows shrink along the runs, so a chunk's first group sets its size
            a, g = g, min(g + max(1, int(budget / (slots * kept[g]))), len(size))
            part, wide = data[starts[a] : starts[g]], max(width[starts[a] : starts[g]])
            n = _smooth(max(*kept[a:g], wide))
            lattice, slot = np.zeros(((g - a) * slots, n)), np.arange(len(part))
            for h in (h for h in short if a <= h < g):  # its last slots hold the polynomial 1
                slot[starts[h + 1] - starts[a] :] += slots - size[h]
                lattice[(h - a) * slots + size[h] : (h - a + 1) * slots, 0] = 1.0
            if step is None:
                lattice[slot if len(part) < len(lattice) else slice(None), :wide] = part[:, :wide]
            else:  # the fold's first stage: row i spread to every step[i]-th total, wrapped
                for r, i in zip(slot.tolist(), range(starts[a], starts[g])):
                    lattice[r] = np.bincount(np.arange(width[i]) * int(step[i]) % n, data[i][: width[i]], n)
            spectra = np.fft.rfft(lattice)
            del lattice  # each chunk-sized array is dropped once used, for the peak
            # each group's window: a cyclic slice of its product, zero past the group's own width
            span = max(kept[a:g])
            spectra = spectra.reshape(g - a, slots, -1).prod(axis=1)  # each group's, in place of its rows'
            product = np.empty((g - a, n + span))
            np.fft.irfft(spectra, n, out=product[:, :n])
            del spectra
            product[:, n:] = product[:, :span]
            windows = np.ndarray((g - a, n, span), float, product, 0, (product.strides[0], 8, 8))
            piece = windows[range(g - a), shift[a:g] % n]
            del windows, product
            piece[np.arange(span) >= np.array(kept[a:g])[:, None]] = 0.0
            pieces.append((a, np.maximum(piece, 0.0, out=piece)))  # FFT round-off below 0
        data = np.zeros((len(size), max(kept)))  # once the chunks are done, for the peak
        for a, piece in pieces:
            data[a : a + len(piece), : piece.shape[1]] = piece
        width, step, pieces = kept + width[end:], None, None
        sums[2], sums[3] = lo, hi
        stats = np.concatenate([sums, stats[:, end:]], axis=1)
        runs = [-(-a // K) for a in active] + runs[len(active) :]
    return [row[:w] for row, w in zip(data, width)] + done if done else data, width, step, stats


def _tail(w: Optional[np.ndarray], p: np.ndarray, threshold: float) -> float:
    """Exact P[sum_i w_i V_i > threshold] for checked inputs; unit weights when w is None."""
    if w is None:
        kmin = math.floor(threshold - int(np.count_nonzero(p == 1.0))) + 1
        p = p[(p > 0.0) & (p < 1.0)]
        mean, spread, total = float(p.sum()), float(len(p)), len(p)
    else:
        kmin = math.floor(threshold - int(w[p == 1.0].sum())) + 1
        uncertain = np.flatnonzero((w > 0) & (p > 0.0) & (p < 1.0))  # take is faster than a mask
        w, p, uncertain = w.take(uncertain), p.take(uncertain), None
        mean, spread, total = float((w * p).sum()), float(w @ w), int(w.sum())
    lo, hi = map(int, _window(mean, spread, 0, total))
    if not lo < kmin <= hi:
        return float(kmin <= lo)
    # leaves[j, b] is trial j of block b: voter i of a weight group's c voters is trial
    # i // blocks of block i % blocks of the group's, blocks = ceil(c / BLOCK); p = 0 pads
    if w is None:  # one group, the voters in order
        runs, weight, leaf = [-(-len(p) // BLOCK)], np.ones(1, dtype=np.int64), slice(len(p))
    else:  # the largest weight groups first
        key = np.sort(w * len(w) + np.arange(len(w)))  # by weight, then index: a stable argsort
        w = key // len(w)
        p, key = p.take(key - w * len(w)), None
        starts = np.concatenate([[0], np.flatnonzero(w[1:] != w[:-1]) + 1])
        counts = np.diff(starts, append=len(w))
        rank, blocks = np.argsort(-counts, kind="stable"), -(-counts // BLOCK)
        first_block = (np.cumsum(blocks[rank]) - blocks[rank])[np.argsort(rank)]
        runs, weight = blocks[rank].tolist(), w[starts[rank]]
        leaf = np.divmod(np.arange(len(p)) - np.repeat(starts, counts), np.repeat(blocks, counts))
        leaf = leaf[0] * sum(runs) + leaf[1] + np.repeat(first_block, counts)  # (trial, block)
    leaves = np.zeros((BLOCK, sum(runs)))
    leaves.ravel()[leaf] = p
    del w, p, leaf  # as in `_products`, for the peak
    count = np.count_nonzero(leaves, axis=0)
    stats = np.array([leaves.sum(axis=0), count, np.zeros_like(count), count], dtype=float)
    data, leaves = _block_pmfs(leaves), None  # zeros past count trials
    budget = max(CHUNK * data.size, MIN_CELLS)
    data, width, _, stats = _products((data, (count + 1).tolist(), None, stats), runs, budget)
    # the run pmfs, dilated by their weights, into the total
    stats *= np.array([weight, weight * weight, weight, weight], dtype=float)
    data, _, step, stats = _products((data, width, weight, stats), [len(weight)], budget)
    first, step = int(stats[2, 0]), 1 if step is None else int(step[0])
    return min(math.fsum(data[0][max(-((first - kmin) // step), 0) :].tolist()), 1.0)


def weighted_poisson_binomial_tail(weights, probs, threshold: float) -> float:
    """Exact P[sum_i w_i V_i > threshold] with independent V_i ~ Bernoulli(p_i).

    Voters with w_i = 0 or p_i = 0 never add to the total and p_i = 1 voters
    add a fixed shift, so only the rest enter the pmf; see the module
    docstring for the product and its error bound.
    """
    return _tail(*_check_tail_inputs(weights, probs), threshold)


def direct_tail(probs) -> float:
    """Exact P[number of correct votes > n/2] under direct voting: the unit-weight tail without a sort."""
    p = _check_probs(probs)
    if p.shape[0] < 1:
        raise ValueError("need at least one voter")
    return _tail(None, p, p.shape[0] / 2.0)


def exact_gain(competencies, graph: DelegationGraph, *, weights=None) -> GainReport:
    """Exact gain report for one instance (product-tree FFT tallies).

    `weights` is the graph's weight profile when the caller has computed it
    already; by default it is computed here.
    """
    p = np.asarray(competencies, dtype=float)
    weights = compute_weights(graph).weight if weights is None else weights
    p_fluid, p_direct = weighted_poisson_binomial_tail(weights, p, graph.n / 2.0), direct_tail(p)
    return GainReport(p_direct=p_direct, p_fluid=p_fluid, gain=p_fluid - p_direct, method="exact")


def hoeffding_halfwidth(reps: int, delta: float) -> float:
    """Two-sided Hoeffding confidence half-width for a mean of [0, 1] samples."""
    return math.sqrt(math.log(2.0 / delta) / (2.0 * reps))


def monte_carlo_gain(
    competencies, graph: DelegationGraph, reps: int, delta: float, rng: np.random.Generator, *, weights=None
) -> GainReport:
    """Estimate the gain by sampling full vote vectors.

    ci_halfwidth is the Hoeffding half-width per estimated probability at
    confidence 1 - delta; the gain estimate is the difference of the two
    estimates, so a conservative interval for the gain is +- 2*ci_halfwidth.
    `weights` is as for `exact_gain`.
    """
    MonteCarloGainMode(reps, delta)  # the same checks
    p, n = _check_probs(competencies, "competencies"), graph.n
    w = np.asarray(compute_weights(graph).weight if weights is None else weights, dtype=np.float64)
    direct_hits = fluid_hits = 0
    # rows of uniforms fill in order, so the chunking does not change the votes
    chunk = max(1, min(reps, MC_CHUNK // n))
    for done in range(0, reps, chunk):
        votes = rng.random((min(chunk, reps - done), n)) < p
        direct_hits += int(np.count_nonzero(votes.sum(axis=1) > n / 2.0))
        fluid_hits += int(np.count_nonzero(votes @ w > n / 2.0))
    p_direct, p_fluid = direct_hits / reps, fluid_hits / reps
    return GainReport(p_direct, p_fluid, p_fluid - p_direct, "monte_carlo", hoeffding_halfwidth(reps, delta), reps)
