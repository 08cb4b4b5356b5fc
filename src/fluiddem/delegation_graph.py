"""Delegation graphs: sampling, transitive weight accumulation, cycle nullification.

A delegation graph over n voters is a functional digraph (out-degree at most
one). Voter i either votes directly (no out-edge) or delegates to out[i].
Votes flow transitively toward non-delegating voters; voters sitting on a
delegation cycle, or delegating into one, are nullified and contribute no
weight (the worst-case treatment of cycles).

One pointer-doubling kernel, forest_roots, finds where every walk ends and
which walks never settle: those are the nullified voters, their walks end on
delegating voters, and the weights are a bincount of the other walks' ends.

sample_graph asks the mechanism for its out-edges, which it draws with the
kernels here. One kernel, mixture_targets, draws every general-continuous
target: each delegator's law mixes two grid rows of phi, sampled exactly by
composition in O(rows * n + m log n) for m delegators.
"""

from __future__ import annotations

import numpy as np

from .record import Record

NO_EDGE = -1
_NOT_SIGN = np.uint64((1 << 63) - 1)  # every bit of a float64 but its sign


class DelegationGraph(Record, eq=False):
    n: int
    out: np.ndarray  # int64; out[i] = target voter, or NO_EDGE for a direct voter

    def __post_init__(self):
        out = np.asarray(self.out, dtype=np.int64)
        object.__setattr__(self, "out", out)
        if self.n < 1:
            raise ValueError("a delegation graph needs at least one voter")
        if out.shape != (self.n,):
            raise ValueError("out must have one entry per voter")
        delegators = np.flatnonzero(out >= 0)
        if np.any(out[delegators] == delegators):
            raise ValueError("self-delegation is not allowed")
        if out.min() < NO_EDGE or out.max() >= self.n:
            raise ValueError("out-edges must point at voters")


class WeightProfile(Record, eq=False):
    """Transitive delegation tallies for one graph.

    weight[i] = 1 + dels[i] for a non-delegating, non-nullified voter and 0
    otherwise, dels[i] counting the voters whose ballots flow into i;
    nullified lists voters on cycles or delegating into them.
    """

    weight: np.ndarray
    nullified: np.ndarray  # sorted voter indices
    max_weight: int
    total_weight: int


# ---------------------------------------------------------------------------
# weight computation


def forest_roots(out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each voter's delegation walk ends, by pointer doubling, and the
    sorted voters whose walks never settle.

    Direct voters (out < 0) point at themselves. Each round squares the
    pointers, root = root[root], of the walks that have not yet reached a
    direct voter (the others are fixed points), for at most
    (n-1).bit_length() rounds, enough for a walk of n-1 edges. A walk that
    ends at a direct voter returns that voter; a walk into a cycle never
    settles and returns a voter that still delegates. The walks still live
    after the last round are exactly those, so the second return equals
    np.flatnonzero(out[root] >= 0).
    """
    n = out.shape[0]
    delegating = out >= 0  # liveness gathers read bytes, not the n-word out
    live = np.flatnonzero(delegating)
    root = np.arange(n)
    root[live] = hop = out[live]
    live = live[delegating[hop]]
    for _ in range((n - 1).bit_length()):
        if not live.size:
            break
        root[live] = hop = root[root[live]]  # also read for the liveness test
        live = live[delegating[hop]]
    return root, live


def compute_weights(graph: DelegationGraph) -> WeightProfile:
    """Weights and the nullified set for one graph."""
    root, nullified = forest_roots(graph.out)
    weight = np.bincount(root, minlength=graph.n)
    # a nullified walk ends on a delegating voter, whose weight is 0
    weight[root[nullified]] = 0
    return WeightProfile(
        weight=weight,
        nullified=nullified,
        max_weight=int(weight.max(initial=0)),
        total_weight=int(weight.sum()),
    )


# ---------------------------------------------------------------------------
# sampling


def _inverse_cdf_targets(cum: np.ndarray, rng: np.random.Generator, count: int) -> np.ndarray:
    """Inverse-CDF draws on cum, in draw order. The binary searches run on the
    sorted uniforms, so successive searches read neighbouring parts of cum."""
    u = rng.random(count) * cum[-1]
    order = np.argsort(u)
    out = np.empty(count, dtype=np.int64)
    out[order] = np.searchsorted(cum, u[order], side="right")
    return out


def mixture_targets(
    phi, p_vec, sources, allowed, rng: np.random.Generator, forbid_self: bool = True
) -> np.ndarray:
    """One target in `allowed` per source i, with P(j) proportional to phi(p_i, p_j).

    phi(p_i, .) = (1 - t_i)*r_k + t_i*r_{k+1} (phi.row_mixture). Row k + 1 is
    picked with probability t_i*S'_{k+1} / [(1 - t_i)*S'_k + t_i*S'_{k+1}],
    S'_c being row c's mass on `allowed` minus r_c(p_i) when forbid_self (the
    sources then lie in `allowed`); the target is an inverse-CDF draw on that
    row's cumsum, self-hits redrawn in the same row. A one-row phi takes no
    row-pick draw. Sources with no weight on another allowed target get NO_EDGE.
    """
    mix = phi.row_mixture(p_vec[sources])
    lo = np.zeros(sources.size)  # S'_k per source
    hi = np.zeros(sources.size)  # S'_{k+1} per source
    for c in range(mix.rows):
        row = mix.row(c, p_vec)
        cum = np.cumsum(row[allowed])
        mass = np.maximum(cum[-1] - (row[sources] if forbid_self else 0.0), 0.0)
        lo = np.where(mix.k == c, mass, lo)
        hi = np.where(mix.k + 1 == c, mass, hi)
    total = (1.0 - mix.t) * lo + mix.t * hi
    stuck = total <= 0.0
    use = mix.k
    if mix.rows > 1:
        use = mix.k + (rng.random(sources.size) * total < mix.t * hi)
    targets = np.empty(sources.size, dtype=np.int64)
    for c in reversed(range(mix.rows)):  # the last row's cumsum is still at hand
        pos = np.flatnonzero(use == c)
        if pos.size == 0:
            continue
        if c < mix.rows - 1:
            cum = np.cumsum(mix.row(c, p_vec)[allowed])
        drawn = allowed[_inverse_cdf_targets(cum, rng, pos.size)]
        if forbid_self:
            bad = np.flatnonzero((drawn == sources[pos]) & ~stuck[pos])
            while bad.size:
                drawn[bad] = allowed[_inverse_cdf_targets(cum, rng, bad.size)]
                bad = bad[drawn[bad] == sources[pos[bad]]]
        targets[pos] = drawn
    targets[stuck] = NO_EDGE
    return targets


def _count_greater(p_vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable descending order of p_vec, and per voter the number of
    voters with strictly greater p.

    One integer sort: each float's bits become a uint64 whose ascending order
    is descending float order (-0.0 is first made +0.0), and its low
    b = (n-1).bit_length() bits are replaced by the voter index, so the
    sorted keys carry the order in their low bits and break equal high bits
    by voter. Voters whose keys agree above the low bits form runs; only
    there can the dropped bits misorder p or hide an exact tie, so each run
    alone is re-sorted by (-p, voter) and its counts set to the position
    where each tie group starts. At most three n-word arrays are alive at
    once (the keys, the voter indices and the counts, which first hold the
    high bits): each more would show in the CLI's peak memory.
    """
    n = p_vec.shape[0]
    bits = (n - 1).bit_length()
    low = np.uint64((1 << bits) - 1)
    key = (p_vec + 0.0).view(np.uint64)
    key ^= _NOT_SIGN  # descending order of the non-negative floats; a negative
    key[key > _NOT_SIGN] ^= _NOT_SIGN  # float's own bits already ascend as it descends
    key &= ~low
    position = np.arange(n)
    key |= position.view(np.uint64)
    key.sort()
    greater = np.empty(n, dtype=np.int64)
    high = np.right_shift(key, np.uint64(bits), out=greater.view(np.uint64))
    same = high[1:] == high[:-1]
    tied = None
    if same.any():
        in_run = np.zeros(n, dtype=bool)
        in_run[1:] = same
        in_run[:-1] |= same
        tied = np.flatnonzero(in_run)
        run = high[tied]
    key &= low
    order = key.view(np.int64)
    greater[order] = position
    del position
    if tied is not None:
        voters = order[tied]  # ascending within each run: lexsort keeps exact ties so
        value = p_vec[voters]
        voters = voters[np.lexsort((-value, run))]
        order[tied] = voters
        value = p_vec[voters]
        first = np.concatenate(([True], value[1:] != value[:-1]))
        greater[voters] = np.maximum.accumulate(np.where(first, tied, 0))
    return order, greater


def sample_graph(mech, competencies, rng: np.random.Generator) -> DelegationGraph:
    """Sample one delegation graph for fixed competencies.

    Each voter independently delegates with probability q(p_i); a delegator
    picks target j != i proportionally to phi(p_i, p_j). A voter whose total
    pair weight on others is zero votes directly. The mechanism draws the
    edges (its out_edges).
    """
    p_vec = np.asarray(competencies, dtype=float)
    n = p_vec.shape[0]
    if n < 1:
        raise ValueError("need at least one voter")
    return DelegationGraph(n, mech.out_edges(p_vec, rng))


def sample_instance(mech, dist, n: int, rng: np.random.Generator):
    """Draw competencies i.i.d. from dist, then a graph under mech."""
    from . import distributions

    if n < 1:
        raise ValueError("need at least one voter")
    p_vec = distributions.sample(dist, rng, size=n)
    graph = sample_graph(mech, p_vec, rng)
    return p_vec, graph


# ---------------------------------------------------------------------------
# export


def to_edge_csv(graph: DelegationGraph, path) -> None:
    """Write the graph as a CSV edge list (voter, target-or-empty) in `csv.writer`'s bytes.

    The rows are laid out at full width in one byte matrix: the voter's w
    digits, a comma, the target's w digits and CRLF, w being the digit count
    of n - 1. A mask drops the leading zeros and a direct voter's target, and
    the kept bytes, row by row, are the file body.
    """
    n, w = graph.n, len(str(graph.n - 1))
    mat = np.empty((n, 2 * w + 3), dtype=np.uint8)
    keep = np.ones(mat.shape, dtype=bool)
    mat[:, w] = ord(",")
    mat[:, 2 * w + 1 :] = (ord("\r"), ord("\n"))
    delegates = graph.out >= 0
    targets = np.where(delegates, graph.out, 0).astype(np.uint32)
    for number, last in ((np.arange(n, dtype=np.uint32), w - 1), (targets, 2 * w)):
        for col in range(last, last - w, -1):
            if col < last:
                keep[:, col] = number > 0  # a zero quotient leaves a leading zero here
            number, digit = np.divmod(number, 10)
            mat[:, col] = digit + ord("0")
    keep[:, w + 1 : 2 * w + 1] &= delegates[:, None]
    with open(path, "wb") as fh:
        fh.write(b"voter,target\r\n")
        fh.write(mat[keep])


__all__ = [
    "DelegationGraph",
    "WeightProfile",
    "sample_graph",
    "sample_instance",
    "compute_weights",
    "forest_roots",
    "mixture_targets",
    "to_edge_csv",
    "NO_EDGE",
]
