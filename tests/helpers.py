"""Shared statistical helpers for the test suite."""

import csv
import math

import numpy as np
from scipy import stats as sps

from fluiddem.delegation_graph import NO_EDGE, DelegationGraph, compute_weights
from fluiddem.distributions import PiecewiseLinearDensity, TruncatedBeta, Uniform
from fluiddem.mechanisms import (
    AffineInY,
    ConfidenceBased,
    Constant1,
    ExpInY,
    GeneralContinuous,
    Indicator,
    LinearQ,
    RowNormalizedPhi,
    TabulatedPhi,
    Upward,
    _grid_cell,
    normalize_phi,
    phi_mean_in_y,
)
from fluiddem.processes import simulate_graph_branching, simulate_multitype_poisson
from fluiddem.quadrature import adaptive_simpson
from fluiddem.tally import GainReport, _check_tail_inputs

BRUTE_FORCE_MAX_N = 20


def default_mechanisms() -> dict:
    """One mechanism of each family, as the acceptance tests run them."""
    return {
        "upward": Upward(0.5),
        "confidence": ConfidenceBased(LinearQ(0.8, 0.8)),
        "general": GeneralContinuous(0.3, AffineInY(1.0, 2.0)),
    }


def builtin_bucket_configs():
    """(normalized phi, distribution, p, eps) tuples for the bucketized models."""
    uniform = Uniform(0.0, 1.0)
    narrowed = Uniform(0.0, 0.98)
    bell = TruncatedBeta(2.0, 2.0)
    ramp = PiecewiseLinearDensity(((0.0, 0.0), (1.0, 2.0)))
    raw = [
        (Constant1(), uniform, 0.5, 0.05),
        (AffineInY(1.0, 2.0), uniform, 0.3, 0.05),
        (ExpInY(1.0), uniform, 0.3, 0.05),
        (AffineInY(1.0, 2.0), narrowed, 0.3, 0.05),
        (ExpInY(0.5), bell, 0.4, 0.02),
        (AffineInY(0.5, 1.0), ramp, 0.3, 0.05),
    ]
    return [(normalize_phi(phi, dist), dist, p, eps) for phi, dist, p, eps in raw]


def pooled_chisq_pvalue(a, b, min_pooled: int = 20) -> float:
    """Two-sample chi-square p-value over pooled integer histograms.

    Adjacent values are pooled until each column holds at least min_pooled
    observations in total, keeping expected counts away from zero.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    lo = int(min(a.min(), b.min()))
    hi = int(max(a.max(), b.max()))
    counts_a = np.bincount(a - lo, minlength=hi - lo + 1)
    counts_b = np.bincount(b - lo, minlength=hi - lo + 1)
    cols_a, cols_b = [], []
    acc_a = acc_b = 0
    for ca, cb in zip(counts_a, counts_b):
        acc_a += int(ca)
        acc_b += int(cb)
        if acc_a + acc_b >= min_pooled:
            cols_a.append(acc_a)
            cols_b.append(acc_b)
            acc_a = acc_b = 0
    if acc_a or acc_b:
        if cols_a:
            cols_a[-1] += acc_a
            cols_b[-1] += acc_b
        else:
            cols_a.append(acc_a)
            cols_b.append(acc_b)
    table = np.array([cols_a, cols_b])
    if table.shape[1] < 2:
        return 1.0
    return float(sps.chi2_contingency(table)[1])


def dels_of_root(graph, root: int) -> int:
    """Transitive delegators of `root`, by pointer doubling (test-side oracle)."""
    n = graph.n
    out = graph.out.copy()
    out[root] = -1  # treat root as absorbing; its own delegation is irrelevant
    succ = np.where(out >= 0, out, np.arange(n))
    for _ in range(int(np.ceil(np.log2(max(n, 2)))) + 1):
        succ = succ[succ]
    return int(np.count_nonzero(succ == root)) - 1


def sequential_simon_components(n: int, p: float, rng) -> np.ndarray:
    """Component sizes of the arrival process, one arrival at a time (oracle).

    Same draws as processes.simulate_simon_components: arrival t joins the
    component of arrival int(u_pick[t-1] * (t-1)) when u_join[t-1] < p.
    """
    sizes = [1]
    owner = [0]
    u_join = rng.random(n)
    u_pick = rng.random(n)
    for t in range(2, n + 1):
        if u_join[t - 1] < p:
            comp = owner[int(u_pick[t - 1] * (t - 1))]
            sizes[comp] += 1
            owner.append(comp)
        else:
            owner.append(len(sizes))
            sizes.append(1)
    return np.asarray(sizes, dtype=np.int64)


def simpson_integrate(f, a, b, tol, breakpoints=()):
    """Adaptive Simpson on every piece between breakpoints, one scalar call of f
    per point (oracle for quadrature.integrate)."""
    pts = sorted({float(a), float(b), *(float(x) for x in breakpoints if a < x < b)})
    per_piece = tol / max(len(pts) - 1, 1)
    return math.fsum(adaptive_simpson(f, lo, hi, per_piece) for lo, hi in zip(pts, pts[1:]))


def simpson_phi_mean_in_y(phi, dist, x: float) -> float:
    """E_y[phi(x, y)] for one x: phi_mean_in_y's closed forms, otherwise
    simpson_integrate at its tolerance (oracle for the Gauss–Legendre path)."""
    if isinstance(phi, (Constant1, AffineInY, Indicator)):
        return phi_mean_in_y(phi, dist, x)
    breaks = {*dist.breakpoints(), *phi.y_knots}
    return simpson_integrate(
        lambda y: float(phi(x, y)) * float(dist.pdf(y)), 0.0, 1.0, 1e-12, breaks
    )


class QuadratureRowNormalizedPhi(RowNormalizedPhi):
    """RowNormalizedPhi whose divisor is a quadrature at every distinct x (oracle).

    One scalar adaptive quadrature of E_y[base(x, .)] per distinct x
    (simpson_phi_mean_in_y), cached per x: the slow reference for the
    closed-form divisors, independent of the vectorized phi_mean_in_y.
    """

    def _means(self, x):
        cache = self.__dict__.setdefault("_mean_cache", {})
        uniq, inverse = np.unique(x.ravel(), return_inverse=True)
        for v in uniq.tolist():
            if v not in cache:
                cache[v] = simpson_phi_mean_in_y(self.base, self.dist, v)
        return np.array([cache[v] for v in uniq.tolist()])[inverse].reshape(x.shape)


def random_tabulated(nx: int, ny: int, seed: int) -> TabulatedPhi:
    """An nx x ny TabulatedPhi of random values, positive and increasing in y."""
    rng = np.random.default_rng(seed)
    steps = rng.uniform(0.0, 2.0, size=(nx, ny))
    steps[:, 0] += 0.5
    return TabulatedPhi(tuple(map(tuple, np.cumsum(steps, axis=1))))


def broadcast_tabulated_phi(phi, x, y):
    """A TabulatedPhi evaluated on x and y broadcast to one shape first (oracle
    for TabulatedPhi.__call__, which broadcasts only in its gathers)."""
    arr = np.array(phi.values)
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    xi, tx = _grid_cell(np.linspace(0.0, 1.0, arr.shape[0]), x)
    yi, ty = _grid_cell(np.linspace(0.0, 1.0, arr.shape[1]), y)
    v00, v01 = arr[xi, yi], arr[xi, yi + 1]
    v10, v11 = arr[xi + 1, yi], arr[xi + 1, yi + 1]
    return (1 - tx) * ((1 - ty) * v00 + ty * v01) + tx * ((1 - ty) * v10 + ty * v11)


def window_grid_modulus(phi, B: int) -> float:
    """The largest phi variation over the 3x3 stride-2 windows of the whole
    (2B+1)^2 half-step lattice at once (oracle for processes._grid_modulus)."""
    lattice = np.linspace(0.0, 1.0, 2 * B + 1)
    vals = np.asarray(phi(lattice[:, None], lattice[None, :]), dtype=float)
    squares = np.lib.stride_tricks.sliding_window_view(vals, (3, 3))[::2, ::2]
    return float(np.max(squares.max(axis=(2, 3)) - squares.min(axis=(2, 3))))


def dense_row_normalized_bounds(phi) -> tuple[float, float]:
    """A RowNormalizedPhi's bounds over 513 x plus its knots, at y = 0 and 1
    (oracle for RowNormalizedPhi.bounds, which takes the knots and the ends)."""
    xs = np.concatenate([np.linspace(0.0, 1.0, 513), phi.x_knots])
    return float(np.min(phi(xs, 0.0))), float(np.max(phi(xs, 1.0)))


def grid_bucket_sup_table(phi, boundaries, B):
    """The bucket sup table on a 34-point x grid per bucket plus the grid lines
    inside it, one phi call per bucket (oracle for processes._bucket_sup_table)."""
    uppers = boundaries[1:]
    if not phi.depends_on_x:
        row = np.asarray(phi(0.0, uppers), dtype=float)
        return np.tile(row, (B, 1))
    extra = phi.x_knots
    table = np.empty((B, B))
    for t in range(B):
        xs = np.linspace(boundaries[t], boundaries[t + 1], 34)
        inner = [x for x in extra if boundaries[t] < x < boundaries[t + 1]]
        if inner:
            xs = np.concatenate([xs, inner])
        table[t] = np.asarray(phi(xs[:, None], uppers[None, :]), dtype=float).max(axis=0)
    return table


def row_loop_targets(phi, p_vec, sources, allowed, rng, forbid_self=True):
    """One target in `allowed` per source from a full row of phi (oracle).

    The O(n)-per-source reference for mixture_targets: the row
    phi(p_i, p_allowed), the source's own weight zeroed when self is
    forbidden, one inverse-CDF draw on its cumsum; a source with no positive
    weight left gets NO_EDGE.
    """
    targets = np.full(len(sources), NO_EDGE, dtype=np.int64)
    for pos, i in enumerate(np.asarray(sources).tolist()):
        w = np.asarray(phi(p_vec[i], p_vec[allowed]), dtype=float)
        if forbid_self:
            w[allowed == i] = 0.0
        cum = np.cumsum(w)
        if cum[-1] <= 0.0:
            continue
        targets[pos] = allowed[np.searchsorted(cum, rng.random() * cum[-1], side="right")]
    return targets


def block_row_sums(phi, p_vec):
    """S[k] = sum over k' != k of phi(p_k, p_k'), from chunked n x n blocks (oracle)."""
    n = p_vec.shape[0]
    out = np.empty(n)
    chunk = max(1, 4_000_000 // max(n, 1))
    for s in range(0, n, chunk):
        e = min(n, s + chunk)
        block = np.asarray(phi(p_vec[s:e, None], p_vec[None, :]), dtype=float)
        block[np.arange(e - s), np.arange(s, e)] = 0.0
        out[s:e] = block.sum(axis=1)
    return out


def stable_count_greater(p_vec):
    """The stable descending order of p_vec and per-voter counts of strictly
    greater p, from numpy's stable sort (oracle for _count_greater)."""
    n = p_vec.shape[0]
    order = np.argsort(-p_vec, kind="stable")
    desc = p_vec[order]
    first = np.concatenate(([True], desc[1:] != desc[:-1]))
    greater = np.empty(n, dtype=np.int64)
    greater[order] = np.maximum.accumulate(np.where(first, np.arange(n), 0))
    return order, greater


def full_doubling_roots(out):
    """forest_roots by squaring the whole pointer array, root = root[root],
    until it stops changing or after (n-1).bit_length() rounds (oracle)."""
    n = out.shape[0]
    root = np.where(out < 0, np.arange(n), out)
    for _ in range((n - 1).bit_length()):
        nxt = root[root]
        if np.array_equal(nxt, root):
            break
        root = nxt
    return root


def csv_writer_edges(graph, path) -> None:
    """The edge list as `csv.writer` writes it, one row at a time (oracle for to_edge_csv)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["voter", "target"])
        for i, t in enumerate(graph.out.tolist()):
            writer.writerow([i, "" if t < 0 else t])


def stats(profile) -> tuple[int, int, int]:
    """(max_weight, total_weight, nullified_count) of a weight profile."""
    return profile.max_weight, profile.total_weight, int(len(profile.nullified))


def component_sizes(profile) -> np.ndarray:
    """Sizes of delegation components of an acyclic graph (weights of roots)."""
    if len(profile.nullified):
        raise ValueError("component sizes are defined here for acyclic graphs only")
    return np.sort(profile.weight[profile.weight > 0])


def from_edge_csv(path) -> DelegationGraph:
    """The graph of a `voter,target` edge list, rows in any order (reader for to_edge_csv)."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:2] != ["voter", "target"]:
            raise ValueError("expected 'voter,target' header")
        for voter, target in reader:
            rows.append((int(voter), NO_EDGE if target == "" else int(target)))
    rows.sort()
    out = np.array([t for _, t in rows], dtype=np.int64)
    return DelegationGraph(len(rows), out)


def simulate_graph_branching_batch(n, p_prime, reps, rng) -> np.ndarray:
    """Total progeny of `reps` graph-branching runs, one after another."""
    return np.asarray(
        [simulate_graph_branching(n, p_prime, rng) for _ in range(reps)], dtype=np.int64
    )


def sequential_v_process_batch(n: int, start_other: int, reps: int, rng) -> np.ndarray:
    """Tracked counts of `reps` Polya urns, one addition at a time (oracle)."""
    v = np.ones(reps, dtype=np.int64)
    total = 1 + start_other
    for _ in range(n):
        v += rng.random(reps) < (v / total)
        total += 1
    return v


def sequential_multitype_poisson(model, start_type: int, cap: int, rng) -> int:
    """Capped total progeny of multi-type Poisson branching, one parent at a time (oracle)."""
    live = np.zeros(model.B, dtype=np.int64)
    live[start_type] = 1
    total = 1
    while total < cap:
        parents = np.where(live > 0)[0]
        if parents.size == 0:
            break
        parent = int(parents[0])
        live[parent] -= 1
        children = rng.poisson(model.M[:, parent])
        live += children
        total += int(children.sum())
    return min(total, cap)


def simulate_multitype_sizes(model, start_type, cap, reps, rng) -> np.ndarray:
    """Total sizes of `reps` multi-type Poisson branching runs, one after another."""
    return np.asarray(
        [simulate_multitype_poisson(model, start_type, cap, rng) for _ in range(reps)],
        dtype=np.int64,
    )


def dp_tail(weights, probs, threshold: float) -> float:
    """The tail by an O(n * sum(w)) dynamic program over totals (oracle for the product tree)."""
    w, p = _check_tail_inputs(weights, probs)
    pmf = np.zeros(int(w.sum()) + 1)
    pmf[0] = 1.0
    top = 0
    for i in np.where(w > 0)[0].tolist():
        wi = int(w[i])
        pi = float(p[i])
        seg = pmf[: top + 1].copy()
        pmf[: top + wi + 1] = 0.0
        pmf[: top + 1] = seg * (1.0 - pi)
        pmf[wi : top + wi + 1] += seg * pi
        top += wi
    kmin = int(math.floor(threshold)) + 1
    if kmin <= 0:
        return 1.0  # every achievable total exceeds the threshold
    if kmin >= pmf.shape[0]:
        return 0.0
    return min(math.fsum(pmf[kmin:].tolist()), 1.0)


def brute_force_tail(weights, probs, threshold: float) -> float:
    """Exact tail by enumerating all 2^n vote outcomes (n <= BRUTE_FORCE_MAX_N)."""
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


def brute_force_gain(competencies, graph) -> GainReport:
    """Gain by full outcome enumeration (n <= BRUTE_FORCE_MAX_N); oracle for exact_gain."""
    p = np.asarray(competencies, dtype=float)
    n = graph.n
    profile = compute_weights(graph)
    p_fluid = brute_force_tail(profile.weight, p, n / 2.0)
    p_direct = brute_force_tail(np.ones(n, dtype=np.int64), p, n / 2.0)
    return GainReport(
        p_direct=p_direct, p_fluid=p_fluid, gain=p_fluid - p_direct, method="brute_force"
    )
