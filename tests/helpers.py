"""Shared statistical helpers for the test suite."""

import numpy as np
from scipy import stats as sps

from fluiddem.mechanisms import RowNormalizedPhi, phi_mean_in_y


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


class QuadratureRowNormalizedPhi(RowNormalizedPhi):
    """RowNormalizedPhi whose divisor is a quadrature at every distinct x (oracle).

    One adaptive quadrature of E_y[base(x, .)] per distinct x, cached per x:
    the slow reference for the closed-form divisors.
    """

    def _means(self, x):
        cache = self.__dict__.setdefault("_mean_cache", {})
        uniq, inverse = np.unique(x.ravel(), return_inverse=True)
        for v in uniq.tolist():
            if v not in cache:
                cache[v] = phi_mean_in_y(self.base, self.dist, v)
        return np.array([cache[v] for v in uniq.tolist()])[inverse].reshape(x.shape)
