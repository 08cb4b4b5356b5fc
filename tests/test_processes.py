import math

import numpy as np
import pytest
from helpers import (
    QuadratureRowNormalizedPhi,
    block_row_sums,
    builtin_bucket_configs,
    dels_of_root,
    grid_bucket_sup_table,
    pooled_chisq_pvalue,
    random_tabulated,
    sequential_multitype_poisson,
    sequential_simon_components,
    sequential_v_process_batch,
    simulate_graph_branching_batch,
    simulate_multitype_sizes,
    window_grid_modulus,
)

from fluiddem import (
    AffineInY,
    ConfidenceBased,
    ConstantQ,
    ExpInY,
    GeneralContinuous,
    PiecewiseLinearDensity,
    TabulatedPhi,
    TruncatedBeta,
    Uniform,
    Upward,
    normalize_phi,
    sample,
    substream,
)
from fluiddem.delegation_graph import sample_graph
from fluiddem.mechanisms import RowNormalizedPhi
from fluiddem.processes import (
    BucketModel,
    _bucket_sup_table,
    _grid_modulus,
    build_bucket_model,
    expected_w,
    simulate_delegation_branching,
    simulate_graph_branching,
    simulate_multitype_poisson,
    simulate_simon_components,
    simulate_v_process_batch,
    simulate_w_process_batch,
    subcriticality_factor,
)


# ---------------------------------------------------------------------------
# component growth


def test_simon_single_arrival():
    assert simulate_simon_components(1, 0.5, substream(0)).tolist() == [1]


def test_simon_vanishing_join_probability():
    sizes = simulate_simon_components(100, 1e-9, substream(1))
    assert sizes.tolist() == [1] * 100


def test_simon_sizes_sum_to_n():
    rng = substream(2)
    for _ in range(200):
        n = int(rng.integers(1, 400))
        assert simulate_simon_components(n, 0.5, rng).sum() == n


@pytest.mark.parametrize(
    "n, p, seed",
    [(1, 0.5, 0), (2, 0.5, 1), (2, 0.999, 2), (3, 0.3, 3), (1000, 0.5, 4), (1000, 0.95, 5), (200_000, 0.7, 6)],
)
def test_simon_matches_sequential_oracle(n, p, seed):
    fast_rng, slow_rng = substream(seed), substream(seed)
    fast = simulate_simon_components(n, p, fast_rng)
    slow = sequential_simon_components(n, p, slow_rng)
    assert fast.dtype == slow.dtype
    assert fast.tolist() == slow.tolist()
    assert fast_rng.random() == slow_rng.random()  # same draws consumed


def test_simon_first_component_mean_and_dominance():
    rng = substream(3)
    reps = 10_000
    n = 1000
    first = np.empty(reps)
    fifth = np.empty(reps)
    for r in range(reps):
        sizes = simulate_simon_components(n, 0.5, rng)
        first[r] = sizes[0]
        fifth[r] = sizes[4] if sizes.size >= 5 else 0
    target = expected_w(n, 1, 0.5)
    se = first.std() / math.sqrt(reps)
    assert abs(first.mean() - target) < 3 * se
    # first-born component stochastically dominates the fifth-born one
    grid = np.arange(0, int(first.max()) + 1)
    cdf_first = np.searchsorted(np.sort(first), grid, side="right") / reps
    cdf_fifth = np.searchsorted(np.sort(fifth), grid, side="right") / reps
    assert np.all(cdf_first <= cdf_fifth + 0.02)


# ---------------------------------------------------------------------------
# W and V recurrences


def test_w_no_growth_steps():
    assert simulate_w_process_batch(7, 7, 0.3, 1, substream(4)).tolist() == [1]


def test_w_deterministic_at_p_one():
    # with p = 1 and k = 1 every step increments, so W_n = n
    draws = simulate_w_process_batch(50, 1, 1.0, 100, substream(5))
    assert np.all(draws == 50)


def test_w_mean_small_case():
    draws = simulate_w_process_batch(4, 2, 0.5, 200_000, substream(6))
    se = draws.std() / math.sqrt(draws.size)
    assert abs(draws.mean() - 35.0 / 24.0) < 3 * se


def test_expected_w_examples():
    assert expected_w(9, 9, 0.7) == 1.0
    assert expected_w(4, 2, 0.5) == pytest.approx(35.0 / 24.0, rel=1e-12)
    assert expected_w(1000, 1, 0.5) == pytest.approx(35.68, abs=0.02)


def test_expected_w_matches_product():
    rng = substream(7)
    for _ in range(1000):
        n = int(rng.integers(1, 3000))
        k = int(rng.integers(1, n + 1))
        p = float(rng.random())
        product = float(np.prod(1.0 + p / np.arange(k, n, dtype=float))) if k < n else 1.0
        assert expected_w(n, k, p) == pytest.approx(product, rel=1e-10)


def lgamma_slack(n: int, p: float) -> float:
    # the log-gamma form rounds each term to its own ulp, and those cancel in the sum
    return 1e-13 + 8.0 * math.ulp(math.lgamma(n + p))


def test_expected_w_matches_product_at_large_n():
    rng = substream(17)
    for n in (30, 1_000, 20_000, 100_000):
        for _ in range(20):
            k = int(rng.integers(1, n + 1))
            p = float(rng.random())
            product = float(np.prod(1.0 + p / np.arange(k, n, dtype=float))) if k < n else 1.0
            assert expected_w(n, k, p) == pytest.approx(product, rel=lgamma_slack(n, p))


def test_expected_w_matches_the_gammaln_form():
    from scipy.special import gammaln

    rng = substream(18)
    for _ in range(500):
        n = int(rng.integers(1, 100_001))
        k = int(rng.integers(1, n + 1))
        p = float(rng.random())
        old = math.exp(gammaln(n + p) + gammaln(k) - gammaln(p + k) - gammaln(n))
        assert expected_w(n, k, p) == pytest.approx(old, rel=lgamma_slack(n, p))


def test_v_process_no_steps():
    assert simulate_v_process_batch(0, 3, 1, substream(8)).tolist() == [1]


def test_v_process_uniform_limit():
    reps = 10_000
    n = 20_000
    draws = simulate_v_process_batch(n, 1, reps, substream(9))
    frac = draws / (2 + n)
    se = frac.std() / math.sqrt(reps)
    assert abs(frac.mean() - 0.5) < 3 * se


def test_v_process_beta_mean_many_urns():
    reps = 10_000
    n = 100_000
    draws = simulate_v_process_batch(n, 100, reps, substream(10))
    frac = draws / (101 + n)
    se = frac.std() / math.sqrt(reps)
    assert abs(frac.mean() - 1.0 / 101.0) < 3 * se


@pytest.mark.parametrize("n, start_other", [(1000, 1), (2000, 20)])
def test_v_process_matches_sequential_oracle(n, start_other):
    # the Beta-Binomial law against the urn drawn one addition at a time
    law = simulate_v_process_batch(n, start_other, 10_000, substream(24, start_other))
    loop = sequential_v_process_batch(n, start_other, 10_000, substream(25, start_other))
    assert pooled_chisq_pvalue(law, loop) > 0.001


# ---------------------------------------------------------------------------
# graph branching


def test_graph_branching_no_children():
    for _ in range(20):
        assert simulate_graph_branching(1000, 1e-9, substream(11)) == 1


def test_graph_branching_subcritical_mean_and_tail():
    n = 100_000
    draws = simulate_graph_branching_batch(n, 0.5, 10_000, substream(12))
    se = draws.std() / math.sqrt(draws.size)
    assert abs(draws.mean() - 2.0) < 3 * se
    assert np.all(draws <= 40 * math.log(n))
    assert np.all(draws <= n)


# ---------------------------------------------------------------------------
# delegation branching


def test_delegation_branching_without_delegation():
    mech = ConfidenceBased(ConstantQ(0.0))
    p_vec = sample(Uniform(0.0, 1.0), substream(13), size=50)
    assert simulate_delegation_branching(mech, p_vec, 7, substream(13, 1)) == 1


def test_delegation_branching_bounded_by_pool():
    mech = ConfidenceBased(ConstantQ(1.0))
    p_vec = sample(Uniform(0.0, 1.0), substream(14), size=30)
    for rep in range(50):
        size = simulate_delegation_branching(mech, p_vec, 0, substream(14, rep))
        assert 1 <= size <= 30


def test_delegation_branching_matches_graph_marginal():
    # size distribution equals 1 + dels(root) under direct sampling
    mech = ConfidenceBased(ConstantQ(0.3))
    n = 10_000
    reps = 10_000
    branch = np.empty(reps, dtype=np.int64)
    direct = np.empty(reps, dtype=np.int64)
    for r in range(reps):
        rng = substream(15, r)
        p_vec = sample(Uniform(0.0, 1.0), rng, size=n)
        branch[r] = simulate_delegation_branching(mech, p_vec, 0, rng)
        rng2 = substream(16, r)
        p_vec2 = sample(Uniform(0.0, 1.0), rng2, size=n)
        graph = sample_graph(mech, p_vec2, rng2)
        direct[r] = 1 + dels_of_root(graph, 0)
    assert pooled_chisq_pvalue(branch, direct) > 0.001


def test_delegation_branching_general_continuous_marginal():
    mech = GeneralContinuous(0.4, AffineInY(1.0, 2.0))
    n = 2000
    reps = 4000
    branch = np.empty(reps, dtype=np.int64)
    direct = np.empty(reps, dtype=np.int64)
    for r in range(reps):
        rng = substream(17, r)
        p_vec = sample(Uniform(0.0, 1.0), rng, size=n)
        branch[r] = simulate_delegation_branching(mech, p_vec, 0, rng)
        rng2 = substream(18, r)
        p_vec2 = sample(Uniform(0.0, 1.0), rng2, size=n)
        graph = sample_graph(mech, p_vec2, rng2)
        direct[r] = 1 + dels_of_root(graph, 0)
    assert pooled_chisq_pvalue(branch, direct) > 0.001


@pytest.mark.parametrize(
    "phi",
    [
        TabulatedPhi(((1.0, 2.0, 3.0), (1.5, 2.0, 3.0), (2.0, 2.5, 4.0))),
        TabulatedPhi(((1.0, 2.0, 3.0), (3.0, 3.5, 4.0), (0.5, 1.0, 5.0), (2.0, 2.0, 2.5))),
        AffineInY(1.0, 2.0),
        ExpInY(1.5),
    ],
    ids=["3x3", "4x3", "affine", "exp"],
)
@pytest.mark.parametrize("n", [1, 2, 7, 500, 2000])
def test_pair_weight_row_sums_match_block(phi, n):
    # ties: competencies from a coarse set holding 0, 1 and every grid line
    p_vec = substream(19, n).choice(np.linspace(0.0, 1.0, 13), size=n)
    got = GeneralContinuous(0.4, phi).phi.row_sums(p_vec)
    np.testing.assert_allclose(got, block_row_sums(phi, p_vec), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("mech", [Upward(0.5), ConfidenceBased(ConstantQ(0.4))], ids=["upward", "confidence"])
@pytest.mark.parametrize("n", [1, 7, 500])
def test_rank_and_uniform_row_sums_match_block(mech, n):
    # the indicator's sums are the rank counts; ties in p count as not greater
    p_vec = substream(23, n).choice(np.linspace(0.0, 1.0, 13), size=n)
    assert np.array_equal(mech.phi.row_sums(p_vec), block_row_sums(mech.phi, p_vec))


# ---------------------------------------------------------------------------
# bucket models


def test_bucket_model_one_by_one_closed_form():
    # constant phi: single bucket with the closed-form entry
    from fluiddem import Constant1

    model = build_bucket_model(Constant1(), Uniform(0.0, 1.0), 0.5, 0.05)
    assert model.B == 1
    assert model.pi.tolist() == [1.0]
    assert model.phi_tilde[0, 0] == pytest.approx(1.05)
    expected_entry = 0.5 * 1.05**2 / 0.9 * 1.05
    assert model.M[0, 0] == pytest.approx(expected_entry, rel=1e-12)
    assert model.spectral_radius == pytest.approx(expected_entry, rel=1e-9)


def test_bucket_model_rejects_supercritical_eps():
    from fluiddem import Constant1

    with pytest.raises(ValueError):
        build_bucket_model(Constant1(), Uniform(0.0, 1.0), 0.9, 0.2)
    with pytest.raises(ValueError):
        build_bucket_model(Constant1(), Uniform(0.0, 1.0), 0.5, -0.1)


def test_bucket_model_rejects_unnormalized_phi():
    with pytest.raises(ValueError, match="normalize"):
        build_bucket_model(AffineInY(1.0, 2.0), Uniform(0.0, 1.0), 0.3, 0.05)
    for dist in (Uniform(0.1, 0.7), TruncatedBeta(2.0, 3.0)):
        with pytest.raises(ValueError, match="normalize"):
            build_bucket_model(BENCH_GRID, dist, 0.3, 0.05)


@pytest.mark.parametrize("offset, rejected", [(2e-6, True), (5e-7, False)])
def test_bucket_model_normalization_tolerance_is_1e_6(offset, rejected):
    # a flat table takes the quadrature path, and its y-mean is its value
    phi = TabulatedPhi(((1.0 + offset, 1.0 + offset), (1.0 + offset, 1.0 + offset)))
    if rejected:
        with pytest.raises(ValueError, match="normalize"):
            build_bucket_model(phi, Uniform(0.1, 0.7), 0.3, 0.05)
    else:
        assert build_bucket_model(phi, Uniform(0.1, 0.7), 0.3, 0.05).B == 1


@pytest.mark.parametrize("idx", range(6))
def test_bucket_model_invariants(idx):
    phi, dist, p, eps = builtin_bucket_configs()[idx]
    model = build_bucket_model(phi, dist, p, eps)
    factor = subcriticality_factor(p, eps)
    # row sums against pi reach exactly 1 + eps
    row = model.phi_tilde @ model.pi
    assert np.max(np.abs(row - (1.0 + eps))) < 1e-10
    # pi is an eigenvector of the expected-children matrix
    residual = np.max(np.abs(model.M @ model.pi - factor * model.pi))
    assert residual <= 1e-9
    assert model.spectral_radius < 1.0
    assert model.spectral_radius == pytest.approx(factor, rel=1e-9)
    assert model.spectral_radius == pytest.approx(max(abs(np.linalg.eigvals(model.M))), rel=1e-12)
    assert abs(model.pi.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("idx", range(6))
def test_bucket_sandwich(idx):
    phi, dist, p, eps = builtin_bucket_configs()[idx]
    model = build_bucket_model(phi, dist, p, eps)
    grid = np.linspace(0.0, 1.0, 200)
    vals = np.asarray(phi(grid[:, None], grid[None, :]), dtype=float)
    bucket = np.clip(np.ceil(grid * model.B).astype(int) - 1, 0, model.B - 1)
    sup_vals = model.phi_prime[np.ix_(bucket, bucket)]
    assert np.all(vals <= sup_vals + 1e-12)
    assert np.all(sup_vals <= (1.0 + eps) * vals + 1e-12)


def test_bucket_model_tabulated_phi():
    dist = Uniform(0.0, 1.0)
    phi = normalize_phi(TabulatedPhi(((1.0, 2.0, 4.0), (2.0, 3.0, 3.5))), dist)
    model = build_bucket_model(phi, dist, 0.3, 0.05)
    factor = subcriticality_factor(0.3, 0.05)
    assert np.max(np.abs(model.M @ model.pi - factor * model.pi)) <= 1e-9
    assert model.spectral_radius < 1.0


@pytest.mark.parametrize(
    "dist",
    # the processes-bucket benchmark workload, then a density that is not flat
    [Uniform(0.0, 1.0), PiecewiseLinearDensity(((0.0, 0.5), (0.4, 2.0), (1.0, 1.0)))],
)
def test_bucket_model_matches_quadrature_divisor_oracle(dist):
    table = TabulatedPhi(((1.0, 2.0, 3.0), (1.5, 2.0, 3.0), (2.0, 2.5, 4.0)))
    model = build_bucket_model(RowNormalizedPhi(table, dist), dist, 0.3, 0.05)
    oracle = build_bucket_model(QuadratureRowNormalizedPhi(table, dist), dist, 0.3, 0.05)
    assert model.B == oracle.B == 64
    for name in ("phi_prime", "phi_tilde", "M"):
        np.testing.assert_allclose(getattr(model, name), getattr(oracle, name), rtol=1e-12, atol=0.0)
    assert model.spectral_radius == pytest.approx(oracle.spectral_radius, rel=1e-12, abs=0.0)
    assert model.spectral_radius == pytest.approx(max(abs(np.linalg.eigvals(model.M))), rel=1e-12)


BENCH_GRID = TabulatedPhi(((1.0, 2.0, 3.0), (1.5, 2.0, 3.0), (2.0, 2.5, 4.0)))
# 4x3: the grid lines 1/3 and 2/3 fall inside buckets, and phi peaks in x on the first
PEAKED_GRID = TabulatedPhi(((1.0, 2.0, 3.0), (2.0, 3.0, 5.0), (1.5, 2.0, 2.5), (1.0, 3.0, 4.0)))


def _dense_sup_table(phi, boundaries):
    """Max of phi(x, upper bound of t') over 2,001 x per bucket plus its inner grid lines."""
    knots = np.asarray(phi.x_knots)
    rows = []
    for lo, hi in zip(boundaries[:-1], boundaries[1:]):
        xs = np.concatenate([np.linspace(lo, hi, 2001), knots[(knots > lo) & (knots < hi)]])
        rows.append(np.asarray(phi(xs[:, None], boundaries[None, 1:]), dtype=float).max(axis=0))
    return np.array(rows)


@pytest.mark.parametrize(
    "phi",
    [BENCH_GRID, RowNormalizedPhi(BENCH_GRID, Uniform(0.0, 1.0)), PEAKED_GRID],
    ids=["3x3", "3x3-row-normalized", "4x3"],
)
def test_bucket_sup_table_is_the_dense_maximum(phi):
    boundaries = np.linspace(0.0, 1.0, 65)
    table = _bucket_sup_table(phi, boundaries)
    np.testing.assert_allclose(table, _dense_sup_table(phi, boundaries), rtol=1e-12, atol=0.0)
    # never below the 34-point oracle, up to rounding: an interior point of a
    # cell can round an ulp or two above the larger of the cell's ends
    assert np.all(table >= grid_bucket_sup_table(phi, boundaries, 64) * (1.0 - 1e-15))


@pytest.mark.parametrize(
    "phi",
    [
        BENCH_GRID,
        RowNormalizedPhi(BENCH_GRID, Uniform(0.0, 1.0)),
        RowNormalizedPhi(BENCH_GRID, Uniform(0.1, 0.7)),
        random_tabulated(4, 3, seed=1),
        random_tabulated(7, 5, seed=2),
        RowNormalizedPhi(random_tabulated(5, 9, seed=3), TruncatedBeta(2.0, 3.0)),
    ],
    ids=["3x3", "3x3-row-normalized", "3x3-row-normalized-narrow", "random-4x3", "random-7x5", "random-5x9-beta"],
)
def test_grid_modulus_matches_window_oracle(phi):
    # every B up to 130, so the one-band lattices up to 64 and the lattices of
    # 2 to 5 bands (4,096 // B rows of windows each, the last one partial or
    # not), then larger ones with up to 64 bands, B = 512 the largest the
    # search tries before 1024
    for B in [*range(1, 131), 256, 300, 512]:
        assert _grid_modulus(phi, B) == window_grid_modulus(phi, B), B


def test_grid_modulus_memory_is_bounded():
    # evaluated whole, the B = 1024 lattice traces about 350 MiB; bands of rows keep it small
    import tracemalloc

    phi = RowNormalizedPhi(BENCH_GRID, Uniform(0.0, 1.0))
    phi(0.5, 0.5)  # build the divisor outside the traced call
    tracemalloc.start()
    try:
        _grid_modulus(phi, 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


def test_bucket_model_json_fields():
    import json

    from fluiddem import Constant1

    model = build_bucket_model(Constant1(), Uniform(0.0, 1.0), 0.5, 0.05)
    payload = json.loads(model.to_json())
    for key in ("B", "boundaries", "pi", "phi_prime", "phi_tilde", "eps", "M", "spectral_radius"):
        assert key in payload


# ---------------------------------------------------------------------------
# multi-type Poisson branching


def _singleton_model(entry: float) -> BucketModel:
    one = np.array([1.0])
    return BucketModel(
        B=1,
        boundaries=np.array([0.0, 1.0]),
        pi=one,
        phi_prime=one.reshape(1, 1),
        phi_tilde=one.reshape(1, 1),
        eps=0.05,
        M=np.array([[entry]]),
        spectral_radius=entry,
    )


def test_multitype_zero_matrix():
    model = _singleton_model(0.0)
    assert simulate_multitype_poisson(model, 0, 100, substream(19)) == 1


def test_multitype_subcritical_mean():
    entry = 0.5 * 1.05**3 / 0.9
    model = _singleton_model(entry)
    sizes = simulate_multitype_sizes(model, 0, 100_000, 100_000, substream(20))
    se = sizes.std() / math.sqrt(sizes.size)
    assert abs(sizes.mean() - 1.0 / (1.0 - entry)) < 3 * se


def test_multitype_capped_tail_is_rare():
    phi, dist, p, eps = builtin_bucket_configs()[1]
    model = build_bucket_model(phi, dist, p, eps)
    rng = substream(21)
    starts = rng.choice(model.B, size=20_000, p=model.pi)
    sizes = np.array(
        [simulate_multitype_poisson(model, int(s), 10_000, rng) for s in starts]
    )
    assert np.mean(sizes >= 10_000) <= 1e-3


@pytest.mark.parametrize("supercritical", [False, True])
def test_multitype_matches_sequential_oracle(supercritical):
    # whole generations against one parent at a time; the supercritical
    # singleton reaches its cap in most runs, the bucket model almost never
    if supercritical:
        model, cap, starts = _singleton_model(1.5), 30, np.zeros(4000, dtype=np.int64)
    else:
        model = build_bucket_model(*builtin_bucket_configs()[1])
        cap, starts = 10_000, substream(26).choice(model.B, size=10_000, p=model.pi)
    rng, oracle_rng = substream(26, 1), substream(26, 2)
    generations = [simulate_multitype_poisson(model, int(s), cap, rng) for s in starts]
    sequential = [sequential_multitype_poisson(model, int(s), cap, oracle_rng) for s in starts]
    assert pooled_chisq_pvalue(generations, sequential) > 0.001


def test_delegation_tail_dominated_by_multitype_tail():
    # tail comparison at threshold c*ln(n), c fitted from the multi-type tail
    n = 100_000
    mech = GeneralContinuous(0.3, AffineInY(1.0, 2.0))
    dist = Uniform(0.0, 1.0)
    phi_n = normalize_phi(mech.phi, dist)
    model = build_bucket_model(phi_n, dist, mech.p, 0.05)

    rng = substream(22)
    starts = rng.choice(model.B, size=20_000, p=model.pi)
    mt_sizes = np.array(
        [simulate_multitype_poisson(model, int(s), 10_000, rng) for s in starts]
    )
    threshold = float(np.quantile(mt_sizes, 0.99))
    p_mt = float(np.mean(mt_sizes > threshold))

    reps = 2000
    del_sizes = np.empty(reps)
    for r in range(reps):
        rng_r = substream(23, r)
        p_vec = sample(dist, rng_r, size=n)
        del_sizes[r] = simulate_delegation_branching(mech, p_vec, 0, rng_r)
    p_del = float(np.mean(del_sizes > threshold))
    sigma = math.sqrt(
        p_mt * (1 - p_mt) / mt_sizes.size + max(p_del, 1e-4) * (1 - p_del) / reps
    )
    assert p_del <= p_mt + 3 * sigma
