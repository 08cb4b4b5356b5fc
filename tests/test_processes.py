import math

import numpy as np
import pytest
from helpers import (
    QuadratureRowNormalizedPhi,
    dels_of_root,
    pooled_chisq_pvalue,
    sequential_simon_components,
)

from fluiddem import (
    AffineInY,
    ConfidenceBased,
    ConstantQ,
    GeneralContinuous,
    PiecewiseLinearDensity,
    TabulatedPhi,
    Uniform,
    normalize_phi,
    sample,
    substream,
)
from fluiddem.delegation_graph import sample_graph
from fluiddem.harness import builtin_bucket_configs
from fluiddem.mechanisms import RowNormalizedPhi
from fluiddem.processes import (
    BucketModel,
    build_bucket_model,
    expected_w,
    simulate_delegation_branching,
    simulate_graph_branching,
    simulate_graph_branching_batch,
    simulate_multitype_poisson,
    simulate_multitype_sizes,
    simulate_simon_components,
    simulate_v_process,
    simulate_v_process_batch,
    simulate_w_process,
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
    assert simulate_w_process(7, 7, 0.3, substream(4)) == 1


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


def test_v_process_no_steps():
    assert simulate_v_process(0, 3, substream(8)) == 1


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
