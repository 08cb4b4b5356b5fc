import numpy as np
import pytest
from helpers import (
    component_sizes,
    csv_writer_edges,
    from_edge_csv,
    full_doubling_roots,
    naive_profile,
    pooled_chisq_pvalue,
    row_loop_targets,
    stable_count_greater,
    stats,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from fluiddem import (
    AffineInY,
    ConfidenceBased,
    Constant1,
    ConstantQ,
    ExpInY,
    GeneralContinuous,
    Indicator,
    TabulatedPhi,
    Uniform,
    Upward,
    compute_weights,
    sample,
    substream,
)
from fluiddem.delegation_graph import (
    NO_EDGE,
    DelegationGraph,
    _count_greater,
    forest_roots,
    mixture_targets,
    sample_graph,
    to_edge_csv,
)
from fluiddem.mechanisms import RowNormalizedPhi


def graph_of(*out):
    return DelegationGraph(len(out), np.array(out, dtype=np.int64))


def random_functional_graphs(count, max_n, rng):
    for _ in range(count):
        n = int(rng.integers(1, max_n + 1))
        out = rng.integers(-1, n, size=n)
        out[out == np.arange(n)] = NO_EDGE
        yield DelegationGraph(n, out.astype(np.int64))


# ---------------------------------------------------------------------------
# compute_weights and stats


def test_no_edges():
    profile = compute_weights(graph_of(NO_EDGE, NO_EDGE, NO_EDGE, NO_EDGE, NO_EDGE))
    assert profile.weight.tolist() == [1, 1, 1, 1, 1]
    assert profile.total_weight == 5
    assert profile.max_weight == 1
    assert len(profile.nullified) == 0


def test_chain():
    # 0 -> 1 -> 2, voter 2 votes directly
    profile = compute_weights(graph_of(1, 2, NO_EDGE))
    assert profile.weight.tolist() == [0, 0, 3]
    assert profile.total_weight == 3


def test_two_cycle_with_feeder():
    # 0 <-> 1, and 2 -> 0: everyone nullified
    profile = compute_weights(graph_of(1, 0, 0))
    assert profile.nullified.tolist() == [0, 1, 2]
    assert profile.total_weight == 0
    assert profile.max_weight == 0


def test_stats_examples():
    assert stats(compute_weights(graph_of(NO_EDGE, NO_EDGE, NO_EDGE, NO_EDGE))) == (1, 4, 0)
    assert stats(compute_weights(graph_of(NO_EDGE, 0, 0, 0))) == (4, 4, 0)
    assert stats(compute_weights(graph_of(1, 0))) == (0, 0, 2)


def test_matches_naive_oracle_on_random_graphs():
    rng = substream(42)
    for graph in random_functional_graphs(300, 50, rng):
        _, weight, nullified = naive_profile(graph.out.tolist())
        profile = compute_weights(graph)
        assert profile.weight.tolist() == weight
        assert profile.nullified.tolist() == nullified
        assert profile.total_weight + len(profile.nullified) == graph.n


def adversarial_shapes(n):
    """Chain 0->1->...->n-1, an n-cycle, a chain feeding a 2-cycle, a star."""
    shapes = {"chain": list(range(1, n)) + [NO_EDGE], "star": [NO_EDGE] + [0] * (n - 1)}
    if n >= 2:
        shapes["cycle"] = [(i + 1) % n for i in range(n)]
        shapes["chain into 2-cycle"] = list(range(1, n)) + [n - 2]
    return shapes


@pytest.mark.parametrize("n", [1, 2, 3, 1023, 1024, 1025])
def test_adversarial_shapes_match_naive_oracle(n):
    # at n = 1023 and 1024 the chain's walk from voter 0 needs every one of the
    # (n-1).bit_length() = 10 doubling rounds the kernel allows
    for name, out in adversarial_shapes(n).items():
        profile = compute_weights(graph_of(*out))
        edges = np.array(out, dtype=np.int64)
        assert np.array_equal(forest_roots(edges)[0], full_doubling_roots(edges)), name
        _, weight, nullified = naive_profile(out)
        assert profile.weight.tolist() == weight, name
        assert profile.nullified.tolist() == nullified, name
        assert profile.max_weight == max(weight), name
        assert profile.total_weight == sum(weight), name


def test_delegation_counts_are_read_off_the_weights():
    # the six-step sampler reads dels off the weights: its peak, and its value at a direct voter
    rng = substream(44)
    graphs = [graph.out.tolist() for graph in random_functional_graphs(300, 50, rng)]
    graphs += [out for n in (1, 2, 3, 1024) for out in adversarial_shapes(n).values()]
    for out in graphs:
        profile = compute_weights(graph_of(*out))
        dels = np.array(naive_profile(out)[0])
        direct = np.array(out) == NO_EDGE
        assert dels.max() == max(profile.max_weight - 1, 0), out
        assert np.array_equal(dels[direct], profile.weight[direct] - 1), out


def test_forest_roots_match_full_doubling_with_cycles():
    # walks into a cycle never leave the live set; their roots must still be
    # the ones full-array doubling reaches after the same number of rounds
    rng = substream(43)
    for n in [1, 2, 3, 50, 1000, 1023, 1024, 1025, 10_000, 100_000]:
        # a random functional graph; then a chain through half of the voters
        # that ends in a 3-cycle, the others direct or delegating at random
        random_out = rng.integers(-1, n, size=n)
        chained = np.where(rng.random(n) < 0.5, NO_EDGE, rng.integers(0, n, size=n))
        chain = rng.permutation(n)[: n // 2 + 1]
        chained[chain[:-1]] = chain[1:]
        if chain.size >= 3:
            chained[chain[-1]] = chain[-3]
        for out in (random_out, chained):
            out[out == np.arange(n)] = NO_EDGE
            root, unsettled = forest_roots(out)
            assert np.array_equal(root, full_doubling_roots(out)), n
            assert np.array_equal(unsettled, np.flatnonzero(out[root] >= 0)), n


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_weight_conservation(data):
    n = data.draw(st.integers(1, 40))
    out = data.draw(st.lists(st.integers(-1, n - 1), min_size=n, max_size=n))
    out = [NO_EDGE if t == i else t for i, t in enumerate(out)]
    profile = compute_weights(graph_of(*out))
    assert profile.total_weight + len(profile.nullified) == n
    assert profile.total_weight == profile.weight.sum() <= n
    # positive weight only on non-delegating voters
    for i in range(n):
        if profile.weight[i] > 0:
            assert out[i] == NO_EDGE


def test_graph_validation():
    with pytest.raises(ValueError):
        graph_of(0)  # self-delegation
    with pytest.raises(ValueError):
        graph_of(5, NO_EDGE)  # out of range
    with pytest.raises(ValueError):
        DelegationGraph(0, np.array([], dtype=np.int64))


@pytest.mark.parametrize(
    "out, message",
    [
        ((NO_EDGE, 0, 2, 1), "self-delegation is not allowed"),  # a self-loop at index 2
        ((1, NO_EDGE, 0, 3), "self-delegation is not allowed"),  # ... at the last index
        ((1, NO_EDGE, 4, NO_EDGE), "out-edges must point at voters"),  # past the last voter
        ((1, NO_EDGE, -2, NO_EDGE), "out-edges must point at voters"),  # below NO_EDGE
        ((1, 2), "out must have one entry per voter"),
    ],
)
def test_graph_validation_names_the_fault(out, message):
    n = 3 if len(out) == 2 else len(out)
    with pytest.raises(ValueError, match=message):
        DelegationGraph(n, np.array(out, dtype=np.int64))


# ---------------------------------------------------------------------------
# sampling


def test_no_delegation_mechanism_yields_empty_graph():
    rng = substream(1)
    p_vec = sample(Uniform(0.0, 1.0), rng, size=200)
    graph = sample_graph(ConfidenceBased(ConstantQ(0.0)), p_vec, rng)
    assert np.all(graph.out == NO_EDGE)


def test_upward_max_competence_never_delegates():
    rng = substream(2)
    for _ in range(200):
        p_vec = sample(Uniform(0.0, 1.0), rng, size=30)
        graph = sample_graph(Upward(0.9), p_vec, rng)
        assert graph.out[int(np.argmax(p_vec))] == NO_EDGE


def test_upward_edges_point_upward_and_acyclic():
    rng = substream(3)
    for _ in range(300):
        p_vec = sample(Uniform(0.0, 1.0), rng, size=100)
        graph = sample_graph(Upward(0.5), p_vec, rng)
        delegators = np.where(graph.out != NO_EDGE)[0]
        assert np.all(p_vec[graph.out[delegators]] > p_vec[delegators])
        assert len(compute_weights(graph).nullified) == 0


def test_upward_sampler_matches_sort_searchsorted_on_ties():
    levels = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    rng = substream(60)
    for k in range(200):
        n = 1 if k < 5 else int(rng.integers(2, 300))
        p_vec = levels[rng.integers(0, levels.size, size=n)]
        seed = int(rng.integers(0, 2**31))
        graph = sample_graph(Upward(0.8), p_vec, substream(seed))
        # reference: the sampler's former sort + searchsorted construction
        ref_rng = substream(seed)
        out = np.full(n, NO_EDGE, dtype=np.int64)
        u_delegate = ref_rng.random(n)
        asc = np.sort(p_vec)
        greater = n - np.searchsorted(asc, p_vec, side="right")
        desc_order = stable_count_greater(p_vec)[0]
        delegators = np.where((u_delegate < 0.8) & (greater > 0))[0]
        ranks = np.floor(ref_rng.random(delegators.size) * greater[delegators]).astype(np.int64)
        ranks = np.minimum(ranks, greater[delegators] - 1)
        out[delegators] = desc_order[ranks]
        assert graph.out.tolist() == out.tolist()
        order, count = _count_greater(p_vec)
        assert order.tolist() == desc_order.tolist()
        assert count.tolist() == greater.tolist()


def test_count_greater_matches_stable_sort_at_scale():
    rng = substream(61)
    n = 200_000
    vectors = {
        "n = 1": rng.random(1),
        "all equal": np.full(1000, 0.37),
        "all zero": np.zeros(n),
        "no ties": rng.random(n),
        "five levels": np.array([0.0, 0.25, 0.5, 0.75, 1.0])[rng.integers(0, 5, size=n)],
        "three decimals": np.round(rng.random(n), 3),
        "half zeros": np.where(rng.random(n) < 0.5, 0.0, rng.random(n)),
    }
    for name, p_vec in vectors.items():
        order, count = _count_greater(p_vec)
        ref_order, ref_count = stable_count_greater(p_vec)
        assert np.array_equal(order, ref_order), name
        assert np.array_equal(count, ref_count), name


def _nextafter_chain(start, length):
    """start and the length - 1 floats above it, each one ulp from the last."""
    chain = [start]
    for _ in range(length - 1):
        chain.append(np.nextafter(chain[-1], np.inf))
    return np.array(chain)


def _bit_level_vectors():
    rng = substream(62)
    chain = _nextafter_chain(0.3, 64)  # differ only in bits below the sort's low bits
    return {
        "signed": rng.standard_normal(5000),
        "signed, mixed -0.0 and 0.0": rng.choice([-1.5, -0.0, 0.0, 0.25, -2.0**-1074], size=5000),
        "one-ulp chain": rng.permutation(np.tile(chain, 40)),
        "one-ulp chain, negative": -rng.permutation(np.tile(chain, 40)),
        # runs of equal high bits, each holding several exact-tie groups,
        # next to the tie groups of other runs
        "tie groups across run boundaries": rng.choice(
            np.concatenate((chain[::7], _nextafter_chain(0.7, 3), [0.5, 0.9])), size=3000
        ),
        "subnormals": rng.choice(
            [0.0, 2.0**-1074, 2.0**-1073, 3 * 2.0**-1074, 2.0**-1030, 2.0**-1022, -2.0**-1074],
            size=4000,
        ),
        "subnormal chain": rng.permutation(_nextafter_chain(0.0, 600)),
        **{f"n = {n}": rng.random(n) for n in (1, 2, 3, 1024, 1025, 2**16, 2**16 + 1)},
        "n = 2^k + 1, two levels": rng.choice([0.25, 0.75], size=2**12 + 1),
    }


@pytest.mark.parametrize("name, p_vec", list(_bit_level_vectors().items()))
def test_count_greater_matches_stable_sort_at_the_bit_level(name, p_vec):
    order, count = _count_greater(p_vec)
    ref_order, ref_count = stable_count_greater(p_vec)
    assert np.array_equal(order, ref_order)
    assert np.array_equal(count, ref_count)


def _sign_and_tie_pool():
    """Negatives, -0.0 and +0.0, subnormals, and a one-ulp chain and its
    negation, whose members differ only in their last 4 bits: from n = 9 on
    the sort drops those bits, so repeated draws tie inside one high-bit run."""
    up = _nextafter_chain(0.3, 6)
    return np.concatenate(
        (up, -up, [-0.0, 0.0, 2.0**-1074, 3 * 2.0**-1074, -2.0**-1074, -1.0, 1.0, 0.5])
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 256, 257, 4096, 4097])
def test_count_greater_matches_stable_sort_where_the_low_bits_widen(n):
    # (n - 1).bit_length() low bits carry the voter: one more at each 2^k + 1
    rng = substream(63, n)
    pool = _sign_and_tie_pool()
    for p_vec in (pool[rng.integers(0, pool.size, size=n)], rng.standard_normal(n)):
        order, count = _count_greater(p_vec)
        ref_order, ref_count = stable_count_greater(p_vec)
        assert np.array_equal(order, ref_order)
        assert np.array_equal(count, ref_count)


def test_confidence_based_targets_uniform():
    rng = substream(4)
    n_samples = 100_000
    counts = np.zeros((3, 3))
    p_vec = np.array([0.2, 0.5, 0.8])
    mech = ConfidenceBased(ConstantQ(1.0))
    for _ in range(n_samples):
        graph = sample_graph(mech, p_vec, rng)
        assert np.all(graph.out != NO_EDGE)
        for i in range(3):
            counts[i, graph.out[i]] += 1
    for i in range(3):
        others = [j for j in range(3) if j != i]
        freq = counts[i, others] / n_samples
        sigma = np.sqrt(0.25 / n_samples)
        assert np.all(np.abs(freq - 0.5) < 3 * sigma)


def test_general_continuous_fast_path_matches_row_path():
    # bilinear grid ((1,3),(1,3)) interpolates to exactly 1 + 2y
    affine = GeneralContinuous(0.999, AffineInY(1.0, 2.0))
    tabulated = GeneralContinuous(0.999, TabulatedPhi(((1.0, 3.0), (1.0, 3.0))))
    p_vec = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
    reps = 40_000
    counts = np.zeros((2, 5))
    for k, mech in enumerate((affine, tabulated)):
        rng = substream(50 + k)
        for _ in range(reps):
            graph = sample_graph(mech, p_vec, rng)
            t = graph.out[0]
            if t != NO_EDGE:
                counts[k, t] += 1
    freq = counts[:, 1:] / counts.sum(axis=1, keepdims=True)
    # both samplers draw target ~ (1 + 2 p_j) among j != 0
    weights = 1.0 + 2.0 * p_vec[1:]
    expected = weights / weights.sum()
    for k in range(2):
        assert np.all(np.abs(freq[k] - expected) < 4 * np.sqrt(expected * (1 - expected) / reps))


# the benchmark's 3 x 3 grid, and a 4 x 3 grid whose rows cross
BENCH_GRID = TabulatedPhi(((1.0, 2.0, 3.0), (1.5, 2.0, 3.0), (2.0, 2.5, 4.0)))
CROSSING_GRID = TabulatedPhi(((1.0, 2.0, 3.0), (3.0, 3.5, 4.0), (0.5, 1.0, 5.0), (2.0, 2.0, 2.5)))


@pytest.mark.parametrize("phi", [BENCH_GRID, CROSSING_GRID], ids=["3x3", "4x3"])
@pytest.mark.parametrize("scenario", ["all", "subset", "few", "into"])
def test_mixture_targets_exact_law(phi, scenario):
    # delegators at x = 0, on an interior grid line, off the grid and at 1
    line = 1.0 / (len(phi.values) - 1)
    p_vec = np.array([0.0, line, 0.45, 1.0, 0.05, 0.5, 0.5, 0.81, 0.93, 0.2])
    if scenario == "all":  # sample_graph: any voter but oneself
        allowed, forbid_self = np.arange(10), True
    elif scenario == "subset":  # six-step step 5: delegators outside M
        allowed, forbid_self = np.array([0, 1, 2, 3, 5, 8]), True
    elif scenario == "few":  # step 5 again: one's own weight is a large share
        allowed, forbid_self = np.array([0, 2, 3]), True
    else:  # six-step step 6: into M, which holds no delegator
        allowed, forbid_self = np.array([4, 5, 6, 7, 9]), False
    delegators = np.intersect1d(allowed, np.arange(4)) if forbid_self else np.arange(4)
    reps = 100_000
    sources = np.repeat(delegators, reps)
    targets = mixture_targets(phi, p_vec, sources, allowed, substream(60), forbid_self)
    for i in delegators.tolist():
        others = allowed[allowed != i]
        w = phi(p_vec[i], p_vec[others])
        expected = w / w.sum()
        got = targets[sources == i]
        freq = np.array([np.count_nonzero(got == j) for j in others.tolist()]) / reps
        assert np.count_nonzero(got == i) == 0
        assert np.all(np.abs(freq - expected) < 4 * np.sqrt(expected * (1 - expected) / reps))


def test_mixture_targets_match_row_loop():
    # two-sample check of the kernel against the per-delegator loop it replaced
    p_vec = np.round(sample(Uniform(0.0, 1.0), substream(61), size=30), 2)
    sources = np.repeat(np.arange(30), 1000)
    allowed = np.arange(30)
    kernel = mixture_targets(BENCH_GRID, p_vec, sources, allowed, substream(62))
    loop = row_loop_targets(BENCH_GRID, p_vec, sources, allowed, substream(63))
    assert pooled_chisq_pvalue(sources * 30 + kernel, sources * 30 + loop) > 0.001


@pytest.mark.parametrize("phi", [AffineInY(1.0, 2.0), ExpInY(1.5, 0.5), Constant1()])
def test_one_row_phi_draws_as_before(phi):
    # the x-independent sampler before the mixture kernel: one shared cumsum,
    # self-hits redrawn, no row-pick draw; graphs must match it exactly
    mech = GeneralContinuous(0.4, phi)
    for n, seed in ((2, 64), (3, 65), (50, 66), (4000, 67)):
        p_vec = sample(Uniform(0.0, 1.0), substream(seed, 0), size=n)
        rng = substream(seed, 1)
        delegators = np.where(rng.random(n) < mech.p)[0]
        cum = np.cumsum(phi(0.0, p_vec))
        t = np.searchsorted(cum, rng.random(delegators.size) * cum[-1], side="right")
        bad = np.where(t == delegators)[0]
        while bad.size:
            t[bad] = np.searchsorted(cum, rng.random(bad.size) * cum[-1], side="right")
            bad = bad[t[bad] == delegators[bad]]
        expected = np.full(n, NO_EDGE)
        expected[delegators] = t
        assert np.array_equal(sample_graph(mech, p_vec, substream(seed, 1)).out, expected)


@pytest.mark.parametrize("phi", [BENCH_GRID, AffineInY(1.0, 2.0)])
def test_mixture_targets_degenerate_sources_get_no_edge(phi):
    # n = 1, and a lone delegator allowed only itself (six-step step 5 with a
    # single delegator outside M)
    lone = mixture_targets(phi, np.array([0.4]), np.array([0]), np.array([0]), substream(68))
    assert lone.tolist() == [NO_EDGE]
    p_vec = np.array([0.1, 0.6, 0.35, 0.9])
    step5 = mixture_targets(phi, p_vec, np.array([2]), np.array([2]), substream(69))
    assert step5.tolist() == [NO_EDGE]
    mixed = mixture_targets(phi, p_vec, np.array([2, 3]), np.array([2, 3]), substream(70))
    assert mixed.tolist() == [3, 2]


def test_x_dependent_phi_without_grid_rows_is_rejected():
    p_vec = np.array([0.2, 0.7])
    for phi in (Indicator(), RowNormalizedPhi(BENCH_GRID, Uniform(0.0, 1.0))):
        with pytest.raises(TypeError):
            phi.row_mixture(p_vec)
        with pytest.raises(TypeError):
            mixture_targets(phi, p_vec, np.array([0]), np.arange(2), substream(71))


def test_degenerate_pair_weights_vote_directly():
    # the sole positive-weight target of every voter is itself: nobody delegates
    p_vec = np.array([0.5])
    graph = sample_graph(GeneralContinuous(0.9, AffineInY(1.0, 1.0)), p_vec, substream(7))
    assert graph.out.tolist() == [NO_EDGE]


def test_sample_graph_rejects_empty():
    with pytest.raises(ValueError):
        sample_graph(Upward(0.5), np.array([]), substream(8))


def test_component_sizes_partition_voters():
    rng = substream(9)
    p_vec = sample(Uniform(0.0, 1.0), rng, size=500)
    graph = sample_graph(Upward(0.5), p_vec, rng)
    sizes = component_sizes(compute_weights(graph))
    assert sizes.sum() == 500
    assert np.all(sizes >= 1)


# ---------------------------------------------------------------------------
# CSV export


def test_edge_csv_roundtrip(tmp_path):
    graph = graph_of(2, NO_EDGE, 1, NO_EDGE)
    path = tmp_path / "edges.csv"
    to_edge_csv(graph, path)
    text = path.read_text().splitlines()
    assert text[0] == "voter,target"
    assert text[1] == "0,2"
    assert text[2] == "1,"
    loaded = from_edge_csv(path)
    assert loaded.n == graph.n
    assert np.array_equal(loaded.out, graph.out)


def test_edge_csv_bytes_match_csv_writer(tmp_path):
    sampled = sample_graph(ConfidenceBased(ConstantQ(0.5)), substream(8).random(2_000), substream(9))
    assert np.count_nonzero(sampled.out == NO_EDGE) > 0
    for graph in (graph_of(2, NO_EDGE, 1, NO_EDGE), graph_of(NO_EDGE), sampled):
        to_edge_csv(graph, tmp_path / "fast.csv")
        csv_writer_edges(graph, tmp_path / "oracle.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


@pytest.mark.parametrize("n", [1, 9, 10, 11, 99, 101, 1_001, 10_001])
def test_edge_csv_bytes_at_digit_widths(tmp_path, n):
    # n - 1 sets the digit width, and 10^k + 1 voters leave one row at the widest;
    # all direct, sampled, and all delegating (one cycle through every voter)
    graphs = [
        graph_of(*([NO_EDGE] * n)),
        sample_graph(ConfidenceBased(ConstantQ(0.5)), substream(8, n).random(n), substream(9, n)),
    ]
    if n > 1:
        graphs.append(DelegationGraph(n, (np.arange(n) + 1) % n))
    for graph in graphs:
        to_edge_csv(graph, tmp_path / "fast.csv")
        csv_writer_edges(graph, tmp_path / "oracle.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
